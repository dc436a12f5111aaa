"""Activation rows, activation events and aggregate statistics for Rete
runs.

An *activation* (paper Section 2.2) is the combined act of storing a
token in a memory node and running the associated two-input node test.
While anything listens, a network numbers its activations in pre-order
(an activation's id is assigned when it starts, before any of its
successors) and writes one row per activation to its
:class:`ActivationLog`: the parent's id, the tag byte (``TAG_*`` bits)
and the bucket key (its node id and values).  The trace recorder
compiles simulator input straight from those rows.  Observers receive
the same activations as :class:`ActivationEvent` objects in post-order
(an activation after its whole subtree), replayed from the log once
per wave (:meth:`ActivationLog.replay`); :class:`ActivationCounter`
aggregates them into the left/right totals of the paper's Table 5-2.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Dict, List, Optional, Tuple

from .hashing import BucketKey

#: Bits of a tag byte: one byte per activation holding its kind, side
#: and sign; 0 marks a gap between sparse act_ids in a compiled cycle.
#: ``code >= TAG_TERMINAL`` tells a terminal.
TAG_MINUS = 1
TAG_LEFT = 2
TAG_JOIN = 4
TAG_NEGATIVE = 8
TAG_TERMINAL = 12
#: the kind bits of a tag byte (``code & KIND_BITS``)
KIND_BITS = 12

_KIND_CODE = {"join": TAG_JOIN, "negative": TAG_NEGATIVE,
              "terminal": TAG_TERMINAL}
#: tag-byte kind bits -> node kind name
KIND_NAMES = {code: kind for kind, code in _KIND_CODE.items()}


def _tag_code(kind: str, side: str, tag: str) -> int:
    """The tag byte of an activation.  Unknown kinds count as joins,
    unknown sides as right and any tag but ``"+"`` as a deletion: what
    the simulators always did with them."""
    return (_KIND_CODE.get(kind, TAG_JOIN)
            | (TAG_LEFT if side == "left" else 0)
            | (0 if tag == "+" else TAG_MINUS))


class _TagCodes(dict):
    """``(kind, side, tag)`` -> tag byte: one lookup for the valid
    triples, :func:`_tag_code` for anything else."""

    def __missing__(self, triple: Tuple[str, str, str]) -> int:
        return _tag_code(*triple)


TAG_CODES = _TagCodes(
    ((kind, side, tag), _tag_code(kind, side, tag))
    for kind in _KIND_CODE for side in ("left", "right")
    for tag in ("+", "-"))


@dataclass(slots=True)
class ActivationEvent:
    """One token/wme arrival at a two-input or terminal node.

    Attributes
    ----------
    act_id:
        Serial number within the network's lifetime; children always have
        larger ids than their parent.
    parent_id:
        The activation whose matching produced this one, or None for root
        activations generated directly by a wme change (the constant-test
        outputs of paper Section 3.2 step 2).
    node_kind:
        ``"join"``, ``"negative"`` or ``"terminal"``.
    side:
        ``"left"`` or ``"right"`` — which memory the arriving item is
        stored into.  Terminal arrivals are ``"left"`` by convention.
    tag:
        ``"+"`` or ``"-"``.
    key:
        The hash-bucket key (node id + equality-test values).
    n_successors:
        Number of successor activations this one generated (16 µs each in
        the paper's cost model).
    """

    act_id: int
    parent_id: Optional[int]
    node_id: int
    node_label: str
    node_kind: str
    side: str
    tag: str
    key: BucketKey
    n_successors: int = 0


class ActivationLog:
    """A network's activations as rows, in act-id order.

    Row ``i`` is the activation numbered ``start + i``: while the log is
    written every activation numbered gets its row as it is numbered,
    so the rows are contiguous and in the match engines' pre-order
    (an activation before its successors).  The columns are
    ``parents`` (the parent's act id, None for a root), ``tags`` (one
    tag byte per row), ``nodes`` (the node id) and ``keys`` (the
    bucket key's value tuple, as the engine stored it; ``()`` for a
    key-less bucket).  Node and values are separate columns so that a
    row allocates nothing.

    Rows outlive the wave that wrote them only while a reader (a trace
    recorder, through the network's ``keep_log(reader)``) is alive, as
    counted in ``readers``; until then they exist just long enough to
    be replayed to observers, and the log stays empty.  Once the last
    reader is gone the log stops keeping rows, and the engine drops
    the rows at its next wave (never in the middle of one, where
    observers still need them).
    """

    __slots__ = ("start", "parents", "tags", "nodes", "keys", "readers")

    def __init__(self) -> None:
        #: the act id of row 0 (ids count from 1)
        self.start = 1
        self.parents: List[Optional[int]] = []
        self.tags = bytearray()
        self.nodes: List[int] = []
        self.keys: List[tuple] = []
        #: how many live readers keep rows past the wave that wrote them
        self.readers = 0

    @property
    def end(self) -> int:
        """The act id the next row gets."""
        return self.start + len(self.tags)

    def add(self, parent: Optional[int], code: int, node_id: int,
            values: tuple) -> None:
        """Append one row (the reference engine's path; the kernel
        appends to the columns itself)."""
        self.parents.append(parent)
        self.tags.append(code)
        self.nodes.append(node_id)
        self.keys.append(values)

    def keep(self, reader: object) -> None:
        """Keep every row written from now on for as long as *reader*
        lives (rows left by readers that are gone are dropped first)."""
        if not self.readers:
            self.drop()
        self.readers += 1
        weakref.finalize(reader, self._release)

    def _release(self) -> None:
        self.readers -= 1

    def drop(self) -> None:
        """Forget every row; the next row keeps its act id."""
        self.start = self.end
        self.parents.clear()
        self.tags.clear()
        self.nodes.clear()
        self.keys.clear()

    def replay(self, start: int, labels: Dict[int, str],
               observers: List[Callable[[ActivationEvent], None]]) -> None:
        """Deliver the rows from act id *start* on to *observers* as
        :class:`ActivationEvent` objects in post-order, then drop them
        unless a reader keeps them.

        The rows must be whole walks (a wave's): each row's parent is
        then an earlier row still open, and an activation is delivered
        once the next row is not in its subtree.  *labels* maps node
        ids to node labels.
        """
        first = start - self.start
        rows = zip(count(start), self.parents[first:], self.tags[first:],
                   self.nodes[first:], self.keys[first:])
        if not self.readers:
            self.drop()
        open_events: List[ActivationEvent] = []
        for act_id, parent, code, node_id, values in rows:
            while open_events and open_events[-1].act_id != parent:
                event = open_events.pop()
                for observer in observers:
                    observer(event)
            if open_events:
                open_events[-1].n_successors += 1
            open_events.append(ActivationEvent(
                act_id, parent, node_id, labels[node_id],
                KIND_NAMES[code & KIND_BITS],
                "left" if code & TAG_LEFT else "right",
                "-" if code & TAG_MINUS else "+",
                BucketKey(node_id, values)))
        while open_events:
            event = open_events.pop()
            for observer in observers:
                observer(event)


@dataclass
class ActivationCounter:
    """Observer accumulating the Table 5-2 style counts.

    Counts *two-input node* activations only (join + negative): the paper
    counts left/right activations at two-input nodes; terminal arrivals
    are instantiation deliveries, not memory activations.
    """

    left: int = 0
    right: int = 0
    terminal: int = 0
    successors: int = 0
    by_node: Dict[int, int] = field(default_factory=dict)

    def __call__(self, event: ActivationEvent) -> None:
        if event.node_kind == "terminal":
            self.terminal += 1
            return
        if event.side == "left":
            self.left += 1
        else:
            self.right += 1
        self.successors += event.n_successors
        self.by_node[event.node_id] = self.by_node.get(event.node_id, 0) + 1

    @property
    def total(self) -> int:
        """Total two-input node activations (left + right)."""
        return self.left + self.right

    def left_fraction(self) -> float:
        """Fraction of activations that are left activations."""
        return self.left / self.total if self.total else 0.0

    def summary(self) -> str:
        """One-line summary in the Table 5-2 format."""
        lf = 100.0 * self.left_fraction()
        return (f"left={self.left} ({lf:.0f}%)  "
                f"right={self.right} ({100 - lf:.0f}%)  "
                f"total={self.total}")
