"""Activation rows for Rete runs.

An *activation* (paper Section 2.2) is the combined act of storing a
token in a memory node and running the associated two-input node test.
While a reader keeps the log, a network numbers its activations in
pre-order (an activation's id is assigned when it starts, before any
of its successors) and writes one row per activation to its
:class:`ActivationLog`: the parent's id, the tag byte (``TAG_*`` bits)
and the bucket key (its node id and values) -- the paper's Fig 4-1
trace record.  The rows are the only form the activations take: the
trace recorder compiles simulator input straight from them, and
``SectionTrace.stats()`` reads the Table 5-2 counts off the compiled
tables.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Tuple

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

    Rows are written only while a reader (a trace recorder, through
    the network's ``keep_log(reader)``) is alive, as counted in
    ``readers``; with none, the log stays empty (and the kernel numbers
    nothing).  Once the last reader is gone the log stops keeping rows,
    and the engine drops the rows at its next wave.
    """

    __slots__ = ("start", "parents", "tags", "nodes", "keys", "readers")

    def __init__(self) -> None:
        #: the act id of row 0 (ids count from 1)
        self.start = 1
        self.parents: List[Optional[int]] = []
        self.tags = bytearray()
        self.nodes: List[int] = []
        self.keys: List[tuple] = []
        #: how many live readers keep the rows
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
