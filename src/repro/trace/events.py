"""Trace event model: the simulator's input (paper Section 4, Figure 4-1).

A *section trace* records, for a run of consecutive MRA cycles, every
hash-table activation the Rete network performed: which node, which side
(left/right memory), add or delete, which bucket, and which successor
activations it generated.  The paper's simulator consumes exactly this —
"a detailed trace of the activity of the hash-table used for the Rete
network" — and so does ours, which is what makes recorded and synthetic
traces interchangeable.

A cycle *is* one compiled table, :class:`CycleKeyIndex`, and
:meth:`CycleKeyIndex.from_columns` is the one compile behind it.  The
recorder compiles each cycle straight from the match engine's
activation log (one row per activation, already in act-id order: parent
act id, tag byte, node id, key values).  Every other producer — the
paper-section generators, synthetic streams, the trace transforms, the
text reader and the shrinker — appends the same columns to one
:class:`TraceBuilder`, and every consumer reads the table.
:class:`TraceActivation` objects are a view of a table built only for
the object oracle :mod:`repro.mpc._reference` and for tests.  The
tag-byte bits (``TAG_*``) are the match engines', re-exported here.

Streaming traces
----------------
The simulator does not actually need a materialized
:class:`SectionTrace`: any object with a ``name`` attribute, a
``total_activations()`` method and an ``__iter__`` yielding *trace
entries* — :class:`CycleTrace` objects or :class:`IdleRun` markers —
works, and must be **re-iterable** (every ``__iter__`` call starts a
fresh pass) so sweeps can replay it per grid point.  That is what lets
synthetic workloads with 10⁶+ activations flow through the engine
without ever existing in memory at once (see
:class:`repro.workloads.synthetic.SyntheticStream` and
:class:`repro.trace.format.FileTraceStream`).  :func:`iter_cycles`
expands entries into plain cycles for consumers that need the exact
per-cycle view.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, fields
from itertools import chain, compress, count, repeat
from operator import gt, is_
from typing import (Dict, Hashable, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from ..obs.spans import CONTROL
from ..ops5.values import Value
from ..rete.hashing import BucketKey, stable_hash
# The tag-byte bits are the match engines' (re-exported here for the
# simulators and executors that read compiled cycles).
from ..rete.stats import (KIND_BITS, KIND_NAMES, TAG_CODES,  # noqa: F401
                          TAG_JOIN, TAG_LEFT, TAG_MINUS, TAG_NEGATIVE,
                          TAG_TERMINAL)

#: Sides of a two-input node activation.
LEFT = "left"
RIGHT = "right"

#: Node kinds appearing in traces.
KIND_JOIN = "join"
KIND_NEGATIVE = "negative"
KIND_TERMINAL = "terminal"

#: Per-side add/delete charge is decided by the cost model; terminal
#: activations represent instantiations sent to the control processor.
VALID_SIDES = (LEFT, RIGHT)
VALID_TAGS = ("+", "-")
VALID_KINDS = (KIND_JOIN, KIND_NEGATIVE, KIND_TERMINAL)


@dataclass(slots=True, frozen=True)
class TraceActivation:
    """One node activation in the trace: a row of a cycle's table, as
    :meth:`CycleKeyIndex.view` shows it to the object oracle and tests.

    Attributes
    ----------
    act_id:
        Unique within the cycle; successors always have larger ids than
        the activation that generated them.
    parent_id:
        The generating activation, or None for a *root* — a token
        produced directly by the constant tests from the cycle's wme
        changes (Section 3.2 step 2).
    node_id / kind:
        The destination two-input node (or terminal).
    side:
        Which memory the token is stored into; right activations stay
        where the wme broadcast put them, left activations travel.
    tag:
        "+" add or "-" delete.
    key:
        The hash-bucket key: (node id, equality-test values).
    successors:
        act_ids of the activations this one generated (16 µs each under
        the paper's cost model).
    """

    act_id: int
    parent_id: Optional[int]
    node_id: int
    kind: str
    side: str
    tag: str
    key: BucketKey
    successors: Tuple[int, ...] = ()


#: The valid ``(kind, side, tag)`` triples -> tag byte, and back.
_CODES: Dict[Tuple[str, str, str], int] = dict(TAG_CODES)
_TRIPLES = {code: triple for triple, code in _CODES.items()}

#: Tag byte -> 1 for a terminal, for a two-input activation (what the
#: per-processor counters count), and for a left two-input activation;
#: 0 for a gap.  ``bytes.translate`` tables.
_IS_TERMINAL = bytes(code >= TAG_TERMINAL for code in range(256))
_IS_COUNTED = bytes(0 < code < TAG_TERMINAL for code in range(256))
_IS_LEFT = bytes(0 < code < TAG_TERMINAL and code & TAG_LEFT > 0
                 for code in range(256))


def _typecode(limit: int) -> str:
    """The narrowest unsigned array type holding ``range(limit)``."""
    return "B" if limit <= 0x100 else "H" if limit <= 0x10000 else "I"


def _positions(mask: bytes) -> array:
    """The positions of *mask*'s nonzero bytes, in the narrowest
    unsigned array (collected through ``bytes`` while they fit one)."""
    picked = compress(range(len(mask)), mask)
    if len(mask) <= 0x100:
        return array("B", bytes(picked))
    return array(_typecode(len(mask)), picked)


def _compact(values: Iterable[int], limit: int) -> array:
    """*values* (all in ``range(limit)``) in the narrowest unsigned
    array (through ``bytes`` when they fit one: the fast conversion)."""
    code = _typecode(limit)
    return array(code, bytes(values) if code == "B" else values)


def _signed_typecode(n_procs: int) -> str:
    """The narrowest signed array type holding ``range(-1, n_procs)``:
    every processor and :data:`~repro.obs.spans.CONTROL`."""
    return "b" if n_procs <= 0x80 else "h" if n_procs <= 0x8000 else "l"


class CycleRoute:
    """One cycle routed under one mapping (:meth:`CycleKeyIndex.route`).

    Attributes
    ----------
    dest:
        ``dest[pos]`` is the processor owning the bucket of the
        activation at *pos*, or :data:`~repro.obs.spans.CONTROL`
        (``-1``) for a reachable terminal, whose instantiation goes to
        the control processor: a list, read only (a stored route keeps
        one compact array and hands out a list copy of it).
    procs:
        ``procs[k]`` is the processor owning key id *k*: a terminal
        root ``~pos`` (a single-CE instantiation) is shipped to control
        by ``procs[key_of[pos]]``, the owner of its bucket.

    Readers never write a route; a route fills in its own
    per-processor counts once, on first use.
    """

    __slots__ = ("n_procs", "_dest", "procs", "_key_counts", "_counts")

    def __init__(self, n_procs: int, dest: Sequence[int],
                 procs: Sequence[int],
                 key_counts: Tuple[array, array]) -> None:
        self.n_procs = n_procs
        self._dest = dest
        self.procs = procs
        self._key_counts = key_counts
        self._counts: Optional[Tuple[List[int], List[int]]] = None

    @property
    def dest(self) -> List[int]:
        dest = self._dest
        return dest if dest.__class__ is list else dest.tolist()

    def compact(self) -> "CycleRoute":
        """This route with its destinations and owners in the narrowest
        arrays: the form :attr:`CycleKeyIndex.routes` stores."""
        n_procs = self.n_procs
        return CycleRoute(n_procs, array(_signed_typecode(n_procs),
                                         self._dest),
                          _compact(self.procs, n_procs), self._key_counts)

    def per_processor(self) -> Tuple[List[int], List[int]]:
        """Fresh per-processor lists of the two-input activations and of
        the left ones: each is processed exactly once, on the processor
        owning its bucket.  They are counted per key on first use (the
        compressed loop, which counts only the processors a cycle
        touches, never asks, so no O(P) list is kept for it)."""
        counts = self._counts
        if counts is None:
            activations = [0] * self.n_procs
            left_activations = [0] * self.n_procs
            for p, n, n_left in zip(self.procs, *self._key_counts):
                activations[p] += n
                left_activations[p] += n_left
            counts = self._counts = (activations, left_activations)
        return counts[0][:], counts[1][:]


@dataclass(slots=True)
class CycleKeyIndex:
    """A cycle compiled once for every simulation of it.

    Routing an activation means mapping its bucket key to a processor.
    A cycle touches far fewer distinct keys than it has activations, and
    a sweep replays the same cycle at many processor counts, so the keys
    are deduplicated and hashed here once; routing (:meth:`route`) then
    maps just the distinct keys and never hashes a
    :class:`~repro.rete.hashing.BucketKey` again.  The same compile lays
    out the lean event table the simulator's loop runs on, so no
    simulation compares a side or kind string per event.

    The table holds everything a :class:`TraceActivation` does, so a
    cycle is stored as this table alone, compiled from the match
    engine's activation log or a :class:`TraceBuilder`'s columns
    (:meth:`from_columns`); trace rewriters read its :meth:`rows`, and
    its activation objects are a view built on demand (:meth:`view`).

    Indexes are shared, and their table is never mutated once built
    (the class is not frozen only because a frozen constructor costs
    several times as much, once per recorded cycle).  The one cache is
    the routing memo, :attr:`routes`: the route under each mapping
    defined by value, stored once it is asked for a second time, so
    the four Table 5-1 rows of a sweep, its fault arm and the machine
    models route each (cycle, processor count) twice at most.  The
    memo is left out of pickles, ``==`` and ``repr``.

    Every per-activation entry is addressed by *position*, ``act_id -
    base``.  Recorded programs number activations across a whole
    section, so positions keep the arrays as long as the cycle, not the
    section; gaps between sparse act_ids hold zeros.

    Attributes
    ----------
    keys:
        The distinct bucket keys, in ascending act_id order of first use.
    hashes:
        ``stable_hash`` of each key, parallel to *keys*.
    base:
        The cycle's lowest act_id.
    key_of:
        ``key_of[pos]`` is the position in *keys* of that activation's
        key.
    tags:
        ``tags[pos]`` is the activation's kind, side and sign
        (``TAG_*`` bits); 0 for a gap.
    left:
        ``left[pos]`` is 1 for a left two-input activation.
    successors:
        ``successors[pos]`` is the activation's successor act_ids — its
        own tuple, shared, not a copy.
    orphans:
        ``orphans[pos]`` is the parent act_id of each activation whose
        parent is not in the cycle (usually none); every other parent
        link is a successor link.
    roots:
        Root positions in act_id order, a terminal root stored as
        ``~pos`` (negative).
    terminals:
        Positions of the reachable terminal activations
        (instantiations).
    counted / counted_left:
        Positions of the reachable two-input activations, and of the
        left ones: what the per-processor activation counters count.
        No root reaches an orphan's subtree, so none of it is here.
    key_counts / key_left_counts:
        The same activations counted per key id (0 for terminal keys),
        so routing counts per distinct key, not per activation.
    routes:
        The routing memo: ``mapping.route_key`` -> the compact
        :class:`CycleRoute`, or None after the key's first request
        (see :meth:`route`).
    """

    keys: Tuple[BucketKey, ...]
    hashes: array
    base: int
    key_of: array
    tags: bytes
    left: bytes
    successors: List[Tuple[int, ...]]
    orphans: Dict[int, int]
    roots: array
    terminals: array
    counted: array
    counted_left: array
    key_counts: array
    key_left_counts: array
    routes: Dict[Hashable, Optional[CycleRoute]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_columns(cls, base: int, tags: bytes, parents: Sequence,
                     nodes: Sequence[int], keys: Sequence[tuple],
                     memo: Dict[tuple, Tuple[BucketKey, int]],
                     successors: Optional[List[Tuple[int, ...]]] = None,
                     act_ids: Optional[List[int]] = None
                     ) -> "CycleKeyIndex":
        """Compile one cycle from its activation columns — the one
        compile behind the recorder and :class:`TraceBuilder`.

        Row ``i`` is act id ``base + i``, or ``act_ids[i]`` when the
        act ids are sparse (ascending, with gaps); rows are then spread
        over positions ``act_id - base``, gaps holding tag 0.  *tags*
        holds each row's tag byte, *parents* its parent's act id (None
        for a root), and *nodes* and *keys* its bucket key's node id and
        value tuple.  Without *successors* each activation's successors
        are gathered from the parent column, in ascending act id order,
        so every parent link is a successor link (a recorded cycle's
        rows are an :class:`~repro.rete.stats.ActivationLog`'s); given
        *successors* are kept as they are, and :class:`TraceBuilder`
        checks that they agree with the parent column.

        Keys are deduplicated on plain ``(node_id, values)`` tuples in
        one pass (``zip`` builds one only per distinct key, so a row
        allocates nothing), and each distinct one is looked up in
        *memo* (plain key -> its ``BucketKey`` and ``stable_hash``),
        which the cycles of one section share: a ``BucketKey`` is built
        once per distinct key of the section.  Of plain keys that
        compare equal (``1`` and ``1.0``), the first one compiled
        through *memo* names them all.  Every other column is a table
        operation on the tag bytes.
        """
        ids = dict.fromkeys(zip(nodes, keys))
        bucket_keys: List[BucketKey] = []
        hashes = array("Q")
        for k, plain in enumerate(ids):
            entry = memo.get(plain)
            if entry is None:
                key = BucketKey(*plain)
                entry = memo[plain] = (key, stable_hash(key))
            bucket_keys.append(entry[0])
            hashes.append(entry[1])
            ids[plain] = k
        if act_ids is not None:
            span = act_ids[-1] - base + 1
            spread = bytearray(span)
            # a gap gets the first key, so key id 0 as in every index
            columns = ([None] * span, [nodes[0]] * span, [keys[0]] * span,
                       [()] * span)
            for act_id, code, *row in zip(act_ids, tags, parents, nodes,
                                           keys, successors or repeat(())):
                pos = act_id - base
                if spread[pos]:
                    raise ValueError(f"duplicate act_id {act_id}")
                spread[pos] = code
                for column, value in zip(columns, row):
                    column[pos] = value
            tags = spread
            parents, nodes, keys = columns[:3]
            if successors is not None:
                successors = columns[3]
        tags = bytes(tags)
        span = len(tags)
        key_of = array(_typecode(len(ids)),
                       list(map(ids.__getitem__, zip(nodes, keys))))
        live_ids: Sequence[int] = range(base, base + span)
        if 0 in tags:  # gaps between sparse act ids
            live_ids = list(compress(live_ids, tags))
            parents = list(compress(parents, tags))
        orphans: Dict[int, int] = {}
        if successors is None:
            kids: Dict[Optional[int], List[int]] = {}
            gather = kids.setdefault
            for child, parent in zip(live_ids, parents):
                gather(parent, []).append(child)
            root_ids = kids.pop(None, ())
            successors = [()] * span
            for parent, siblings in kids.items():
                ppos = parent - base
                if 0 <= ppos < span and tags[ppos]:
                    successors[ppos] = tuple(siblings)
                else:
                    for child in siblings:
                        orphans[child - base] = parent
        else:
            root_ids = compress(live_ids, map(is_, parents, repeat(None)))
            strays = {parent for parent in set(parents)
                      if parent is not None and not (
                          0 <= parent - base < span and tags[parent - base])}
            if strays:
                for act_id, parent in zip(live_ids, parents):
                    if parent in strays:
                        orphans[act_id - base] = parent
        roots = array("l", (
            ~pos if tags[pos] >= TAG_TERMINAL else pos
            for pos in (act_id - base for act_id in root_ids)))
        left = tags.translate(_IS_LEFT)
        masks = (tags.translate(_IS_TERMINAL), tags.translate(_IS_COUNTED),
                 left)
        if orphans:  # nothing delivers an orphan's subtree: count none
            masks = tuple(map(bytearray, masks))
            stack = list(orphans)
            while stack:
                pos = stack.pop()
                if masks[0][pos] or masks[1][pos]:
                    for mask in masks:
                        mask[pos] = 0
                    stack += [s - base for s in successors[pos]]
        terminals, counted, counted_left = map(_positions, masks)
        key_counts = [0] * len(ids)
        for k in compress(key_of, masks[1]):
            key_counts[k] += 1
        key_left_counts = [0] * len(ids)
        for k in compress(key_of, masks[2]):
            key_left_counts[k] += 1
        return cls(tuple(bucket_keys), hashes, base, key_of, tags, left,
                   successors, orphans, roots, terminals, counted,
                   counted_left,
                   _compact(key_counts, max(key_counts) + 1),
                   _compact(key_left_counts, max(key_left_counts) + 1))

    def __getstate__(self):
        return tuple([getattr(self, name) for name in _TABLE_FIELDS])

    def __setstate__(self, state) -> None:
        for name, value in zip(_TABLE_FIELDS, state):
            setattr(self, name, value)
        self.routes = {}

    def __len__(self) -> int:
        return len(self.counted) + len(self.terminals)

    def rows(self) -> Iterator[Tuple[int, Optional[int], int, BucketKey,
                                     Tuple[int, ...]]]:
        """``(act_id, parent_id, tag byte, key, successors)`` of every
        activation (orphans included), in ascending act_id order.  A
        parent is the activation listing the row as a successor, else
        its orphan parent."""
        base = self.base
        span = len(self.tags)
        parent_of: List[Optional[int]] = [None] * span
        for pos, parent in self.orphans.items():
            parent_of[pos] = parent
        for act_id, kids in zip(count(base), self.successors):
            for child in kids:
                if 0 <= child - base < span:
                    parent_of[child - base] = act_id
        keys = self.keys
        return ((act_id, parent, code, keys[k], kids)
                for act_id, parent, code, k, kids in zip(
                    count(base), parent_of, self.tags, self.key_of,
                    self.successors) if code)

    def two_input_rows(self) -> List[Tuple[BucketKey, int,
                                           Tuple[int, ...]]]:
        """``(key, tag byte, successors)`` of every two-input
        activation (orphans included), in ascending act_id order: what
        Table 5-2 and the diagnostics count."""
        keys = self.keys
        return [(keys[k], code, kids) for k, code, kids in compress(
            zip(self.key_of, self.tags, self.successors),
            self.tags.translate(_IS_COUNTED))]

    def view(self) -> Dict[int, TraceActivation]:
        """The indexed activations as fresh :class:`TraceActivation`
        objects, by act_id in ascending order; an activation's node is
        its key's node (for the object oracle and tests)."""
        return {act_id: TraceActivation(act_id, parent, key.node_id,
                                        *_TRIPLES[code], key, kids)
                for act_id, parent, code, key, kids in self.rows()}

    def route(self, mapping) -> CycleRoute:
        """This cycle routed under *mapping*: the one routing step of
        every simulator loop, machine model and live plan.

        Only the distinct keys are mapped (``mapping.processors``).  A
        mapping with a ``route_key`` — a hashable key naming it by
        value (type and fields), so equal mappings share a route — has
        its route stored in :attr:`routes` from its second request on,
        compacted: a pass that routes each (cycle, mapping) once, as a
        streamed trace or a one-off run does, costs what the routing
        alone costs, and every later request reads the stored route.
        A mapping without one (the per-cycle greedy
        :class:`~repro.mpc.mapping.IndexedMapping`, an
        :class:`~repro.mpc.mapping.ExplicitMapping`) is routed on each
        call and never stored.
        """
        key = getattr(mapping, "route_key", None)
        if key is None:
            return self._route(mapping)
        routes = self.routes
        route = routes.get(key)
        if route is None:
            route = self._route(mapping)
            # the first request leaves a None marker
            routes[key] = route.compact() if key in routes else None
        return route

    def _route(self, mapping) -> CycleRoute:
        procs = mapping.processors(self.keys, self.hashes)
        dest = [procs[k] for k in self.key_of]
        for pos in self.terminals:
            dest[pos] = CONTROL
        return CycleRoute(mapping.n_procs, dest, procs,
                          (self.key_counts, self.key_left_counts))

    def charge_searches(self, depth: Dict[BucketKey, int],
                        rate: float) -> Dict[int, float]:
        """Footnote-6 deletion-search surcharges of this cycle.

        Walks the two-input activations in act_id order: a ``+`` adds
        one entry to its bucket's *depth*, a ``-`` is charged *rate*
        per entry it scans past and removes one.  Advances *depth*
        (bucket key -> entries), which persists across cycles like Rete
        memory; returns ``{act_id: extra_us}``.
        """
        keys = self.keys
        key_of = self.key_of
        tags = self.tags
        base = self.base
        charges: Dict[int, float] = {}
        for pos in self.counted:
            key = keys[key_of[pos]]
            if tags[pos] & TAG_MINUS:
                before = depth.get(key, 0)
                if before > 0:
                    charges[base + pos] = rate * before
                    depth[key] = before - 1
            else:
                depth[key] = depth.get(key, 0) + 1
        return charges


#: What a pickled index carries: its table, not its routing memo.
_TABLE_FIELDS = tuple(f.name for f in fields(CycleKeyIndex) if f.compare)

#: The index of every empty cycle (shared: tables are never mutated).
_EMPTY_INDEX = CycleKeyIndex((), array("Q"), 0, array("B"), b"", b"", [],
                             {}, array("l"), array("B"), array("B"),
                             array("B"), array("B"), array("B"))


def _holdable(act: TraceActivation) -> bool:
    """Whether a table row can hold *act*'s own fields: a valid kind,
    side and tag, and a key of the activation's node."""
    return ((act.kind, act.side, act.tag) in _CODES
            and act.key.node_id == act.node_id)


def _reject(index: int, problems: List[str]):
    """Raise the validator's *problems* with rows no table holds as
    they are written."""
    from .validate import TraceValidationError
    raise TraceValidationError(
        f"{len(problems)} problem(s) in cycle {index}: "
        + "; ".join(problems[:5]))


class CycleTrace:
    """One MRA cycle: its compiled :class:`CycleKeyIndex` table.

    Producers compile cycles through :class:`TraceBuilder`, the
    recorder straight from the activation log (:meth:`from_index`).
    Every reader of a cycle reads the table alone: its columns, or
    :meth:`CycleKeyIndex.rows` (which ``repr`` prints).  Pickles carry
    the table; cycles compare equal when their indices and tables do.

    ``CycleTrace(index, activations)`` compiles a cycle written as
    activation rows (by act_id).  A row the table cannot hold as
    written — a bad kind, side or tag, a key of another node, or a
    parent link that disagrees with the successor lists — raises
    :class:`~repro.trace.validate.TraceValidationError` with the
    validator's problems, so no malformed input compiles silently into
    a different valid cycle.
    """

    __slots__ = ("index", "_table")

    def __init__(self, index: int,
                 activations: Optional[Dict[int, TraceActivation]] = None
                 ) -> None:
        self.index = index
        self._table = _EMPTY_INDEX
        if activations:
            if not all(map(_holdable, activations.values())):
                from .validate import validate_rows
                _reject(index, validate_rows(index, activations))
            builder = TraceBuilder("")
            builder.new_cycle(index)
            for act in activations.values():
                builder.add(act.parent_id,
                            _CODES[act.kind, act.side, act.tag],
                            act.node_id, act.key.values, act.act_id,
                            act.successors)
            self._table = builder.end_cycle()._table

    @classmethod
    def from_index(cls, index: int, key_index: CycleKeyIndex
                   ) -> "CycleTrace":
        """The cycle numbered *index* whose activations *key_index*
        holds (built by :meth:`CycleKeyIndex.from_columns`)."""
        cycle = cls(index)
        cycle._table = key_index
        return cycle

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.index == other.index and self._table == other._table

    __hash__ = None  # compared by value

    def __repr__(self) -> str:
        return (f"CycleTrace(index={self.index!r}, "
                f"rows={list(self._table.rows())!r})")

    def __getstate__(self):
        return self.index, self._table

    def __setstate__(self, state) -> None:
        self.index, self._table = state

    def key_index(self) -> CycleKeyIndex:
        """The cycle's compiled table."""
        return self._table

    def __len__(self) -> int:
        return len(self._table)

    def max_node_id(self) -> int:
        return max((key.node_id for key in self._table.keys), default=0)

    def max_act_id(self) -> int:
        tags = self._table.tags
        return self._table.base + len(tags) - 1 if tags else 0


@dataclass(slots=True, frozen=True)
class IdleRun:
    """A run of *count* consecutive fully-idle (empty) cycles.

    Streaming trace sources yield one of these instead of *count* empty
    :class:`CycleTrace` objects, so an idle stretch costs O(1) to
    generate, serialize and (with round compression) simulate.  The
    cycles it stands for have indices ``start_index .. start_index +
    count - 1`` and no activations.
    """

    start_index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("idle run needs at least one cycle")

    @property
    def end_index(self) -> int:
        """Index one past the last idle cycle."""
        return self.start_index + self.count

    def cycles(self) -> Iterator["CycleTrace"]:
        """The empty cycles this marker stands for, materialized."""
        for j in range(self.count):
            yield CycleTrace(index=self.start_index + j)


#: What a trace source yields per iteration step.
TraceEntry = Union["CycleTrace", IdleRun]


def iter_cycles(entries: Iterable[TraceEntry]) -> Iterator["CycleTrace"]:
    """Expand a trace-entry stream into plain cycles.

    :class:`IdleRun` markers become their empty cycles; everything else
    passes through.  This is the exact per-cycle view — the reference
    loop and validators consume it.
    """
    for entry in entries:
        if isinstance(entry, IdleRun):
            yield from entry.cycles()
        else:
            yield entry


def materialize(source) -> "SectionTrace":
    """Collect any trace source (stream or section) into a
    :class:`SectionTrace`.  Already-materialized sections pass through
    unchanged."""
    if isinstance(source, SectionTrace):
        return source
    return SectionTrace(name=getattr(source, "name", "stream"),
                        cycles=list(iter_cycles(source)))


@dataclass(slots=True)
class ActivationStats:
    """Aggregate counts in the shape of the paper's Table 5-2."""

    left: int = 0
    right: int = 0
    terminal: int = 0
    successors: int = 0

    @property
    def total(self) -> int:
        return self.left + self.right

    @property
    def left_fraction(self) -> float:
        return self.left / self.total if self.total else 0.0

    def row(self, name: str) -> str:
        """A Table 5-2 row: left (x%), right (y%), total."""
        lf = round(100 * self.left_fraction)
        return (f"{name:<10} {self.left:>7} ({lf}%)   "
                f"{self.right:>7} ({100 - lf}%)   {self.total:>7}")


@dataclass(slots=True)
class SectionTrace:
    """A named sequence of consecutive cycle traces — one 'section' of a
    production-system execution, in the paper's sense (Section 5)."""

    name: str
    cycles: List[CycleTrace] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.cycles)

    def __iter__(self) -> Iterator[CycleTrace]:
        return iter(self.cycles)

    def total_activations(self) -> int:
        return sum(len(c) for c in self.cycles)

    def stats(self) -> ActivationStats:
        """Left/right/terminal activation counts across the section."""
        stats = ActivationStats()
        for cycle in self.cycles:
            table = cycle.key_index()
            two_input = table.tags.translate(_IS_COUNTED)
            left = table.left.count(1)
            stats.left += left
            stats.right += two_input.count(1) - left
            stats.terminal += table.tags.translate(_IS_TERMINAL).count(1)
            stats.successors += sum(map(len, compress(table.successors,
                                                      two_input)))
        return stats

    def slice(self, start: int, stop: int) -> "SectionTrace":
        """Sub-section of cycles [start:stop] (by position)."""
        return SectionTrace(name=f"{self.name}[{start}:{stop}]",
                            cycles=self.cycles[start:stop])

    def bucket_keys(self) -> List[BucketKey]:
        """All distinct bucket keys appearing in the section."""
        return list(dict.fromkeys(chain.from_iterable(
            cycle.key_index().keys for cycle in self.cycles)))

    def node_ids(self) -> List[int]:
        """All distinct two-input node ids appearing in the section."""
        return list(dict.fromkeys(
            key.node_id for cycle in self.cycles
            for key, _, _ in cycle.key_index().two_input_rows()))


#: Opaque reference to an activation being built: its cycle's index
#: and its act id.
Handle = Tuple[int, int]


class TraceBuilder:
    """Builds section traces as table columns: how every producer but
    the recorder makes its cycles.

    Each activation appends one row (:meth:`add`): its parent's act id,
    its tag byte, its node id and its key values, and — for producers
    that carry them (trace transforms, the text reader) — its own act
    id and its successor tuple.  Rows without act ids are numbered 1,
    2, ... in the order they come; rows without successors get them
    gathered from the parent links, in ascending act id order.  A
    cycle's rows give act ids and successors all or none.  Given act
    ids may come in any order; given successors are kept in their
    order, and a parent link that disagrees with them raises
    :class:`~repro.trace.validate.TraceValidationError` with the
    validator's problems when the cycle ends.  Each cycle is compiled
    (:meth:`CycleKeyIndex.from_columns`) when it ends, with one key
    memo for the whole section.

    :meth:`root`, :meth:`child` and :meth:`terminal` express the causal
    structure of a cycle for the workload generators, numbering its
    activations 1, 2, ...; they enforce the structural rules the
    validator checks: parents precede children, generated activations
    are left-side, terminals have no successors.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._cycles: List[CycleTrace] = []
        self._memo: Dict[tuple, Tuple[BucketKey, int]] = {}
        self._index: Optional[int] = None
        self._last = 0  # index of the last cycle started
        self._open_columns()

    def _open_columns(self) -> None:
        self._tags = bytearray()
        self._parents: List[Optional[int]] = []
        self._nodes: List[int] = []
        self._values: List[tuple] = []
        self._act_ids: List[int] = []
        self._successors: List[Tuple[int, ...]] = []

    # -- structure -----------------------------------------------------------

    def new_cycle(self, index: Optional[int] = None) -> int:
        """Start a new cycle (ending the open one); returns its index."""
        if self._index is not None:
            self._cycles.append(self.end_cycle())
        if index is None:
            index = self._last + 1
        self._index = self._last = index
        return index

    def end_cycle(self) -> CycleTrace:
        """Compile the open cycle and return it (the builder keeps no
        copy: a stream yields its cycles one at a time)."""
        index = self._require_cycle()
        self._index = None
        tags, parents, nodes, values = (self._tags, self._parents,
                                        self._nodes, self._values)
        act_ids, successors = self._act_ids, self._successors
        self._open_columns()
        n = len(tags)
        if not n:
            return CycleTrace(index)
        if len(act_ids) not in (0, n) or len(successors) not in (0, n):
            raise ValueError("a cycle's rows give act ids and successors "
                             "all or none")
        base = 1
        if act_ids:
            if any(map(gt, act_ids, act_ids[1:])):  # rows out of order
                order = sorted(range(n), key=act_ids.__getitem__)
                tags = bytes(map(tags.__getitem__, order))
                parents, nodes, values, act_ids = (
                    [column[i] for i in order]
                    for column in (parents, nodes, values, act_ids))
                if successors:
                    successors = [successors[i] for i in order]
            base = act_ids[0]
            if act_ids == list(range(base, base + n)):
                act_ids = []
        if successors and not _links_agree(
                act_ids or range(base, base + n), parents, successors):
            from .validate import link_problems
            _reject(index, link_problems(index, {
                act_id: (parent, code >= TAG_TERMINAL, code & TAG_LEFT > 0,
                         kids)
                for act_id, parent, code, kids in zip(
                    act_ids or count(base), parents, tags, successors)}))
        return CycleTrace.from_index(index, CycleKeyIndex.from_columns(
            base, bytes(tags), parents, nodes, values, self._memo,
            successors or None, act_ids or None))

    def _require_cycle(self) -> int:
        if self._index is None:
            raise RuntimeError("call new_cycle() before adding activations")
        return self._index

    def add(self, parent: Optional[int], code: int, node: int,
            values: tuple, act_id: Optional[int] = None,
            successors: Optional[Tuple[int, ...]] = None) -> int:
        """Append one activation row to the open cycle: *parent*'s act
        id (None for a root), the tag byte *code* (``TAG_*`` bits), the
        bucket key's *node* and *values*; returns the row's act id."""
        if self._index is None:
            self._require_cycle()
        self._tags.append(code)
        self._parents.append(parent)
        self._nodes.append(node)
        self._values.append(values)
        if successors is not None:
            self._successors.append(successors)
        if act_id is None:
            return len(self._tags)
        self._act_ids.append(act_id)
        return act_id

    def root(self, node: int, side: str, tag: str = "+",
             values: Sequence[Value] = (),
             kind: str = KIND_JOIN) -> Handle:
        """A root activation: a token generated by the constant tests."""
        return self._index, self.add(None, _code(kind, side, tag), node,
                                     tuple(values))

    def child(self, parent: Handle, node: int, tag: Optional[str] = None,
              values: Sequence[Value] = (),
              kind: str = KIND_JOIN) -> Handle:
        """A successor activation generated by *parent* (left side)."""
        index = self._index
        if index is None:
            self._require_cycle()
        cycle_index, parent_id = parent
        if cycle_index != index:
            raise ValueError("parent belongs to a different cycle")
        tags = self._tags
        code = tags[parent_id - 1]
        if code >= TAG_TERMINAL:
            raise ValueError("terminals cannot generate successors")
        if tag is None:
            tag = "-" if code & TAG_MINUS else "+"
        tags.append(_code(kind, LEFT, tag))
        self._parents.append(parent_id)
        self._nodes.append(node)
        self._values.append(tuple(values))
        return index, len(tags)

    def terminal(self, parent: Handle, node: int,
                 tag: Optional[str] = None) -> Handle:
        """An instantiation delivery generated by *parent*."""
        return self.child(parent, node, tag=tag, kind=KIND_TERMINAL)

    def build(self) -> SectionTrace:
        """End the open cycle and return the trace."""
        if self._index is not None:
            self._cycles.append(self.end_cycle())
        return SectionTrace(name=self.name, cycles=self._cycles)


def _code(kind: str, side: str, tag: str) -> int:
    """The tag byte of a valid ``(kind, side, tag)``."""
    try:
        return _CODES[kind, side, tag]
    except KeyError:
        raise ValueError(
            f"bad kind, side or tag {(kind, side, tag)!r}") from None


def _links_agree(act_ids: Iterable[int], parents: Sequence,
                 successors: Sequence[Tuple[int, ...]]) -> bool:
    """Whether each row's parent is the one its table derives: the last
    row listing it as a successor or, listed by none, its own parent
    when that is not a row of the cycle (an orphan)."""
    act_ids = list(act_ids)
    owner: Dict[int, int] = {}
    for act_id, kids in zip(act_ids, successors):
        for kid in kids:
            owner[kid] = act_id
    rows = set(act_ids)
    return all(owner.get(act_id, None if parent in rows else parent)
               == parent for act_id, parent in zip(act_ids, parents))
