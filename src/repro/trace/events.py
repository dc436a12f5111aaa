"""Trace event model: the simulator's input (paper Section 4, Figure 4-1).

A *section trace* records, for a run of consecutive MRA cycles, every
hash-table activation the Rete network performed: which node, which side
(left/right memory), add or delete, which bucket, and which successor
activations it generated.  The paper's simulator consumes exactly this —
"a detailed trace of the activity of the hash-table used for the Rete
network" — and so does ours, which is what makes recorded and synthetic
traces interchangeable.

Every cycle is run from one compiled table, :class:`CycleKeyIndex`, and
:meth:`CycleKeyIndex.from_columns` is the one compile behind it.  A
recorded cycle is compiled from the match engine's activation log (one
row per activation, already in act-id order: parent act id, tag byte,
node id, key values) with column operations, and is that table alone; a
cycle built from :class:`TraceActivation` objects (transforms, synthetic
generators, the text reader) feeds their columns to the same compile.
The tag-byte bits (``TAG_*``) are the match engines', re-exported here.

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
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from operator import attrgetter, eq, is_
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

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


@dataclass(slots=True)
class TraceActivation:
    """One node activation in the trace.

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

    @property
    def is_root(self) -> bool:
        return self.parent_id is None

    @property
    def n_successors(self) -> int:
        return len(self.successors)


#: ``(kind, side, tag)``, ``parent_id``, ``key``, ``successors`` and
#: ``act_id`` of a trace activation, and a key's ``node_id`` and
#: ``values``: the columns :meth:`CycleKeyIndex.build` reads.
_TRIPLE = attrgetter("kind", "side", "tag")
_PARENT = attrgetter("parent_id")
_KEY = attrgetter("key")
_NODE_ID = attrgetter("node_id")
_VALUES = attrgetter("values")
_SUCCESSORS = attrgetter("successors")
_ACT_ID = attrgetter("act_id")

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


def _compact(values: List[int], limit: int) -> array:
    """*values* (all in ``range(limit)``) in the narrowest unsigned array."""
    return array(_typecode(limit), values)


@dataclass(slots=True)
class CycleKeyIndex:
    """A cycle compiled once for every simulation of it.

    Routing an activation means mapping its bucket key to a processor.
    A cycle touches far fewer distinct keys than it has activations, and
    a sweep replays the same cycle at many processor counts, so the keys
    are deduplicated and hashed here once; each simulation then maps the
    distinct keys (:meth:`destinations`) and never hashes a
    :class:`~repro.rete.hashing.BucketKey` again.  The same compile lays
    out the lean event table the simulator's loop runs on, so no
    simulation compares a side or kind string per event.

    The table holds everything a :class:`TraceActivation` does, so a
    recorded cycle is stored as this table alone, compiled from the
    match engine's activation log (:meth:`from_columns`), and its
    activation objects are a view built on demand (:meth:`view`).

    Indexes are shared and never mutated once built (the class is not
    frozen only because a frozen constructor costs several times as
    much, once per recorded cycle).

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
        so a simulation counts per distinct key, not per activation.
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

    @classmethod
    def build(cls, ordered: List[TraceActivation]) -> "CycleKeyIndex":
        """Index *ordered* activations (ascending act_id): their columns
        through :meth:`from_columns`, with their own successor tuples."""
        if not ordered:
            return _EMPTY_INDEX
        base = ordered[0].act_id
        contiguous = all(map(eq, map(_ACT_ID, ordered), count(base)))
        objects = list(map(_KEY, ordered))
        nodes = list(map(_NODE_ID, objects))
        return cls.from_columns(
            base, bytes(map(TAG_CODES.__getitem__, map(_TRIPLE, ordered))),
            list(map(_PARENT, ordered)), nodes,
            list(map(_VALUES, objects)), {},
            # the index keeps this list: sized exactly, as a map is not
            list(tuple(map(_SUCCESSORS, ordered))),
            None if contiguous else list(map(_ACT_ID, ordered)), objects)

    @classmethod
    def from_columns(cls, base: int, tags: bytes, parents: Sequence,
                     nodes: Sequence[int], keys: Sequence[tuple],
                     memo: Dict[tuple, Tuple[BucketKey, int]],
                     successors: Optional[List[Tuple[int, ...]]] = None,
                     act_ids: Optional[List[int]] = None,
                     objects: Optional[List[BucketKey]] = None
                     ) -> "CycleKeyIndex":
        """Compile one cycle from its activation columns — the one
        compile behind the recorder and :meth:`build`.

        Row ``i`` is act id ``base + i``, or ``act_ids[i]`` when the
        act ids are sparse (ascending, with gaps); rows are then spread
        over positions ``act_id - base``, gaps holding tag 0.  *tags*
        holds each row's tag byte, *parents* its parent's act id (None
        for a root), and *nodes* and *keys* its bucket key's node id and
        value tuple.  Without *successors* each activation's successors
        are gathered from the parent column, in ascending act id order;
        a recorded cycle's rows are an
        :class:`~repro.rete.stats.ActivationLog`'s, where every parent
        link is a successor link.

        Keys are deduplicated on plain ``(node_id, values)`` tuples in
        one pass (``zip`` builds one only per distinct key, so a row
        allocates nothing), and each distinct one is looked up in
        *memo* (plain key -> its ``BucketKey`` and ``stable_hash``),
        which the cycles of one section share: a ``BucketKey`` is built
        once per distinct key of the section, unless *objects* holds
        each row's own key object (the activations' keys, which the
        index then shares).  Of plain keys that compare equal (``1``
        and ``1.0``), the first one compiled through *memo* names them
        all.  Every other column is a table operation on the tag
        bytes.
        """
        ids = dict.fromkeys(zip(nodes, keys))
        if objects is not None:  # the first row's object names each key
            ids.update(zip(zip(reversed(nodes), reversed(keys)),
                           reversed(objects)))
        bucket_keys: List[BucketKey] = []
        hashes = array("Q")
        for k, (plain, own) in enumerate(ids.items()):
            entry = memo.get(plain)
            if entry is None:
                key = BucketKey(*plain) if own is None else own
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

    def __len__(self) -> int:
        return len(self.counted) + len(self.terminals)

    def view(self) -> Dict[int, TraceActivation]:
        """The indexed activations as fresh :class:`TraceActivation`
        objects, by act_id in ascending order.  Exact for tables built
        from events, where every parent link is a successor link or an
        orphan; an activation's node is its key's node."""
        keys = self.keys
        key_of = self.key_of
        successors = self.successors
        base = self.base
        tags = self.tags
        parent_of = dict(self.orphans)
        for pos, code in enumerate(tags):
            if code:
                for child in successors[pos]:
                    parent_of[child - base] = base + pos
        get_parent = parent_of.get
        acts: Dict[int, TraceActivation] = {}
        for pos, code in enumerate(tags):
            if code:
                key = keys[key_of[pos]]
                acts[base + pos] = TraceActivation(
                    base + pos, get_parent(pos), key.node_id,
                    KIND_NAMES[code & KIND_BITS],
                    LEFT if code & TAG_LEFT else RIGHT,
                    "-" if code & TAG_MINUS else "+", key,
                    successors[pos])
        return acts

    def destinations(self, mapping) -> List[int]:
        """Every activation's processor under *mapping*, indexed like
        :attr:`key_of` (``dest[act_id - base]``)."""
        return self.expand(mapping.processors(self.keys, self.hashes))

    def expand(self, procs: List[int]) -> List[int]:
        """Per-key processors *procs* expanded to every position."""
        return [procs[k] for k in self.key_of]

    def processor_counts(self, procs: List[int], n_procs: int
                         ) -> Tuple[List[int], List[int]]:
        """Per-processor counts of the two-input activations, and of
        the left ones, when key id *k* lives on processor ``procs[k]``:
        each is processed exactly once, on the processor owning its
        bucket."""
        activations = [0] * n_procs
        left_activations = [0] * n_procs
        for p, count, left_count in zip(procs, self.key_counts,
                                        self.key_left_counts):
            activations[p] += count
            left_activations[p] += left_count
        return activations, left_activations

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


#: The index of every empty cycle (shared: indexes are never mutated).
_EMPTY_INDEX = CycleKeyIndex((), array("Q"), 0, array("B"), b"", b"", [],
                             [], array("l"), array("B"), array("B"),
                             array("B"), (), ())


class CycleTrace:
    """All activations of one MRA cycle, indexed by act_id.

    A cycle holds its activations in one of two forms.  Built from
    :class:`TraceActivation` objects (the constructor, :meth:`add`, the
    trace transforms and file readers) it compiles its
    :class:`CycleKeyIndex` from them on first use.  Recorded from a
    live network (:meth:`from_index`) it is the compiled table alone:
    :attr:`activations` is then a view built from the table on first
    access, and ``len``, :meth:`key_index` and everything the
    simulators and executors run on never build it.

    Iteration order (ascending act_id), the roots and the compiled
    index are computed lazily and cached — the simulators walk each
    cycle several times per run, and re-sorting or re-hashing on every
    walk dominated their profile.  The caches are dropped on :meth:`add`
    and :meth:`invalidate` and left out of pickles, which carry the
    index and the activations as before; the objects returned by
    :meth:`ordered`, :meth:`roots` and :meth:`key_index` are shared, so
    callers must not mutate them.  The index captures each activation's
    key, side, kind, parent link and successor tuple: code that
    rewrites any of them in place after the cycle may have been
    simulated (trace transforms do) must call :meth:`invalidate`.
    """

    __slots__ = ("index", "_activations", "_ordered", "_roots",
                 "_key_index")

    def __init__(self, index: int,
                 activations: Optional[Dict[int, TraceActivation]] = None
                 ) -> None:
        self.index = index
        self._activations = {} if activations is None else activations
        self._ordered = self._roots = self._key_index = None

    @classmethod
    def from_index(cls, index: int, key_index: CycleKeyIndex
                   ) -> "CycleTrace":
        """The cycle numbered *index* whose activations *key_index*
        holds (built by :meth:`CycleKeyIndex.from_columns`)."""
        cycle = cls(index)
        cycle._activations = None
        cycle._key_index = key_index
        return cycle

    @property
    def activations(self) -> Dict[int, TraceActivation]:
        """The activations by act_id (a recorded cycle builds them from
        its table on first access)."""
        acts = self._activations
        if acts is None:
            acts = self._activations = self._key_index.view()
        return acts

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.index == other.index
                and self.activations == other.activations)

    __hash__ = None  # mutable, compared by value

    def __repr__(self) -> str:
        return (f"CycleTrace(index={self.index!r}, "
                f"activations={self.activations!r})")

    def __getstate__(self):
        return self.index, self.activations

    def __setstate__(self, state) -> None:
        self.index, self._activations = state
        self._ordered = self._roots = self._key_index = None

    def add(self, activation: TraceActivation) -> None:
        acts = self.activations
        if activation.act_id in acts:
            raise ValueError(
                f"duplicate act_id {activation.act_id} in cycle "
                f"{self.index}")
        acts[activation.act_id] = activation
        self.invalidate()

    def invalidate(self) -> None:
        """Drop the cached order, roots and index; call after rewriting
        activations in place.  A recorded cycle whose view was never
        built has nothing to drop: its table is its only copy."""
        if self._activations is not None:
            self._ordered = self._roots = self._key_index = None

    def ordered(self) -> List[TraceActivation]:
        """All activations in ascending act_id order (cached)."""
        if self._ordered is None:
            acts = self.activations
            self._ordered = [acts[i] for i in sorted(acts)]
        return self._ordered

    def roots(self) -> List[TraceActivation]:
        """Root activations in act_id order (cached)."""
        if self._roots is None:
            self._roots = [a for a in self.ordered() if a.parent_id is None]
        return self._roots

    def key_index(self) -> CycleKeyIndex:
        """The cycle compiled for routing and simulation (cached)."""
        if self._key_index is None:
            self._key_index = CycleKeyIndex.build(self.ordered())
        return self._key_index

    def __len__(self) -> int:
        acts = self._activations
        return len(self._key_index) if acts is None else len(acts)

    def __iter__(self) -> Iterator[TraceActivation]:
        return iter(self.ordered())

    def two_input_activations(self) -> List[TraceActivation]:
        """Join/negative activations (what Table 5-2 counts)."""
        return [a for a in self if a.kind != KIND_TERMINAL]

    def max_node_id(self) -> int:
        return max((a.node_id for a in self.activations.values()),
                   default=0)

    def max_act_id(self) -> int:
        return max(self.activations, default=0)


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
            for act in cycle:
                if act.kind == KIND_TERMINAL:
                    stats.terminal += 1
                elif act.side == LEFT:
                    stats.left += 1
                else:
                    stats.right += 1
                if act.kind != KIND_TERMINAL:
                    stats.successors += act.n_successors
        return stats

    def slice(self, start: int, stop: int) -> "SectionTrace":
        """Sub-section of cycles [start:stop] (by position)."""
        return SectionTrace(name=f"{self.name}[{start}:{stop}]",
                            cycles=self.cycles[start:stop])

    def bucket_keys(self) -> List[BucketKey]:
        """All distinct bucket keys appearing in the section."""
        seen = {}
        for cycle in self.cycles:
            for act in cycle:
                seen.setdefault(act.key, None)
        return list(seen)

    def node_ids(self) -> List[int]:
        """All distinct two-input node ids appearing in the section."""
        seen = {}
        for cycle in self.cycles:
            for act in cycle:
                if act.kind != KIND_TERMINAL:
                    seen.setdefault(act.node_id, None)
        return list(seen)
