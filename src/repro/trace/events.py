"""Trace event model: the simulator's input (paper Section 4, Figure 4-1).

A *section trace* records, for a run of consecutive MRA cycles, every
hash-table activation the Rete network performed: which node, which side
(left/right memory), add or delete, which bucket, and which successor
activations it generated.  The paper's simulator consumes exactly this —
"a detailed trace of the activity of the hash-table used for the Rete
network" — and so does ours, which is what makes recorded and synthetic
traces interchangeable.

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
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..rete.hashing import BucketKey, stable_hash

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


def _compact(values: List[int], limit: int) -> array:
    """*values* (all in ``range(limit)``) in the narrowest unsigned array."""
    code = "B" if limit <= 0x100 else "H" if limit <= 0x10000 else "I"
    return array(code, values)


@dataclass(frozen=True, slots=True)
class CycleKeyIndex:
    """A cycle compiled once for every simulation of it.

    Routing an activation means mapping its bucket key to a processor.
    A cycle touches far fewer distinct keys than it has activations, and
    a sweep replays the same cycle at many processor counts, so the keys
    are deduplicated and hashed here once; each simulation then maps the
    distinct keys (:meth:`destinations`) and never hashes a
    :class:`~repro.rete.hashing.BucketKey` again.  The same walk lays
    out the lean event table the simulator's loop runs on, so no
    simulation compares a side or kind string per event.

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
    left:
        ``left[pos]`` is 1 for a left two-input activation.
    successors:
        ``successors[pos]`` is the activation's successor act_ids — its
        own tuple, shared, not a copy; ``()`` for terminals.
    roots:
        Root positions in act_id order, a terminal root stored as
        ``~pos`` (negative).
    terminals:
        Positions of terminal activations (instantiations).
    counted / counted_left:
        Positions of the two-input activations, and of the left ones:
        what the per-processor activation counters count.
    """

    keys: Tuple[BucketKey, ...]
    hashes: array
    base: int
    key_of: array
    left: bytes
    successors: List[Tuple[int, ...]]
    roots: array
    terminals: array
    counted: array
    counted_left: array

    @classmethod
    def build(cls, ordered: List[TraceActivation]) -> "CycleKeyIndex":
        """Index *ordered* activations (ascending act_id)."""
        if not ordered:
            return _EMPTY_INDEX
        base = ordered[0].act_id
        span = ordered[-1].act_id - base + 1
        key_of = [0] * span
        left = bytearray(span)
        successors: List[Tuple[int, ...]] = [()] * span
        roots: List[int] = []
        terminals: List[int] = []
        counted: List[int] = []
        counted_left: List[int] = []
        slot: Dict[BucketKey, int] = {}
        slot_get = slot.get
        count = counted.append
        count_left = counted_left.append
        for act in ordered:
            pos = act.act_id - base
            key = act.key
            k = slot_get(key)
            if k is None:
                k = slot[key] = len(slot)
            key_of[pos] = k
            if act.kind == KIND_TERMINAL:
                terminals.append(pos)
                if act.parent_id is None:
                    roots.append(~pos)
                continue
            count(pos)
            if act.side == LEFT:
                left[pos] = 1
                count_left(pos)
            successors[pos] = act.successors
            if act.parent_id is None:
                roots.append(pos)
        keys = tuple(slot)
        return cls(keys, array("Q", map(stable_hash, keys)), base,
                   _compact(key_of, len(keys)), bytes(left), successors,
                   array("l", roots), _compact(terminals, span),
                   _compact(counted, span), _compact(counted_left, span))

    def destinations(self, mapping) -> List[int]:
        """Every activation's processor under *mapping*, indexed like
        :attr:`key_of` (``dest[act_id - base]``)."""
        procs = mapping.processors(self.keys, self.hashes)
        return [procs[k] for k in self.key_of]

    def processor_counts(self, dest: List[int], n_procs: int
                         ) -> Tuple[List[int], List[int]]:
        """Per-processor counts of the two-input activations, and of
        the left ones, under destinations *dest*: each is processed
        exactly once, on the processor owning its bucket."""
        activations = [0] * n_procs
        for p in map(dest.__getitem__, self.counted):
            activations[p] += 1
        left_activations = [0] * n_procs
        for p in map(dest.__getitem__, self.counted_left):
            left_activations[p] += 1
        return activations, left_activations


#: The index of every empty cycle (shared: indexes are never mutated).
_EMPTY_INDEX = CycleKeyIndex((), array("Q"), 0, array("B"), b"", [],
                             array("l"), array("B"), array("B"),
                             array("B"))


@dataclass(slots=True)
class CycleTrace:
    """All activations of one MRA cycle, indexed by act_id.

    Iteration order (ascending act_id), the roots and the compiled
    index (:meth:`key_index`) are computed lazily and cached — the
    simulators walk each cycle several times per run, and re-sorting or
    re-hashing on every walk dominated their profile.  The caches are
    dropped on :meth:`add` and :meth:`invalidate` and left out of
    pickles; the objects returned by :meth:`ordered`, :meth:`roots` and
    :meth:`key_index` are shared, so callers must not mutate them.  The
    index captures each activation's key, side, kind, parent link and
    successor tuple: code that rewrites any of them in place after the
    cycle may have been simulated (trace transforms do) must call
    :meth:`invalidate`.
    """

    index: int
    activations: Dict[int, TraceActivation] = field(default_factory=dict)
    _ordered: Optional[List[TraceActivation]] = field(
        default=None, init=False, repr=False, compare=False)
    _roots: Optional[List[TraceActivation]] = field(
        default=None, init=False, repr=False, compare=False)
    _key_index: Optional[CycleKeyIndex] = field(
        default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        return self.index, self.activations

    def __setstate__(self, state) -> None:
        self.index, self.activations = state
        self._ordered = self._roots = self._key_index = None

    def add(self, activation: TraceActivation) -> None:
        if activation.act_id in self.activations:
            raise ValueError(
                f"duplicate act_id {activation.act_id} in cycle "
                f"{self.index}")
        self.activations[activation.act_id] = activation
        self.invalidate()

    def invalidate(self) -> None:
        """Drop the cached order, roots and index; call after rewriting
        activations in place."""
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
        return len(self.activations)

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
