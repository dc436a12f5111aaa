"""Discrete-event simulation of the Section 3.2 mapping.

The simulator replays a hash-table activity trace against a machine of
``n_procs`` match processors plus one control processor, following the
paper's match procedure:

1. The control processor broadcasts the cycle's wme packet to all match
   processors (one send overhead at control; latency; one receive
   overhead at each match processor).
2. Every match processor evaluates all constant tests (30 µs) and keeps
   exactly the root activations whose hash bucket it owns — the coarse
   granularity: these never travel as messages.
3. Processing an activation = add/delete the token in its bucket
   (32 µs left / 16 µs right) then generate successors (16 µs each).
   Each successor headed for a bucket on another processor is sent as a
   message (send overhead at the producer, latency in the network,
   receive overhead at the consumer) — the fine granularity.
4. Instantiations (terminal activations) are sent to the control
   processor.
5. The cycle ends when all activations are processed and all messages
   delivered; cycles are serialized by the control barrier.  Termination
   detection is idealized and free, as in the paper.

Everything is deterministic: events run in (arrival, push order), and
processors serve tasks FIFO by arrival time.

Two hook-free loops
-------------------
The event loop is the harness's hottest code — every sweep point of
every figure goes through it — so it runs on a table compiled once per
cycle, not on activation objects.
:meth:`~repro.trace.events.CycleTrace.key_index` walks the cycle once
and caches a :class:`~repro.trace.events.CycleKeyIndex`: the distinct
bucket keys and their hashes, plus, per activation *position*
(``act_id - base``), a left/right byte, a kind tag and the successor
tuple, and the root, terminal and two-input positions.

:func:`_simulate_cycle` is the general loop, for two or more
processors.  It reads the cycle's routing under its mapping from the
one routing step, :meth:`~repro.trace.events.CycleKeyIndex.route`: the
per-position destinations with terminal positions marked ``-1``, the
control processor; the per-key owners, which ship the terminal roots;
and the per-processor counts.  Round robin and random mappings are
defined by value, so the index stores the route per (mapping type,
fields) once it is asked for a second time, and a sweep routes each
(cycle, processor count) at most twice, however many overhead rows,
fault arms and machine models replay it; a single pass over a cycle
pays for the routing alone.  From then on an event is one integer:

* the queue is a heap of distinct arrival times, each holding its
  events (positions; ``~pos`` for one that came as a message) in push
  order — which, with non-negative costs, is exactly the (arrival,
  sequence) order of a heap of single events, at one heap operation
  per distinct time instead of two per event;
* no side or kind string is compared, an instantiation's delivery to
  the control processor is inlined, and search surcharges are looked
  up only when the cost model has them;
* per-processor activation counts are read off the route (counted per
  key once per route) — each two-input activation is processed exactly
  once, on the processor owning its bucket — not incremented per
  event.  The compressed form counts just the processors the cycle
  touches, from the destinations.

:func:`_simulate_single` runs one match processor, which is the
paper's speedup base and the first point of every curve.  There the
queue is a plain FIFO list, and that is exact, not an approximation.
Every successor stays on the one processor, so it is pushed at a time
between its producer's start and the processor's next ready time, and
(costs being non-negative) each event starts at the processor's ready
time, which no earlier push exceeds.  So push times never decrease,
arrival order is push order, and every event starts when the processor
is ready.  The pass makes the general loop's float additions in the
same order (terminal roots first, then per event its own cost, its
search surcharge and per successor the generation cost and, for an
instantiation, the send), and the counts are just the lengths of
``index.counted`` and ``index.counted_left``.  It calls no mapping:
with one processor every valid mapping routes every key to processor
0.  :func:`iter_cycle_results` picks it from ``n_procs`` alone.

Neither loop has hooks.  The one other per-cycle loop is the
instrumented one (:func:`repro.mpc.faults.simulate_cycle_with_faults`),
on the same table with the general loop's event encoding: it serves
every run that records a timeline (:mod:`repro.mpc.timeline`) or
injects faults, at any processor count, and without a fault model it
runs the plain exchange with the general loop's arithmetic, so
recording never changes a result bit; it reads the same routing
step.  The offline greedy distribution routes from the table too:
:class:`BucketWorkCache` prices and orders each cycle's keys once from
the index columns, and :class:`GreedyMappingFactory` runs one LPT pass
per processor count into a per-key processor list, an
:class:`~repro.mpc.mapping.IndexedMapping` that is routed on each call
(it belongs to one cycle) and never stored.

:mod:`repro.mpc._reference` preserves the original object-based loops;
``tests/test_mpc_simulator.py``, ``tests/test_mpc_cycle_index.py`` and
``tests/test_mpc_faults.py`` assert every loop produces bit-identical
results to them, and ``tests/test_mpc_simulator.py`` holds the FIFO
pass to the general loop at one processor by ``repr``.

Scaling to thousands of processors
----------------------------------
A dense cycle still charges O(P) — list allocations, the final ``max``
— which dominates exactly in the regime the paper says matters
(mostly-idle machines).  ``RunConfig(compress_rounds=True)`` removes
both O(P) terms and stays **bit-exact** (the ``compressed_vs_exact``
oracle in :mod:`repro.check` holds it to the reference loop):

* the **same event loop** runs on ready/busy lists that live for the
  whole simulation, every entry at the closed-form broadcast +
  constant-test floor.  After each cycle only the processors it
  touched — the owners of its two-input activations and of its
  single-CE instantiations — are packaged into
  :class:`~repro.mpc.metrics.SparseProcArray` results (everyone else
  is the array default) and reset to the floor, so no active cycle
  allocates or scans O(P) state (at one processor the FIFO pass
  packages its result in the same sparse form);
* **round compression**: a run of consecutive fully-idle cycles is
  collapsed analytically into one closed-form :class:`CycleResult`
  (:func:`_idle_cycle_result`) carried with a repeat count — the
  counters are advanced exactly, in the spirit of the round-compression
  literature, not approximated.

:func:`iter_cycle_results` is the memory-bounded core both modes share:
it yields ``(CycleResult, repeat)`` pairs one at a time and accepts
streaming trace sources (anything yielding
:class:`~repro.trace.events.CycleTrace` / :class:`~repro.trace.events
.IdleRun` entries), so traces with 10⁶+ activations never need to be
materialized.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Tuple

from ..rete.hashing import BucketKey
from ..trace.events import (TAG_TERMINAL, CycleKeyIndex, CycleTrace,
                            IdleRun, SectionTrace, iter_cycles)
from .config import RunConfig
from .costmodel import DEFAULT_COSTS, ZERO_OVERHEADS, CostModel, \
    OverheadModel
from .faults import simulate_cycle_with_faults
from .mapping import (DEFAULT_N_BUCKETS, BucketMapping, IndexedMapping,
                      RoundRobinMapping, _greedy_order, _lpt)
from .metrics import CycleResult, SimResult, SparseProcArray

#: Test-only mis-pricing hook for the conformance harness
#: (:mod:`repro.check`).  When nonzero, the hook-free loops
#: (:func:`_simulate_cycle` and :func:`_simulate_single`, dense and
#: compressed alike; the reference loop and the instrumented (fault
#: and recording) loop ignore it) charge right tokens this many extra
#: microseconds.  The harness's mutation
#: smoke test sets it (via :func:`repro.check.mutate_cost`) to prove
#: the oracle matrix catches a mis-priced cost constant.  Never set it
#: outside tests.
_TEST_MUTATE_RIGHT_TOKEN_US = 0.0


class _CyclePricing:
    """One cycle's per-bucket work, priced once from its compiled index.

    ``work[k]`` is the processing time of key id *k* (see
    :class:`~repro.trace.events.CycleKeyIndex`), summed over
    ``index.counted`` in ascending act_id order — the float order of a
    walk over the cycle's activations.  ``priced`` lists the key ids
    with two-input activity in first-use order; ``order`` is the same
    ids heaviest first (the greedy order), with ``sorted_work`` their
    work.  Key ids that only terminals use have no work entry.
    """

    __slots__ = ("index", "work", "priced", "order", "sorted_work")

    def __init__(self, index: CycleKeyIndex, costs: CostModel) -> None:
        left_us = costs.left_token_us
        right_us = costs.right_token_us
        successor_us = costs.successor_us
        key_of = index.key_of
        left = index.left
        successors = index.successors
        work = [0.0] * len(index.keys)
        priced: Dict[int, None] = {}
        for pos in index.counted:
            k = key_of[pos]
            priced[k] = None
            work[k] += (left_us if left[pos] else right_us) \
                + successor_us * len(successors[pos])
        keys = index.keys
        self.index = index
        self.work = work
        self.priced = list(priced)
        self.order = sorted(priced,
                            key=lambda k: _greedy_order(keys[k], work[k]))
        self.sorted_work = [work[k] for k in self.order]

    def as_dict(self) -> Dict[BucketKey, float]:
        keys = self.index.keys
        work = self.work
        return {keys[k]: work[k] for k in self.priced}


def bucket_work(cycle: CycleTrace,
                costs: CostModel = DEFAULT_COSTS) -> Dict[BucketKey, float]:
    """Per-bucket processing time in *cycle* (greedy-distribution input).

    This is the "detailed trace of the activity in each bucket" the paper
    feeds its offline greedy algorithm, keyed in first-use order.
    """
    return _CyclePricing(cycle.key_index(), costs).as_dict()


class BucketWorkCache:
    """Memoized per-cycle bucket pricing, shared across sweep points.

    The greedy-distribution experiments rebuild a mapping per (cycle,
    processor count) pair; the per-bucket activity and its greedy order
    depend only on the cycle, so one cache serves every processor count
    of a sweep.  Calling the cache returns :func:`bucket_work`'s dict.
    Cycles are identified by object identity (a strong reference is
    kept, so an id is never recycled while cached) and repriced when
    their compiled index was rebuilt.
    """

    def __init__(self, costs: CostModel = DEFAULT_COSTS) -> None:
        self.costs = costs
        self._cache: Dict[int, tuple] = {}

    def pricing(self, cycle: CycleTrace) -> _CyclePricing:
        index = cycle.key_index()
        entry = self._cache.get(id(cycle))
        if entry is None or entry[0] is not cycle \
                or entry[1].index is not index:
            entry = (cycle, _CyclePricing(index, self.costs))
            self._cache[id(cycle)] = entry
        return entry[1]

    def __call__(self, cycle: CycleTrace) -> Dict[BucketKey, float]:
        return self.pricing(cycle).as_dict()

    def __getstate__(self):
        # The cache keys are process-local object ids: a pickled copy
        # (of a factory holding this cache) starts empty instead.
        return {"costs": self.costs}

    def __setstate__(self, state):
        self.costs = state["costs"]
        self._cache = {}


class GreedyMappingFactory:
    """Per-cycle idealized greedy (LPT) distribution, ready to share.

    A picklable :data:`MappingFactory`: pass
    ``RunConfig(mapping_factory=GreedyMappingFactory(n_procs))``, or
    build one per processor count around a shared
    :class:`BucketWorkCache` so a whole sweep prices and orders each
    cycle's bucket activity once.  Each call returns an
    :class:`~repro.mpc.mapping.IndexedMapping` over the cycle's index
    keys: the same routing as ``greedy_mapping(bucket_work(cycle), P)``
    (keys without two-input work fall back to round robin), with no
    bucket key hashed per processor count.
    """

    def __init__(self, n_procs: int,
                 costs: CostModel = DEFAULT_COSTS,
                 work_cache: Optional[BucketWorkCache] = None) -> None:
        self.n_procs = n_procs
        self.work_cache = work_cache if work_cache is not None \
            else BucketWorkCache(costs)

    def __call__(self, cycle: CycleTrace) -> IndexedMapping:
        pricing = self.work_cache.pricing(cycle)
        index = pricing.index
        n_procs = self.n_procs
        procs = [h % DEFAULT_N_BUCKETS % n_procs for h in index.hashes]
        for k, p in zip(pricing.order,
                        _lpt(pricing.sorted_work, n_procs)):
            procs[k] = p
        return IndexedMapping(n_procs, index.keys, procs)


class _SearchCostTracker:
    """Incremental deletion-search pricing (footnote 6 model).

    Bucket occupancy is tracked in causal (serial trace) order across
    the whole section — Rete memory persists between cycles — and every
    "-" activation is charged ``delete_search_us`` per entry it must
    scan past.  The depth state only ever advances, so charging cycles
    one at a time as the engine reaches them is bit-identical to the
    old up-front whole-trace pass — and it is what lets
    :func:`iter_cycle_results` consume streaming traces in one pass.
    Each cycle is charged on its compiled table
    (:meth:`~repro.trace.events.CycleKeyIndex.charge_searches`).
    """

    __slots__ = ("rate", "depth")

    def __init__(self, rate: float) -> None:
        self.rate = rate
        self.depth: Dict[BucketKey, int] = {}

    def charge(self, cycle: CycleTrace) -> Dict[int, float]:
        """Per-activation surcharges for *cycle*; advances the state."""
        rate = self.rate
        if rate <= 0.0:
            return {}
        return cycle.key_index().charge_searches(self.depth, rate)


def compute_search_costs(trace: SectionTrace,
                         costs: CostModel) -> Dict[int, Dict[int, float]]:
    """Per-activation deletion-search surcharges for a whole section.

    Whole-trace wrapper over :class:`_SearchCostTracker`.  Returns
    ``{cycle_index: {act_id: extra_us}}``; empty when the cost model
    keeps the paper's constant-time assumption.
    """
    if costs.delete_search_us <= 0.0:
        return {}
    tracker = _SearchCostTracker(costs.delete_search_us)
    extra: Dict[int, Dict[int, float]] = {}
    for cycle in iter_cycles(trace):
        per_cycle = tracker.charge(cycle)
        if per_cycle:
            extra[cycle.index] = per_cycle
    return extra


def iter_cycle_results(trace, config: RunConfig
                       ) -> Iterator[Tuple[CycleResult, int]]:
    """Simulate *trace* one cycle at a time, yielding ``(result,
    repeat)`` pairs.

    This is the memory-bounded engine core: it accepts any trace
    source — a :class:`~repro.trace.events.SectionTrace` or a
    streaming source yielding :class:`~repro.trace.events.CycleTrace`
    / :class:`~repro.trace.events.IdleRun` entries — and never holds
    more than one cycle's result.  ``repeat`` is 1 everywhere except
    with ``config.compress_rounds``, where a maximal run of
    consecutive fully-idle cycles is emitted as one closed-form result
    with ``repeat`` equal to the run length.  Sweeps that only need
    aggregates consume this directly and discard each pair;
    :func:`simulate_config` collects the pairs into a
    :class:`~repro.mpc.metrics.SimResult`.

    Each cycle runs on one of three loops: the instrumented
    :func:`~repro.mpc.faults.simulate_cycle_with_faults` when something
    records or injects faults; otherwise the FIFO pass
    :func:`_simulate_single` on one processor and the general
    :func:`_simulate_cycle` on more.
    """
    n_procs = config.n_procs
    costs = config.costs
    overheads = config.overheads
    mapping = config.mapping
    mapping_factory = config.mapping_factory
    faults = config.faults
    protocol = config.protocol
    recorder = config.recorder
    compress = config.compress_rounds
    if mapping is None:
        mapping = RoundRobinMapping(n_procs)

    faulty = config.faulty
    if not faulty:
        # A null fault model takes the plain exchange, like no model.
        faults = None
    instrumented = faulty or recorder is not None
    if recorder is not None:
        recorder.begin_section(trace.name, n_procs, costs, overheads,
                               faulty)

    # Round compression under fault injection: every fault draw is
    # already keyed to the *absolute* cycle index (see
    # :func:`repro.mpc.faults.counter_u01` callers), so collapsing an
    # idle stretch never shifts which cycles later faults land on.  The
    # two fault-model features that can touch a fully-idle cycle are
    # handled explicitly: every-cycle stall windows (``cycle=None``)
    # fold into the closed-form idle template
    # (:func:`_idle_cycle_result_faulty`), and cycle-specific stalls /
    # fail-stops break the stretch so those indices are simulated
    # exactly.  With a recorder attached, idle cycles under faults are
    # simulated per-cycle too (exact spans beat collapsed ones).
    fault_breaks: frozenset = frozenset()
    collapse_idle = True
    if compress and faulty:
        collapse_idle = recorder is None
        fault_breaks = frozenset(
            s.cycle for s in faults.stalls if s.cycle is not None
        ) | frozenset(f.cycle for f in faults.failures)

    tracker = _SearchCostTracker(costs.delete_search_us)
    # With compression the per-processor lists live for the whole
    # simulation; each cycle resets just the entries it touched.
    slots = None
    if compress:
        floor_ready, floor_busy = _floors(costs, overheads)
        slots = ([floor_ready] * n_procs, [floor_busy] * n_procs)
    idle_template: Optional[CycleResult] = None
    pending_start = 0
    pending_count = 0

    def flush() -> Iterator[Tuple[CycleResult, int]]:
        """Emit the pending idle stretch (if any) as one RLE pair."""
        nonlocal pending_count, idle_template
        if not pending_count:
            return
        start, count = pending_start, pending_count
        pending_count = 0
        if idle_template is None:
            idle_template = (
                _idle_cycle_result_faulty(n_procs, costs, overheads,
                                          faults)
                if faulty else
                _idle_cycle_result(n_procs, costs, overheads))
        if recorder is not None:
            # One empty cycle through the instrumented loop stands for
            # the whole stretch.
            simulate_cycle_with_faults(
                CycleTrace(index=start), n_procs, costs, overheads,
                mapping, faults, protocol, recorder=recorder)
            recorder.timeline.cycles[-1].repeat = count
        yield (replace(idle_template, index=start), count)

    def one_cycle(cycle) -> Iterator[Tuple[CycleResult, int]]:
        """Simulate one cycle on whichever loop the config selects."""
        cycle_mapping = (mapping_factory(cycle) if mapping_factory
                         else mapping)
        if cycle_mapping.n_procs != n_procs:
            raise ValueError("mapping_factory produced a mapping for "
                             f"{cycle_mapping.n_procs} processors")
        search_costs = tracker.charge(cycle)
        if instrumented:
            cycle_result = simulate_cycle_with_faults(
                cycle, n_procs, costs, overheads, cycle_mapping,
                faults, protocol, search_costs, recorder)
        elif n_procs == 1:
            cycle_result = _simulate_single(cycle, costs, overheads,
                                            search_costs, compress)
        else:
            cycle_result = _simulate_cycle(
                cycle, n_procs, costs, overheads, cycle_mapping,
                search_costs, slots)
        yield (cycle_result, 1)

    for entry in trace:
        is_idle_run = isinstance(entry, IdleRun)
        if compress:
            # Fully-idle cycles (empty trace cycles or IdleRun markers)
            # join the pending stretch while contiguous; anything else
            # flushes it first.
            if is_idle_run:
                idle_start, idle_count = entry.start_index, entry.count
            elif not len(entry):
                idle_start, idle_count = entry.index, 1
            else:
                idle_start = None
            if idle_start is not None and collapse_idle:
                end = idle_start + idle_count
                # Stretch boundaries at fault-affected indices (the
                # break set is tiny — explicit stalls and fail-stops —
                # so this never iterates the idle run itself).
                breaks = (sorted(b for b in fault_breaks
                                 if idle_start <= b < end)
                          if fault_breaks else [])
                pos = idle_start
                for b in breaks + [end]:
                    if pos < b:
                        if pending_count and \
                                pending_start + pending_count == pos:
                            pending_count += b - pos
                        else:
                            yield from flush()
                            pending_start, pending_count = pos, b - pos
                    if b < end:
                        yield from flush()
                        yield from one_cycle(CycleTrace(index=b))
                    pos = b + 1
                continue
            yield from flush()
        for cycle in entry.cycles() if is_idle_run else (entry,):
            yield from one_cycle(cycle)
    yield from flush()


def simulate_config(trace, config: RunConfig) -> SimResult:
    """Simulate *trace* under one :class:`~repro.mpc.config.RunConfig`.

    This is the engine entry point every executor backend and sweep
    shares; :func:`simulate` is its short round-robin, fault-free form,
    and :func:`iter_cycle_results` is the streaming core it collects.

    Parameters
    ----------
    trace:
        The section to replay (validated traces only; see
        :func:`repro.trace.validate_trace`), or any streaming trace
        source (see :mod:`repro.trace.events`).
    config:
        The full machine configuration.  ``config.mapping`` defaults to
        the paper's round robin; ``config.mapping_factory`` overrides
        it with a fresh mapping per cycle (the paper's idealized greedy
        redistribution).  A ``None`` or null ``config.faults`` keeps
        the exact fault-free code path — results are bit-identical to a
        fault-free config; ``config.protocol`` defaults to
        :data:`~repro.mpc.faults.DEFAULT_PROTOCOL` when faults are
        active and is ignored otherwise.  ``config.recorder`` routes
        every cycle through the instrumented loop, which records its
        spans (:mod:`repro.mpc.timeline`) without changing any result
        bit.
        ``config.compress_rounds`` keeps per-processor state sparse
        and run-length encodes idle stretches — bit-identical numbers
        in O(active work) time; see the module docstring.

    Returns
    -------
    SimResult with one :class:`CycleResult` per cycle (run-length
    encoded when ``config.compress_rounds``; see
    :meth:`~repro.mpc.metrics.SimResult.expanded`).
    """
    result = SimResult(trace_name=trace.name, n_procs=config.n_procs)
    repeats: Optional[List[int]] = [] if config.compress_rounds else None
    for cycle_result, repeat in iter_cycle_results(trace, config):
        result.cycles.append(cycle_result)
        if repeats is not None:
            repeats.append(repeat)
    result.repeats = repeats
    return result


def simulate(trace: SectionTrace,
             n_procs: int,
             costs: CostModel = DEFAULT_COSTS,
             overheads: OverheadModel = ZERO_OVERHEADS) -> SimResult:
    """Simulate *trace* on *n_procs* match processors, round robin and
    fault-free.

    The short convenience spelling of :func:`simulate_config`; anything
    else — a mapping, a mapping factory, faults, a protocol, a
    recorder — goes in a :class:`~repro.mpc.config.RunConfig`.
    """
    return simulate_config(trace, RunConfig(
        n_procs=n_procs, costs=costs, overheads=overheads))


def _floors(costs: CostModel, overheads: OverheadModel
            ) -> Tuple[float, float]:
    """``(ready, busy)`` of every match processor once it has received
    the broadcast and run the constant tests: where each cycle starts."""
    match_start = overheads.send_us + overheads.latency_us \
        + overheads.recv_us
    return (match_start + costs.constant_tests_us,
            overheads.recv_us + costs.constant_tests_us)


def _simulate_cycle(cycle: CycleTrace, n_procs: int, costs: CostModel,
                    overheads: OverheadModel,
                    mapping: BucketMapping,
                    search_costs: Optional[Dict[int, float]] = None,
                    slots: Optional[Tuple[List[float], List[float]]] = None
                    ) -> CycleResult:
    """One cycle of the Section 3.2 mapping.

    Without *slots* the per-processor state is fresh dense lists and the
    result carries them.  With *slots* — ``(ready, busy)`` lists owned
    by the caller for a whole simulation, every entry at the
    :func:`_floors` values — the loop runs on them, packages only the
    processors the cycle touched into
    :class:`~repro.mpc.metrics.SparseProcArray` objects and resets just
    those entries, so the cycle costs O(events), not O(P).  An
    untouched processor's dense value *is* the floor, so both forms
    compare equal.
    """
    send_us = overheads.send_us
    recv_us = overheads.recv_us
    latency_us = overheads.latency_us
    left_us = costs.left_token_us
    right_us = costs.right_token_us + _TEST_MUTATE_RIGHT_TOKEN_US
    successor_us = costs.successor_us
    index = cycle.key_index()
    route = index.route(mapping)
    dest = route.dest
    base = index.base
    left = index.left
    successors = index.successors
    extra_of = search_costs or None

    # --- step 1: broadcast -------------------------------------------------
    control_busy = send_us
    network_busy = latency_us if n_procs > 0 else 0.0
    n_messages = 1  # the broadcast packet

    # --- step 2: constant tests on every processor -------------------------
    floor_ready, floor_busy = _floors(costs, overheads)
    if slots is None:
        ready = [floor_ready] * n_procs
        busy = [floor_busy] * n_procs
    else:
        ready, busy = slots

    token_messages = 0
    #: The event queue: a heap of the distinct pending arrival times,
    #: each with its events in push order.  An event is the position of
    #: the activation to process (its processor is the bucket owner,
    #: ``dest[pos]``), complemented (``~pos``) when it came as a
    #: message.  Costs are non-negative, so nothing is ever pushed
    #: earlier than the event being processed, and draining one
    #: arrival's events in push order is exactly the (arrival, push
    #: sequence) order of a heap of single events.
    times: List[float] = []
    pending: Dict[float, list] = {}
    heappush = heapq.heappush
    heappop = heapq.heappop
    #: completion times of instantiation deliveries at the control proc
    control_arrivals: List[float] = []
    control_ready = control_busy  # control is busy until broadcast sent
    #: owners of single-CE instantiations (terminal roots)
    shippers: List[int] = []

    for r in index.roots:
        if r < 0:
            # A single-CE instantiation: produced by the constant tests;
            # the bucket owner ships it to the control processor, which
            # handles instantiation receipts FIFO as they arrive.
            owner = route.procs[index.key_of[~r]]
            shippers.append(owner)
            depart = ready[owner] + send_us
            busy[owner] += send_us
            ready[owner] = depart
            n_messages += 1
            network_busy += latency_us
            arrive = depart + latency_us
            if arrive > control_ready:
                control_ready = arrive
            control_ready += recv_us
            control_busy += recv_us
            control_arrivals.append(control_ready)
            continue
        at = ready[dest[r]]
        events = pending.get(at)
        if events is None:
            pending[at] = [r]
            heappush(times, at)
        else:
            events.append(r)

    # --- steps 3-4: event loop ---------------------------------------------
    while times:
        arrival = heappop(times)
        for pos in pending.pop(arrival):
            via_message = pos < 0
            if via_message:
                pos = ~pos
            p = dest[pos]
            proc_ready = ready[p]
            start = proc_ready if proc_ready > arrival else arrival
            t = start + recv_us if via_message else start
            if left[pos]:
                t += left_us
            else:
                t += right_us
            if extra_of is not None:
                extra = extra_of.get(pos + base)
                if extra is not None:
                    t += extra

            for succ_id in successors[pos]:
                t += successor_us
                succ = succ_id - base
                d = dest[succ]
                if d < 0:
                    t += send_us
                    n_messages += 1
                    network_busy += latency_us
                    arrive = t + latency_us
                    if arrive > control_ready:
                        control_ready = arrive
                    control_ready += recv_us
                    control_busy += recv_us
                    control_arrivals.append(control_ready)
                    continue
                if d == p:
                    at = t
                else:
                    t += send_us
                    token_messages += 1
                    at = t + latency_us
                    succ = ~succ
                events = pending.get(at)
                if events is None:
                    pending[at] = [succ]
                    heappush(times, at)
                else:
                    events.append(succ)

            busy[p] += t - start
            ready[p] = t

    # Token messages are counted where they are pushed but priced here,
    # after the loop, so the float operations keep the reference's order.
    n_messages += token_messages
    network_busy += token_messages * latency_us

    # Every two-input activation is processed exactly once, on the
    # processor owning its bucket.
    if slots is None:
        makespan = max([floor_ready] + ready + control_arrivals)
        activations, left_activations = route.per_processor()
    else:
        counts = Counter(map(dest.__getitem__, index.counted))
        left_counts = Counter(map(dest.__getitem__, index.counted_left))
        touched = dict.fromkeys(shippers)
        touched.update(counts)
        # Untouched processors all sit exactly at floor_ready, so
        # including the floor once makes this max equal the dense one.
        makespan = max([floor_ready] + [ready[p] for p in touched]
                       + control_arrivals)
        touched_busy = {}
        for p in touched:
            touched_busy[p] = busy[p]
            ready[p] = floor_ready
            busy[p] = floor_busy
        busy = SparseProcArray(n_procs, floor_busy, touched_busy)
        activations = SparseProcArray(n_procs, 0, counts)
        left_activations = SparseProcArray(n_procs, 0, left_counts)
    return CycleResult(index=cycle.index, makespan_us=makespan,
                       proc_busy_us=busy,
                       proc_activations=activations,
                       proc_left_activations=left_activations,
                       n_messages=n_messages,
                       network_busy_us=network_busy,
                       control_busy_us=control_busy)


def _simulate_single(cycle: CycleTrace, costs: CostModel,
                     overheads: OverheadModel,
                     search_costs: Optional[Dict[int, float]] = None,
                     sparse: bool = False) -> CycleResult:
    """:func:`_simulate_cycle` at ``n_procs == 1``, as one FIFO pass.

    Every activation is processed on the one match processor, in the
    order it was pushed, starting when that processor is ready (see the
    module docstring for why that is the event order).  The float
    additions are the general loop's, in its order.  With *sparse* the
    result has the compressed loop's
    :class:`~repro.mpc.metrics.SparseProcArray` form.
    """
    send_us = overheads.send_us
    recv_us = overheads.recv_us
    latency_us = overheads.latency_us
    left_us = costs.left_token_us
    right_us = costs.right_token_us + _TEST_MUTATE_RIGHT_TOKEN_US
    successor_us = costs.successor_us
    index = cycle.key_index()
    base = index.base
    left = index.left
    successors = index.successors
    tags = index.tags
    extra_of = search_costs or None

    control_busy = send_us
    network_busy = latency_us
    n_messages = 1
    floor_ready, floor_busy = _floors(costs, overheads)
    ready = floor_ready
    busy = floor_busy
    control_ready = control_busy
    control_arrivals: List[float] = []
    queue: List[int] = []
    for r in index.roots:
        if r < 0:
            ready += send_us
            busy += send_us
            n_messages += 1
            network_busy += latency_us
            arrive = ready + latency_us
            if arrive > control_ready:
                control_ready = arrive
            control_ready += recv_us
            control_busy += recv_us
            control_arrivals.append(control_ready)
        else:
            queue.append(r)

    # The queue grows while it is walked: successors join its end.
    for pos in queue:
        t = ready + (left_us if left[pos] else right_us)
        if extra_of is not None:
            extra = extra_of.get(pos + base)
            if extra is not None:
                t += extra
        for succ_id in successors[pos]:
            t += successor_us
            succ = succ_id - base
            if tags[succ] >= TAG_TERMINAL:
                t += send_us
                n_messages += 1
                network_busy += latency_us
                arrive = t + latency_us
                if arrive > control_ready:
                    control_ready = arrive
                control_ready += recv_us
                control_busy += recv_us
                control_arrivals.append(control_ready)
            else:
                queue.append(succ)
        busy += t - ready
        ready = t

    makespan = max([floor_ready, ready] + control_arrivals)
    n_acts = len(index.counted)
    n_left = len(index.counted_left)
    if not sparse:
        return CycleResult(index=cycle.index, makespan_us=makespan,
                           proc_busy_us=[busy], proc_activations=[n_acts],
                           proc_left_activations=[n_left],
                           n_messages=n_messages,
                           network_busy_us=network_busy,
                           control_busy_us=control_busy)
    touched = bool(n_acts or control_arrivals)
    return CycleResult(
        index=cycle.index, makespan_us=makespan,
        proc_busy_us=SparseProcArray(1, floor_busy,
                                     {0: busy} if touched else None),
        proc_activations=SparseProcArray(1, 0, {0: n_acts} if n_acts
                                         else None),
        proc_left_activations=SparseProcArray(1, 0, {0: n_left} if n_left
                                              else None),
        n_messages=n_messages, network_busy_us=network_busy,
        control_busy_us=control_busy)


def _idle_cycle_result(n_procs: int, costs: CostModel,
                       overheads: OverheadModel) -> CycleResult:
    """Closed-form result of one fully-idle cycle.

    An empty cycle still broadcasts the (empty) wme packet and runs the
    constant tests everywhere, so its cost is exactly the Section 3.2
    floor: makespan ``send + latency + recv + constant_tests``, every
    processor busy ``recv + constant_tests``, one message (the
    broadcast), ``latency`` of network transit and ``send`` of control
    time.  The expressions mirror :func:`_simulate_cycle` on an empty
    cycle operation for operation, so the template is bit-identical to
    simulating the cycle — that is what lets round compression replace
    a million executions of the dense loop with one of these plus a
    repeat count.
    """
    floor_ready, floor_busy = _floors(costs, overheads)
    return CycleResult(
        index=0,
        makespan_us=floor_ready,
        proc_busy_us=SparseProcArray(n_procs, floor_busy),
        proc_activations=SparseProcArray(n_procs, 0),
        proc_left_activations=SparseProcArray(n_procs, 0),
        n_messages=1,
        network_busy_us=overheads.latency_us if n_procs > 0 else 0.0,
        control_busy_us=overheads.send_us)


def _idle_cycle_result_faulty(n_procs: int, costs: CostModel,
                              overheads: OverheadModel,
                              faults) -> CycleResult:
    """Closed-form result of one fully-idle cycle under *faults*.

    An idle cycle carries no data messages (the broadcast is reliable
    by model), so loss, duplication and jitter draws can never reach it
    — the only fault state that can is a stall window.  Cycle-specific
    stalls and fail-stops are excluded from compression by the caller
    (their indices break the stretch), leaving every-cycle
    (``cycle=None``) windows, which by definition hit each idle cycle
    identically: one template serves the whole stretch.  Each
    expression mirrors :func:`repro.mpc.faults
    .simulate_cycle_with_faults` on an empty cycle operation for
    operation — same operands, same order — so the template is
    bit-identical to simulating the cycle.
    """
    base = _idle_cycle_result(n_procs, costs, overheads)
    windows: Dict[int, List[Tuple[float, float]]] = {}
    for stall in faults.stalls:
        if stall.cycle is not None:
            continue
        if not 0 <= stall.proc < n_procs:
            continue
        windows.setdefault(stall.proc, []).append(
            (stall.start_us, stall.end_us))
    if not windows:
        return base
    match_start = overheads.send_us + overheads.latency_us \
        + overheads.recv_us
    stall_us = 0.0
    makespan = base.makespan_us
    for p in sorted(windows):  # ascending: float-sum order matters
        intervals = windows[p]
        intervals.sort()
        t = match_start
        for start, end in intervals:
            if start <= t < end:
                t = end
        stall_us += t - match_start
        ready = t + costs.constant_tests_us
        if ready > makespan:
            makespan = ready
    return replace(base, makespan_us=makespan, stall_us=stall_us)


def simulate_base(trace: SectionTrace,
                  costs: CostModel = DEFAULT_COSTS) -> SimResult:
    """The paper's base case: one match processor, zero overheads."""
    return simulate_config(trace, RunConfig(n_procs=1, costs=costs,
                                            overheads=ZERO_OVERHEADS))
