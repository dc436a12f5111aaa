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

Everything is deterministic: the event queue breaks ties on a sequence
counter and processors serve tasks FIFO by arrival time.

The inner event loop is the harness's hottest code — every sweep point
of every figure goes through it — so it is written for speed: heap
entries are plain ``(arrival, seq, proc, via_message, activation)``
tuples (the unique ``seq`` guarantees comparison never reaches the
activation), and per-event attribute/method lookups are hoisted into
locals.  Routing never hashes a bucket key per simulation: each cycle
compiles its distinct keys and their hashes once into a cached
:class:`~repro.trace.events.CycleKeyIndex`
(:meth:`~repro.trace.events.CycleTrace.key_index`), and every
simulation of the cycle — at any processor count, under any mapping —
maps just those keys (``mapping.processors``) and expands them into a
per-activation destination list with one list comprehension.  Token
messages are counted where they are pushed.  :mod:`repro.mpc._reference`
preserves the original object-based loop; ``tests/test_mpc_parallel.py``
and ``tests/test_mpc_cycle_index.py`` assert both produce bit-identical
results.

Scaling to thousands of processors (ROADMAP item 3)
---------------------------------------------------
The dense loop above still charges O(P) per cycle — list allocations,
the final ``max`` — which dominates exactly in the regime the paper
says matters (mostly-idle machines).  ``RunConfig(compress_rounds=
True)`` switches to two complementary optimizations, both **bit-exact**
(the ``compressed_vs_exact`` oracle in :mod:`repro.check` holds them to
the reference loop):

* an **active-set event loop** (:func:`_simulate_cycle_active`): per
  cycle only processors that did cycle-specific work get entries in
  the ready/busy dictionaries; everyone else sits at the closed-form
  broadcast + constant-test floor, represented once by a
  :class:`~repro.mpc.metrics.SparseProcArray` default.  Every
  floating-point operation that *does* happen uses the same operands
  in the same order as the dense loop, so results are bit-identical.
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
import warnings
from collections import defaultdict
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Tuple

from ..rete.hashing import BucketKey
from ..trace.events import (KIND_TERMINAL, LEFT, CycleTrace, IdleRun,
                            SectionTrace, iter_cycles)
from .config import MappingFactory, RunConfig
from .costmodel import DEFAULT_COSTS, ZERO_OVERHEADS, CostModel, \
    OverheadModel
from .mapping import BucketMapping, RoundRobinMapping, greedy_mapping
from .metrics import CycleResult, SimResult, SparseProcArray

#: Test-only mis-pricing hook for the conformance harness
#: (:mod:`repro.check`).  When nonzero, the optimized event loops —
#: dense and active-set; the reference loop, the fault/protocol loop
#: and the recorded mirror all ignore it — charge right tokens this
#: many extra microseconds.  The harness's mutation smoke test sets it
#: (via :func:`repro.check.mutate_cost`) to prove the oracle matrix
#: catches a mis-priced cost constant.  Never set it outside tests.
_TEST_MUTATE_RIGHT_TOKEN_US = 0.0


def bucket_work(cycle: CycleTrace,
                costs: CostModel = DEFAULT_COSTS) -> Dict[BucketKey, float]:
    """Per-bucket processing time in *cycle* (greedy-distribution input).

    This is the "detailed trace of the activity in each bucket" the paper
    feeds its offline greedy algorithm.
    """
    work: Dict[BucketKey, float] = defaultdict(float)
    left_us = costs.left_token_us
    right_us = costs.right_token_us
    successor_us = costs.successor_us
    for act in cycle.ordered():
        if act.kind == KIND_TERMINAL:
            continue
        work[act.key] += (left_us if act.side == LEFT else right_us) \
            + successor_us * len(act.successors)
    return dict(work)


class BucketWorkCache:
    """Memoized :func:`bucket_work`, shared across sweep points.

    The greedy-distribution experiments rebuild a mapping per (cycle,
    processor count) pair; the per-bucket activity depends only on the
    cycle, so one cache serves every processor count of a sweep.  Cycles
    are identified by object identity (a strong reference is kept, so an
    id is never recycled while cached).
    """

    def __init__(self, costs: CostModel = DEFAULT_COSTS) -> None:
        self.costs = costs
        self._cache: Dict[int, tuple] = {}

    def __call__(self, cycle: CycleTrace) -> Dict[BucketKey, float]:
        entry = self._cache.get(id(cycle))
        if entry is None or entry[0] is not cycle:
            entry = (cycle, bucket_work(cycle, self.costs))
            self._cache[id(cycle)] = entry
        return entry[1]

    def __getstate__(self):
        # The cache keys are process-local object ids: never ship them
        # to a worker process (the parallel sweep engine pickles
        # factories); start empty there instead.
        return {"costs": self.costs}

    def __setstate__(self, state):
        self.costs = state["costs"]
        self._cache = {}


class GreedyMappingFactory:
    """Per-cycle idealized greedy (LPT) distribution, ready to share.

    A picklable :data:`MappingFactory`: pass
    ``mapping_factory=GreedyMappingFactory(n_procs)`` to
    :func:`simulate`, or build one per processor count around a shared
    :class:`BucketWorkCache` so a whole sweep prices each cycle's bucket
    activity once.
    """

    def __init__(self, n_procs: int,
                 costs: CostModel = DEFAULT_COSTS,
                 work_cache: Optional[BucketWorkCache] = None) -> None:
        self.n_procs = n_procs
        self.work_cache = work_cache if work_cache is not None \
            else BucketWorkCache(costs)

    def __call__(self, cycle: CycleTrace) -> BucketMapping:
        return greedy_mapping(self.work_cache(cycle), self.n_procs)


class _SearchCostTracker:
    """Incremental deletion-search pricing (footnote 6 model).

    Bucket occupancy is tracked in causal (serial trace) order across
    the whole section — Rete memory persists between cycles — and every
    "-" activation is charged ``delete_search_us`` per entry it must
    scan past.  The depth state only ever advances, so charging cycles
    one at a time as the engine reaches them is bit-identical to the
    old up-front whole-trace pass — and it is what lets
    :func:`iter_cycle_results` consume streaming traces in one pass.
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
        depth = self.depth
        per_cycle: Dict[int, float] = {}
        for act in cycle:
            if act.kind == KIND_TERMINAL:
                continue
            if act.tag == "+":
                depth[act.key] = depth.get(act.key, 0) + 1
            else:
                before = depth.get(act.key, 0)
                if before > 0:
                    per_cycle[act.act_id] = rate * before
                    depth[act.key] = before - 1
        return per_cycle


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
    simulate_cycle_with_faults = None
    record_idle_stretch = None
    if faulty:
        from .faults import DEFAULT_PROTOCOL, simulate_cycle_with_faults
        if protocol is None:
            protocol = DEFAULT_PROTOCOL
    if recorder is not None:
        from .timeline import _record_idle_stretch as record_idle_stretch
        from .timeline import _simulate_cycle_recorded
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
            record_idle_stretch(recorder, start, count, n_procs, costs,
                                overheads)
        yield (replace(idle_template, index=start), count)

    def one_cycle(cycle) -> Iterator[Tuple[CycleResult, int]]:
        """Simulate one cycle on whichever loop the config selects."""
        cycle_mapping = (mapping_factory(cycle) if mapping_factory
                         else mapping)
        if cycle_mapping.n_procs != n_procs:
            raise ValueError("mapping_factory produced a mapping for "
                             f"{cycle_mapping.n_procs} processors")
        search_costs = tracker.charge(cycle)
        if faulty:
            cycle_result = simulate_cycle_with_faults(
                cycle, n_procs, costs, overheads, cycle_mapping,
                faults, protocol, search_costs, recorder=recorder)
        elif recorder is not None:
            cycle_result = _simulate_cycle_recorded(
                cycle, n_procs, costs, overheads, cycle_mapping,
                search_costs, recorder)
        elif compress:
            cycle_result = _simulate_cycle_active(
                cycle, n_procs, costs, overheads, cycle_mapping,
                search_costs)
        else:
            cycle_result = _simulate_cycle(
                cycle, n_procs, costs, overheads, cycle_mapping,
                search_costs)
        yield (cycle_result, 1)

    for entry in trace:
        is_idle_run = isinstance(entry, IdleRun)
        if compress:
            # Fully-idle cycles (empty trace cycles or IdleRun markers)
            # join the pending stretch while contiguous; anything else
            # flushes it first.
            if is_idle_run:
                idle_start, idle_count = entry.start_index, entry.count
            elif not entry.activations:
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
    shares; :func:`simulate` is a thin compatibility wrapper around it,
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
        every cycle through the span-recording mirror of the event loop
        (:mod:`repro.mpc.timeline`) without changing any result bit.
        ``config.compress_rounds`` selects the active-set event loop
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
             overheads: OverheadModel = ZERO_OVERHEADS,
             mapping: Optional[BucketMapping] = None,
             mapping_factory: Optional[MappingFactory] = None,
             faults: Optional["FaultModel"] = None,
             protocol: Optional["ProtocolModel"] = None,
             recorder: Optional["TimelineRecorder"] = None) -> SimResult:
    """Simulate *trace* on *n_procs* match processors.

    Compatibility wrapper over :func:`simulate_config`.  The short form
    — ``simulate(trace, n_procs, costs=..., overheads=...)`` — remains
    the supported convenience spelling.  The remaining keywords
    (*mapping*, *mapping_factory*, *faults*, *protocol*, *recorder*)
    are **deprecated** here: build a
    :class:`~repro.mpc.config.RunConfig` and call
    :func:`simulate_config` instead.  Passing any of them emits a
    ``DeprecationWarning`` (results are unchanged).
    """
    if (mapping is not None or mapping_factory is not None
            or faults is not None or protocol is not None
            or recorder is not None):
        warnings.warn(
            "passing mapping/mapping_factory/faults/protocol/recorder "
            "to simulate() is deprecated; build a RunConfig and call "
            "simulate_config(trace, config)",
            DeprecationWarning, stacklevel=2)
    return simulate_config(trace, RunConfig(
        n_procs=n_procs, costs=costs, overheads=overheads,
        mapping=mapping, mapping_factory=mapping_factory,
        faults=faults, protocol=protocol, recorder=recorder))


def _simulate_cycle(cycle: CycleTrace, n_procs: int, costs: CostModel,
                    overheads: OverheadModel,
                    mapping: BucketMapping,
                    search_costs: Optional[Dict[int, float]] = None
                    ) -> CycleResult:
    send_us = overheads.send_us
    recv_us = overheads.recv_us
    latency_us = overheads.latency_us
    left_us = costs.left_token_us
    right_us = costs.right_token_us + _TEST_MUTATE_RIGHT_TOKEN_US
    successor_us = costs.successor_us
    acts = cycle.activations
    get_extra = (search_costs or {}).get
    index = cycle.key_index()
    dest_of = index.destinations(mapping)
    base = index.base

    # --- step 1: broadcast -------------------------------------------------
    control_busy = send_us
    match_start = send_us + latency_us + recv_us
    network_busy = latency_us if n_procs > 0 else 0.0
    n_messages = 1  # the broadcast packet

    # --- step 2: constant tests on every processor -------------------------
    ready = [match_start + costs.constant_tests_us] * n_procs
    busy = [recv_us + costs.constant_tests_us] * n_procs
    activations = [0] * n_procs
    left_activations = [0] * n_procs

    seq = 0
    token_messages = 0
    #: heap of (arrival, seq, proc, via_message, activation); seq is
    #: unique, so tuple comparison never reaches the activation.
    queue: list = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    #: completion times of instantiation deliveries at the control proc
    control_arrivals: List[float] = []
    control_ready = control_busy  # control is busy until broadcast sent

    def send_to_control(depart: float) -> None:
        nonlocal control_busy, control_ready, network_busy, n_messages
        n_messages += 1
        network_busy += latency_us
        arrive = depart + latency_us
        # Control handles instantiation receipts FIFO as they arrive.
        control_ready = max(control_ready, arrive) + recv_us
        control_busy += recv_us
        control_arrivals.append(control_ready)

    for root in cycle.roots():
        owner = dest_of[root.act_id - base]
        if root.kind == KIND_TERMINAL:
            # A single-CE instantiation: produced by the constant tests;
            # the bucket owner ships it to the control processor.
            depart = ready[owner] + send_us
            busy[owner] += send_us
            ready[owner] = depart
            send_to_control(depart)
            continue
        seq += 1
        heappush(queue, (ready[owner], seq, owner, False, root))

    # --- steps 3-4: event loop ---------------------------------------------
    while queue:
        arrival, _, p, via_message, act = heappop(queue)
        proc_ready = ready[p]
        start = proc_ready if proc_ready > arrival else arrival
        t = start
        if via_message:
            t += recv_us
        t += left_us if act.side == LEFT else right_us
        extra = get_extra(act.act_id)
        if extra is not None:
            t += extra
        activations[p] += 1
        if act.side == LEFT:
            left_activations[p] += 1

        for succ_id in act.successors:
            succ = acts[succ_id]
            t += successor_us
            if succ.kind == KIND_TERMINAL:
                t += send_us
                send_to_control(t)
                continue
            dest = dest_of[succ_id - base]
            seq += 1
            if dest == p:
                heappush(queue, (t, seq, p, False, succ))
            else:
                t += send_us
                token_messages += 1
                heappush(queue, (t + latency_us, seq, dest, True, succ))

        busy[p] += t - start
        ready[p] = t

    # Token messages are counted where they are pushed but priced here,
    # after the loop, so the float operations keep the reference's order.
    n_messages += token_messages
    network_busy += token_messages * latency_us

    makespan = max([match_start + costs.constant_tests_us]
                   + ready + control_arrivals)
    return CycleResult(index=cycle.index, makespan_us=makespan,
                       proc_busy_us=busy,
                       proc_activations=activations,
                       proc_left_activations=left_activations,
                       n_messages=n_messages,
                       network_busy_us=network_busy,
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
    send_us = overheads.send_us
    recv_us = overheads.recv_us
    latency_us = overheads.latency_us
    match_start = send_us + latency_us + recv_us
    return CycleResult(
        index=0,
        makespan_us=match_start + costs.constant_tests_us,
        proc_busy_us=SparseProcArray(
            n_procs, recv_us + costs.constant_tests_us),
        proc_activations=SparseProcArray(n_procs, 0),
        proc_left_activations=SparseProcArray(n_procs, 0),
        n_messages=1,
        network_busy_us=latency_us if n_procs > 0 else 0.0,
        control_busy_us=send_us)


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


def _simulate_cycle_active(cycle: CycleTrace, n_procs: int,
                           costs: CostModel,
                           overheads: OverheadModel,
                           mapping: BucketMapping,
                           search_costs: Optional[Dict[int, float]] = None
                           ) -> CycleResult:
    """O(active work) mirror of :func:`_simulate_cycle`.

    Identical event processing, but per-processor state lives in dicts
    keyed by the processors the cycle actually touches; everyone else
    sits at the closed-form post-broadcast floor (``floor_ready`` /
    ``floor_busy``), supplied as dict-lookup defaults and as the
    :class:`~repro.mpc.metrics.SparseProcArray` defaults of the result.
    Because an untouched processor's dense-loop value *is* exactly the
    floor, and every operation on a touched processor uses the same
    operands in the same order as the dense loop, the result is
    bit-identical — at O(events) cost instead of O(P + events).
    """
    send_us = overheads.send_us
    recv_us = overheads.recv_us
    latency_us = overheads.latency_us
    left_us = costs.left_token_us
    right_us = costs.right_token_us + _TEST_MUTATE_RIGHT_TOKEN_US
    successor_us = costs.successor_us
    acts = cycle.activations
    get_extra = (search_costs or {}).get
    index = cycle.key_index()
    dest_of = index.destinations(mapping)
    base = index.base

    # --- step 1: broadcast -------------------------------------------------
    control_busy = send_us
    match_start = send_us + latency_us + recv_us
    network_busy = latency_us if n_procs > 0 else 0.0
    n_messages = 1  # the broadcast packet

    # --- step 2: constant tests — the floor every processor starts at ------
    floor_ready = match_start + costs.constant_tests_us
    floor_busy = recv_us + costs.constant_tests_us
    ready: Dict[int, float] = {}
    busy: Dict[int, float] = {}
    activations: Dict[int, int] = {}
    left_activations: Dict[int, int] = {}
    ready_get = ready.get
    busy_get = busy.get
    activations_get = activations.get
    left_get = left_activations.get

    seq = 0
    token_messages = 0
    queue: list = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    control_arrivals: List[float] = []
    control_ready = control_busy  # control is busy until broadcast sent

    def send_to_control(depart: float) -> None:
        nonlocal control_busy, control_ready, network_busy, n_messages
        n_messages += 1
        network_busy += latency_us
        arrive = depart + latency_us
        control_ready = max(control_ready, arrive) + recv_us
        control_busy += recv_us
        control_arrivals.append(control_ready)

    for root in cycle.roots():
        owner = dest_of[root.act_id - base]
        if root.kind == KIND_TERMINAL:
            depart = ready_get(owner, floor_ready) + send_us
            busy[owner] = busy_get(owner, floor_busy) + send_us
            ready[owner] = depart
            send_to_control(depart)
            continue
        seq += 1
        heappush(queue, (ready_get(owner, floor_ready), seq, owner,
                         False, root))

    # --- steps 3-4: event loop ---------------------------------------------
    while queue:
        arrival, _, p, via_message, act = heappop(queue)
        proc_ready = ready_get(p, floor_ready)
        start = proc_ready if proc_ready > arrival else arrival
        t = start
        if via_message:
            t += recv_us
        t += left_us if act.side == LEFT else right_us
        extra = get_extra(act.act_id)
        if extra is not None:
            t += extra
        activations[p] = activations_get(p, 0) + 1
        if act.side == LEFT:
            left_activations[p] = left_get(p, 0) + 1

        for succ_id in act.successors:
            succ = acts[succ_id]
            t += successor_us
            if succ.kind == KIND_TERMINAL:
                t += send_us
                send_to_control(t)
                continue
            dest = dest_of[succ_id - base]
            seq += 1
            if dest == p:
                heappush(queue, (t, seq, p, False, succ))
            else:
                t += send_us
                token_messages += 1
                heappush(queue, (t + latency_us, seq, dest, True, succ))

        busy[p] = busy_get(p, floor_busy) + (t - start)
        ready[p] = t

    # Token messages are counted where they are pushed but priced here,
    # after the loop, so the float operations keep the reference's order.
    n_messages += token_messages
    network_busy += token_messages * latency_us

    # Untouched processors all sit exactly at floor_ready, so including
    # the floor once makes this max bit-identical to the dense one.
    makespan = max([floor_ready] + list(ready.values())
                   + control_arrivals)
    return CycleResult(index=cycle.index, makespan_us=makespan,
                       proc_busy_us=SparseProcArray(
                           n_procs, floor_busy, busy),
                       proc_activations=SparseProcArray(
                           n_procs, 0, activations),
                       proc_left_activations=SparseProcArray(
                           n_procs, 0, left_activations),
                       n_messages=n_messages,
                       network_busy_us=network_busy,
                       control_busy_us=control_busy)


def simulate_base(trace: SectionTrace,
                  costs: CostModel = DEFAULT_COSTS) -> SimResult:
    """The paper's base case: one match processor, zero overheads."""
    return simulate_config(trace, RunConfig(n_procs=1, costs=costs,
                                            overheads=ZERO_OVERHEADS))
