"""Reference (pre-optimization) implementations of the cycle simulation.

These are the straightforward object-based event loops the optimized
loops replaced: :func:`simulate_cycle_reference` for
:mod:`repro.mpc.simulator` and :func:`simulate_cycle_with_faults_reference`
for :mod:`repro.mpc.faults`.  They are kept, verbatim in logic, for two
jobs:

* **Executable specification** — ``tests/test_mpc_simulator.py``,
  ``tests/test_mpc_faults.py`` and the ``opt_vs_reference`` /
  ``faults_vs_reference`` oracles of :mod:`repro.check` assert that the
  optimized loops produce bit-identical
  :class:`~repro.mpc.metrics.CycleResult`\\ s.
* **Honest baseline** — ``benchmarks/bench_harness_perf.py`` measures
  the optimized hot paths against these implementations on the same
  machine, so the recorded speedup is not a cross-machine guess.

Both loops read each cycle's :class:`TraceActivation` objects from one
``cycle.key_index().view()`` call, the view's one use in ``src/``.

Do not use them in experiment code; they are deliberately slow.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..trace.events import (KIND_TERMINAL, LEFT, CycleTrace, SectionTrace,
                            TraceActivation)
from .costmodel import DEFAULT_COSTS, ZERO_OVERHEADS, CostModel, \
    OverheadModel
from .faults import DEFAULT_PROTOCOL, FaultModel, ProtocolModel, \
    plan_delivery
from .mapping import BucketMapping, RoundRobinMapping
from .metrics import CycleResult, SimResult


@dataclass
class _Task:
    """A pending activation delivery to a match processor."""

    arrival: float
    seq: int
    proc: int
    act: TraceActivation
    via_message: bool

    def __lt__(self, other: "_Task") -> bool:
        return (self.arrival, self.seq) < (other.arrival, other.seq)


def simulate_cycle_reference(cycle: CycleTrace, n_procs: int,
                             costs: CostModel, overheads: OverheadModel,
                             mapping: BucketMapping,
                             search_costs: Optional[Dict[int, float]] = None
                             ) -> CycleResult:
    """One cycle of the Section 3.2 mapping, unoptimized."""
    acts = cycle.key_index().view()
    roots = [act for act in acts.values() if act.parent_id is None]
    search_costs = search_costs or {}
    # --- step 1: broadcast -------------------------------------------------
    control_busy = overheads.send_us
    match_start = (overheads.send_us + overheads.latency_us
                   + overheads.recv_us)
    network_busy = overheads.latency_us if n_procs > 0 else 0.0
    n_messages = 1  # the broadcast packet

    # --- step 2: constant tests on every processor -------------------------
    ready = [match_start + costs.constant_tests_us] * n_procs
    busy = [overheads.recv_us + costs.constant_tests_us] * n_procs
    activations = [0] * n_procs
    left_activations = [0] * n_procs

    seq = 0
    queue: List[_Task] = []
    control_arrivals: List[float] = []
    control_ready = control_busy  # control is busy until broadcast sent
    #: token messages sent, priced after the loop
    token_messages = 0

    def send_to_control(depart: float) -> None:
        nonlocal control_busy, control_ready, network_busy, n_messages
        n_messages += 1
        network_busy += overheads.latency_us
        arrive = depart + overheads.latency_us
        control_ready = max(control_ready, arrive) + overheads.recv_us
        control_busy += overheads.recv_us
        control_arrivals.append(control_ready)

    for root in roots:
        owner = mapping.processor_for(root.key)
        if root.kind == KIND_TERMINAL:
            depart = ready[owner] + overheads.send_us
            busy[owner] += overheads.send_us
            ready[owner] = depart
            send_to_control(depart)
            continue
        seq += 1
        heapq.heappush(queue, _Task(arrival=ready[owner], seq=seq,
                                    proc=owner, act=root,
                                    via_message=False))

    # --- steps 3-4: event loop ---------------------------------------------
    while queue:
        task = heapq.heappop(queue)
        p = task.proc
        act = task.act
        start = max(ready[p], task.arrival)
        t = start
        if task.via_message:
            t += overheads.recv_us
        t += costs.store_cost(act.side)
        t += search_costs.get(act.act_id, 0.0)
        activations[p] += 1
        if act.side == LEFT:
            left_activations[p] += 1

        for succ_id in act.successors:
            succ = acts[succ_id]
            t += costs.successor_us
            if succ.kind == KIND_TERMINAL:
                t += overheads.send_us
                send_to_control(t)
                continue
            dest = mapping.processor_for(succ.key)
            seq += 1
            if dest == p:
                heapq.heappush(queue, _Task(arrival=t, seq=seq, proc=p,
                                            act=succ, via_message=False))
            else:
                t += overheads.send_us
                token_messages += 1
                heapq.heappush(queue, _Task(
                    arrival=t + overheads.latency_us, seq=seq, proc=dest,
                    act=succ, via_message=True))

        busy[p] += t - start
        ready[p] = t

    n_messages += token_messages
    network_busy += token_messages * overheads.latency_us

    makespan = max([match_start + costs.constant_tests_us]
                   + ready + control_arrivals)
    return CycleResult(index=cycle.index, makespan_us=makespan,
                       proc_busy_us=busy,
                       proc_activations=activations,
                       proc_left_activations=left_activations,
                       n_messages=n_messages,
                       network_busy_us=network_busy,
                       control_busy_us=control_busy)


def simulate_reference(trace: SectionTrace, n_procs: int,
                       costs: CostModel = DEFAULT_COSTS,
                       overheads: OverheadModel = ZERO_OVERHEADS,
                       mapping: Optional[BucketMapping] = None) -> SimResult:
    """Whole-section reference simulation (round-robin mapping only)."""
    from .simulator import compute_search_costs
    if mapping is None:
        mapping = RoundRobinMapping(n_procs)
    search_costs = compute_search_costs(trace, costs)
    result = SimResult(trace_name=trace.name, n_procs=n_procs)
    for cycle in trace:
        result.cycles.append(
            simulate_cycle_reference(cycle, n_procs, costs, overheads,
                                     mapping,
                                     search_costs.get(cycle.index, {})))
    return result


def simulate_cycle_with_faults_reference(
        cycle: CycleTrace, n_procs: int, costs: CostModel,
        overheads: OverheadModel, mapping: BucketMapping,
        faults: FaultModel, protocol: ProtocolModel,
        search_costs: Optional[Dict[int, float]] = None) -> CycleResult:
    """One cycle under *faults* + *protocol*, over activation objects.

    The fault/protocol loop as it was before it moved onto the compiled
    cycle table: a heap of single events, and a delivery plan drawn at
    the sender and drawn again at the receiver to learn its duplicate
    count.
    """
    send_us = overheads.send_us
    recv_us = overheads.recv_us
    latency_us = overheads.latency_us
    acts = cycle.key_index().view()
    roots = [act for act in acts.values() if act.parent_id is None]
    get_extra = (search_costs or {}).get
    cycle_index = cycle.index

    prefix = faults.cycle_prefix(cycle_index)
    windows = faults.windows_for_cycle(cycle_index, n_procs)
    recovery_us = faults.recovery_in_cycle(cycle_index, n_procs)
    retransmits = 0
    duplicate_drops = 0
    acks = 0
    timeout_wait_us = 0.0
    stall_us = 0.0

    def past_stalls(p: int, t: float) -> float:
        for start, end in windows.get(p, ()):
            if start <= t < end:
                t = end
        return t

    # --- step 1: broadcast (reliable) --------------------------------------
    control_busy = send_us
    match_start = send_us + latency_us + recv_us
    network_busy = latency_us if n_procs > 0 else 0.0
    n_messages = 1

    # --- step 2: constant tests, start pushed past stall windows -----------
    ready = []
    for p in range(n_procs):
        start = past_stalls(p, match_start)
        stall_us += start - match_start
        ready.append(start + costs.constant_tests_us)
    busy = [recv_us + costs.constant_tests_us] * n_procs
    activations = [0] * n_procs
    left_activations = [0] * n_procs

    seq = 0
    queue: list = []
    control_arrivals: List[float] = []
    control_ready = control_busy

    def account(plan) -> None:
        nonlocal network_busy, n_messages, retransmits, duplicate_drops
        nonlocal acks, timeout_wait_us
        copies = plan.attempts + plan.duplicates
        retransmits += plan.retransmits
        duplicate_drops += plan.duplicates
        timeout_wait_us += plan.timeout_wait_us
        acks += 1 + plan.duplicates
        n_messages += copies + 1 + plan.duplicates
        network_busy += latency_us * (copies + 1 + plan.duplicates) \
            + plan.jitter_us

    def send_to_control(depart_base: float, msg_id: int) -> float:
        nonlocal control_busy, control_ready
        plan = plan_delivery(faults, protocol, cycle_index, msg_id,
                             prefix)
        account(plan)
        t = depart_base + send_us * plan.attempts + recv_us
        arrive = depart_base + send_us + plan.timeout_wait_us \
            + latency_us + plan.jitter_us
        per_copy = recv_us + send_us
        control_ready = max(control_ready, arrive) \
            + per_copy * (1 + plan.duplicates)
        control_busy += per_copy * (1 + plan.duplicates)
        control_arrivals.append(control_ready)
        return t

    for root in roots:
        owner = mapping.processor_for(root.key)
        if root.kind == KIND_TERMINAL:
            start = past_stalls(owner, ready[owner])
            stall_us += start - ready[owner]
            t = send_to_control(start, root.act_id)
            busy[owner] += t - start
            ready[owner] = t
            continue
        seq += 1
        heapq.heappush(queue, (ready[owner], seq, owner, False, root))

    # --- steps 3-4: event loop ---------------------------------------------
    while queue:
        arrival, _, p, via_message, act = heapq.heappop(queue)
        start = max(ready[p], arrival)
        stalled = past_stalls(p, start)
        stall_us += stalled - start
        start = stalled
        t = start
        if via_message:
            plan = plan_delivery(faults, protocol, cycle_index,
                                 act.act_id, prefix)
            t += (recv_us + send_us) * (1 + plan.duplicates)
        t += costs.store_cost(act.side)
        extra = get_extra(act.act_id)
        if extra is not None:
            t += extra
        activations[p] += 1
        if act.side == LEFT:
            left_activations[p] += 1

        for succ_id in act.successors:
            succ = acts[succ_id]
            t += costs.successor_us
            if succ.kind == KIND_TERMINAL:
                t = send_to_control(t, succ_id)
                continue
            dest = mapping.processor_for(succ.key)
            seq += 1
            if dest == p:
                heapq.heappush(queue, (t, seq, p, False, succ))
            else:
                plan = plan_delivery(faults, protocol, cycle_index,
                                     succ_id, prefix)
                account(plan)
                arrive = t + send_us + plan.timeout_wait_us \
                    + latency_us + plan.jitter_us
                t += send_us * plan.attempts + recv_us
                heapq.heappush(queue, (arrive, seq, dest, True, succ))

        busy[p] += t - start
        ready[p] = t

    makespan = max([match_start + costs.constant_tests_us]
                   + ready + control_arrivals)
    return CycleResult(index=cycle_index, makespan_us=makespan,
                       proc_busy_us=busy,
                       proc_activations=activations,
                       proc_left_activations=left_activations,
                       n_messages=n_messages,
                       network_busy_us=network_busy,
                       control_busy_us=control_busy,
                       retransmits=retransmits,
                       duplicate_drops=duplicate_drops,
                       acks=acks,
                       timeout_wait_us=timeout_wait_us,
                       stall_us=stall_us,
                       recovery_us=recovery_us)


def simulate_with_faults_reference(
        trace: SectionTrace, n_procs: int, faults: FaultModel,
        costs: CostModel = DEFAULT_COSTS,
        overheads: OverheadModel = ZERO_OVERHEADS,
        mapping: Optional[BucketMapping] = None,
        protocol: ProtocolModel = DEFAULT_PROTOCOL) -> SimResult:
    """Whole-section reference simulation under *faults*."""
    from .simulator import compute_search_costs
    if mapping is None:
        mapping = RoundRobinMapping(n_procs)
    search_costs = compute_search_costs(trace, costs)
    result = SimResult(trace_name=trace.name, n_procs=n_procs)
    for cycle in trace:
        result.cycles.append(simulate_cycle_with_faults_reference(
            cycle, n_procs, costs, overheads, mapping, faults, protocol,
            search_costs.get(cycle.index, {})))
    return result
