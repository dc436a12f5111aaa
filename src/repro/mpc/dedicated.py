"""Section 3.2 variation 2: dedicated constant-test processors.

The base mapping has the control processor broadcast wmes to "some
designated constant-node processors"; the paper warns that "these
processors could become bottlenecks, if the communication overheads are
comparatively high", and the simulated variant therefore broadcasts to
*all* processors instead (every match processor duplicates the constant
tests but no root token ever travels).

This module implements the dedicated variant so the trade-off can be
measured: ``n_const_procs`` processors split the constant-test work
(the Rete constant nodes are partitioned among them) and then *route
every root token as a message* to the match processor owning its
bucket.  Compare with :func:`repro.mpc.simulate` (the broadcast
variant) in ``benchmarks/bench_continuum.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..trace.events import (KIND_TERMINAL, LEFT, CycleTrace, SectionTrace,
                            TraceActivation)
from .costmodel import DEFAULT_COSTS, ZERO_OVERHEADS, CostModel, \
    OverheadModel
from .mapping import BucketMapping, RoundRobinMapping
from .metrics import CycleResult, SimResult
from .simulator import compute_search_costs


@dataclass
class _Task:
    arrival: float
    seq: int
    proc: int
    act: TraceActivation
    via_message: bool

    def __lt__(self, other: "_Task") -> bool:
        return (self.arrival, self.seq) < (other.arrival, other.seq)


def simulate_dedicated_alpha(trace: SectionTrace, n_procs: int,
                             n_const_procs: int = 2,
                             costs: CostModel = DEFAULT_COSTS,
                             overheads: OverheadModel = ZERO_OVERHEADS,
                             mapping: Optional[BucketMapping] = None
                             ) -> SimResult:
    """Simulate with *n_const_procs* dedicated constant-test processors.

    The machine has ``n_procs`` match processors plus the dedicated
    constant-test processors (reported at indices ``n_procs..``) plus
    the control processor.
    """
    if n_procs < 1:
        raise ValueError("need at least one match processor")
    if n_const_procs < 1:
        raise ValueError("need at least one constant-test processor")
    if mapping is None:
        mapping = RoundRobinMapping(n_procs)
    if mapping.n_procs != n_procs:
        raise ValueError(
            f"mapping built for {mapping.n_procs} processors, "
            f"simulating {n_procs}")
    search_costs = compute_search_costs(trace, costs)
    result = SimResult(trace_name=trace.name,
                       n_procs=n_procs + n_const_procs)
    for cycle in trace:
        result.cycles.append(_simulate_cycle(
            cycle, n_procs, n_const_procs, costs, overheads, mapping,
            search_costs.get(cycle.index, {})))
    return result


def _simulate_cycle(cycle: CycleTrace, n_procs: int, n_const: int,
                    costs: CostModel, overheads: OverheadModel,
                    mapping: BucketMapping,
                    search_costs: Dict[int, float]) -> CycleResult:
    index = cycle.key_index()
    dest_of = index.destinations(mapping)
    base = index.base
    control_busy = overheads.send_us
    const_start = (overheads.send_us + overheads.latency_us
                   + overheads.recv_us)
    # The constant nodes are partitioned among the dedicated processors.
    const_work = costs.constant_tests_us / n_const
    total = n_procs + n_const
    ready = [0.0] * n_procs + [const_start + const_work] * n_const
    busy = [0.0] * n_procs + \
        [overheads.recv_us + const_work] * n_const
    activations = [0] * total
    left_activations = [0] * total
    n_messages = 1
    network_busy = overheads.latency_us
    control_ready = control_busy
    control_arrivals: List[float] = []

    queue: List[_Task] = []
    seq = 0

    def send_to_control(depart: float) -> None:
        nonlocal control_ready, control_busy, n_messages, network_busy
        n_messages += 1
        network_busy += overheads.latency_us
        arrive = depart + overheads.latency_us
        control_ready = max(control_ready, arrive) + overheads.recv_us
        control_busy += overheads.recv_us
        control_arrivals.append(control_ready)

    # Roots are produced on the dedicated processors (round robin over
    # them, in trace order) and shipped to their bucket owners.
    for i, root in enumerate(cycle.roots()):
        cp = n_procs + i % n_const
        depart = ready[cp] + overheads.send_us
        busy[cp] += overheads.send_us
        ready[cp] = depart
        n_messages += 1
        network_busy += overheads.latency_us
        if root.kind == KIND_TERMINAL:
            send_to_control(depart)
            continue
        owner = dest_of[root.act_id - base]
        seq += 1
        heapq.heappush(queue, _Task(
            arrival=depart + overheads.latency_us, seq=seq, proc=owner,
            act=root, via_message=True))

    while queue:
        task = heapq.heappop(queue)
        p = task.proc
        act = task.act
        start = max(ready[p], task.arrival)
        t = start + overheads.recv_us if task.via_message else start
        t += costs.store_cost(act.side)
        t += search_costs.get(act.act_id, 0.0)
        activations[p] += 1
        if act.side == LEFT:
            left_activations[p] += 1
        for succ_id in act.successors:
            succ = cycle.activations[succ_id]
            t += costs.successor_us
            if succ.kind == KIND_TERMINAL:
                t += overheads.send_us
                send_to_control(t)
                continue
            dest = dest_of[succ_id - base]
            seq += 1
            if dest == p:
                heapq.heappush(queue, _Task(arrival=t, seq=seq, proc=p,
                                            act=succ, via_message=False))
            else:
                t += overheads.send_us
                n_messages += 1
                network_busy += overheads.latency_us
                heapq.heappush(queue, _Task(
                    arrival=t + overheads.latency_us, seq=seq,
                    proc=dest, act=succ, via_message=True))
        busy[p] += t - start
        ready[p] = t

    makespan = max(ready + control_arrivals
                   + [const_start + const_work])
    return CycleResult(index=cycle.index, makespan_us=makespan,
                       proc_busy_us=busy,
                       proc_activations=activations,
                       proc_left_activations=left_activations,
                       n_messages=n_messages,
                       network_busy_us=network_busy,
                       control_busy_us=control_busy)
