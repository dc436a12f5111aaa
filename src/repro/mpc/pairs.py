"""The processor-pair base mapping (paper Section 3.1, Figure 3-2).

The paper's *base* mapping assigns each hash-index partition to a
processor **pair**: the left buckets to the left processor, the right
buckets to the right processor, with all communication restricted to
the left processor (allowing both would create duplicate tokens).  A
node activation is split into two *micro-tasks* executed in parallel:

* the arrival-side processor copies the token into its hash bucket
  (32 µs left / 16 µs right), while
* the opposite-side processor compares the token against its bucket and
  generates the successor tokens (16 µs each), hashing and shipping each
  one to the pair owning its destination bucket.

The simulated variant of Section 3.2 merges each pair onto one
processor ("if the number of processors is small and processor
utilization is important"); this module implements the unmerged base
mapping so the two can be compared — the utilization/latency trade-off
the paper describes under "Variations of the Base Mapping".
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional

from ..trace.events import (KIND_TERMINAL, LEFT, CycleTrace, SectionTrace,
                            TraceActivation)
from .costmodel import DEFAULT_COSTS, ZERO_OVERHEADS, CostModel, \
    OverheadModel
from .mapping import BucketMapping, RoundRobinMapping
from .metrics import CycleResult, SimResult


def simulate_pairs(trace: SectionTrace,
                   n_pairs: int,
                   costs: CostModel = DEFAULT_COSTS,
                   overheads: OverheadModel = ZERO_OVERHEADS,
                   mapping: Optional[BucketMapping] = None) -> SimResult:
    """Simulate *trace* on ``n_pairs`` processor pairs (2x the CPUs).

    Returns a :class:`SimResult` whose per-processor lists hold the left
    processors at indices ``0..n_pairs-1`` and the right processors at
    ``n_pairs..2*n_pairs-1``.
    """
    if n_pairs < 1:
        raise ValueError("need at least one processor pair")
    if mapping is None:
        mapping = RoundRobinMapping(n_pairs)
    if mapping.n_procs != n_pairs:
        raise ValueError(
            f"mapping built for {mapping.n_procs} pairs, "
            f"simulating {n_pairs}")

    result = SimResult(trace_name=trace.name, n_procs=2 * n_pairs)
    for cycle in trace:
        result.cycles.append(
            _simulate_cycle(cycle, n_pairs, costs, overheads, mapping))
    return result


@dataclass
class _Arrival:
    time: float
    seq: int
    pair: int
    act: TraceActivation
    via_message: bool

    def __lt__(self, other: "_Arrival") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def _simulate_cycle(cycle: CycleTrace, n_pairs: int, costs: CostModel,
                    overheads: OverheadModel,
                    mapping: BucketMapping) -> CycleResult:
    index = cycle.key_index()
    dest_of = index.destinations(mapping)
    base = index.base
    # Broadcast to the left processors (the pair's communication port);
    # each left processor relays the packet to its right sibling so both
    # can run the constant tests.
    control_busy = overheads.send_us
    relay = overheads.send_us + overheads.latency_us + overheads.recv_us
    left_start = (overheads.send_us + overheads.latency_us
                  + overheads.recv_us)
    right_start = left_start + relay

    # ready[0..n_pairs-1] = left procs, [n_pairs..] = right procs.
    ready = ([left_start + overheads.send_us + costs.constant_tests_us]
             * n_pairs +
             [right_start + costs.constant_tests_us] * n_pairs)
    busy = ([overheads.recv_us + overheads.send_us
             + costs.constant_tests_us] * n_pairs +
            [overheads.recv_us + costs.constant_tests_us] * n_pairs)
    activations = [0] * (2 * n_pairs)
    left_activations = [0] * (2 * n_pairs)

    n_messages = 1 + n_pairs  # broadcast + relays
    network_busy = overheads.latency_us * (1 + n_pairs)
    control_ready = control_busy
    control_arrivals: List[float] = []

    queue: List[_Arrival] = []
    seq = 0

    def send_to_control(depart: float) -> None:
        nonlocal control_ready, control_busy, n_messages, network_busy
        n_messages += 1
        network_busy += overheads.latency_us
        arrive = depart + overheads.latency_us
        control_ready = max(control_ready, arrive) + overheads.recv_us
        control_busy += overheads.recv_us
        control_arrivals.append(control_ready)

    for root in cycle.roots():
        pair = dest_of[root.act_id - base]
        if root.kind == KIND_TERMINAL:
            depart = ready[pair] + overheads.send_us
            busy[pair] += overheads.send_us
            ready[pair] = depart
            send_to_control(depart)
            continue
        seq += 1
        # Roots materialize on the left processor after its constant
        # tests (every processor computed them; the owner keeps its own).
        heapq.heappush(queue, _Arrival(time=ready[pair], seq=seq,
                                       pair=pair, act=root,
                                       via_message=False))

    while queue:
        arrival = heapq.heappop(queue)
        pair = arrival.pair
        act = arrival.act
        left_p, right_p = pair, n_pairs + pair

        # The left processor fields the arrival and relays the token to
        # its sibling; store and match+generate then run in parallel.
        t_left = max(ready[left_p], arrival.time)
        start_left = t_left
        if arrival.via_message:
            t_left += overheads.recv_us
        t_left += overheads.send_us  # intra-pair forward
        forward_arrive = t_left + overheads.latency_us
        n_messages += 1
        network_busy += overheads.latency_us

        store_cost = costs.store_cost(act.side)
        if act.side == LEFT:
            # Store on the left processor; match/generate on the right.
            store_p, gen_p = left_p, right_p
        else:
            # Store on the right processor; match/generate on the left.
            store_p, gen_p = right_p, left_p

        # Right-processor work begins when the forwarded token lands.
        t_right = max(ready[right_p], forward_arrive)
        start_right = t_right
        t_right += overheads.recv_us

        if store_p == left_p:
            t_left += store_cost
        else:
            t_right += store_cost

        # Generation runs on gen_p; track its own clock.
        if gen_p == left_p:
            t_gen_start = t_left
        else:
            t_gen_start = t_right
        t_gen = t_gen_start
        for succ_id in act.successors:
            succ = cycle.activations[succ_id]
            t_gen += costs.successor_us
            if succ.kind == KIND_TERMINAL:
                t_gen += overheads.send_us
                send_to_control(t_gen)
                continue
            dest = dest_of[succ_id - base]
            seq += 1
            t_gen += overheads.send_us
            n_messages += 1
            network_busy += overheads.latency_us
            heapq.heappush(queue, _Arrival(
                time=t_gen + overheads.latency_us, seq=seq, pair=dest,
                act=succ, via_message=True))

        if gen_p == left_p:
            t_left = t_gen
        else:
            t_right = t_gen

        busy[left_p] += t_left - start_left
        busy[right_p] += max(0.0, t_right - start_right)
        ready[left_p] = t_left
        ready[right_p] = t_right
        activations[left_p] += 1
        if act.side == LEFT:
            left_activations[left_p] += 1

    makespan = max(ready + control_arrivals + [right_start
                                               + costs.constant_tests_us])
    return CycleResult(index=cycle.index, makespan_us=makespan,
                       proc_busy_us=busy,
                       proc_activations=activations,
                       proc_left_activations=left_activations,
                       n_messages=n_messages,
                       network_busy_us=network_busy,
                       control_busy_us=control_busy)
