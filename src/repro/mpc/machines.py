"""The machine models the paper compares its Section 3.2 mapping with:
Section 3.1 processor pairs, Section 3.2's dedicated constant-test
processors, the Section 5.2 shared bus and the Section 6 continuum
extremes (replicated tables, a single master copy).

All five run on one event core (:class:`_Cycle`) over the compiled
cycle table, with the event encoding of
:func:`repro.mpc.simulator._simulate_cycle`: a heap of distinct arrival
times, each holding its events in push order, an event being a
position (``act_id - base``), complemented (``~pos``) when it arrived
as a message.  A model adds only its start phase and one task body.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional

from ..trace.events import TAG_TERMINAL, CycleTrace, SectionTrace, \
    iter_cycles
from .costmodel import DEFAULT_COSTS, ZERO_OVERHEADS, CostModel, \
    OverheadModel
from .mapping import BucketMapping, RoundRobinMapping
from .metrics import CycleResult, SimResult
from .simulator import _SearchCostTracker

#: Default cost of one task-queue transaction (pop or push of an
#: activation record under the queue lock).  The Encore implementation
#: measured its scheduling overhead in single-digit microseconds; 2 us
#: keeps the queue sub-dominant until dozens of processors, matching
#: the paper's "potential bottleneck" phrasing.
DEFAULT_QUEUE_ACCESS_US = 2.0


class _Cycle:
    """One cycle of one machine model: the event queue, per-processor
    clocks (``ready``/``busy``, set by the model's start phase) and
    counters, and the network and control accounting, which starts at
    the control processor's broadcast.  ``dest[pos]`` is the processor
    owning the position's bucket (all zeros without a mapping)."""

    def __init__(self, cycle: CycleTrace, n_procs: int, costs: CostModel,
                 overheads: OverheadModel,
                 mapping: Optional[BucketMapping] = None) -> None:
        self.index = cycle.index
        self.table = table = cycle.key_index()
        self.base = table.base
        self.left = table.left
        self.dest = (table.destinations(mapping) if mapping is not None
                     else bytes(len(table.tags)))
        self.costs = costs
        self.overheads = overheads
        self.activations = [0] * n_procs
        self.left_activations = [0] * n_procs
        self.n_messages = 1
        self.network_busy = overheads.latency_us
        self.control_busy = self.control_ready = overheads.send_us
        self.control_arrivals: List[float] = []
        self.times: List[float] = []
        self.pending: Dict[float, list] = {}

    def store_us(self, pos: int) -> float:
        """The add/delete cost of the token at *pos*."""
        costs = self.costs
        return costs.left_token_us if self.left[pos] \
            else costs.right_token_us

    def count(self, p: int, pos: int) -> None:
        """Count the two-input activation at *pos* on processor *p*."""
        self.activations[p] += 1
        if self.left[pos]:
            self.left_activations[p] += 1

    def push(self, at: float, event: int) -> None:
        events = self.pending.get(at)
        if events is None:
            self.pending[at] = [event]
            heapq.heappush(self.times, at)
        else:
            events.append(event)

    def message(self) -> None:
        """Account one message in the network."""
        self.n_messages += 1
        self.network_busy += self.overheads.latency_us

    def to_control(self, depart: float) -> None:
        """Deliver an instantiation leaving at *depart* to the control
        processor, which receives them FIFO as they arrive."""
        overheads = self.overheads
        self.message()
        arrive = depart + overheads.latency_us
        self.control_ready = max(self.control_ready, arrive) \
            + overheads.recv_us
        self.control_busy += overheads.recv_us
        self.control_arrivals.append(self.control_ready)

    def generate(self, t: float, pos: int, home: int) -> float:
        """Generate the successors of *pos* on processor *home* from
        time *t*; returns the time generation ends.  Instantiations go
        to the control processor; a token whose bucket *home* owns is
        queued locally, any other is sent as a message."""
        successor_us = self.costs.successor_us
        send_us = self.overheads.send_us
        latency_us = self.overheads.latency_us
        base = self.base
        tags = self.table.tags
        dest = self.dest
        for succ_id in self.table.successors[pos]:
            t += successor_us
            succ = succ_id - base
            if tags[succ] >= TAG_TERMINAL:
                t += send_us
                self.to_control(t)
            elif dest[succ] == home:
                self.push(t, succ)
            else:
                t += send_us
                self.message()
                self.push(t + latency_us, ~succ)
        return t


def _simulate(trace, n_procs: int, costs: CostModel,
              overheads: OverheadModel, mapping: Optional[BucketMapping],
              begin: Callable[[_Cycle, Dict[int, float]], tuple]
              ) -> SimResult:
    """Simulate every cycle of *trace* (a section or a streaming source)
    on one model.  ``begin(c, search)`` runs the start phase on a fresh
    :class:`_Cycle`, given the deletion-search surcharges by act_id, and
    returns ``(task, floor)``: the body run on each event as ``task(pos,
    arrival, via_message)``, and the time the start phase ends."""
    tracker = _SearchCostTracker(costs.delete_search_us)
    result = SimResult(trace_name=trace.name, n_procs=n_procs)
    for cycle in iter_cycles(trace):
        c = _Cycle(cycle, n_procs, costs, overheads, mapping)
        task, floor = begin(c, tracker.charge(cycle))
        times, pending = c.times, c.pending
        while times:
            arrival = heapq.heappop(times)
            for event in pending.pop(arrival):
                if event < 0:
                    task(~event, arrival, True)
                else:
                    task(event, arrival, False)
        result.cycles.append(CycleResult(
            index=c.index,
            makespan_us=max(c.ready + c.control_arrivals + [floor]),
            proc_busy_us=c.busy,
            proc_activations=c.activations,
            proc_left_activations=c.left_activations,
            n_messages=c.n_messages,
            network_busy_us=c.network_busy,
            control_busy_us=c.control_busy))
    return result


def _owner_mapping(mapping: Optional[BucketMapping], n_procs: int,
                   unit: str) -> BucketMapping:
    """*mapping*, round robin by default, checked against *n_procs*."""
    if mapping is None:
        return RoundRobinMapping(n_procs)
    if mapping.n_procs != n_procs:
        raise ValueError(f"mapping built for {mapping.n_procs} {unit}, "
                         f"simulating {n_procs}")
    return mapping


def _least_loaded(procs, ready: List[float], at: float) -> int:
    """The first of *procs* free for a task arriving at *at*."""
    return min(procs, key=lambda q: (max(ready[q], at), q))


def simulate_pairs(trace: SectionTrace,
                   n_pairs: int,
                   costs: CostModel = DEFAULT_COSTS,
                   overheads: OverheadModel = ZERO_OVERHEADS,
                   mapping: Optional[BucketMapping] = None) -> SimResult:
    """Simulate *trace* on ``n_pairs`` processor pairs (2x the CPUs).

    The paper's *base* mapping (Section 3.1, Figure 3-2) assigns each
    hash-index partition to a processor **pair**: the left buckets to
    the left processor, the right buckets to the right processor, with
    all communication restricted to the left processor (allowing both
    would create duplicate tokens).  A node activation is split into
    two *micro-tasks* executed in parallel:

    * the arrival-side processor copies the token into its hash bucket
      (32 µs left / 16 µs right, plus any footnote-6 search), while
    * the opposite-side processor compares the token against its bucket
      and generates the successor tokens (16 µs each), hashing and
      shipping each one to the pair owning its destination bucket.

    The simulated variant of Section 3.2 merges each pair onto one
    processor ("if the number of processors is small and processor
    utilization is important"); this is the unmerged base mapping, so
    the two can be compared — the utilization/latency trade-off the
    paper describes under "Variations of the Base Mapping".

    Returns a :class:`SimResult` whose per-processor lists hold the left
    processors at indices ``0..n_pairs-1`` and the right processors at
    ``n_pairs..2*n_pairs-1``.
    """
    if n_pairs < 1:
        raise ValueError("need at least one processor pair")
    mapping = _owner_mapping(mapping, n_pairs, "pairs")
    send_us = overheads.send_us
    recv_us = overheads.recv_us
    latency_us = overheads.latency_us
    constant_tests_us = costs.constant_tests_us

    def begin(c, search):
        # Broadcast to the left processors (the pair's communication
        # port); each relays the packet, one more hop, to its right
        # sibling so both can run the constant tests.
        left_start = send_us + latency_us + recv_us
        right_start = left_start + left_start
        c.ready = ready = \
            [left_start + send_us + constant_tests_us] * n_pairs \
            + [right_start + constant_tests_us] * n_pairs
        c.busy = busy = \
            [recv_us + send_us + constant_tests_us] * n_pairs \
            + [recv_us + constant_tests_us] * n_pairs
        c.n_messages = 1 + n_pairs  # broadcast + relays
        c.network_busy = latency_us * (1 + n_pairs)
        dest = c.dest
        left = c.left
        base = c.base
        for r in c.table.roots:
            if r < 0:
                pair = dest[~r]
                depart = ready[pair] + send_us
                busy[pair] += send_us
                ready[pair] = depart
                c.to_control(depart)
            else:
                # Roots materialize on the left processor after its
                # constant tests (the owner keeps its own).
                c.push(ready[dest[r]], r)

        def task(pos, arrival, via_message):
            left_p = dest[pos]
            right_p = n_pairs + left_p
            # The left processor fields the arrival and relays the
            # token to its sibling; store and match+generate then run
            # in parallel.
            t_left = max(ready[left_p], arrival)
            start_left = t_left
            if via_message:
                t_left += recv_us
            t_left += send_us  # intra-pair forward
            forward_arrive = t_left + latency_us
            c.message()
            store = c.store_us(pos)
            extra = search.get(base + pos)
            # Right-processor work begins when the forwarded token lands.
            t_right = max(ready[right_p], forward_arrive)
            start_right = t_right
            t_right += recv_us
            # The arrival side stores; the other side generates.
            if left[pos]:
                t_left += store
                if extra is not None:
                    t_left += extra
                t_right = c.generate(t_right, pos, -1)
            else:
                t_right += store
                if extra is not None:
                    t_right += extra
                t_left = c.generate(t_left, pos, -1)
            busy[left_p] += t_left - start_left
            busy[right_p] += max(0.0, t_right - start_right)
            ready[left_p] = t_left
            ready[right_p] = t_right
            c.count(left_p, pos)

        return task, right_start + constant_tests_us

    return _simulate(trace, 2 * n_pairs, costs, overheads, mapping, begin)


def simulate_dedicated_alpha(trace: SectionTrace, n_procs: int,
                             n_const_procs: int = 2,
                             costs: CostModel = DEFAULT_COSTS,
                             overheads: OverheadModel = ZERO_OVERHEADS,
                             mapping: Optional[BucketMapping] = None
                             ) -> SimResult:
    """Simulate with *n_const_procs* dedicated constant-test processors.

    Section 3.2's base mapping has the control processor broadcast wmes
    to "some designated constant-node processors"; the paper warns that
    "these processors could become bottlenecks, if the communication
    overheads are comparatively high", and the simulated variant
    therefore broadcasts to *all* processors instead (every match
    processor duplicates the constant tests but no root token ever
    travels).  Here the dedicated processors split the constant-test
    work (the Rete constant nodes are partitioned among them) and then
    *route every root token as a message* to the match processor owning
    its bucket, so the trade-off can be measured against
    :func:`repro.mpc.simulate` (``benchmarks/bench_continuum.py``).

    The machine has ``n_procs`` match processors plus the dedicated
    constant-test processors (reported at indices ``n_procs..``) plus
    the control processor.
    """
    if n_procs < 1:
        raise ValueError("need at least one match processor")
    if n_const_procs < 1:
        raise ValueError("need at least one constant-test processor")
    mapping = _owner_mapping(mapping, n_procs, "processors")
    send_us = overheads.send_us
    recv_us = overheads.recv_us
    latency_us = overheads.latency_us
    total = n_procs + n_const_procs

    def begin(c, search):
        const_start = send_us + latency_us + recv_us
        # The dedicated processors split the constant-test work.
        const_work = costs.constant_tests_us / n_const_procs
        c.ready = ready = [0.0] * n_procs \
            + [const_start + const_work] * n_const_procs
        c.busy = busy = [0.0] * n_procs \
            + [recv_us + const_work] * n_const_procs
        dest = c.dest
        base = c.base
        # Roots are produced on the dedicated processors (round robin
        # over them, in trace order) and shipped to their bucket owners.
        for i, r in enumerate(c.table.roots):
            cp = n_procs + i % n_const_procs
            depart = ready[cp] + send_us
            busy[cp] += send_us
            ready[cp] = depart
            c.message()
            if r < 0:
                c.to_control(depart)
            else:
                c.push(depart + latency_us, ~r)

        def task(pos, arrival, via_message):
            p = dest[pos]
            start = max(ready[p], arrival)
            t = start + recv_us if via_message else start
            t += c.store_us(pos)
            t += search.get(base + pos, 0.0)
            c.count(p, pos)
            t = c.generate(t, pos, p)
            busy[p] += t - start
            ready[p] = t

        return task, const_start + const_work

    return _simulate(trace, total, costs, overheads, mapping, begin)


def simulate_shared_bus(trace: SectionTrace, n_procs: int,
                        costs: CostModel = DEFAULT_COSTS,
                        queue_access_us: float = DEFAULT_QUEUE_ACCESS_US,
                        n_queues: Optional[int] = None) -> SimResult:
    """Simulate *trace* on a shared-memory multiprocessor.

    Section 5.2's reference point — "These speedups are comparable to
    those achieved in these sections on our shared-bus implementation
    [21]" — is the authors' parallel OPS5 on the Encore Multimax (Gupta
    et al., ICPP'88).  Its mapping differs from the MPC one in exactly
    the ways the paper's closing discussion lists:

    * **centralized task queues** in shared memory: any processor can
      pick up any node activation, so there is no static
      bucket→processor imbalance — but the queue itself is "a potential
      bottleneck" (every pop is a serialized shared-memory
      transaction);
    * the **hash table is not partitioned**: no messages, no routing —
      but "to process a token, the entire hash-bucket needs to be
      accessed exclusively", so activations on one bucket still
      serialize (the Tourney cross-product hurts shared memory just as
      much).

    Both effects are priced on the same Section 4 cost model, so the
    MPC and shared-bus mappings can be compared trace for trace
    (``benchmarks/bench_shared_bus.py``).

    Parameters
    ----------
    trace, n_procs, costs:
        As for :func:`repro.mpc.simulate`.
    queue_access_us:
        Serialized cost of one task-queue transaction.
    n_queues:
        Number of centralized task queues ("some centralized
        task-queues", plural — PSM-E spread scheduling over several to
        soften the bottleneck).  Defaults to ``min(n_procs, 8)``; pass
        1 to model a single queue and expose the bottleneck.

    Notes
    -----
    There is no interconnection network: ``n_messages`` counts queue
    transactions instead, and ``network_busy_us`` the total time queue
    locks are held — the shared-memory analogue of contention.
    """
    if n_procs < 1:
        raise ValueError("need at least one processor")
    if queue_access_us < 0:
        raise ValueError("queue access cost cannot be negative")
    if n_queues is None:
        n_queues = min(n_procs, 8)
    if n_queues < 1:
        raise ValueError("need at least one task queue")
    tests_done = costs.constant_tests_us
    successor_us = costs.successor_us
    procs = range(n_procs)

    def begin(c, search):
        c.n_messages = 0
        c.network_busy = c.control_busy = 0.0
        c.ready = ready = [tests_done] * n_procs
        c.busy = busy = [float(costs.constant_tests_us)] * n_procs
        queue_free = [0.0] * n_queues
        #: when each bucket (key id) is next free
        bucket_free: Dict[int, float] = {}
        tags = c.table.tags
        key_of = c.table.key_of
        successors = c.table.successors
        base = c.base

        def queue_transaction(at: float) -> float:
            """Acquire the least-contended queue; return the grant."""
            q = _least_loaded(range(n_queues), queue_free, at)
            grant = max(queue_free[q], at) + queue_access_us
            queue_free[q] = grant
            c.network_busy += queue_access_us
            c.n_messages += 1
            return grant

        for r in c.table.roots:
            c.push(tests_done, r if r >= 0 else ~r)

        def task(pos, arrival, via_message):
            if tags[pos] >= TAG_TERMINAL:
                # Conflict-set insertion: one queue transaction.
                c.control_arrivals.append(queue_transaction(arrival))
                return
            # A task whose bucket is still locked is left in the queue;
            # the processor takes other work instead of spinning
            # (otherwise one hot bucket would stall the whole machine).
            k = key_of[pos]
            locked_until = bucket_free.get(k, 0.0)
            if locked_until > arrival:
                c.push(locked_until, pos)
                return
            # Dynamic load balancing: the processor that can start first.
            p = _least_loaded(procs, ready, arrival)
            t = max(ready[p], arrival)
            # Pop from a centralized queue (serialized per queue).
            t = queue_transaction(t)
            # Exclusive access to the bucket for the whole activation.
            t = max(t, bucket_free.get(k, 0.0))
            work_start = t
            t += c.store_us(pos)
            t += search.get(base + pos, 0.0)
            for succ_id in successors[pos]:
                t += successor_us
                c.push(t, succ_id - base)
            bucket_free[k] = t
            # Busy = the queue transaction + the activation work; waiting
            # for the queue lock or a bucket lock is idle (spin) time.
            busy[p] += queue_access_us + (t - work_start)
            ready[p] = t
            c.count(p, pos)

        return task, tests_done

    return _simulate(trace, n_procs, costs, ZERO_OVERHEADS, None, begin)


def _simulate_continuum(trace, n_procs: int, costs: CostModel,
                        overheads: OverheadModel, execute) -> SimResult:
    """Run a Section 6 continuum model.  The broadcast and the constant
    tests run everywhere, every root is queued at the end of them and an
    instantiation reached in the queue is sent to the control processor.
    ``execute(c, pos, arrival, extra)`` runs each two-input activation;
    *extra* is its deletion-search surcharge, or ``None``."""
    tests_done = (overheads.send_us + overheads.latency_us
                  + overheads.recv_us + costs.constant_tests_us)

    def begin(c, search):
        c.ready = [tests_done] * n_procs
        c.busy = [overheads.recv_us + costs.constant_tests_us] * n_procs
        for r in c.table.roots:
            c.push(tests_done, r if r >= 0 else ~r)
        tags = c.table.tags
        base = c.base

        def task(pos, arrival, via_message):
            if tags[pos] >= TAG_TERMINAL:
                c.to_control(arrival + overheads.send_us)
            else:
                execute(c, pos, arrival, search.get(base + pos))

        return task, tests_done

    return _simulate(trace, n_procs, costs, overheads, None, begin)


def simulate_replicated(trace: SectionTrace, n_procs: int,
                        costs: CostModel = DEFAULT_COSTS,
                        overheads: OverheadModel = ZERO_OVERHEADS
                        ) -> SimResult:
    """Fully replicated hash tables: free placement, replicated stores.

    The paper places its distributed hash table "near the center of a
    continuum of mappings" (Section 6, future work).  At this extreme
    the hash tables are **replicated** on every processor — any
    processor can match any token (perfect load balance), but every
    add/delete must be applied to every copy, so the store traffic is
    multiplied by the machine size.  The model keeps the paper's cycle
    structure (broadcast, constant tests, causal token forest) and
    idealizes placement: every activation is executed by the processor
    that will finish it earliest; its hash-table update is then applied
    by *all* processors (each paying the store cost and any footnote-6
    search, plus a receive overhead when the update arrives as a
    message).  Compared with the distributed mapping in
    ``benchmarks/bench_continuum.py``.
    """
    if n_procs < 1:
        raise ValueError("need at least one processor")
    send_us = overheads.send_us
    recv_us = overheads.recv_us
    latency_us = overheads.latency_us
    copies = max(0, n_procs - 1)
    procs = range(n_procs)

    def execute(c, pos, arrival, extra):
        ready, busy = c.ready, c.busy
        # Free placement: the processor that can finish first.
        p = _least_loaded(procs, ready, arrival)
        t = max(ready[p], arrival)
        task_start = t
        store = c.store_us(pos)
        if extra is not None:
            store += extra
        t += store
        t = c.generate(t, pos, 0)
        # Replicate the update to every other copy (the continuum's
        # "continuous updates among the various copies").
        t += send_us  # one broadcast of the update
        c.n_messages += copies
        c.network_busy += latency_us * copies
        update_arrive = t + latency_us
        for q in procs:
            if q == p:
                continue
            apply_start = max(ready[q], update_arrive)
            ready[q] = apply_start + recv_us + store
            busy[q] += recv_us + store
        busy[p] += t - task_start
        ready[p] = t
        c.count(p, pos)

    return _simulate_continuum(trace, n_procs, costs, overheads, execute)


def simulate_master_copy(trace: SectionTrace, n_procs: int,
                         costs: CostModel = DEFAULT_COSTS,
                         overheads: OverheadModel = ZERO_OVERHEADS
                         ) -> SimResult:
    """Single master copy: processor 0 owns both hash tables.

    The other extreme of the Section 6 continuum: a **single master
    copy** serves all processors — no replication cost, but every store
    and every bucket lookup contends for the owner, "generating
    contention for the processor owning the hash-table".  Workers
    (processors 1..n-1) field token arrivals and generate successors in
    parallel, but every store (with any footnote-6 search) and bucket
    lookup is a serial transaction on the master.  With ``n_procs ==
    1`` the single processor is both master and worker (the degenerate
    case).
    """
    if n_procs < 1:
        raise ValueError("need at least one processor")
    send_us = overheads.send_us
    recv_us = overheads.recv_us
    latency_us = overheads.latency_us
    workers = list(range(1, n_procs)) or [0]
    master = 0

    def execute(c, pos, arrival, extra):
        ready, busy = c.ready, c.busy
        w = _least_loaded(workers, ready, arrival)
        t = max(ready[w], arrival)
        # Round trip to the master: request, exclusive store+lookup,
        # reply with the opposite bucket contents.
        remote = w != master
        if remote:
            t += send_us
            c.message()
            request_arrive = t + latency_us
        else:
            request_arrive = t
        m_start = max(ready[master], request_arrive)
        m_t = m_start + (recv_us if remote else 0.0)
        m_t += c.store_us(pos)
        if extra is not None:
            m_t += extra
        if remote:
            m_t += send_us
            c.message()
        ready[master] = m_t
        busy[master] += m_t - m_start
        c.count(master, pos)
        # The worker resumes when the bucket contents arrive and
        # generates the successors locally.  (Waiting for the master is
        # idle time, so busy is accumulated from explicit costs, not
        # elapsed time.)
        t = max(t, m_t + (latency_us if remote else 0.0))
        worker_busy = 0.0
        if remote:
            t += recv_us
            worker_busy += send_us + recv_us
        gen_start = t
        t = c.generate(t, pos, 0)
        busy[w] += worker_busy + (t - gen_start)
        ready[w] = t

    return _simulate_continuum(trace, n_procs, costs, overheads, execute)
