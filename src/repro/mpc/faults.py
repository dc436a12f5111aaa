"""Deterministic fault injection and a reliable-delivery protocol layer.

The paper's simulation assumes a perfect Nectar-class network: every
message arrives exactly once, in bounded time, and every processor is
always available.  Real message-passing machines buy that abstraction
with protocol machinery — explicit acknowledgements, timeouts and
retransmissions (cf. the QCDSP message-passing system, which budgets an
ack/retransmit engine per link).  This module prices that machinery so
the degradation of the paper's speedups under network and processor
faults becomes a measurable axis:

* :class:`FaultModel` — a *seeded, fully deterministic* description of
  what goes wrong: per-message loss and duplication probabilities,
  latency jitter, per-processor stall windows, and fail-stop cycles
  (a processor crashes at a cycle boundary and restarts after a fixed
  recovery time, its hash-table partition restored from checkpoint).
* :class:`ProtocolModel` — the reliable-delivery layer on top of the
  :class:`~repro.mpc.costmodel.OverheadModel`: positive acks per data
  copy, a retransmit timeout with exponential backoff, and a bounded
  retry budget (the final attempt is carried by a link-level reliable
  fallback, so the simulation always terminates).
* :func:`simulate_cycle_with_faults` — the fault-aware counterpart of
  the optimized event loop in :mod:`repro.mpc.simulator`, charging
  send/receive overheads for every ack and retry so degradation shows
  up in the :class:`~repro.mpc.metrics.SimResult` counters
  (``retransmits``, ``duplicate_drops``, ``acks``, ``timeout_wait_us``,
  ``stall_us``, ``recovery_us``).

Determinism
-----------
All randomness is *counter-based*, not sequential: each draw hashes
``(seed, cycle index, message id, attempt, stream)`` through a
splitmix64 finalizer.  A message's fate therefore depends only on its
identity — the activation id it carries — never on the order the event
loop happens to process it, so the same seed always yields bit-identical
results, and raising ``loss_prob`` can only lose a *superset* of the
messages lost at a lower rate (which is what makes degradation curves
monotone).

The zero-fault path is untouched: :func:`repro.mpc.simulator.simulate`
dispatches to this module only when a non-null fault model is supplied,
so ``FaultModel()`` (all-zero) reproduces today's simulator bit for bit.

Model simplifications (documented, deliberate):

* The cycle's wme broadcast and the ack channel are reliable — only
  data messages (inter-processor tokens and instantiation sends) are
  subject to loss/duplication/jitter.
* Retransmit sends are charged to the sender inline at the original
  send point (a protocol engine would charge them asynchronously; the
  totals are identical and the accounting stays deterministic).
* Stalls and recoveries are non-preemptive: work that would *start*
  inside a stall window is pushed past it, work already started runs to
  completion.  The control processor is assumed fault-free.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..trace.events import KIND_TERMINAL, LEFT, CycleTrace
from .costmodel import CostModel, OverheadModel
from .mapping import BucketMapping
from .metrics import CycleResult

_MASK64 = (1 << 64) - 1
_INV_2_64 = 1.0 / float(1 << 64)

#: Independent draw streams (fold into the counter hash so that loss,
#: duplication and jitter decisions for one message never correlate).
_STREAM_LOSS = 1
_STREAM_DUP = 2
_STREAM_JITTER = 3


def _mix64(x: int) -> int:
    """The splitmix64 finalizer: a high-quality 64-bit mixing function."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def counter_u01(seed: int, *counters: int) -> float:
    """A uniform draw in [0, 1) determined entirely by its arguments."""
    return counter_prefix(seed, *counters) * _INV_2_64


def counter_prefix(seed: int, *counters: int) -> int:
    """The 64-bit mixing state after *seed* and *counters*.

    :func:`counter_u01` is this state scaled to [0, 1).  Draws sharing
    leading counters — every message draw of one cycle shares ``(seed,
    cycle)`` — hash that prefix once and continue from it.
    """
    x = _mix64(seed ^ 0x9E3779B97F4A7C15)
    for c in counters:
        x = _mix64(x ^ ((c * 0x9E3779B97F4A7C15) & _MASK64))
    return x


def _message_u01(prefix: int, msg_id: int, attempt: int,
                 stream: int) -> float:
    """``counter_u01(seed, cycle, msg_id, attempt, stream)`` continued
    from ``prefix = counter_prefix(seed, cycle)``, unrolled for the
    per-message hot path."""
    x = prefix ^ ((msg_id * 0x9E3779B97F4A7C15) & _MASK64)
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    x ^= (attempt * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    x ^= (stream * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) * _INV_2_64


@dataclass(frozen=True)
class StallWindow:
    """Processor *proc* cannot start work in [start_us, end_us).

    ``cycle`` restricts the window to one cycle index; ``None`` applies
    it to every cycle (times are cycle-relative, measured from the
    broadcast that opens the cycle).
    """

    proc: int
    start_us: float
    end_us: float
    cycle: Optional[int] = None

    def __post_init__(self) -> None:
        if self.end_us < self.start_us:
            raise ValueError("stall window ends before it starts")


@dataclass(frozen=True)
class FailStop:
    """Processor *proc* fail-stops at the start of cycle *cycle*.

    The processor restarts and has its hash-table partition restored
    from checkpoint after ``recovery_us``; messages addressed to it
    queue up meanwhile.  Modelled as a stall window [0, recovery_us)
    in that cycle, plus the ``recovery_us`` result counter.
    """

    proc: int
    cycle: int
    recovery_us: float = 10_000.0

    def __post_init__(self) -> None:
        if self.recovery_us < 0:
            raise ValueError("recovery_us must be >= 0")


@dataclass(frozen=True)
class FaultModel:
    """Seeded deterministic fault injection for one simulation run.

    Attributes
    ----------
    seed:
        Root of every counter-based draw; the same seed always produces
        bit-identical :class:`~repro.mpc.metrics.SimResult`\\ s.
    loss_prob / dup_prob:
        Per-data-message-attempt probability of loss in transit, and
        per-delivery probability of a duplicate copy arriving.
    jitter_us:
        Maximum extra transit latency per delivery, drawn uniformly
        from [0, jitter_us).
    stalls / failures:
        Deterministic processor unavailability (see
        :class:`StallWindow` / :class:`FailStop`).
    """

    seed: int = 0
    loss_prob: float = 0.0
    dup_prob: float = 0.0
    jitter_us: float = 0.0
    stalls: Tuple[StallWindow, ...] = ()
    failures: Tuple[FailStop, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError("loss_prob must be in [0, 1]")
        if not 0.0 <= self.dup_prob <= 1.0:
            raise ValueError("dup_prob must be in [0, 1]")
        if self.jitter_us < 0.0:
            raise ValueError("jitter_us must be >= 0")

    @property
    def is_null(self) -> bool:
        """True when this model can never perturb a run.

        The simulator uses this to keep the zero-fault configuration on
        the exact fault-free code path (bit-identical results).
        """
        return (self.loss_prob == 0.0 and self.dup_prob == 0.0
                and self.jitter_us == 0.0 and not self.stalls
                and not self.failures)

    # -- counter-based draws (message id = the carried activation id) --
    #
    # A draw is in [0, 1), so a zero probability can never fire: those
    # checks skip the hash entirely, bit-identically.

    def cycle_prefix(self, cycle: int) -> int:
        """The ``(seed, cycle)`` prefix shared by every draw in *cycle*
        (see :func:`counter_prefix`)."""
        return counter_prefix(self.seed, cycle)

    def lost(self, cycle: int, msg_id: int, attempt: int) -> bool:
        if self.loss_prob == 0.0:
            return False
        return _message_u01(self.cycle_prefix(cycle), msg_id, attempt,
                            _STREAM_LOSS) < self.loss_prob

    def duplicated(self, cycle: int, msg_id: int) -> bool:
        if self.dup_prob == 0.0:
            return False
        return _message_u01(self.cycle_prefix(cycle), msg_id, 0,
                            _STREAM_DUP) < self.dup_prob

    def jitter(self, cycle: int, msg_id: int, attempt: int) -> float:
        if self.jitter_us == 0.0:
            return 0.0
        return self.jitter_us * _message_u01(
            self.cycle_prefix(cycle), msg_id, attempt, _STREAM_JITTER)

    def windows_for_cycle(self, cycle_index: int,
                          n_procs: int) -> Dict[int, List[Tuple[float,
                                                                float]]]:
        """Per-processor sorted stall intervals applying to one cycle."""
        windows: Dict[int, List[Tuple[float, float]]] = {}
        for stall in self.stalls:
            if stall.cycle is not None and stall.cycle != cycle_index:
                continue
            if not 0 <= stall.proc < n_procs:
                continue
            windows.setdefault(stall.proc, []).append(
                (stall.start_us, stall.end_us))
        for failure in self.failures:
            if failure.cycle != cycle_index:
                continue
            if not 0 <= failure.proc < n_procs:
                continue
            windows.setdefault(failure.proc, []).append(
                (0.0, failure.recovery_us))
        for intervals in windows.values():
            intervals.sort()
        return windows

    def recovery_in_cycle(self, cycle_index: int, n_procs: int) -> float:
        """Total restart time spent by fail-stopped processors."""
        return sum(f.recovery_us for f in self.failures
                   if f.cycle == cycle_index and 0 <= f.proc < n_procs)


@dataclass(frozen=True)
class ProtocolModel:
    """Ack/timeout/retransmit reliable-delivery parameters.

    Every data message is positively acknowledged: the receiver pays one
    send overhead per received copy (including duplicates it drops) and
    the sender one receive overhead per ack.  An unacknowledged message
    is retransmitted after ``timeout_us``, the timeout growing by
    ``backoff`` per retry.  After ``max_retries`` retransmissions the
    final attempt is carried by a link-level reliable fallback (it
    cannot be lost), bounding worst-case delivery time — and keeping
    the simulation deterministic and finite even at ``loss_prob=1``.
    """

    timeout_us: float = 500.0
    backoff: float = 2.0
    max_retries: int = 8

    def __post_init__(self) -> None:
        if self.timeout_us <= 0.0:
            raise ValueError("timeout_us must be > 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


#: The default reliable-delivery setting used by sweeps and the CLI.
DEFAULT_PROTOCOL = ProtocolModel()


@dataclass(frozen=True)
class DeliveryPlan:
    """The deterministic fate of one data message.

    ``attempts`` copies were sent (the first ``attempts - 1`` lost),
    the sender waited ``timeout_wait_us`` in retransmit timeouts, the
    surviving copy took ``latency + jitter_us`` to transit, and
    ``duplicates`` extra copies arrived to be dropped.
    """

    attempts: int
    timeout_wait_us: float
    jitter_us: float
    duplicates: int

    @property
    def retransmits(self) -> int:
        return self.attempts - 1


def plan_delivery(faults: FaultModel, protocol: ProtocolModel,
                  cycle: int, msg_id: int,
                  prefix: Optional[int] = None) -> DeliveryPlan:
    """Resolve loss/retry/duplication for one message, deterministically.

    *prefix* is ``faults.cycle_prefix(cycle)``; a caller planning many
    messages of one cycle passes it to hash the ``(seed, cycle)`` part
    once.  The draws are exactly :meth:`FaultModel.lost`,
    :meth:`~FaultModel.jitter` and :meth:`~FaultModel.duplicated`.
    """
    if prefix is None:
        prefix = faults.cycle_prefix(cycle)
    loss_prob = faults.loss_prob
    wait = 0.0
    timeout = protocol.timeout_us
    attempt = 0
    if loss_prob != 0.0:
        while attempt < protocol.max_retries and _message_u01(
                prefix, msg_id, attempt, _STREAM_LOSS) < loss_prob:
            wait += timeout
            timeout *= protocol.backoff
            attempt += 1
    jitter_us = 0.0
    if faults.jitter_us != 0.0:
        jitter_us = faults.jitter_us * _message_u01(
            prefix, msg_id, attempt, _STREAM_JITTER)
    dup_prob = faults.dup_prob
    duplicates = 1 if dup_prob != 0.0 and _message_u01(
        prefix, msg_id, 0, _STREAM_DUP) < dup_prob else 0
    return DeliveryPlan(attempts=attempt + 1, timeout_wait_us=wait,
                        jitter_us=jitter_us, duplicates=duplicates)


def simulate_cycle_with_faults(
        cycle: CycleTrace, n_procs: int, costs: CostModel,
        overheads: OverheadModel, mapping: BucketMapping,
        faults: FaultModel, protocol: ProtocolModel,
        search_costs: Optional[Dict[int, float]] = None,
        recorder: Optional["TimelineRecorder"] = None) -> CycleResult:
    """One cycle of the Section 3.2 mapping under *faults* + *protocol*.

    Structured exactly like the optimized loop in
    :mod:`repro.mpc.simulator`, with three insertions: delivery plans
    (loss/retry/duplication/jitter) for every data message, ack
    accounting on both ends, and processor stall/recovery windows.

    With a :class:`~repro.mpc.timeline.TimelineRecorder` the same loop
    also emits typed spans — including the protocol machinery (acks,
    retransmissions, timeout waits) and stall windows — without
    touching any timing arithmetic, so recorded results stay
    bit-identical to unrecorded ones.
    """
    send_us = overheads.send_us
    recv_us = overheads.recv_us
    latency_us = overheads.latency_us
    left_us = costs.left_token_us
    right_us = costs.right_token_us
    successor_us = costs.successor_us
    acts = cycle.activations
    get_extra = (search_costs or {}).get
    cycle_index = cycle.index

    record = recorder is not None
    if record:
        from .timeline import (CAT_ACK, CAT_BROADCAST, CAT_CONSTANT_TESTS,
                               CAT_RECV, CAT_RETRANSMIT, CAT_SEND,
                               CAT_STALL, CAT_SUCCESSOR, CAT_TIMEOUT_WAIT,
                               CAT_TOKEN_ADD, CAT_TOKEN_DELETE,
                               CAT_TRANSIT, CONTROL, NETWORK,
                               CycleTimeline, Envelope, Span)
        spans: List["Span"] = []
        envelopes: List["Envelope"] = []
        add_span = spans.append
        add_envelope = envelopes.append

        def record_sender_side(proc: int, depart_base: float,
                               plan: DeliveryPlan, msg_id: int) -> None:
            """Sender busy spans: one send per attempt, one ack receipt."""
            s = depart_base
            for attempt in range(plan.attempts):
                add_span(Span(CAT_SEND if attempt == 0 else CAT_RETRANSMIT,
                              proc, s, s + send_us, msg_id))
                s += send_us
            add_span(Span(CAT_ACK, proc, s, s + recv_us, msg_id))

        def record_data_transits(depart_base: float, arrive: float,
                                 plan: DeliveryPlan, msg_id: int) -> None:
            """Network occupancy of every data copy, plus timeout waits."""
            first_wire = depart_base + send_us
            if plan.timeout_wait_us > 0:
                add_span(Span(CAT_TIMEOUT_WAIT, NETWORK, first_wire,
                              first_wire + plan.timeout_wait_us, msg_id))
            for _ in range(plan.retransmits):  # the lost copies
                add_span(Span(CAT_RETRANSMIT, NETWORK, first_wire,
                              first_wire + latency_us, msg_id))
            add_span(Span(CAT_TRANSIT, NETWORK,
                          arrive - (latency_us + plan.jitter_us), arrive,
                          msg_id))
            for _ in range(plan.duplicates):
                add_span(Span(CAT_TRANSIT, NETWORK, arrive - latency_us,
                              arrive, msg_id))

        def record_ack_transits(after: float, copies: int,
                                msg_id: int) -> None:
            for _ in range(copies):
                add_span(Span(CAT_ACK, NETWORK, after, after + latency_us,
                              msg_id))

    # Fault-model state for this cycle.
    prefix = faults.cycle_prefix(cycle_index)
    windows = faults.windows_for_cycle(cycle_index, n_procs)
    recovery_us = faults.recovery_in_cycle(cycle_index, n_procs)
    retransmits = 0
    duplicate_drops = 0
    acks = 0
    timeout_wait_us = 0.0
    stall_us = 0.0

    def past_stalls(p: int, t: float) -> float:
        """Earliest time >= *t* at which processor *p* may start work."""
        intervals = windows.get(p)
        if not intervals:
            return t
        for start, end in intervals:
            if start <= t < end:
                t = end
        return t

    index = cycle.key_index()
    dest_of = index.destinations(mapping)
    base = index.base

    # --- step 1: broadcast (reliable, as documented) -----------------------
    control_busy = send_us
    match_start = send_us + latency_us + recv_us
    network_busy = latency_us if n_procs > 0 else 0.0
    n_messages = 1  # the broadcast packet
    if record:
        add_span(Span(CAT_BROADCAST, CONTROL, 0.0, send_us))
        if n_procs > 0:
            add_span(Span(CAT_TRANSIT, NETWORK, send_us,
                          send_us + latency_us))

    # --- step 2: constant tests, start pushed past stall windows -----------
    ready = []
    for p in range(n_procs):
        start = past_stalls(p, match_start)
        stall_us += start - match_start
        if record:
            add_span(Span(CAT_RECV, p, send_us + latency_us, match_start))
            if start > match_start:
                add_span(Span(CAT_STALL, p, match_start, start))
            add_span(Span(CAT_CONSTANT_TESTS, p, start,
                          start + costs.constant_tests_us))
        ready.append(start + costs.constant_tests_us)
    busy = [recv_us + costs.constant_tests_us] * n_procs
    activations = [0] * n_procs
    left_activations = [0] * n_procs

    seq = 0
    queue: list = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    control_arrivals: List[float] = []
    control_ready = control_busy  # control is busy until broadcast sent

    def send_to_control(depart_base: float, msg_id: int,
                        sender: int) -> float:
        """Reliable-protocol instantiation send; returns the sender's
        time after all send-side protocol costs."""
        nonlocal control_busy, control_ready, network_busy, n_messages
        nonlocal retransmits, duplicate_drops, acks, timeout_wait_us
        plan = plan_delivery(faults, protocol, cycle_index, msg_id,
                             prefix)
        copies = plan.attempts + plan.duplicates
        retransmits += plan.retransmits
        duplicate_drops += plan.duplicates
        timeout_wait_us += plan.timeout_wait_us
        acks += 1 + plan.duplicates
        # Data copies + one ack per received copy cross the network.
        n_messages += copies + 1 + plan.duplicates
        network_busy += latency_us * (copies + 1 + plan.duplicates) \
            + plan.jitter_us
        # Sender: one send overhead per attempt, one ack receipt.
        t = depart_base + send_us * plan.attempts + recv_us
        arrive = depart_base + send_us + plan.timeout_wait_us \
            + latency_us + plan.jitter_us
        # Control: FIFO receipt of every copy, one ack send per copy.
        per_copy = recv_us + send_us
        begin = max(control_ready, arrive)
        control_ready = begin + per_copy * (1 + plan.duplicates)
        control_busy += per_copy * (1 + plan.duplicates)
        control_arrivals.append(control_ready)
        if record:
            record_sender_side(sender, depart_base, plan, msg_id)
            record_data_transits(depart_base, arrive, plan, msg_id)
            b = begin
            for _ in range(1 + plan.duplicates):
                add_span(Span(CAT_RECV, CONTROL, b, b + recv_us, msg_id))
                add_span(Span(CAT_ACK, CONTROL, b + recv_us,
                              b + recv_us + send_us, msg_id))
                b += per_copy
            record_ack_transits(b, 1 + plan.duplicates, msg_id)
        return t

    for root in cycle.roots():
        owner = dest_of[root.act_id - base]
        if root.kind == KIND_TERMINAL:
            start = past_stalls(owner, ready[owner])
            stall_us += start - ready[owner]
            if record and start > ready[owner]:
                add_span(Span(CAT_STALL, owner, ready[owner], start))
            t = send_to_control(start, root.act_id, owner)
            if record:
                add_envelope(Envelope(root.act_id, None, owner, start,
                                      t, False))
            busy[owner] += t - start
            ready[owner] = t
            continue
        seq += 1
        heappush(queue, (ready[owner], seq, owner, False, root))

    # --- steps 3-4: event loop ---------------------------------------------
    while queue:
        arrival, _, p, via_message, act = heappop(queue)
        proc_ready = ready[p]
        start = proc_ready if proc_ready > arrival else arrival
        stalled = past_stalls(p, start)
        stall_us += stalled - start
        if record and stalled > start:
            add_span(Span(CAT_STALL, p, start, stalled))
        start = stalled
        t = start
        env_wait_comm = 0.0
        env_wait_protocol = 0.0
        if via_message:
            # Receive the data copy, ack it; drop + ack any duplicate.
            plan = plan_delivery(faults, protocol, cycle_index,
                                 act.act_id, prefix)
            t += (recv_us + send_us) * (1 + plan.duplicates)
            if record:
                env_wait_comm = send_us + latency_us + plan.jitter_us
                env_wait_protocol = plan.timeout_wait_us
                b = start
                for _ in range(1 + plan.duplicates):
                    add_span(Span(CAT_RECV, p, b, b + recv_us,
                                  act.act_id))
                    add_span(Span(CAT_ACK, p, b + recv_us,
                                  b + recv_us + send_us, act.act_id))
                    b += recv_us + send_us
                record_ack_transits(b, 1 + plan.duplicates, act.act_id)
        token_start = t
        t += left_us if act.side == LEFT else right_us
        extra = get_extra(act.act_id)
        if extra is not None:
            t += extra
        if record:
            add_span(Span(CAT_TOKEN_ADD if act.tag == "+" else
                          CAT_TOKEN_DELETE, p, token_start, t,
                          act.act_id))
        activations[p] += 1
        if act.side == LEFT:
            left_activations[p] += 1

        for succ_id in act.successors:
            succ = acts[succ_id]
            gen_start = t
            t += successor_us
            if record:
                add_span(Span(CAT_SUCCESSOR, p, gen_start, t, succ_id))
            if succ.kind == KIND_TERMINAL:
                t = send_to_control(t, succ_id, p)
                continue
            dest = dest_of[succ_id - base]
            seq += 1
            if dest == p:
                heappush(queue, (t, seq, p, False, succ))
            else:
                plan = plan_delivery(faults, protocol, cycle_index,
                                     succ_id, prefix)
                copies = plan.attempts + plan.duplicates
                retransmits += plan.retransmits
                duplicate_drops += plan.duplicates
                timeout_wait_us += plan.timeout_wait_us
                acks += 1 + plan.duplicates
                n_messages += copies + 1 + plan.duplicates
                network_busy += latency_us * (copies + 1 + plan.duplicates) \
                    + plan.jitter_us
                arrive = t + send_us + plan.timeout_wait_us \
                    + latency_us + plan.jitter_us
                if record:
                    record_sender_side(p, t, plan, succ_id)
                    record_data_transits(t, arrive, plan, succ_id)
                # Sender: send per attempt, then the ack receipt.
                t += send_us * plan.attempts + recv_us
                heappush(queue, (arrive, seq, dest, True, succ))

        if record:
            add_envelope(Envelope(act.act_id, act.parent_id, p, start, t,
                                  via_message,
                                  wait_comm_us=env_wait_comm,
                                  wait_protocol_us=env_wait_protocol))
        busy[p] += t - start
        ready[p] = t

    makespan = max([match_start + costs.constant_tests_us]
                   + ready + control_arrivals)
    if record:
        recorder.add_cycle(CycleTimeline(
            index=cycle_index, n_procs=n_procs, makespan_us=makespan,
            proc_busy_us=list(busy), spans=spans, envelopes=envelopes))
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
