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
* :func:`simulate_cycle_with_faults` — the simulator's instrumented
  loop, on the same compiled cycle table
  (:meth:`~repro.trace.events.CycleTrace.key_index`) as the hook-free
  loop in :mod:`repro.mpc.simulator`.  It is the one loop that observes
  (records timeline spans) or perturbs messages.  Under a fault model
  it charges send/receive overheads for every ack and retry, so
  degradation shows up in the :class:`~repro.mpc.metrics.SimResult`
  counters (``retransmits``, ``duplicate_drops``, ``acks``,
  ``timeout_wait_us``, ``stall_us``, ``recovery_us``).  Each data
  message's delivery plan is drawn once, at its send.  The
  object-based fault loop it replaced is kept in
  :mod:`repro.mpc._reference` as its oracle.

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
injects faults only when a non-null fault model is supplied, so
``FaultModel()`` (all-zero) reproduces the fault-free simulator bit for
bit.  A recorded fault-free run goes through this module's loop with
no fault model: the plain exchange, with the hook-free loop's
arithmetic.

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
from typing import Callable, Dict, List, Optional, Tuple

from ..trace.events import TAG_MINUS, CycleTrace
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
        return sum((f.recovery_us for f in self.failures
                    if f.cycle == cycle_index and 0 <= f.proc < n_procs),
                   0.0)


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


def _planner(faults: FaultModel, protocol: ProtocolModel, prefix: int
             ) -> Callable[[int], Tuple[int, float, float, int]]:
    """The delivery draws of one cycle, as a function of the message id.

    ``plan(msg_id)`` resolves one data message to ``(attempts,
    timeout_wait_us, jitter_us, duplicates)``, the fields of a
    :class:`DeliveryPlan`.  *prefix* is ``faults.cycle_prefix(cycle)``.
    The draws are exactly :meth:`FaultModel.lost`,
    :meth:`~FaultModel.jitter` and :meth:`~FaultModel.duplicated`.  The
    fault loop calls ``plan`` once per message, at its send, and
    :func:`plan_delivery` wraps its tuple: one draw implementation.
    """
    loss_prob = faults.loss_prob
    jitter_scale = faults.jitter_us
    dup_prob = faults.dup_prob
    first_timeout = protocol.timeout_us
    backoff = protocol.backoff
    max_retries = protocol.max_retries

    def plan(msg_id: int) -> Tuple[int, float, float, int]:
        attempt = 0
        wait = 0.0
        if loss_prob != 0.0:
            timeout = first_timeout
            while attempt < max_retries and _message_u01(
                    prefix, msg_id, attempt, _STREAM_LOSS) < loss_prob:
                wait += timeout
                timeout *= backoff
                attempt += 1
        jitter = 0.0
        if jitter_scale != 0.0:
            jitter = jitter_scale * _message_u01(
                prefix, msg_id, attempt, _STREAM_JITTER)
        duplicates = 1 if dup_prob != 0.0 and _message_u01(
            prefix, msg_id, 0, _STREAM_DUP) < dup_prob else 0
        return attempt + 1, wait, jitter, duplicates

    return plan


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
    return DeliveryPlan(*_planner(faults, protocol, prefix)(msg_id))


#: The fate of every message on the plain Section 3.2 exchange, as a
#: delivery plan: one copy, no timeout wait, no jitter, no duplicate.
_PLAIN_DELIVERY = (1, 0.0, 0.0, 0)


def _plain_draw(msg_id: int) -> Tuple[int, float, float, int]:
    return _PLAIN_DELIVERY


def simulate_cycle_with_faults(
        cycle: CycleTrace, n_procs: int, costs: CostModel,
        overheads: OverheadModel, mapping: BucketMapping,
        faults: Optional[FaultModel] = None,
        protocol: Optional[ProtocolModel] = None,
        search_costs: Optional[Dict[int, float]] = None,
        recorder: Optional["TimelineRecorder"] = None) -> CycleResult:
    """One cycle of the Section 3.2 mapping, observed or perturbed.

    The simulator's instrumented loop: every run that records a
    timeline or injects faults goes through it, and the hook-free
    :func:`repro.mpc.simulator._simulate_cycle` serves the rest.  It
    runs on the same compiled table with the same event encoding — a
    position, ``~pos`` for one that came as a message, on a heap of
    distinct arrival times.

    With no fault model it runs the paper's plain exchange and ignores
    *protocol*: no delivery is drawn, no ack is sent or charged, and
    the messages are priced in the hook-free loop's order, so the
    result is bit-identical to that loop's for any costs.  With one
    (and *protocol*, :data:`DEFAULT_PROTOCOL` when ``None``) it adds
    three things: a delivery plan (loss, retries, duplication, jitter)
    drawn once per data message, at its send; ack accounting on both
    ends; and processor stall/recovery windows.  Every sent message's
    plan is then priced into the cycle's counters after the loop, in
    send order.

    With a :class:`~repro.mpc.timeline.TimelineRecorder` the loop also
    emits typed spans and envelopes — on the protocol path including
    acks, retransmissions, timeout waits and stall windows — without
    touching any timing arithmetic, so recorded results stay
    bit-identical to unrecorded ones.
    """
    plain = faults is None
    send_us = overheads.send_us
    recv_us = overheads.recv_us
    latency_us = overheads.latency_us
    #: the receiver's cost per data copy, and the sender's per ack
    per_copy, ack_us = (recv_us, 0.0) if plain \
        else (recv_us + send_us, recv_us)
    left_us = costs.left_token_us
    right_us = costs.right_token_us
    successor_us = costs.successor_us
    tests_us = costs.constant_tests_us
    cycle_index = cycle.index
    index = cycle.key_index()
    procs = mapping.processors(index.keys, index.hashes)
    dest = index.expand(procs)
    base = index.base
    left = index.left
    successors = index.successors
    extra_of = search_costs or None

    # Fault-model state for this cycle.
    if plain:
        draw = _plain_draw
        windows: Dict[int, List[Tuple[float, float]]] = {}
        recovery_us = 0.0
        dup_of = None
    else:
        if protocol is None:
            protocol = DEFAULT_PROTOCOL
        draw = _planner(faults, protocol, faults.cycle_prefix(cycle_index))
        windows = faults.windows_for_cycle(cycle_index, n_procs)
        recovery_us = faults.recovery_in_cycle(cycle_index, n_procs)
        #: the duplicate count of the message delivering each position
        dup_of = [0] * len(left) if faults.dup_prob != 0.0 else None
    #: every message's plan, in send order (priced after the loop)
    sent: List[Tuple[int, float, float, int]] = []
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

    record = recorder is not None
    if record:
        from .timeline import (CAT_ACK, CAT_BROADCAST, CAT_CONSTANT_TESTS,
                               CAT_RECV, CAT_RETRANSMIT, CAT_SEND,
                               CAT_STALL, CAT_SUCCESSOR, CAT_TIMEOUT_WAIT,
                               CAT_TOKEN_ADD, CAT_TOKEN_DELETE,
                               CAT_TRANSIT, CONTROL, NETWORK,
                               CycleTimeline, Envelope, Span)
        tags = index.tags
        #: the plan of the message delivering each position, and the
        #: act_id of the activation that generated it (roots have none;
        #: an orphan, whose parent is outside the cycle, is never
        #: processed here, so it needs no entry)
        plan_of: list = [None] * len(left)
        parent_of: List[Optional[int]] = [None] * len(left)
        spans: List["Span"] = []
        envelopes: List["Envelope"] = []
        add_span = spans.append
        add_envelope = envelopes.append

        def record_send(proc: int, depart: float, arrive: float,
                        plan: tuple, msg_id: int) -> None:
            """Sender busy spans — one send per attempt, one ack
            receipt — and the network occupancy of every data copy,
            plus timeout waits."""
            attempts, wait, jitter, dups = plan
            s = depart
            for attempt in range(attempts):
                add_span(Span(CAT_SEND if attempt == 0 else CAT_RETRANSMIT,
                              proc, s, s + send_us, msg_id))
                s += send_us
            if plain:
                add_span(Span(CAT_TRANSIT, NETWORK, s, arrive, msg_id))
                return
            add_span(Span(CAT_ACK, proc, s, s + recv_us, msg_id))
            first_wire = depart + send_us
            if wait > 0:
                add_span(Span(CAT_TIMEOUT_WAIT, NETWORK, first_wire,
                              first_wire + wait, msg_id))
            for _ in range(attempts - 1):  # the lost copies
                add_span(Span(CAT_RETRANSMIT, NETWORK, first_wire,
                              first_wire + latency_us, msg_id))
            add_span(Span(CAT_TRANSIT, NETWORK,
                          arrive - (latency_us + jitter), arrive, msg_id))
            for _ in range(dups):
                add_span(Span(CAT_TRANSIT, NETWORK, arrive - latency_us,
                              arrive, msg_id))

        def record_receipt(proc: int, begin: float, copies: int,
                           msg_id: int) -> None:
            """Receive (and, under the protocol, ack) every copy, then
            the acks' transits."""
            if plain:
                add_span(Span(CAT_RECV, proc, begin, begin + recv_us,
                              msg_id))
                return
            b = begin
            for _ in range(copies):
                add_span(Span(CAT_RECV, proc, b, b + recv_us, msg_id))
                add_span(Span(CAT_ACK, proc, b + recv_us,
                              b + recv_us + send_us, msg_id))
                b += per_copy
            for _ in range(copies):
                add_span(Span(CAT_ACK, NETWORK, b, b + latency_us,
                              msg_id))

    # --- step 1: broadcast (reliable, as documented) -----------------------
    control_busy = send_us
    match_start = send_us + latency_us + recv_us
    if record:
        add_span(Span(CAT_BROADCAST, CONTROL, 0.0, send_us))
        if n_procs > 0:
            add_span(Span(CAT_TRANSIT, NETWORK, send_us,
                          send_us + latency_us))

    # --- step 2: constant tests, start pushed past stall windows -----------
    # Only processors with windows can start late; stall_us starts at
    # +0.0 and gains only non-negative terms, so skipping the others'
    # zero terms (unless recording their spans) leaves it bit-identical.
    floor_ready = match_start + tests_us
    ready = [floor_ready] * n_procs
    busy = [recv_us + tests_us] * n_procs
    for p in range(n_procs) if record else sorted(windows):
        start = past_stalls(p, match_start)
        stall_us += start - match_start
        ready[p] = start + tests_us
        if record:
            add_span(Span(CAT_RECV, p, send_us + latency_us, match_start))
            if start > match_start:
                add_span(Span(CAT_STALL, p, match_start, start))
            add_span(Span(CAT_CONSTANT_TESTS, p, start, ready[p]))

    control_arrivals: List[float] = []
    control_ready = control_busy  # control is busy until broadcast sent

    def to_control(depart: float, msg_id: int, sender: int) -> float:
        """Instantiation send; returns the sender's time after all its
        send-side costs."""
        nonlocal control_busy, control_ready
        plan = draw(msg_id)
        sent.append(plan)
        attempts, wait, jitter, dups = plan
        t = depart + send_us * attempts + ack_us
        arrive = depart + send_us + wait + latency_us + jitter
        # Control: FIFO receipt of every copy (and its ack).
        begin = arrive if arrive > control_ready else control_ready
        control_ready = begin + per_copy * (1 + dups)
        control_busy += per_copy * (1 + dups)
        control_arrivals.append(control_ready)
        if record:
            record_send(sender, depart, arrive, plan, msg_id)
            record_receipt(CONTROL, begin, 1 + dups, msg_id)
        return t

    #: The event queue, as in the fault-free loop: a heap of distinct
    #: arrival times, each with its events in push order.
    times: List[float] = []
    pending: Dict[float, list] = {}
    heappush = heapq.heappush
    heappop = heapq.heappop

    for r in index.roots:
        if r >= 0:
            at = ready[dest[r]]
            events = pending.get(at)
            if events is None:
                pending[at] = [r]
                heappush(times, at)
            else:
                events.append(r)
            continue
        # A single-CE instantiation, shipped by its bucket's owner.
        owner = dest[~r]
        start = ready[owner]
        if windows:
            stalled = past_stalls(owner, start)
            stall_us += stalled - start
            if record and stalled > start:
                add_span(Span(CAT_STALL, owner, start, stalled))
            start = stalled
        t = to_control(start, ~r + base, owner)
        if record:
            add_envelope(Envelope(~r + base, None, owner, start, t,
                                  False))
        # The plain exchange adds the send itself, as the hook-free
        # loop does: (start + send) - start need not equal send.
        busy[owner] += send_us if plain else t - start
        ready[owner] = t
    # Terminal successors route to the control processor.
    for pos in index.terminals:
        dest[pos] = -1

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
            if windows:
                stalled = past_stalls(p, start)
                stall_us += stalled - start
                if record and stalled > start:
                    add_span(Span(CAT_STALL, p, start, stalled))
                start = stalled
            t = start
            if via_message:
                # Receive the data copy (under the protocol, ack it and
                # drop + ack any duplicate).
                t += per_copy if dup_of is None \
                    else per_copy * (1 + dup_of[pos])
            if record:
                act_id = pos + base
                env_wait_comm = env_wait_protocol = 0.0
                if via_message:
                    _, wait, jitter, dups = plan_of[pos]
                    env_wait_comm = send_us + latency_us + jitter
                    env_wait_protocol = wait
                    record_receipt(p, start, 1 + dups, act_id)
                token_start = t
            t += left_us if left[pos] else right_us
            if extra_of is not None:
                extra = extra_of.get(pos + base)
                if extra is not None:
                    t += extra
            if record:
                add_span(Span(CAT_TOKEN_DELETE if tags[pos] & TAG_MINUS
                              else CAT_TOKEN_ADD, p, token_start, t,
                              act_id))

            for succ_id in successors[pos]:
                if record:
                    add_span(Span(CAT_SUCCESSOR, p, t, t + successor_us,
                                  succ_id))
                    parent_of[succ_id - base] = act_id
                t += successor_us
                succ = succ_id - base
                d = dest[succ]
                if d < 0:
                    t = to_control(t, succ_id, p)
                    continue
                if d == p:
                    at = t
                else:
                    plan = draw(succ_id)
                    sent.append(plan)
                    attempts, wait, jitter, dups = plan
                    if dups:
                        dup_of[succ] = dups
                    at = t + send_us + wait + latency_us + jitter
                    if record:
                        plan_of[succ] = plan
                        record_send(p, t, at, plan, succ_id)
                    # Sender: send per attempt, then any ack receipt.
                    t += send_us * attempts + ack_us
                    succ = ~succ
                events = pending.get(at)
                if events is None:
                    pending[at] = [succ]
                    heappush(times, at)
                else:
                    events.append(succ)

            if record:
                add_envelope(Envelope(act_id, parent_of[pos], p, start, t,
                                      via_message,
                                      wait_comm_us=env_wait_comm,
                                      wait_protocol_us=env_wait_protocol))
            busy[p] += t - start
            ready[p] = t

    network_busy = latency_us if n_procs > 0 else 0.0
    n_messages = 1  # the broadcast packet
    retransmits = duplicate_drops = acks = 0
    timeout_wait_us = 0.0
    if plain:
        # Priced as the hook-free loop prices them: each instantiation's
        # transit on its own, the token messages' as one product.
        for _ in control_arrivals:
            network_busy += latency_us
        n_messages += len(sent)
        network_busy += (len(sent) - len(control_arrivals)) * latency_us
    else:
        # Under the protocol every message is priced here, in send
        # order, so the float sums keep the order of pricing each
        # message as it is sent.
        for attempts, wait, jitter, dups in sent:
            # Data copies + one ack per received copy cross the network.
            copies = attempts + dups + 1 + dups
            retransmits += attempts - 1
            duplicate_drops += dups
            timeout_wait_us += wait
            acks += 1 + dups
            n_messages += copies
            network_busy += latency_us * copies + jitter

    activations, left_activations = index.processor_counts(procs, n_procs)
    makespan = max([floor_ready] + ready + control_arrivals)
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
