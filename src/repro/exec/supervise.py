"""Supervision for the live actor backends: deadlines, liveness,
checkpoint-replay restarts.

Every live run — asyncio or process transport, solo or served — goes
through :func:`supervise`, one restart driver over one
:class:`Engine` generation at a time.  The transports
(:mod:`repro.exec.actors`, :mod:`repro.exec.mp`) supply the actor loop
and how messages move; the protocol's control side, the restart policy
and the chaos seams live here.  The knobs come from
:class:`~repro.mpc.config.SupervisePolicy` on the
:class:`~repro.mpc.config.RunConfig` (``None`` means the defaults):

liveness
    A dead worker is noticed without waiting out a deadline.  On
    asyncio a finished actor task reports itself: its done-callback
    posts ``actor_error`` to the control mailbox.  Across processes the
    control queue is read in ``heartbeat_s`` slices, and between slices
    the supervisor checks that every worker is alive.
per-cycle deadlines
    A recognize-act cycle that fails to quiesce within
    ``cycle_timeout_s`` (default: :func:`~repro.exec.errors
    .exec_timeout_s`) raises :class:`~repro.exec.errors.ExecutorWedged`
    instead of hanging — a dropped message can starve quiescence
    forever, and counting is the only way to notice.  On asyncio one
    watchdog timer per engine generation enforces it; the control
    mailbox drains themselves are untimed.
checkpoint-replay restart
    The cycle-index barrier *is* the checkpoint: match-actor cores
    carry no state into a cycle (its broadcast resets them), and
    every :class:`~repro.exec.plan.CyclePlan` is precomputed.  On a
    wedge, crash or protocol violation the supervisor tears down every
    worker and inbox, respawns fresh ones after an exponential-backoff
    pause, and re-broadcasts the failed cycle's plan — a bit-identical
    replay.  Completed cycles are never re-run; after
    ``max_restarts`` failed replays of one cycle the run raises
    :class:`~repro.exec.errors.RestartsExhausted` carrying the last
    typed failure.

Failures are *detected by counting*, never guessed: a dropped data
message starves the processed/fires targets (wedge), a duplicated one
breaks the plan's exact-count validation
(:class:`~repro.exec.errors.ProtocolViolation`), and one that
arrives after its cycle closed fails on the cycle index its token or
report carries: the token's actor fails with an ``actor_error``
(:class:`~repro.exec.errors.ExecutorCrashed`), the report is a
:class:`~repro.exec.errors.ProtocolViolation`, never counted towards
the next cycle.  The supervised contract — relied on by the
``live_recovery`` oracle in :mod:`repro.check` — is therefore: the
sim-identical result, or a typed
:class:`~repro.exec.errors.ExecutorError`; never a silent wrong
answer, never an unbounded hang.

Chaos (:class:`~repro.exec.chaos.ChaosPolicy`) plugs in at two seams:
the supervisor kills workers at cycle starts, and each actor's
:func:`bind_send` hook drops/duplicates/delays its outgoing data
messages, all with counter-based deterministic draws; actors also
stall on cycle broadcasts (:func:`stall_s`).
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, List, Optional, Tuple

from ..mpc.config import RunConfig, SupervisePolicy
from ..mpc.metrics import SimResult
from ..obs import get_logger, get_registry, log_event
from ..obs.spans import CAT_CHECKPOINT_REPLAY, CAT_CYCLE, CAT_RESTART
from .base import FireSet
from .chaos import MSG_FIRE, MSG_TOKEN, ChaosPolicy
from .errors import (ExecutorCrashed, ExecutorWedged, ProtocolViolation,
                     RestartsExhausted, exec_timeout_s)
from .plan import CONTROL, CycleAccumulator, CyclePlan

_LOG = get_logger("repro.exec.supervise")

#: The failures a restart can plausibly cure — anything else (a
#: ValueError from a malformed config, say) propagates immediately.
RETRYABLE = (ExecutorWedged, ExecutorCrashed, ProtocolViolation)

#: The policy of a run whose config carries none.
DEFAULT_POLICY = SupervisePolicy()

_FAILURE_COUNTERS = {
    ExecutorWedged: "supervise.wedges",
    ExecutorCrashed: "supervise.crashes",
    ProtocolViolation: "supervise.violations",
}


class Engine:
    """One generation of match actors, and the control side of a cycle.

    A transport subclass spawns the actors (:meth:`start`), tears them
    down (:meth:`stop`), kills one (:meth:`kill`) and reads the
    control channel in batches (:meth:`receive`); it sets
    :attr:`posts`, one put function per actor inbox.  A restart
    discards the whole engine, so stale messages of a failed attempt
    (late chaos deliveries, half-processed cycles) can never leak into
    the replay.
    """

    def __init__(self, config: RunConfig, policy: SupervisePolicy,
                 chaos: Optional[ChaosPolicy], generation: int,
                 collector=None) -> None:
        self.config = config
        self.chaos = chaos
        self.generation = generation
        self.collector = collector
        self.n_procs = config.n_procs
        self.heartbeat_s = policy.heartbeat_s
        self.deadline_s = (policy.cycle_timeout_s
                           if policy.cycle_timeout_s is not None
                           else exec_timeout_s())
        self.posts: List[Callable] = []
        #: Index and ``perf_counter`` start of the cycle in flight
        #: (``cycle_start`` is ``None`` between cycles).
        self.cycle = 0
        self.cycle_start: Optional[float] = None
        #: Control messages received but not yet handled, from ``_pos``.
        self._batch: List[Tuple] = []
        self._pos = 0

    def start(self) -> None:
        raise NotImplementedError

    async def stop(self, clean: bool = False) -> None:
        """Shut the generation down.  *clean* means every cycle of the
        run closed, so the actors are idle between cycles."""
        raise NotImplementedError

    def _salvage(self, unread: List[Tuple]) -> None:
        """Hand the flight-recorder drains a stopping generation flushed
        to the collector: the unhandled rest of the batch plus *unread*
        control messages.  Filtered from the committed timeline, but
        gold for post-mortem dumps."""
        if self.collector is not None:
            for message in self._batch[self._pos:] + unread:
                if message[0] == "spans":
                    self.collector.add_drain(message)

    def kill(self, actor_id: int) -> None:
        raise NotImplementedError

    async def receive(self) -> List[Tuple]:
        """The next non-empty batch of control messages, or a typed
        failure."""
        raise NotImplementedError

    async def run_cycle(self, plan: CyclePlan):
        """One attempt at *plan*; ``(CycleResult, fired)`` or a typed
        :class:`~repro.exec.errors.ExecutorError`."""
        index = plan.index
        accumulator = CycleAccumulator(plan, self.config)
        note = accumulator.note
        self.cycle = index
        self.cycle_start = start = time.perf_counter()
        if self.collector is None:
            for post, actor_plan in zip(self.posts, plan.per_actor):
                post(("cycle", actor_plan, index))
        else:
            for post, actor_plan in zip(self.posts, plan.per_actor):
                post(("cycle", actor_plan, index,
                      (CONTROL, time.perf_counter())))
        batch, pos = self._batch, self._pos
        try:
            while not accumulator.done:
                if pos == len(batch):
                    batch, pos = await self.receive(), 0
                message = batch[pos]
                pos += 1
                if not note(message):
                    self._control(message)
        finally:
            self._batch, self._pos = batch, pos
            self.cycle_start = None
        return accumulator.finish(time.perf_counter() - start)

    def _control(self, message: Tuple) -> None:
        """Handle a control message that is not cycle accounting."""
        kind = message[0]
        if kind == "spans" and self.collector is not None:
            self.collector.add_drain(message)
        elif kind == "actor_error":
            raise ExecutorCrashed(
                f"match actor {message[1]} failed: {message[2]}",
                actor=message[1], cycle=self.cycle)
        elif kind == "wedged":
            if message[1] == self.cycle:  # else a cycle closed just in time
                raise ExecutorWedged(
                    f"cycle {self.cycle}: no quiescence progress for "
                    f"{message[2]:.3f}s", cycle=self.cycle,
                    waited_s=message[2])
        else:
            raise ValueError(f"unexpected control message {message!r}")


def bind_send(puts: List[Callable], chaos: Optional[ChaosPolicy],
              generation: int, spans, later: Callable) -> Callable:
    """An actor's ``send(cycle, out)`` hook, bound once at actor start.

    *puts* holds one put function per actor inbox followed by the
    control channel's, so :data:`~repro.exec.plan.CONTROL` (``-1``)
    indexes the last entry.  A :class:`~repro.exec.chaos.ChaosPolicy`
    decides each data message's fate (drop, duplicate, hold back via
    ``later(delay, put, message)``); an
    :class:`~repro.obs.trace.ActorSpans` hook stamps every message
    with its trace context and records the send span.
    """
    if chaos is None and spans is None:
        def send(cycle: int, out: List) -> None:
            for dst, msg in out:
                puts[dst](msg)
        return send

    registry = get_registry()

    def send(cycle: int, out: List) -> None:
        for dst, msg in out:
            if spans is not None:
                msg = spans.stamp(msg)
            put = puts[dst]
            if chaos is None:
                put(msg)
                continue
            kind = MSG_FIRE if msg[0] == "fire" else MSG_TOKEN
            act_id = msg[1]
            if chaos.should_drop(cycle, kind, act_id, generation):
                registry.counter("chaos.drops").inc()
                continue
            copies = 1
            if chaos.should_duplicate(cycle, kind, act_id, generation):
                registry.counter("chaos.dups").inc()
                copies = 2
            delay = chaos.delay_for(cycle, kind, act_id, generation)
            if delay > 0.0:
                registry.counter("chaos.delays").inc()
            for _ in range(copies):
                if delay > 0.0:
                    later(delay, put, msg)
                else:
                    put(msg)
        if spans is not None:
            spans.sent(cycle, len(out))
    return send


def stall_s(chaos: ChaosPolicy, cycle: int, actor_id: int,
            generation: int) -> float:
    """Seconds *actor_id* stalls on *cycle*'s broadcast (counted)."""
    stall = chaos.stall_for(cycle, actor_id, generation)
    if stall > 0.0:
        get_registry().counter("chaos.stalls").inc()
    return stall


async def supervise(engine_type: Callable[..., Engine],
                    plans: List[CyclePlan], trace_name: str,
                    config: RunConfig,
                    chaos: Optional[ChaosPolicy] = None,
                    collector=None
                    ) -> Tuple[SimResult, List[FireSet], float]:
    """Run *plans* on supervised *engine_type* generations;
    ``(result, fires, wall_s)``.

    Counters and fire sets equal the simulator's (bit-identical with no
    chaos and no failures), plus per-cycle deadlines, liveness checks
    and checkpoint-replay restarts per ``config.supervise``.  A
    :class:`~repro.obs.trace.LiveTraceCollector` additionally records
    the committed cycle spans plus ``restart`` (failure → respawned
    engine) and ``checkpoint_replay`` (failed replay attempt) spans on
    the coordinator row, and commits each cycle under the generation
    that closed it, so actor spans of failed attempts are filtered from
    the merged timeline.  The process engine's methods block; it runs
    under :func:`asyncio.run` all the same.
    """
    policy = config.supervise or DEFAULT_POLICY
    if chaos is not None and chaos.is_null:
        chaos = None
    traced = collector is not None
    clean = False
    generation = 0
    engine = engine_type(config, policy, chaos, generation, collector)
    engine.start()
    result = SimResult(trace_name=trace_name, n_procs=config.n_procs)
    fires: List[FireSet] = []
    section_start = time.perf_counter()
    try:
        for plan in plans:
            attempt = 0
            while True:
                attempt_start = time.perf_counter()
                if chaos is not None:
                    _inflict_kills(engine, chaos, plan, attempt)
                try:
                    cycle_result, fired = await engine.run_cycle(plan)
                    break
                except RETRYABLE as err:
                    _count_failure(err)
                    failed_at = time.perf_counter()
                    if traced and attempt:
                        collector.recorder.record(
                            CAT_CHECKPOINT_REPLAY, plan.index,
                            attempt_start, failed_at, n=attempt)
                    if attempt >= policy.max_restarts:
                        raise _give_up(plan, attempt, err) from err
                    await engine.stop()
                    delay = policy.delay_s(attempt)
                    if delay > 0.0:
                        await asyncio.sleep(delay)
                    attempt += 1
                    generation += 1
                    _log_restart(plan, attempt, generation, err)
                    engine = engine_type(config, policy, chaos,
                                         generation, collector)
                    engine.start()
                    if traced:
                        collector.recorder.record(
                            CAT_RESTART, plan.index, failed_at,
                            time.perf_counter(), n=attempt)
            if traced:
                collector.recorder.record(
                    CAT_CYCLE, plan.index, attempt_start,
                    time.perf_counter(), n=cycle_result.n_messages)
                collector.commit(plan.index, generation)
            result.cycles.append(cycle_result)
            fires.append(fired)
        clean = True
    finally:
        await engine.stop(clean)
    return result, fires, time.perf_counter() - section_start


def _inflict_kills(engine: Engine, chaos: ChaosPolicy, plan: CyclePlan,
                   attempt: int) -> None:
    for i in range(engine.n_procs):
        if chaos.should_kill(plan.index, i, attempt):
            get_registry().counter("chaos.kills").inc()
            log_event(_LOG, "chaos.kill", cycle=plan.index, actor=i,
                      attempt=attempt)
            engine.kill(i)


def _count_failure(err: Exception) -> None:
    name = _FAILURE_COUNTERS.get(type(err))
    if name:
        get_registry().counter(name).inc()


def _give_up(plan: CyclePlan, attempt: int,
             err: Exception) -> RestartsExhausted:
    get_registry().counter("supervise.giveups").inc()
    log_event(_LOG, "supervise.giveup", cycle=plan.index,
              attempts=attempt + 1, cause=type(err).__name__)
    return RestartsExhausted(
        f"cycle {plan.index}: gave up after {attempt + 1} attempt(s); "
        f"last failure: {err}",
        cycle=plan.index, attempts=attempt + 1,
        last=err if isinstance(err, RETRYABLE) else None)


def _log_restart(plan: CyclePlan, attempt: int, generation: int,
                 err: Exception) -> None:
    get_registry().counter("supervise.restarts").inc()
    log_event(_LOG, "supervise.restart", cycle=plan.index,
              attempt=attempt, generation=generation,
              cause=type(err).__name__)
