"""Supervision for the live actor backends: heartbeats, deadlines,
checkpoint-replay restarts.

The unsupervised engines in :mod:`repro.exec.actors` and
:mod:`repro.exec.mp` trust their workers: a dead or wedged partition
actor stalls the control loop until a single coarse timeout fires, and
then the run is simply lost.  This module wraps the same
:class:`~repro.exec.plan.MatchActorCore` protocol in a supervisor with
three defenses, configured by
:class:`~repro.mpc.config.SupervisePolicy` on the
:class:`~repro.mpc.config.RunConfig`:

heartbeats
    Every wait for control messages (a timed mailbox drain on
    asyncio, a timed queue get across processes) is chopped into
    ``heartbeat_s``-sized slices; between slices the supervisor checks
    worker liveness, so a killed worker is noticed within one
    heartbeat instead of one full deadline.
per-cycle deadlines
    A recognize-act cycle that fails to quiesce within
    ``cycle_timeout_s`` (default: :func:`~repro.exec.errors
    .exec_timeout_s`) raises :class:`~repro.exec.errors.ExecutorWedged`
    instead of hanging — a dropped message can starve quiescence
    forever, and counting is the only way to notice.
checkpoint-replay restart
    The cycle-index barrier *is* the checkpoint: match-actor cores
    carry no state across cycles (the sync barrier resets them), and
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
(:class:`~repro.exec.errors.ProtocolViolation`), a late one hits a
cleared actor table and surfaces as an ``actor_error``
(:class:`~repro.exec.errors.ExecutorCrashed`).  The supervised
contract — relied on by the ``live_recovery`` oracle in
:mod:`repro.check` — is therefore: the sim-identical result, or a
typed :class:`~repro.exec.errors.ExecutorError`; never a silent wrong
answer, never an unbounded hang.

Chaos (:class:`~repro.exec.chaos.ChaosPolicy`) plugs in at two seams:
the supervisor kills workers at cycle starts, and the workers
themselves drop/duplicate/delay their outgoing data messages and stall
their event loops, all with counter-based deterministic draws.
"""

from __future__ import annotations

import asyncio
import queue as queue_mod
import time
from typing import List, Optional, Tuple

from ..mpc.config import RunConfig, SupervisePolicy
from ..mpc.metrics import SimResult
from ..obs import get_logger, get_registry, log_event
from ..trace.events import SectionTrace
from .base import FireSet
from .chaos import MSG_FIRE, MSG_TOKEN, ChaosPolicy
from .errors import (ExecutorCrashed, ExecutorWedged, ProtocolViolation,
                     RestartsExhausted, exec_timeout_s)
from .mailbox import Mailbox
from .plan import (CONTROL, CycleAccumulator, CyclePlan, MatchActorCore,
                   build_plans)

_LOG = get_logger("repro.exec.supervise")

#: The failures a restart can plausibly cure — anything else (a
#: ValueError from a malformed config, say) propagates immediately.
RETRYABLE = (ExecutorWedged, ExecutorCrashed, ProtocolViolation)

_FAILURE_COUNTERS = {
    ExecutorWedged: "supervise.wedges",
    ExecutorCrashed: "supervise.crashes",
    ProtocolViolation: "supervise.violations",
}


def _effective(config: RunConfig,
               chaos: Optional[ChaosPolicy]
               ) -> Tuple[SupervisePolicy, Optional[ChaosPolicy], float]:
    """Resolve ``(policy, chaos-or-None, per-cycle deadline seconds)``."""
    policy = config.supervise or SupervisePolicy()
    if chaos is not None and chaos.is_null:
        chaos = None
    deadline_s = (policy.cycle_timeout_s
                  if policy.cycle_timeout_s is not None
                  else exec_timeout_s())
    return policy, chaos, deadline_s


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


# ---------------------------------------------------------------------------
# asyncio transport
# ---------------------------------------------------------------------------


class _AsyncEngine:
    """One generation of asyncio match actors plus their mailboxes.

    A restart discards the whole engine — tasks, inboxes, control
    mailbox — so stale messages from a failed attempt (late chaos
    deliveries, half-processed cycles) can never leak into the replay.
    """

    def __init__(self, config: RunConfig,
                 chaos: Optional[ChaosPolicy], generation: int,
                 collector=None) -> None:
        self.config = config
        self.chaos = chaos
        self.generation = generation
        self.collector = collector
        self.n_procs = config.n_procs
        self.inboxes: List[Mailbox] = []
        self.control = Mailbox()
        self.tasks: List[asyncio.Task] = []
        #: Control messages drained but not yet handled, from ``_pos``.
        self._batch: List[Tuple] = []
        self._pos = 0

    def start(self) -> None:
        self.inboxes = [Mailbox() for _ in range(self.n_procs)]
        self.control = Mailbox()
        self.tasks = [asyncio.create_task(self._actor_main(i))
                      for i in range(self.n_procs)]

    async def stop(self) -> None:
        for task in self.tasks:
            task.cancel()
        if self.tasks:
            await asyncio.gather(*self.tasks, return_exceptions=True)
        self.tasks = []
        if self.collector is not None:
            # Salvage flight-recorder drains the dying generation
            # flushed on cancellation — filtered from the committed
            # timeline, but gold for post-mortem dumps.
            salvage = self._batch[self._pos:]
            while not self.control.empty():
                salvage.append(self.control.get_nowait())
            for message in salvage:
                if message[0] == "spans":
                    self.collector.add_drain(message)

    def kill(self, actor_id: int) -> None:
        self.tasks[actor_id].cancel()

    def dead_actor(self) -> Optional[int]:
        for i, task in enumerate(self.tasks):
            if task.done():
                return i
        return None

    def _deliver(self, cycle: int, dst: int, msg: Tuple) -> None:
        target = self.control if dst == CONTROL else self.inboxes[dst]
        chaos = self.chaos
        if chaos is not None and msg[0] in ("token", "fire"):
            kind = MSG_FIRE if msg[0] == "fire" else MSG_TOKEN
            act_id = msg[1]
            if chaos.should_drop(cycle, kind, act_id, self.generation):
                get_registry().counter("chaos.drops").inc()
                return
            copies = 1
            if chaos.should_duplicate(cycle, kind, act_id,
                                      self.generation):
                get_registry().counter("chaos.dups").inc()
                copies = 2
            delay = chaos.delay_for(cycle, kind, act_id, self.generation)
            if delay > 0.0:
                get_registry().counter("chaos.delays").inc()
                loop = asyncio.get_running_loop()
                for _ in range(copies):
                    loop.call_later(delay, target.put_nowait, msg)
                return
            for _ in range(copies):
                target.put_nowait(msg)
            return
        target.put_nowait(msg)

    async def _actor_main(self, actor_id: int) -> None:
        traced = self.collector is not None
        if traced:
            from ..obs.trace import (LIVE_BARRIER, LIVE_MATCH,
                                     LIVE_SEND, FlightRecorder)
            recorder = FlightRecorder(actor_id, self.generation)
            last_done = recorder.perf_base
        core = MatchActorCore(actor_id, self.config)
        inbox = self.inboxes[actor_id]
        control = self.control
        cycle = 0
        try:
            while True:
                processed = 0
                for message in await inbox.drain():
                    kind = message[0]
                    now = time.perf_counter()
                    if kind == "shutdown":
                        if traced:
                            control.put_nowait(recorder.drain())
                        return
                    if kind == "sync":
                        if traced:
                            recorder.record(LIVE_BARRIER, cycle,
                                            last_done, now)
                        if processed:
                            control.put_nowait(("processed", processed))
                            processed = 0
                        if traced:
                            control.put_nowait(recorder.drain())
                        control.put_nowait(("stats", actor_id,
                                            core.on_sync()))
                        continue
                    if kind == "cycle":
                        cycle = message[2]
                        if self.chaos is not None:
                            stall = self.chaos.stall_for(
                                cycle, actor_id, self.generation)
                            if stall > 0.0:
                                get_registry().counter(
                                    "chaos.stalls").inc()
                                await asyncio.sleep(stall)
                                now = time.perf_counter()
                        out, k = core.on_cycle(message[1])
                    else:  # "token"
                        out, k = core.on_token(message[1])
                    processed += k
                    if traced:
                        ctx = message[3] if kind == "cycle" else message[2]
                        done = time.perf_counter()
                        recorder.record(
                            LIVE_MATCH, cycle, now, done, n=k,
                            act_id=(message[1] if kind == "token"
                                    else -1),
                            src=ctx[0], sent_s=ctx[1],
                            busy_us=core.busy_us)
                        if out:
                            for dst, msg in out:
                                self._deliver(
                                    cycle, dst,
                                    msg + ((actor_id,
                                            time.perf_counter()),))
                            recorder.record(LIVE_SEND, cycle, done,
                                            time.perf_counter(),
                                            n=len(out))
                        last_done = time.perf_counter()
                    else:
                        for dst, msg in out:
                            self._deliver(cycle, dst, msg)
                if processed:
                    control.put_nowait(("processed", processed))
        except asyncio.CancelledError:
            if traced:
                control.put_nowait(recorder.drain())
            raise
        except Exception as err:  # surface instead of hanging control
            if traced:
                control.put_nowait(recorder.drain())
            control.put_nowait(("actor_error", actor_id, repr(err)))

    async def _get_control(self, cycle: int, cycle_start: float,
                           deadline_s: float, heartbeat_s: float):
        """Next control message, or a typed failure: heartbeat-sliced
        mailbox drains with dead-worker checks and the per-cycle
        deadline."""
        while self._pos == len(self._batch):
            waited = time.perf_counter() - cycle_start
            if waited >= deadline_s:
                raise ExecutorWedged(
                    f"cycle {cycle}: no quiescence progress for "
                    f"{waited:.3f}s", cycle=cycle, waited_s=waited)
            self._batch = await self.control.drain(
                timeout=min(heartbeat_s, deadline_s - waited))
            self._pos = 0
            if not self._batch:
                dead = self.dead_actor()
                if dead is not None:
                    raise ExecutorCrashed(
                        f"match actor {dead} died during cycle {cycle}",
                        actor=dead, cycle=cycle)
        message = self._batch[self._pos]
        self._pos += 1
        return message

    async def run_cycle(self, plan: CyclePlan, attempt: int,
                        deadline_s: float, heartbeat_s: float):
        """One attempt at *plan*; ``(CycleResult, fired)`` or a typed
        :class:`~repro.exec.errors.ExecutorError`."""
        cycle_start = time.perf_counter()
        accumulator = CycleAccumulator(plan, self.config)
        if self.chaos is not None:
            for i in range(self.n_procs):
                if self.chaos.should_kill(plan.index, i, attempt):
                    get_registry().counter("chaos.kills").inc()
                    log_event(_LOG, "chaos.kill", cycle=plan.index,
                              actor=i, attempt=attempt)
                    self.kill(i)
        traced = self.collector is not None
        for i in range(self.n_procs):
            if traced:
                self.inboxes[i].put_nowait(
                    ("cycle", plan.per_actor[i], plan.index,
                     (CONTROL, time.perf_counter())))
            else:
                self.inboxes[i].put_nowait(
                    ("cycle", plan.per_actor[i], plan.index))
        while not accumulator.done:
            message = await self._get_control(
                plan.index, cycle_start, deadline_s, heartbeat_s)
            if message[0] == "actor_error":
                raise ExecutorCrashed(
                    f"match actor {message[1]} failed: {message[2]}",
                    actor=message[1], cycle=plan.index)
            if traced and message[0] == "spans":
                self.collector.add_drain(message)
                continue
            accumulator.note(message)
        for i in range(self.n_procs):
            self.inboxes[i].put_nowait(("sync",))
        stats: List = [None] * self.n_procs
        remaining = self.n_procs
        while remaining:
            message = await self._get_control(
                plan.index, cycle_start, deadline_s, heartbeat_s)
            if message[0] == "stats":
                stats[message[1]] = message[2]
                remaining -= 1
            elif message[0] == "actor_error":
                raise ExecutorCrashed(
                    f"match actor {message[1]} failed: {message[2]}",
                    actor=message[1], cycle=plan.index)
            elif traced and message[0] == "spans":
                self.collector.add_drain(message)
            else:
                accumulator.note(message)
        wall_s = time.perf_counter() - cycle_start
        return accumulator.finish(stats, wall_s)


async def run_supervised_async(trace: SectionTrace, config: RunConfig,
                               chaos: Optional[ChaosPolicy] = None,
                               collector=None
                               ) -> Tuple[SimResult, List[FireSet],
                                          float]:
    """Run *trace* on supervised asyncio actors.

    Same counters and fire sets as
    :func:`repro.exec.actors.run_section_async` (bit-identical with no
    chaos and no failures), plus heartbeat monitoring, per-cycle
    deadlines and checkpoint-replay restarts per
    ``config.supervise``.  A
    :class:`~repro.obs.trace.LiveTraceCollector` additionally records
    the committed cycle spans plus ``restart`` (failure → respawned
    engine) and ``checkpoint_replay`` (failed replay attempt) spans on
    the coordinator row, and commits each cycle under the generation
    that closed it, so actor spans of failed attempts are filtered
    from the merged timeline.
    """
    plans = build_plans(trace, config)
    policy, chaos, deadline_s = _effective(config, chaos)
    traced = collector is not None
    if traced:
        from ..obs.trace import LIVE_CYCLE, LIVE_REPLAY, LIVE_RESTART
    generation = 0
    engine = _AsyncEngine(config, chaos, generation, collector)
    engine.start()
    result = SimResult(trace_name=trace.name, n_procs=config.n_procs)
    fires: List[FireSet] = []
    section_start = time.perf_counter()
    try:
        for plan in plans:
            attempt = 0
            while True:
                attempt_start = time.perf_counter()
                try:
                    cycle_result, fired = await engine.run_cycle(
                        plan, attempt, deadline_s, policy.heartbeat_s)
                    if traced:
                        collector.recorder.record(
                            LIVE_CYCLE, plan.index, attempt_start,
                            time.perf_counter(),
                            n=cycle_result.n_messages)
                        collector.commit(plan.index, generation)
                    break
                except RETRYABLE as err:
                    _count_failure(err)
                    failed_at = time.perf_counter()
                    if traced and attempt:
                        collector.recorder.record(
                            LIVE_REPLAY, plan.index, attempt_start,
                            failed_at, n=attempt)
                    if attempt >= policy.max_restarts:
                        raise _give_up(plan, attempt, err) from err
                    await engine.stop()
                    delay = policy.delay_s(attempt)
                    if delay > 0.0:
                        await asyncio.sleep(delay)
                    attempt += 1
                    generation += 1
                    _log_restart(plan, attempt, generation, err)
                    engine = _AsyncEngine(config, chaos, generation,
                                          collector)
                    engine.start()
                    if traced:
                        collector.recorder.record(
                            LIVE_RESTART, plan.index, failed_at,
                            time.perf_counter(), n=attempt)
            result.cycles.append(cycle_result)
            fires.append(fired)
    finally:
        await engine.stop()
    return result, fires, time.perf_counter() - section_start


# ---------------------------------------------------------------------------
# multiprocessing transport
# ---------------------------------------------------------------------------


def _supervised_actor_process(actor_id: int, config: RunConfig,
                              chaos: Optional[ChaosPolicy],
                              generation: int, inboxes,
                              control_q, traced: bool = False) -> None:
    """Child-process main loop with chaos applied to outgoing data."""
    if traced:
        from ..obs.trace import (LIVE_BARRIER, LIVE_MATCH, LIVE_SEND,
                                 FlightRecorder)
        recorder = FlightRecorder(actor_id, generation)
        last_done = recorder.perf_base
    core = MatchActorCore(actor_id, config)
    inbox = inboxes[actor_id]

    def deliver(cycle: int, dst: int, msg: Tuple) -> None:
        target = control_q if dst == CONTROL else inboxes[dst]
        if chaos is not None and msg[0] in ("token", "fire"):
            kind = MSG_FIRE if msg[0] == "fire" else MSG_TOKEN
            act_id = msg[1]
            if chaos.should_drop(cycle, kind, act_id, generation):
                return
            delay = chaos.delay_for(cycle, kind, act_id, generation)
            if delay > 0.0:
                time.sleep(delay)
            target.put(msg)
            if chaos.should_duplicate(cycle, kind, act_id, generation):
                target.put(msg)
            return
        target.put(msg)

    cycle = 0
    try:
        while True:
            message = inbox.get()
            kind = message[0]
            now = time.perf_counter()
            if kind == "shutdown":
                if traced:
                    control_q.put(recorder.drain())
                return
            if kind == "sync":
                if traced:
                    recorder.record(LIVE_BARRIER, cycle, last_done,
                                    now)
                    control_q.put(recorder.drain())
                control_q.put(("stats", actor_id, core.on_sync()))
                continue
            if kind == "cycle":
                cycle = message[2]
                if chaos is not None:
                    stall = chaos.stall_for(cycle, actor_id, generation)
                    if stall > 0.0:
                        time.sleep(stall)
                        now = time.perf_counter()
                out, processed = core.on_cycle(message[1])
            else:  # "token"
                out, processed = core.on_token(message[1])
            if traced:
                ctx = message[3] if kind == "cycle" else message[2]
                done = time.perf_counter()
                recorder.record(
                    LIVE_MATCH, cycle, now, done, n=processed,
                    act_id=(message[1] if kind == "token" else -1),
                    src=ctx[0], sent_s=ctx[1], busy_us=core.busy_us)
                if out:
                    for dst, msg in out:
                        deliver(cycle, dst,
                                msg + ((actor_id,
                                        time.perf_counter()),))
                    recorder.record(LIVE_SEND, cycle, done,
                                    time.perf_counter(), n=len(out))
                last_done = time.perf_counter()
            else:
                for dst, msg in out:
                    deliver(cycle, dst, msg)
            if processed:
                control_q.put(("processed", processed))
    except Exception as err:  # surface instead of wedging control
        if traced:
            control_q.put(recorder.drain())
        control_q.put(("actor_error", actor_id, repr(err)))


class _MpEngine:
    """One generation of worker processes plus their queues."""

    def __init__(self, config: RunConfig,
                 chaos: Optional[ChaosPolicy], generation: int,
                 collector=None) -> None:
        from .mp import _mp_context
        self.config = config
        self.chaos = chaos
        self.generation = generation
        self.collector = collector
        self.n_procs = config.n_procs
        self._ctx = _mp_context()
        self.inboxes: list = []
        self.control_q = None
        self.workers: list = []

    def start(self) -> None:
        ctx = self._ctx
        self.inboxes = [ctx.Queue() for _ in range(self.n_procs)]
        self.control_q = ctx.Queue()
        self.workers = [
            ctx.Process(target=_supervised_actor_process,
                        args=(i, self.config, self.chaos,
                              self.generation, self.inboxes,
                              self.control_q,
                              self.collector is not None),
                        daemon=True)
            for i in range(self.n_procs)
        ]
        for worker in self.workers:
            worker.start()

    def stop(self) -> None:
        for worker in self.workers:
            if worker.is_alive():
                worker.terminate()
        for worker in self.workers:
            worker.join(timeout=5.0)
            if worker.is_alive():
                worker.kill()
                worker.join(timeout=5.0)
        self.workers = []
        for q in self.inboxes + ([self.control_q]
                                 if self.control_q is not None else []):
            q.close()
            q.cancel_join_thread()
        self.inboxes = []
        self.control_q = None

    def kill(self, actor_id: int) -> None:
        self.workers[actor_id].kill()

    def dead_actor(self) -> Optional[int]:
        for i, worker in enumerate(self.workers):
            if not worker.is_alive():
                return i
        return None

    def _get_control(self, cycle: int, cycle_start: float,
                     deadline_s: float, heartbeat_s: float):
        while True:
            waited = time.perf_counter() - cycle_start
            if waited >= deadline_s:
                raise ExecutorWedged(
                    f"cycle {cycle}: no quiescence progress for "
                    f"{waited:.3f}s", cycle=cycle, waited_s=waited)
            timeout = min(heartbeat_s, deadline_s - waited)
            try:
                return self.control_q.get(timeout=timeout)
            except queue_mod.Empty:
                pass
            except (EOFError, OSError) as err:
                # A SIGKILLed worker can tear the queue's pipe
                # mid-write; the whole queue set is discarded on
                # restart, so surface it as a crash.
                raise ExecutorCrashed(
                    f"control queue broken during cycle {cycle}: "
                    f"{err!r}", cycle=cycle) from err
            dead = self.dead_actor()
            if dead is not None:
                raise ExecutorCrashed(
                    f"match actor {dead} died during cycle {cycle}",
                    actor=dead, cycle=cycle)

    def run_cycle(self, plan: CyclePlan, attempt: int,
                  deadline_s: float, heartbeat_s: float):
        cycle_start = time.perf_counter()
        accumulator = CycleAccumulator(plan, self.config)
        if self.chaos is not None:
            for i in range(self.n_procs):
                if self.chaos.should_kill(plan.index, i, attempt):
                    get_registry().counter("chaos.kills").inc()
                    log_event(_LOG, "chaos.kill", cycle=plan.index,
                              actor=i, attempt=attempt)
                    self.kill(i)
        traced = self.collector is not None
        for i in range(self.n_procs):
            if traced:
                self.inboxes[i].put(
                    ("cycle", plan.per_actor[i], plan.index,
                     (CONTROL, time.perf_counter())))
            else:
                self.inboxes[i].put(("cycle", plan.per_actor[i],
                                     plan.index))
        while not accumulator.done:
            message = self._get_control(plan.index, cycle_start,
                                        deadline_s, heartbeat_s)
            if message[0] == "actor_error":
                raise ExecutorCrashed(
                    f"match actor {message[1]} failed: {message[2]}",
                    actor=message[1], cycle=plan.index)
            if traced and message[0] == "spans":
                self.collector.add_drain(message)
                continue
            accumulator.note(message)
        for i in range(self.n_procs):
            self.inboxes[i].put(("sync",))
        stats: List = [None] * self.n_procs
        remaining = self.n_procs
        while remaining:
            message = self._get_control(plan.index, cycle_start,
                                        deadline_s, heartbeat_s)
            if message[0] == "stats":
                stats[message[1]] = message[2]
                remaining -= 1
            elif message[0] == "actor_error":
                raise ExecutorCrashed(
                    f"match actor {message[1]} failed: {message[2]}",
                    actor=message[1], cycle=plan.index)
            elif traced and message[0] == "spans":
                self.collector.add_drain(message)
            else:
                accumulator.note(message)
        wall_s = time.perf_counter() - cycle_start
        return accumulator.finish(stats, wall_s)


def run_supervised_mp(trace: SectionTrace, config: RunConfig,
                      chaos: Optional[ChaosPolicy] = None,
                      collector=None
                      ) -> Tuple[SimResult, List[FireSet], float]:
    """Run *trace* on supervised worker processes.

    The process-transport twin of :func:`run_supervised_async`: same
    protocol, same counters, with real OS processes killed and
    respawned on failure.  See there for the traced
    (:class:`~repro.obs.trace.LiveTraceCollector`) behavior.
    """
    plans = build_plans(trace, config)
    policy, chaos, deadline_s = _effective(config, chaos)
    traced = collector is not None
    if traced:
        from ..obs.trace import LIVE_CYCLE, LIVE_REPLAY, LIVE_RESTART
    generation = 0
    engine = _MpEngine(config, chaos, generation, collector)
    engine.start()
    result = SimResult(trace_name=trace.name, n_procs=config.n_procs)
    fires: List[FireSet] = []
    section_start = time.perf_counter()
    try:
        for plan in plans:
            attempt = 0
            while True:
                attempt_start = time.perf_counter()
                try:
                    cycle_result, fired = engine.run_cycle(
                        plan, attempt, deadline_s, policy.heartbeat_s)
                    if traced:
                        collector.recorder.record(
                            LIVE_CYCLE, plan.index, attempt_start,
                            time.perf_counter(),
                            n=cycle_result.n_messages)
                        collector.commit(plan.index, generation)
                    break
                except RETRYABLE as err:
                    _count_failure(err)
                    failed_at = time.perf_counter()
                    if traced and attempt:
                        collector.recorder.record(
                            LIVE_REPLAY, plan.index, attempt_start,
                            failed_at, n=attempt)
                    if attempt >= policy.max_restarts:
                        raise _give_up(plan, attempt, err) from err
                    engine.stop()
                    delay = policy.delay_s(attempt)
                    if delay > 0.0:
                        time.sleep(delay)
                    attempt += 1
                    generation += 1
                    _log_restart(plan, attempt, generation, err)
                    engine = _MpEngine(config, chaos, generation,
                                       collector)
                    engine.start()
                    if traced:
                        collector.recorder.record(
                            LIVE_RESTART, plan.index, failed_at,
                            time.perf_counter(), n=attempt)
            result.cycles.append(cycle_result)
            fires.append(fired)
    finally:
        engine.stop()
    return result, fires, time.perf_counter() - section_start
