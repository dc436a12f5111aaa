"""Backend ``actors``: a live actor run of the Section 3.2 protocol.

Where the simulator *prices* the paper's message protocol under a cost
model, this backend *executes* it: each bucket partition is an actor
with an inbox, the control actor broadcasts each cycle's plan, token
messages really travel between partitions, instantiations really
arrive at control, and a sync barrier really closes every
recognize-act cycle.

Two transports move the messages:

``asyncio`` (default)
    One :mod:`asyncio` task and :class:`~repro.exec.mailbox.Mailbox`
    per match actor, all in one process.  Each wakeup drains the whole
    inbox, so a burst of tokens costs one task switch.  Cheap,
    deterministic to start, runs anywhere.
``process``
    One OS process per match actor with :mod:`multiprocessing` queues
    (:mod:`repro.exec.mp`) — actual parallel execution.

Either way the counters come out of the same
:class:`~repro.exec.plan.MatchActorCore` state machines, so activation
counts, message counts and fire sets are equal to the simulator's for
the same ``(trace, config)`` — the ``actors_vs_sim`` oracle in
:mod:`repro.check` holds exactly.  Timing fields are measured wall
time, reported for comparison against the model, never asserted.
"""

from __future__ import annotations

import asyncio
import time
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..mpc.config import RunConfig, SupervisePolicy
from ..mpc.metrics import SimResult
from ..trace.events import SectionTrace
from .base import FireSet, RunHandle, RunResult
from .chaos import ChaosPolicy
from .errors import ExecutorCrashed, ExecutorError
from .mailbox import Mailbox
from .plan import (CONTROL, CycleAccumulator, MatchActorCore,
                   build_plans)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..obs.trace import LiveTraceCollector

#: Transports accepted by :class:`ActorExecutor`.
TRANSPORTS = ("asyncio", "process")


async def run_section_async(trace: SectionTrace, config: RunConfig,
                            collector: Optional[
                                "LiveTraceCollector"] = None,
                            ) -> Tuple[SimResult, List[FireSet], float]:
    """Run *trace* on asyncio actors; ``(result, fires, wall_s)``.

    Usable directly from an existing event loop — the served backend
    runs many of these concurrently on one loop, each with its own
    mailboxes and actor cores (per-session sharded working memory).

    With a :class:`~repro.obs.trace.LiveTraceCollector` the run is
    traced: data messages carry a ``(sender, send_ts)`` context, each
    actor records match/send/barrier spans into a flight recorder
    drained over the control mailbox before every barrier reply, and the
    control loop records one cycle span per committed cycle.  With
    ``collector=None`` (the default) this function is byte-for-byte
    the untraced protocol — no context on messages, no recorders.
    """
    plans = build_plans(trace, config)
    n_procs = config.n_procs
    inboxes = [Mailbox() for _ in range(n_procs)]
    control = Mailbox()
    traced = collector is not None
    if traced:
        from ..obs.trace import (LIVE_BARRIER, LIVE_CYCLE, LIVE_MATCH,
                                 LIVE_SEND, FlightRecorder)

    async def actor_main(actor_id: int) -> None:
        core = MatchActorCore(actor_id, config)
        inbox = inboxes[actor_id]
        try:
            while True:
                processed = 0
                for message in await inbox.drain():
                    kind = message[0]
                    if kind == "token":
                        out, k = core.on_token(message[1])
                    elif kind == "cycle":
                        out, k = core.on_cycle(message[1])
                    elif kind == "sync":
                        if processed:
                            control.put_nowait(("processed", processed))
                            processed = 0
                        control.put_nowait(("stats", actor_id,
                                            core.on_sync()))
                        continue
                    else:  # "shutdown"
                        return
                    processed += k
                    for dst, msg in out:
                        if dst == CONTROL:
                            control.put_nowait(msg)
                        else:
                            inboxes[dst].put_nowait(msg)
                if processed:
                    control.put_nowait(("processed", processed))
        except Exception as err:  # surface instead of hanging control
            control.put_nowait(("actor_error", actor_id, repr(err)))

    async def actor_main_traced(actor_id: int) -> None:
        core = MatchActorCore(actor_id, config)
        recorder = FlightRecorder(actor_id)
        inbox = inboxes[actor_id]
        cycle = 0
        last_done = recorder.perf_base
        try:
            while True:
                processed = 0
                for message in await inbox.drain():
                    kind = message[0]
                    now = time.perf_counter()
                    if kind == "shutdown":
                        control.put_nowait(recorder.drain())
                        return
                    if kind == "sync":
                        recorder.record(LIVE_BARRIER, cycle, last_done, now)
                        if processed:
                            control.put_nowait(("processed", processed))
                            processed = 0
                        control.put_nowait(recorder.drain())
                        control.put_nowait(("stats", actor_id,
                                            core.on_sync()))
                        continue
                    if kind == "cycle":
                        cycle = message[2]
                        ctx = message[3]
                        out, k = core.on_cycle(message[1])
                    else:  # "token"
                        ctx = message[2]
                        out, k = core.on_token(message[1])
                    done = time.perf_counter()
                    recorder.record(
                        LIVE_MATCH, cycle, now, done, n=k,
                        act_id=(message[1] if kind == "token" else -1),
                        src=ctx[0], sent_s=ctx[1], busy_us=core.busy_us)
                    if out:
                        for dst, msg in out:
                            stamped = msg + ((actor_id,
                                              time.perf_counter()),)
                            if dst == CONTROL:
                                control.put_nowait(stamped)
                            else:
                                inboxes[dst].put_nowait(stamped)
                        recorder.record(LIVE_SEND, cycle, done,
                                        time.perf_counter(), n=len(out))
                    last_done = time.perf_counter()
                    processed += k
                if processed:
                    control.put_nowait(("processed", processed))
        except Exception as err:  # surface instead of hanging control
            control.put_nowait(recorder.drain())
            control.put_nowait(("actor_error", actor_id, repr(err)))

    main = actor_main_traced if traced else actor_main
    tasks = [asyncio.create_task(main(i)) for i in range(n_procs)]
    result = SimResult(trace_name=trace.name, n_procs=n_procs)
    fires: List[FireSet] = []
    batch: List = []  # control messages drained but not yet handled
    pos = 0
    section_start = time.perf_counter()
    try:
        for plan in plans:
            cycle_start = time.perf_counter()
            accumulator = CycleAccumulator(plan, config)
            for i in range(n_procs):
                if traced:
                    inboxes[i].put_nowait(
                        ("cycle", plan.per_actor[i], plan.index,
                         (CONTROL, time.perf_counter())))
                else:
                    inboxes[i].put_nowait(("cycle", plan.per_actor[i]))
            while not accumulator.done:
                if pos == len(batch):
                    batch, pos = await control.drain(), 0
                message = batch[pos]
                pos += 1
                if message[0] == "actor_error":
                    raise ExecutorCrashed(
                        f"match actor {message[1]} failed: {message[2]}",
                        actor=message[1], cycle=plan.index)
                if traced and message[0] == "spans":
                    collector.add_drain(message)
                    continue
                accumulator.note(message)
            for i in range(n_procs):
                inboxes[i].put_nowait(("sync",))
            stats: List = [None] * n_procs
            remaining = n_procs
            while remaining:
                if pos == len(batch):
                    batch, pos = await control.drain(), 0
                message = batch[pos]
                pos += 1
                if message[0] == "stats":
                    stats[message[1]] = message[2]
                    remaining -= 1
                elif message[0] == "actor_error":
                    raise ExecutorCrashed(
                        f"match actor {message[1]} failed: {message[2]}",
                        actor=message[1], cycle=plan.index)
                elif traced and message[0] == "spans":
                    collector.add_drain(message)
                else:
                    accumulator.note(message)
            wall_s = time.perf_counter() - cycle_start
            cycle_result, fired = accumulator.finish(stats, wall_s)
            if traced:
                collector.recorder.record(
                    LIVE_CYCLE, plan.index, cycle_start,
                    time.perf_counter(), n=cycle_result.n_messages)
                collector.commit(plan.index, 0)
            result.cycles.append(cycle_result)
            fires.append(fired)
    finally:
        for i in range(n_procs):
            inboxes[i].put_nowait(("shutdown",))
        await asyncio.gather(*tasks, return_exceptions=True)
        if traced:
            salvage = batch[pos:]
            while not control.empty():
                salvage.append(control.get_nowait())
            for message in salvage:
                if message[0] == "spans":
                    collector.add_drain(message)
    return result, fires, time.perf_counter() - section_start


def _check_supported(config: RunConfig) -> None:
    if config.faulty:
        raise ValueError("the actors backend does not support fault "
                         "injection; use backend 'sim'")
    if config.recorder is not None:
        raise ValueError("the actors backend does not support timeline "
                         "recording; use backend 'sim'")


class ActorExecutor:
    """Backend ``actors``: live bucket-partition actors.

    *transport* selects how messages move: ``"asyncio"`` (tasks in
    this process) or ``"process"`` (one OS process per actor, see
    :mod:`repro.exec.mp`).

    When the config carries a
    :class:`~repro.mpc.config.SupervisePolicy` (``config.supervise``),
    or a non-null :class:`~repro.exec.chaos.ChaosPolicy` is given, the
    run goes through the supervised engines in
    :mod:`repro.exec.supervise` — heartbeat liveness checks, per-cycle
    deadlines, checkpoint-replay restarts.  A chaos policy without an
    explicit supervision policy turns on default supervision: chaos
    without recovery would just be a hang.
    """

    name = "actors"

    def __init__(self, transport: str = "asyncio",
                 chaos: Optional[ChaosPolicy] = None) -> None:
        if transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r}; "
                             f"choose from {TRANSPORTS}")
        self.transport = transport
        self.chaos = chaos

    def submit(self, trace: SectionTrace,
               config: RunConfig) -> RunHandle:
        _check_supported(config)
        chaos = self.chaos
        if chaos is not None and chaos.is_null:
            chaos = None
        if chaos is not None and config.supervise is None:
            config = config.replace(supervise=SupervisePolicy())
        supervised = config.supervise is not None

        def thunk() -> RunResult:
            collector = None
            if config.live_trace:
                from ..obs.trace import LiveTraceCollector
                collector = LiveTraceCollector(
                    trace.name, config.n_procs, self.transport)
            try:
                if supervised:
                    from .supervise import (run_supervised_async,
                                            run_supervised_mp)
                    if self.transport == "process":
                        result, fires, wall_s = run_supervised_mp(
                            trace, config, chaos, collector=collector)
                    else:
                        result, fires, wall_s = asyncio.run(
                            run_supervised_async(trace, config, chaos,
                                                 collector=collector))
                elif self.transport == "process":
                    from .mp import run_section_mp
                    result, fires, wall_s = run_section_mp(
                        trace, config, collector=collector)
                else:
                    result, fires, wall_s = asyncio.run(
                        run_section_async(trace, config,
                                          collector=collector))
            except ExecutorError as err:
                if collector is not None:
                    from ..obs.trace import dump_flight
                    from ..obs import get_logger, log_event
                    path = dump_flight(collector,
                                       reason=type(err).__name__)
                    log_event(get_logger("repro.exec.actors"),
                              "trace_live.dump", path=path,
                              reason=type(err).__name__)
                raise
            live = collector.build() if collector is not None else None
            return RunResult(backend=self.name, result=result,
                             fires=fires, wall_s=wall_s, live=live)
        return RunHandle(thunk)
