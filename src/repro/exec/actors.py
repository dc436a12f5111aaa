"""Backend ``actors``: a live actor run of the Section 3.2 protocol.

Where the simulator *prices* the paper's message protocol under a cost
model, this backend *executes* it: each bucket partition is an actor
with an inbox, the control actor broadcasts each cycle's plan, token
messages really travel between partitions, instantiations really
arrive at control, and control really closes every recognize-act
cycle by counting its actors' reports before it broadcasts the next.

Two transports move the messages:

``asyncio`` (default)
    One :mod:`asyncio` task and :class:`~repro.exec.mailbox.Mailbox`
    per match actor, all in one process.  Each wakeup drains the whole
    inbox, so a burst of tokens costs one task switch.  Cheap,
    deterministic to start, runs anywhere.
``process``
    One OS process per match actor with :mod:`multiprocessing` queues
    (:mod:`repro.exec.mp`) — actual parallel execution.

Each transport has one engine and one actor loop, always supervised by
the restart driver of :mod:`repro.exec.supervise`; chaos and tracing
enter the loop as hooks bound once at actor start.  Either way the
counters come out of the same
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

from ..mpc.config import RunConfig
from ..mpc.metrics import SimResult
from ..trace.events import SectionTrace
from .base import FireSet, RunHandle, RunResult
from .chaos import ChaosPolicy
from .errors import ExecutorError
from .mailbox import Mailbox
from .plan import MatchActorCore, build_plans
from .supervise import Engine, bind_send, stall_s, supervise

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..obs.trace import LiveTraceCollector

#: Transports accepted by :class:`ActorExecutor`.
TRANSPORTS = ("asyncio", "process")


class _AsyncEngine(Engine):
    """One generation of asyncio match actors plus their mailboxes."""

    def start(self) -> None:
        loop = self._loop = asyncio.get_running_loop()
        self.inboxes = [Mailbox() for _ in range(self.n_procs)]
        self.control = Mailbox()
        self.posts = [box.put_nowait for box in self.inboxes]
        self.tasks = [loop.create_task(self._actor_main(i))
                      for i in range(self.n_procs)]
        for task in self.tasks:
            task.add_done_callback(self._exited)
        self._watchdog = loop.call_later(self.deadline_s, self._watch)

    async def stop(self, clean: bool = False) -> None:
        # A shutdown message, not Task.cancel(): a cancelled actor keeps
        # a CancelledError whose traceback holds the engine in a
        # reference cycle, which costs served sessions a GC pass each.
        self._watchdog.cancel()
        for task in self.tasks:
            task.remove_done_callback(self._exited)
        for post in self.posts:
            post(("shutdown",))
        await asyncio.gather(*self.tasks, return_exceptions=True)
        if self.collector is not None:
            unread = []
            while not self.control.empty():
                unread.append(self.control.get_nowait())
            self._salvage(unread)

    def kill(self, actor_id: int) -> None:
        self.tasks[actor_id].cancel()

    def receive(self):
        return self.control.drain()

    def _exited(self, task: asyncio.Task) -> None:
        """Done-callback, detached before shutdown: until then an actor
        task ends only by failing or being killed, and reports either to
        control at once."""
        detail = ("cancelled" if task.cancelled()
                  else repr(task.exception()))
        self.control.put_nowait(("actor_error", self.tasks.index(task),
                                 detail))

    def _watch(self) -> None:
        """The per-cycle deadline: one timer, re-armed for whatever is
        left of the deadline of the cycle in flight."""
        wait_s = self.deadline_s
        start = self.cycle_start
        if start is not None:
            waited = time.perf_counter() - start
            if waited >= wait_s:
                self.control.put_nowait(("wedged", self.cycle, waited))
            else:
                wait_s -= waited
        self._watchdog = self._loop.call_later(wait_s, self._watch)

    async def _actor_main(self, actor_id: int) -> None:
        core = MatchActorCore(actor_id, self.config)
        inbox = self.inboxes[actor_id]
        report = self.control.put_nowait
        chaos, generation = self.chaos, self.generation
        spans = None
        if self.collector is not None:
            from ..obs.trace import ActorSpans
            spans = ActorSpans(actor_id, generation)
        send = bind_send(self.posts + [report], chaos, generation, spans,
                         self._loop.call_later)
        cycle = -1
        try:
            while True:
                processed = 0
                opened = False
                for message in await inbox.drain():
                    kind = message[0]
                    if spans is not None:
                        spans.received()
                    if kind == "token":
                        out, k = core.on_token(message)
                    elif kind == "cycle":
                        if processed:  # a late duplicate's, reported as such
                            if spans is not None:
                                report(spans.drain())
                            report(core.report(processed))
                            processed = 0
                        if spans is not None and cycle >= 0:
                            spans.barrier(cycle)
                        cycle = message[2]
                        if chaos is not None:
                            stall = stall_s(chaos, cycle, actor_id,
                                            generation)
                            if stall > 0.0:
                                await asyncio.sleep(stall)
                                if spans is not None:
                                    spans.received()
                        out, k = core.on_cycle(message)
                        opened = True
                    else:  # "shutdown"
                        if spans is not None and cycle >= 0:
                            spans.barrier(cycle)
                        return
                    processed += k
                    if spans is not None:
                        spans.matched(cycle, message, k, core.busy_us)
                    if out:
                        send(cycle, out)
                if processed or opened:
                    if spans is not None:
                        report(spans.drain())  # spans before counters
                    report(core.report(processed))
        finally:
            if spans is not None:
                report(spans.drain())


async def run_section_async(trace: SectionTrace, config: RunConfig,
                            chaos: Optional[ChaosPolicy] = None,
                            collector: Optional[
                                "LiveTraceCollector"] = None,
                            ) -> Tuple[SimResult, List[FireSet], float]:
    """Run *trace* on supervised asyncio actors; ``(result, fires,
    wall_s)``.

    Usable directly from an existing event loop — the served backend
    runs many of these concurrently on one loop, each with its own
    mailboxes and actor cores (per-session sharded working memory).
    *chaos* injects seeded faults the supervisor must recover from; a
    :class:`~repro.obs.trace.LiveTraceCollector` traces the run (see
    :func:`repro.exec.supervise.supervise`).
    """
    return await supervise(_AsyncEngine, build_plans(trace, config),
                           trace.name, config, chaos, collector)


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
    :mod:`repro.exec.mp`).  Every run is supervised
    (:mod:`repro.exec.supervise`) under ``config.supervise`` —
    ``None`` means the default :class:`~repro.mpc.config
    .SupervisePolicy`.  A :class:`~repro.exec.chaos.ChaosPolicy`
    injects seeded faults the supervisor must recover from.
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

        def thunk() -> RunResult:
            collector = None
            if config.live_trace:
                from ..obs.trace import LiveTraceCollector
                collector = LiveTraceCollector(
                    trace.name, config.n_procs, self.transport)
            try:
                if self.transport == "process":
                    from .mp import run_section_process
                    result, fires, wall_s = run_section_process(
                        trace, config, self.chaos, collector)
                else:
                    result, fires, wall_s = asyncio.run(
                        run_section_async(trace, config, self.chaos,
                                          collector))
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
