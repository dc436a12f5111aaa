"""The multiprocessing transport for the ``actors`` backend.

Same protocol, same :class:`~repro.exec.plan.MatchActorCore` state
machines as the asyncio transport — but each match actor is an OS
process with a :class:`multiprocessing.Queue` inbox, so activations in
different bucket partitions really execute in parallel.  The control
actor runs in the parent process (the paper's control processor is
serialized by the barrier anyway), under the same restart driver as
the asyncio transport (:func:`repro.exec.supervise.supervise`); its
engine methods simply block.

Everything crossing a process boundary is a plain picklable tuple; the
``fork`` start method is preferred when available (no module re-import
per actor), with the platform default as fallback.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import queue as queue_mod
import time
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..mpc.config import RunConfig
from ..mpc.metrics import SimResult
from ..trace.events import SectionTrace
from .base import FireSet
from .chaos import ChaosPolicy
from .errors import ExecutorCrashed, ExecutorWedged
from .plan import MatchActorCore, build_plans
from .supervise import Engine, bind_send, stall_s, supervise

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..obs.trace import LiveTraceCollector


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None)


#: Seconds a clean shutdown waits for the workers to exit on their own
#: before terminating them.
SHUTDOWN_S = 5.0


def _sleep_then(delay: float, put, message: Tuple) -> None:
    time.sleep(delay)
    put(message)


def _match_worker(actor_id: int, config: RunConfig,
                  chaos: Optional[ChaosPolicy], generation: int,
                  inboxes, control_q, traced: bool) -> None:
    """Child-process main loop: one match actor until shut down or
    terminated."""
    core = MatchActorCore(actor_id, config)
    inbox = inboxes[actor_id]
    report = control_q.put
    spans = None
    if traced:
        from ..obs.trace import ActorSpans
        spans = ActorSpans(actor_id, generation)
    send = bind_send([q.put for q in inboxes] + [report], chaos,
                     generation, spans, _sleep_then)
    cycle = -1
    try:
        while True:
            message = inbox.get()
            kind = message[0]
            if spans is not None:
                spans.received()
            if kind == "token":
                out, processed = core.on_token(message)
                if not processed:
                    continue  # held until its cycle's broadcast
            elif kind == "cycle":
                if spans is not None and cycle >= 0:
                    spans.barrier(cycle)
                cycle = message[2]
                if chaos is not None:
                    stall = stall_s(chaos, cycle, actor_id, generation)
                    if stall > 0.0:
                        time.sleep(stall)
                        if spans is not None:
                            spans.received()
                out, processed = core.on_cycle(message)
            else:  # "shutdown"
                if spans is not None:
                    if cycle >= 0:
                        spans.barrier(cycle)
                    report(spans.drain())
                return
            if spans is not None:
                spans.matched(cycle, message, processed, core.busy_us)
            if out:
                send(cycle, out)
            if spans is not None:
                report(spans.drain())  # spans before counters
            report(core.report(processed))
    except Exception as err:  # surface instead of wedging control
        if spans is not None:
            report(spans.drain())
        report(("actor_error", actor_id, repr(err)))


class _MpEngine(Engine):
    """One generation of worker processes plus their queues."""

    # Until start() has made them, so stop() always works.
    inboxes: list = []
    control_q = None
    workers: list = []

    def start(self) -> None:
        ctx = _mp_context()
        self.inboxes = [ctx.Queue() for _ in range(self.n_procs)]
        self.control_q = ctx.Queue()
        self.posts = [q.put for q in self.inboxes]
        self.workers = [
            ctx.Process(target=_match_worker,
                        args=(i, self.config, self.chaos,
                              self.generation, self.inboxes,
                              self.control_q,
                              self.collector is not None),
                        daemon=True)
            for i in range(self.n_procs)
        ]
        for worker in self.workers:
            worker.start()

    async def stop(self, clean: bool = False) -> None:
        if clean:
            for post in self.posts:
                post(("shutdown",))
            self._await_exits()
        for worker in self.workers:
            if worker.is_alive():
                worker.terminate()
        for worker in self.workers:
            worker.join(timeout=5.0)
            if worker.is_alive():
                worker.kill()
                worker.join(timeout=5.0)
        for q in self.inboxes + [self.control_q]:
            if q is not None:
                q.close()
                q.cancel_join_thread()

    def _await_exits(self) -> None:
        """Read control until every worker has exited, for at most
        :data:`SHUTDOWN_S`, and salvage the span drains read.

        Control is read *before* the workers are joined: a worker whose
        queue feeder still holds data cannot exit.
        """
        unread: List[Tuple] = []
        pending = self.workers
        deadline = time.perf_counter() + SHUTDOWN_S
        while True:
            try:
                while True:
                    unread.append(self.control_q.get_nowait())
            except queue_mod.Empty:
                pass
            except (EOFError, OSError):
                break
            if not pending or time.perf_counter() >= deadline:
                break
            wait([worker.sentinel for worker in pending], timeout=0.01)
            pending = [worker for worker in pending if worker.is_alive()]
        self._salvage(unread)

    def kill(self, actor_id: int) -> None:
        self.workers[actor_id].kill()

    async def receive(self) -> List[Tuple]:
        """One control message: heartbeat-sliced queue reads with
        dead-worker checks and the per-cycle deadline."""
        cycle = self.cycle
        while True:
            waited = time.perf_counter() - self.cycle_start
            if waited >= self.deadline_s:
                raise ExecutorWedged(
                    f"cycle {cycle}: no quiescence progress for "
                    f"{waited:.3f}s", cycle=cycle, waited_s=waited)
            timeout = min(self.heartbeat_s, self.deadline_s - waited)
            try:
                return [self.control_q.get(timeout=timeout)]
            except queue_mod.Empty:
                pass
            except (EOFError, OSError) as err:
                # A SIGKILLed worker can tear the queue's pipe
                # mid-write; the whole queue set is discarded on
                # restart, so surface it as a crash.
                raise ExecutorCrashed(
                    f"control queue broken during cycle {cycle}: "
                    f"{err!r}", cycle=cycle) from err
            for i, worker in enumerate(self.workers):
                if not worker.is_alive():
                    raise ExecutorCrashed(
                        f"match actor {i} died during cycle {cycle}",
                        actor=i, cycle=cycle)


def run_section_process(trace: SectionTrace, config: RunConfig,
                        chaos: Optional[ChaosPolicy] = None,
                        collector: Optional["LiveTraceCollector"] = None,
                        ) -> Tuple[SimResult, List[FireSet], float]:
    """Run *trace* on supervised worker processes, one per match actor;
    ``(result, fires, wall_s)``.

    The process-transport twin of
    :func:`repro.exec.actors.run_section_async`: same protocol, same
    counters, same restart driver, with real OS processes killed and
    respawned on failure.
    """
    return asyncio.run(supervise(_MpEngine, build_plans(trace, config),
                                 trace.name, config, chaos, collector))
