"""Distributed tracing for the live executors: flight recorders,
span-context propagation, clock-aligned merge, and live attribution.

The discrete simulator explains itself through
:mod:`repro.mpc.timeline` — typed spans, Chrome-trace export, idle
attribution.  This module gives the *live* actor backends
(:mod:`repro.exec.actors`, :mod:`repro.exec.mp`,
:mod:`repro.exec.supervise`) the same measured view:

* every data message of the Section 3.2 protocol
  (``cycle``/``token``/``fire``) carries a compact **trace context**
  ``(sender, send_perf_ts)`` appended to the tuple, so the receiver can
  measure the real delivery delay of the message that triggered it;
* each actor — asyncio task or worker process — records typed spans
  (:data:`LIVE_MATCH`, :data:`LIVE_SEND`, :data:`LIVE_BARRIER`) into a
  per-process ring-buffer **flight recorder**
  (:class:`FlightRecorder`); the supervisor coordinator records
  :data:`LIVE_CYCLE`, :data:`LIVE_RESTART` and :data:`LIVE_REPLAY`;
* recorders are **drained over the existing control channel** — a
  ``("spans", ...)`` bookkeeping message sent just before each barrier
  ``stats`` reply, so the merge needs no side channel and FIFO order
  guarantees every span of a cycle is on the coordinator before the
  cycle closes;
* the coordinator merges drains with **clock-offset alignment**
  (:meth:`LiveTraceCollector.build`): within one process
  ``perf_counter`` timestamps are directly comparable; across worker
  processes each recorder's paired ``(perf_counter, time.time)`` base
  anchors its monotonic clock to wall time, and all spans land on one
  axis — microseconds since the coordinator recorder was created;
* the merged :class:`LiveTimeline` exports in the **same formats** as
  ``repro profile`` (:func:`chrome_trace_live`, :func:`live_jsonl`) so
  a live run and its simulated twin open side by side in Perfetto, and
  a measured-attribution pass (:func:`live_attribution`) reuses the
  :mod:`repro.mpc.attribution` categories over live spans.

Tracing is strictly opt-in (``RunConfig.live_trace`` /
``--trace-live``) and bit-invisible to match signatures and every
counter when off — each actor's :class:`ActorSpans` hook is then
``None`` and this module is not imported; the ``live_trace_invisible``
oracle in :mod:`repro.check` pins that.  When a traced run dies with a typed
:class:`~repro.exec.errors.ExecutorError`, the flight recorder is
dumped automatically (:func:`dump_flight`) for post-mortem analysis —
including spans of failed, uncommitted cycle attempts.

Everything here is stdlib-only at module level;
:mod:`repro.mpc.attribution` is imported lazily inside
:func:`live_attribution` so the flight-recorder hot path stays free of
heavyweight imports.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Dict, Iterator, List, Optional, Tuple

#: Pseudo-actor id of the control/coordinator row (matches
#: :data:`repro.exec.plan.CONTROL`).
CONTROL = -1

# -- live span categories (the typed vocabulary) ---------------------------
LIVE_CYCLE = "cycle"                    # coordinator: one committed cycle
LIVE_MATCH = "match"                    # actor: processing one delivery
LIVE_SEND = "send"                      # actor: emitting outbox messages
LIVE_BARRIER = "barrier_wait"           # actor: idle until the sync barrier
LIVE_RESTART = "restart"                # coordinator: failure -> respawn
LIVE_REPLAY = "checkpoint_replay"       # coordinator: failed replay attempt

LIVE_CATEGORIES = (LIVE_CYCLE, LIVE_MATCH, LIVE_SEND, LIVE_BARRIER,
                   LIVE_RESTART, LIVE_REPLAY)

#: Categories that measure *waiting*, not work.
LIVE_IDLE_CATEGORIES = frozenset({LIVE_BARRIER, LIVE_RESTART,
                                  LIVE_REPLAY})

#: Tag of the control-channel drain message (bookkeeping, never counted
#: in ``n_messages`` — exactly like ``processed``/``sync``/``stats``).
SPANS = "spans"

#: Environment override for where post-mortem flight dumps land.
ENV_FLIGHT_DIR = "REPRO_FLIGHT_DIR"

#: Ring-buffer capacity per flight recorder (spans, not bytes).  At
#: ~80 bytes per raw span this bounds a recorder at ~20 MB; older spans
#: are overwritten and counted in :attr:`FlightRecorder.dropped`.
DEFAULT_CAPACITY = 1 << 18


class FlightRecorder:
    """A per-actor ring buffer of raw span tuples.

    One recorder per actor per generation (worker restarts get a fresh
    one).  Recording is append-to-deque cheap; the paired
    ``(perf_counter, time.time)`` base captured at construction is what
    lets the coordinator place this recorder's monotonic timestamps on
    a shared axis after the fact.  When the ring wraps, the oldest
    spans are silently overwritten and counted in :attr:`dropped` —
    a flight recorder keeps the *latest* history, like its namesake.
    """

    __slots__ = ("actor_id", "generation", "capacity", "perf_base",
                 "wall_base", "pid", "dropped", "_spans")

    def __init__(self, actor_id: int, generation: int = 0,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        self.actor_id = actor_id
        self.generation = generation
        self.capacity = capacity
        self.perf_base = time.perf_counter()
        self.wall_base = time.time()
        self.pid = os.getpid()
        self.dropped = 0
        self._spans: deque = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._spans)

    def record(self, category: str, cycle: int, start_s: float,
               end_s: float, *, n: int = 1, act_id: int = -1,
               src: Optional[int] = None, sent_s: float = 0.0,
               busy_us: float = 0.0) -> None:
        """Append one raw span (timestamps in this recorder's
        ``perf_counter`` clock, seconds)."""
        if len(self._spans) == self.capacity:
            self.dropped += 1
        self._spans.append((category, cycle, start_s, end_s, n,
                            act_id, src, sent_s, busy_us))

    def drain(self) -> Tuple:
        """Empty the ring into one picklable control-channel message.

        ``("spans", actor_id, generation, perf_base, wall_base, pid,
        raw_spans, dropped)`` — everything the coordinator needs to
        align and attribute the spans, with no shared state.
        """
        spans = list(self._spans)
        self._spans.clear()
        dropped, self.dropped = self.dropped, 0
        return (SPANS, self.actor_id, self.generation, self.perf_base,
                self.wall_base, self.pid, spans, dropped)


class ActorSpans:
    """The recorder hook of one live match actor.

    The actor loop calls :meth:`received` on every inbox message,
    :meth:`matched` after the core handled a cycle plan or token, and
    :meth:`barrier` on ``sync``; its send hook stamps each outgoing data
    message (:meth:`stamp`) and closes the send span (:meth:`sent`).
    Incoming ``cycle``/``token`` messages carry the sender's
    ``(sender, send_ts)`` context as their last element.
    """

    __slots__ = ("recorder", "actor_id", "start", "done", "last_done")

    def __init__(self, actor_id: int, generation: int = 0) -> None:
        self.recorder = FlightRecorder(actor_id, generation)
        self.actor_id = actor_id
        self.start = self.done = self.last_done = self.recorder.perf_base

    def received(self) -> None:
        self.start = time.perf_counter()

    def matched(self, cycle: int, message: Tuple, n: int,
                busy_us: float) -> None:
        self.done = time.perf_counter()
        token = message[0] == "token"
        src, sent_s = message[-1]
        self.recorder.record(LIVE_MATCH, cycle, self.start, self.done,
                             n=n, act_id=message[1] if token else -1,
                             src=src, sent_s=sent_s, busy_us=busy_us)
        self.last_done = self.done

    def stamp(self, message: Tuple) -> Tuple:
        return message + ((self.actor_id, time.perf_counter()),)

    def sent(self, cycle: int, n: int) -> None:
        self.last_done = time.perf_counter()
        self.recorder.record(LIVE_SEND, cycle, self.done, self.last_done,
                             n=n)

    def barrier(self, cycle: int) -> None:
        self.recorder.record(LIVE_BARRIER, cycle, self.last_done,
                             self.start)

    def drain(self) -> Tuple:
        return self.recorder.drain()


@dataclass(frozen=True, slots=True)
class LiveSpan:
    """One merged, clock-aligned span of a live run.

    Times are microseconds since the coordinator's flight recorder was
    created (one absolute axis across all actors and processes).
    ``wait_us`` is the measured delivery delay of the message that
    triggered this span — send timestamp on the *sender's* clock,
    aligned, clamped at zero (clock alignment across processes is
    wall-clock accurate, not perfect).  ``busy_us`` on a match span is
    the actor core's cumulative model-priced busy time at the end of
    the span, so the last match span of a cycle carries exactly the
    ``proc_busy_us`` the barrier stats report.
    """

    category: str
    actor: int
    cycle: int
    start_us: float
    end_us: float
    n: int = 1
    act_id: int = -1
    src: Optional[int] = None
    wait_us: float = 0.0
    busy_us: float = 0.0
    generation: int = 0

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    @property
    def is_busy(self) -> bool:
        return self.category not in LIVE_IDLE_CATEGORIES


@dataclass
class LiveTimeline:
    """The merged flight-recorder view of one live run."""

    trace_name: str
    n_procs: int
    transport: str
    spans: List[LiveSpan] = field(default_factory=list)
    #: Committed cycle index -> the generation whose spans count.
    committed: Dict[int, int] = field(default_factory=dict)
    #: Total ring-buffer overwrites across every drained recorder.
    dropped: int = 0

    def cycle_indices(self) -> List[int]:
        return sorted({s.cycle for s in self.spans if s.cycle >= 0})

    def by_cycle(self) -> Dict[int, List[LiveSpan]]:
        out: Dict[int, List[LiveSpan]] = {}
        for span in self.spans:
            out.setdefault(span.cycle, []).append(span)
        return out

    def spans_for(self, actor: int) -> List[LiveSpan]:
        return [s for s in self.spans if s.actor == actor]

    def duration_us(self) -> float:
        if not self.spans:
            return 0.0
        return (max(s.end_us for s in self.spans)
                - min(s.start_us for s in self.spans))

    def summary(self) -> Dict[str, object]:
        """JSON-ready overview (the CLI's ``--json`` payload slice)."""
        by_category: Dict[str, int] = {}
        wait_us = 0.0
        for span in self.spans:
            by_category[span.category] = \
                by_category.get(span.category, 0) + 1
            wait_us += span.wait_us
        return {
            "trace": self.trace_name,
            "n_procs": self.n_procs,
            "transport": self.transport,
            "n_spans": len(self.spans),
            "n_cycles": len(self.committed),
            "spans_by_category": dict(sorted(by_category.items())),
            "message_wait_us": wait_us,
            "duration_us": self.duration_us(),
            "dropped": self.dropped,
        }


class LiveTraceCollector:
    """Coordinator-side merge point for flight-recorder drains.

    The control loop owns one collector per traced run: it feeds every
    ``("spans", ...)`` control message to :meth:`add_drain`, records
    its own coordinator spans on :attr:`recorder`, marks each cycle's
    surviving generation with :meth:`commit`, and finally calls
    :meth:`build` to get the clock-aligned :class:`LiveTimeline`.
    """

    def __init__(self, trace_name: str, n_procs: int,
                 transport: str) -> None:
        self.trace_name = trace_name
        self.n_procs = n_procs
        self.transport = transport
        #: The coordinator's own flight recorder — its creation instant
        #: is the origin of the merged time axis.
        self.recorder = FlightRecorder(CONTROL)
        self._drains: List[Tuple] = []
        self.committed: Dict[int, int] = {}

    def add_drain(self, message: Tuple) -> None:
        """Accept one ``("spans", ...)`` control-channel message."""
        self._drains.append(message)

    def commit(self, cycle: int, generation: int = 0) -> None:
        """Mark *cycle* as closed by *generation* — only that
        generation's actor spans survive into :meth:`build` (spans of
        failed replay attempts are filtered, keeping reconciliation
        exact under restarts)."""
        self.committed[cycle] = generation

    def now(self) -> float:
        return time.perf_counter()

    def _offset_s(self, perf_base: float, wall_base: float,
                  pid: int) -> float:
        """Seconds to add to a recorder's perf timestamps to land on
        the coordinator axis.  Same process: the perf clocks are the
        same clock, align exactly.  Different process: anchor through
        the paired wall-clock base."""
        own = self.recorder
        if pid == own.pid:
            return -own.perf_base
        return (wall_base - own.wall_base) - perf_base

    def build(self, committed_only: bool = True) -> LiveTimeline:
        """Merge every drain into one clock-aligned timeline.

        Coordinator spans (cycle/restart/replay) are always kept;
        actor spans are kept only for the generation that committed
        their cycle unless *committed_only* is false (post-mortem
        dumps want the failed attempts too).
        """
        self.add_drain(self.recorder.drain())
        offsets: Dict[Tuple[int, int], float] = {}
        any_offset: Dict[int, float] = {}
        for drain in self._drains:
            _, actor, generation, perf_base, wall_base, pid, _, _ = drain
            off = self._offset_s(perf_base, wall_base, pid)
            offsets[(actor, generation)] = off
            any_offset[actor] = off

        timeline = LiveTimeline(trace_name=self.trace_name,
                                n_procs=self.n_procs,
                                transport=self.transport,
                                committed=dict(self.committed))
        coordinator_spans = (LIVE_CYCLE, LIVE_RESTART, LIVE_REPLAY)
        for drain in self._drains:
            _, actor, generation, _, _, _, raw_spans, dropped = drain
            timeline.dropped += dropped
            off = offsets[(actor, generation)]
            for (category, cycle, start_s, end_s, n, act_id, src,
                 sent_s, busy_us) in raw_spans:
                if committed_only and category not in coordinator_spans \
                        and self.committed.get(cycle) != generation:
                    continue
                wait_us = 0.0
                if src is not None:
                    src_off = offsets.get((src, generation),
                                          any_offset.get(src))
                    if src_off is not None:
                        wait_us = max(
                            0.0,
                            ((start_s + off) - (sent_s + src_off)) * 1e6)
                timeline.spans.append(LiveSpan(
                    category=category, actor=actor, cycle=cycle,
                    start_us=(start_s + off) * 1e6,
                    end_us=(end_s + off) * 1e6,
                    n=n, act_id=act_id, src=src, wait_us=wait_us,
                    busy_us=busy_us, generation=generation))
        timeline.spans.sort(key=lambda s: (s.start_us, s.actor))
        return timeline


# ---------------------------------------------------------------------------
# Export: the same formats as the simulator's ``repro profile``
# ---------------------------------------------------------------------------


def _live_thread_ids(n_procs: int) -> Dict[int, int]:
    """Chrome tid per row: control first, then actors — the same
    layout as :func:`repro.mpc.timeline.chrome_trace`, so a live trace
    and its simulated twin line up row for row in Perfetto."""
    tids = {CONTROL: 0}
    for p in range(n_procs):
        tids[p] = p + 1
    return tids


def _live_thread_name(actor: int) -> str:
    return "control" if actor == CONTROL else f"actor {actor}"


def chrome_trace_live(timeline: LiveTimeline) -> Dict[str, object]:
    """The live timeline as a Chrome trace-event JSON object.

    Timestamps are microseconds on the merged coordinator axis; load
    the written file in Perfetto (https://ui.perfetto.dev) next to a
    ``repro profile --format chrome`` export of the same section to
    compare measured against modeled behavior span by span.
    """
    tids = _live_thread_ids(timeline.n_procs)
    events: List[Dict[str, object]] = [
        {"name": "process_name", "ph": "M", "pid": 0,
         "args": {"name": f"repro live {timeline.trace_name} "
                          f"@{timeline.n_procs} actors "
                          f"({timeline.transport})"}},
    ]
    for actor, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append({"name": "thread_name", "ph": "M", "pid": 0,
                       "tid": tid,
                       "args": {"name": _live_thread_name(actor)}})
    for span in timeline.spans:
        args: Dict[str, object] = {"cycle": span.cycle}
        if span.n != 1:
            args["n"] = span.n
        if span.act_id >= 0:
            args["act_id"] = span.act_id
        if span.src is not None:
            args["src"] = _live_thread_name(span.src)
            args["wait_us"] = span.wait_us
        if span.busy_us:
            args["busy_us"] = span.busy_us
        if span.generation:
            args["generation"] = span.generation
        events.append({
            "name": span.category, "cat": span.category, "ph": "X",
            "ts": span.start_us, "dur": span.duration_us,
            "pid": 0, "tid": tids.get(span.actor, span.actor + 1),
            "args": args})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace": timeline.trace_name,
            "n_procs": timeline.n_procs,
            "transport": timeline.transport,
            "dropped": timeline.dropped,
        },
    }


def write_chrome_trace_live(timeline: LiveTimeline,
                            stream: IO[str]) -> int:
    """Write :func:`chrome_trace_live` JSON; returns the event count."""
    payload = chrome_trace_live(timeline)
    json.dump(payload, stream, separators=(",", ":"))
    return len(payload["traceEvents"])  # type: ignore[arg-type]


def live_jsonl(timeline: LiveTimeline) -> Iterator[str]:
    """One JSON line per merged span (the ``repro profile`` JSONL
    shape, with live-only fields added)."""
    for span in timeline.spans:
        record = {
            "trace": timeline.trace_name,
            "cycle": span.cycle,
            "proc": _live_thread_name(span.actor),
            "category": span.category,
            "start_us": span.start_us,
            "end_us": span.end_us,
            "act_id": span.act_id if span.act_id >= 0 else None,
            "busy": span.is_busy,
            "n": span.n,
            "src": (None if span.src is None
                    else _live_thread_name(span.src)),
            "wait_us": span.wait_us,
            "generation": span.generation,
        }
        yield json.dumps(record, separators=(",", ":"))


def write_live_jsonl(timeline: LiveTimeline, stream: IO[str]) -> int:
    n = 0
    for line in live_jsonl(timeline):
        stream.write(line + "\n")
        n += 1
    return n


# ---------------------------------------------------------------------------
# Reconciliation: measured spans vs the run's protocol counters
# ---------------------------------------------------------------------------


def reconcile_live(timeline: LiveTimeline, result) -> None:
    """Assert the merged spans agree with the run's counters.

    For every committed cycle: per actor, the match spans' delivery
    counts sum to ``proc_activations`` and the final cumulative
    ``busy_us`` snapshot equals ``proc_busy_us`` **exactly** (both are
    the same float arithmetic in the same order — no epsilon); and the
    cycle's send spans cover ``n_messages - 1`` emissions (everything
    but the broadcast).  Raises ``ValueError`` on any mismatch or on
    ring-buffer overwrites (*result* is the run's
    :class:`~repro.mpc.metrics.SimResult`).
    """
    if timeline.dropped:
        raise ValueError(
            f"flight recorder dropped {timeline.dropped} span(s); "
            "raise the recorder capacity to reconcile")
    cycles = {c.index: c for c in result.cycles}
    by_cycle = timeline.by_cycle()
    for index, generation in sorted(timeline.committed.items()):
        cycle_result = cycles.get(index)
        if cycle_result is None:
            raise ValueError(f"cycle {index} committed in the trace "
                             "but absent from the result")
        spans = by_cycle.get(index, [])
        sends = 0
        for actor in range(timeline.n_procs):
            matches = [s for s in spans
                       if s.actor == actor and s.category == LIVE_MATCH]
            delivered = sum(s.n for s in matches)
            expected = cycle_result.proc_activations[actor]
            if delivered != expected:
                raise ValueError(
                    f"cycle {index}: actor {actor} match spans cover "
                    f"{delivered} activations, counters say {expected}")
            busy = max((s.busy_us for s in matches), default=0.0)
            expected_busy = cycle_result.proc_busy_us[actor]
            if busy != expected_busy:
                raise ValueError(
                    f"cycle {index}: actor {actor} traced busy "
                    f"{busy!r} us != counter {expected_busy!r} us")
            sends += sum(s.n for s in spans
                         if s.actor == actor and s.category == LIVE_SEND)
        expected_sends = cycle_result.n_messages - 1
        if sends != expected_sends:
            raise ValueError(
                f"cycle {index}: send spans cover {sends} messages, "
                f"n_messages says {expected_sends} (+1 broadcast)")


# ---------------------------------------------------------------------------
# Measured attribution: live spans -> the Section 5 limiter categories
# ---------------------------------------------------------------------------


def live_attribution(timeline: LiveTimeline):
    """Attribute measured live idle time to the paper's categories.

    Returns a :class:`~repro.mpc.attribution.SectionAttribution` (the
    same type ``repro profile`` produces for the simulator) built from
    wall-clock spans: per committed cycle the makespan is the
    coordinator's cycle span, each actor's busy time is its measured
    match+send span time, and the idle remainder is decomposed —

    * ``protocol``     — restart + failed-replay windows x all actors;
    * ``comm_overhead``— measured message delivery delays (``wait_us``);
    * ``imbalance``    — measured end-of-cycle barrier waits;
    * ``chain_wait``   — the uncategorized remainder (mid-cycle gaps);
    * ``broadcast_floor`` — zero: live broadcast time is inside the
      first match span, not separable without simulator envelopes.

    Categories are clamped to the measured idle total in that order,
    so :meth:`~repro.mpc.attribution.CycleAttribution.check_sums`
    holds exactly by construction.  Unlike the simulator's attribution
    this is a *measurement*, not a model — treat shares as indicative.
    """
    from ..mpc.attribution import (CycleAttribution, IDLE_CATEGORIES,
                                   SectionAttribution)
    section = SectionAttribution(trace_name=timeline.trace_name,
                                 n_procs=timeline.n_procs)
    by_cycle = timeline.by_cycle()
    n_procs = timeline.n_procs
    for index in sorted(timeline.committed):
        spans = by_cycle.get(index, [])
        cycle_spans = [s for s in spans if s.category == LIVE_CYCLE]
        if cycle_spans:
            makespan_us = max(s.duration_us for s in cycle_spans)
        elif spans:
            makespan_us = (max(s.end_us for s in spans)
                           - min(s.start_us for s in spans))
        else:
            makespan_us = 0.0
        busy_by_category: Dict[str, float] = {}
        per_proc_idle: List[float] = []
        wait_total = 0.0
        barrier_total = 0.0
        for actor in range(n_procs):
            busy = 0.0
            for span in spans:
                if span.actor != actor:
                    continue
                if span.category in (LIVE_MATCH, LIVE_SEND):
                    busy += span.duration_us
                    busy_by_category[span.category] = \
                        busy_by_category.get(span.category, 0.0) \
                        + span.duration_us
                    wait_total += span.wait_us
                elif span.category == LIVE_BARRIER:
                    barrier_total += span.duration_us
            per_proc_idle.append(max(0.0, makespan_us - busy))
        protocol_raw = sum(
            s.duration_us for s in spans
            if s.category in (LIVE_RESTART, LIVE_REPLAY)) * n_procs
        remaining = sum(per_proc_idle)
        idle_by_category = {category: 0.0
                            for category in IDLE_CATEGORIES}
        for category, raw in (("protocol", protocol_raw),
                              ("comm_overhead", wait_total),
                              ("imbalance", barrier_total)):
            charged = min(raw, remaining)
            idle_by_category[category] = charged
            remaining -= charged
        idle_by_category["chain_wait"] = remaining
        idle_us = sum(idle_by_category.values())
        attribution = CycleAttribution(
            index=index, makespan_us=makespan_us, n_procs=n_procs,
            idle_us=idle_us, idle_by_category=idle_by_category,
            busy_us=sum(busy_by_category.values()),
            busy_by_category=busy_by_category,
            per_proc_idle_us=per_proc_idle, critical_path=[])
        attribution.check_sums()
        section.cycles.append(attribution)
    return section


# ---------------------------------------------------------------------------
# Post-mortem flight dumps
# ---------------------------------------------------------------------------


def flight_dump_path(trace_name: str, reason: str,
                     directory: Optional[str] = None) -> str:
    """Where a post-mortem dump lands: ``$REPRO_FLIGHT_DIR`` (or
    *directory*, or the working directory), pid-tagged."""
    directory = directory or os.environ.get(ENV_FLIGHT_DIR) or "."
    safe = "".join(ch if ch.isalnum() or ch in "-_." else "-"
                   for ch in f"{trace_name}-{reason}")
    return os.path.join(directory,
                        f"flight-{safe}-{os.getpid()}.jsonl")


def dump_flight(collector: LiveTraceCollector, reason: str,
                directory: Optional[str] = None) -> str:
    """Dump every recorded span — committed or not — for post-mortems.

    Called automatically by the traced executors when a run dies with
    a typed :class:`~repro.exec.errors.ExecutorError`; the first line
    is a header object (trace, reason, committed map, drop counts),
    each following line one span in the :func:`live_jsonl` shape.
    Returns the written path.
    """
    timeline = collector.build(committed_only=False)
    path = flight_dump_path(collector.trace_name, reason, directory)
    with open(path, "w", encoding="utf-8") as stream:
        header = {
            "flight_recorder": collector.trace_name,
            "reason": reason,
            "transport": collector.transport,
            "n_procs": collector.n_procs,
            "committed": {str(k): v
                          for k, v in sorted(collector.committed.items())},
            "n_spans": len(timeline.spans),
            "dropped": timeline.dropped,
        }
        stream.write(json.dumps(header, separators=(",", ":")) + "\n")
        write_live_jsonl(timeline, stream)
    from . import get_registry
    get_registry().counter("trace_live.dumps").inc()
    return path
