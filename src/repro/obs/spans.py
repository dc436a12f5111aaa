"""One span model for simulated and live timelines, and its exporters.

The paper's Section 5 asks why speedups saturate, and the repo answers
it twice: from the simulator's modelled clock
(:class:`repro.mpc.timeline.TimelineRecorder`) and from live actors'
flight recorders (:class:`repro.obs.trace.LiveTraceCollector`).  Both
emit the one :class:`Span` below, drawn from one category vocabulary
with one idle set, on rows named the same way (``control``, ``proc N``,
``network``), and both export through the same two writers —

* :func:`chrome_trace` / :func:`write_chrome_trace` — Chrome
  trace-event JSON, loadable in Perfetto or ``chrome://tracing``;
* :func:`timeline_jsonl` / :func:`write_timeline_jsonl` — one JSON
  object per span, every line with the same keys —

so a modelled and a measured profile of one section line up row for
row.

An exportable timeline has ``trace_name``, ``n_procs`` and
``has_network`` attributes, an ``export_header()`` returning the
process label and the Chrome ``otherData`` dict, and a ``segments()``
iterator of ``(offset_us, cycle, repeat, makespan_us, spans)``.  A
simulated :class:`~repro.mpc.timeline.Timeline` yields one segment per
recorded cycle, with span times relative to the cycle start.  A
:class:`~repro.obs.trace.LiveTimeline` yields one segment with
``cycle`` and ``makespan_us`` of ``None``: its span times are absolute
and each span carries its own cycle.

Stdlib-only, so the simulator can import it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Dict, Iterator, List, Optional

#: Pseudo-processor rows for spans not on a match processor.
#: ``CONTROL`` is also the control actor's id in the live protocol.
CONTROL = -1
NETWORK = -2

# -- span categories (the typed vocabulary) -------------------------------
CAT_BROADCAST = "broadcast"          # control sends the cycle's wme packet
CAT_CONSTANT_TESTS = "constant_tests"
CAT_RECV = "recv"                    # message receive overhead
CAT_TOKEN_ADD = "token_add"          # hash-bucket insert (+ search extra)
CAT_TOKEN_DELETE = "token_delete"    # hash-bucket delete (+ search extra)
CAT_SUCCESSOR = "successor"          # successor generation, one per token
CAT_SEND = "send"                    # message send overhead; live: outbox
CAT_TRANSIT = "transit"              # in-flight on the network
CAT_ACK = "ack"                      # ack handling (fault path)
CAT_RETRANSMIT = "retransmit"        # lost-copy resend (fault path)
CAT_TIMEOUT_WAIT = "timeout_wait"    # sender's retransmit timeout (idle)
CAT_STALL = "stall"                  # processor unavailable (idle)
CAT_CYCLE = "cycle"                  # live coordinator: one cycle
CAT_MATCH = "match"                  # live actor: processing one delivery
CAT_BARRIER_WAIT = "barrier_wait"    # live actor: until the barrier (idle)
CAT_RESTART = "restart"              # live coordinator: failure -> respawn
CAT_CHECKPOINT_REPLAY = "checkpoint_replay"  # failed replay attempt (idle)

#: Categories that are *not* busy work: they explain idleness instead.
IDLE_CATEGORIES = frozenset({CAT_TIMEOUT_WAIT, CAT_STALL, CAT_BARRIER_WAIT,
                             CAT_RESTART, CAT_CHECKPOINT_REPLAY})

CATEGORIES = (CAT_BROADCAST, CAT_CONSTANT_TESTS, CAT_RECV, CAT_TOKEN_ADD,
              CAT_TOKEN_DELETE, CAT_SUCCESSOR, CAT_SEND, CAT_TRANSIT,
              CAT_ACK, CAT_RETRANSMIT, CAT_TIMEOUT_WAIT, CAT_STALL,
              CAT_CYCLE, CAT_MATCH, CAT_BARRIER_WAIT, CAT_RESTART,
              CAT_CHECKPOINT_REPLAY)


@dataclass(slots=True)
class Span:
    """One typed interval on one row of a timeline.

    ``proc`` is a match-processor (live: match-actor) index, or
    :data:`CONTROL` / :data:`NETWORK`.  ``act_id`` ties the span to the
    trace activation it processes or carries (-1 when not applicable).

    The other fields are measured by the live collector and keep their
    defaults on simulated spans: ``cycle`` (a simulated span's cycle is
    its :class:`~repro.mpc.timeline.CycleTimeline`'s), ``n`` (deliveries
    or messages covered), ``src`` (row that sent the triggering
    message), ``wait_us`` (that message's measured delivery delay,
    clamped at zero), ``busy_us`` (on a match span, the actor's
    cumulative model-priced busy time at its end, so a cycle's last
    match span carries the cycle's ``proc_busy_us``) and
    ``generation`` (the supervisor attempt that recorded it).

    Not frozen: nothing hashes spans, and the recorder builds one per
    scheduled event, where a frozen dataclass's ``__init__`` costs
    several times more.
    """

    category: str
    proc: int
    start_us: float
    end_us: float
    act_id: int = -1
    cycle: int = -1
    n: int = 1
    src: Optional[int] = None
    wait_us: float = 0.0
    busy_us: float = 0.0
    generation: int = 0

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    @property
    def is_busy(self) -> bool:
        return self.category not in IDLE_CATEGORIES


def row_name(proc: int) -> str:
    """Display name of a row: ``control``, ``network`` or ``proc N``."""
    if proc == CONTROL:
        return "control"
    if proc == NETWORK:
        return "network"
    return f"proc {proc}"


def _thread_ids(timeline) -> Dict[int, int]:
    """Chrome tid per row: control first, then procs, network last."""
    tids = {CONTROL: 0}
    for p in range(timeline.n_procs):
        tids[p] = p + 1
    if timeline.has_network:
        tids[NETWORK] = timeline.n_procs + 1
    return tids


def chrome_trace(timeline) -> Dict[str, object]:
    """The timeline as a Chrome trace-event JSON object.

    Timestamps are microseconds (Chrome's native unit) and each row
    becomes a named thread.  Simulated cycles are laid end to end on
    one axis (they are serialized by the control barrier), each under
    a ``cycle`` span on the control row; live spans sit on the
    coordinator's measured axis.  Optional span fields go into
    ``args`` only when they differ from their defaults.  Load the
    written file in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``.
    """
    tids = _thread_ids(timeline)
    label, info = timeline.export_header()
    events: List[Dict[str, object]] = [
        {"name": "process_name", "ph": "M", "pid": 0,
         "args": {"name": label}},
    ]
    for proc, tid in tids.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 0,
                       "tid": tid, "args": {"name": row_name(proc)}})
    for offset, index, repeat, makespan_us, spans in timeline.segments():
        if makespan_us is not None:
            if repeat == 1:
                name = f"cycle {index}"
            else:
                name = (f"cycles {index}-{index + repeat - 1} "
                        f"(idle x{repeat})")
            cycle_args: Dict[str, object] = {"cycle": index,
                                             "makespan_us": makespan_us}
            if repeat != 1:
                cycle_args["repeat"] = repeat
            events.append({
                "name": name, "cat": CAT_CYCLE, "ph": "X",
                "ts": offset, "dur": makespan_us * repeat,
                "pid": 0, "tid": tids[CONTROL], "args": cycle_args})
        for span in spans:
            args: Dict[str, object] = {
                "cycle": span.cycle if index is None else index}
            if span.act_id >= 0:
                args["act_id"] = span.act_id
            if span.n != 1:
                args["n"] = span.n
            if span.src is not None:
                args["src"] = row_name(span.src)
            if span.wait_us:
                args["wait_us"] = span.wait_us
            if span.busy_us:
                args["busy_us"] = span.busy_us
            if span.generation:
                args["generation"] = span.generation
            events.append({
                "name": span.category, "cat": span.category, "ph": "X",
                "ts": offset + span.start_us, "dur": span.duration_us,
                "pid": 0, "tid": tids[span.proc], "args": args})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": info,
    }


def write_chrome_trace(timeline, path) -> int:
    """Write :func:`chrome_trace` JSON to *path*; returns the event
    count."""
    payload = chrome_trace(timeline)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, separators=(",", ":"))
        stream.write("\n")
    return len(payload["traceEvents"])  # type: ignore[arg-type]


def timeline_jsonl(timeline) -> Iterator[str]:
    """One JSON line per span, with absolute times and the same keys
    on every line (``repeat`` counts the idle cycles a compressed
    simulated entry stands for)."""
    trace_name = timeline.trace_name
    for offset, index, repeat, _, spans in timeline.segments():
        for span in spans:
            record = {
                "trace": trace_name,
                "cycle": span.cycle if index is None else index,
                "proc": row_name(span.proc),
                "category": span.category,
                "start_us": offset + span.start_us,
                "end_us": offset + span.end_us,
                "act_id": span.act_id if span.act_id >= 0 else None,
                "busy": span.is_busy,
                "n": span.n,
                "src": None if span.src is None else row_name(span.src),
                "wait_us": span.wait_us,
                "busy_us": span.busy_us,
                "generation": span.generation,
                "repeat": repeat,
            }
            yield json.dumps(record, separators=(",", ":"))


def write_timeline_jsonl(timeline, stream: IO[str]) -> int:
    """Write :func:`timeline_jsonl` lines to *stream*; returns the
    line count."""
    n = 0
    for line in timeline_jsonl(timeline):
        stream.write(line + "\n")
        n += 1
    return n
