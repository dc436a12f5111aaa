"""Per-event simulation timelines: typed spans, recorded on demand.

The paper's contribution is the *analysis* of why speedups saturate, not
the speedup numbers themselves — yet a :class:`~repro.mpc.metrics
.SimResult` only carries end-of-run aggregates.  This module records,
when explicitly asked to, everything the event loop does as **typed
spans** on a per-cycle timeline: the broadcast, the constant tests,
every token add/delete, every successor generation, every message send
/ transit / receive, and (on the fault path) every ack, retransmission,
timeout wait and stall.  The result is exportable three ways —

* :func:`chrome_trace` — Chrome trace-event JSON, loadable in Perfetto
  or ``chrome://tracing``;
* :func:`timeline_jsonl` — one JSON object per span, for ad-hoc
  analysis;
* :func:`gantt` — an ASCII per-cycle Gantt chart for the terminal —

and, through :mod:`repro.mpc.attribution`, decomposable into the
paper's Section 5 idle-time limiter categories.

Strictly opt-in, by construction
--------------------------------
Recording is enabled by passing a :class:`TimelineRecorder` to
:func:`repro.mpc.simulator.simulate`.  When no recorder is passed the
simulator runs its existing tuple-based fast loop *untouched* — this
module is not even imported — so the disabled cost is exactly zero;
``benchmarks/bench_harness_perf.py`` pins that.  The recorded loop
below (:func:`_simulate_cycle_recorded`) replays the fast loop's
arithmetic operation for operation, in the same order, so a recorded
run returns a bit-identical :class:`~repro.mpc.metrics.SimResult` — and
the spans double as a cross-check of the simulator itself: per-processor
span durations sum exactly to ``CycleResult.proc_busy_us`` and the
latest busy span ends exactly at ``CycleResult.makespan_us``
(see :meth:`CycleTimeline.reconcile`).  With the paper's cost models
every time constant is a multiple of 0.5 µs, so all of this arithmetic
is exact in floating point and "exactly" means ``==``, not "within
epsilon".
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import IO, Dict, Iterator, List, Optional, Sequence

from ..trace.events import KIND_TERMINAL, LEFT, CycleTrace
from .costmodel import CostModel, OverheadModel
from .mapping import BucketMapping
from .metrics import CycleResult

#: Pseudo-processor rows for spans not on a match processor.
CONTROL = -1
NETWORK = -2

# -- span categories (the typed vocabulary) -------------------------------
CAT_BROADCAST = "broadcast"          # control sends the cycle's wme packet
CAT_CONSTANT_TESTS = "constant_tests"
CAT_RECV = "recv"                    # message receive overhead
CAT_TOKEN_ADD = "token_add"          # hash-bucket insert (+ search extra)
CAT_TOKEN_DELETE = "token_delete"    # hash-bucket delete (+ search extra)
CAT_SUCCESSOR = "successor"          # successor generation, one per token
CAT_SEND = "send"                    # message send overhead
CAT_TRANSIT = "transit"              # in-flight on the network
CAT_ACK = "ack"                      # ack handling (fault path)
CAT_RETRANSMIT = "retransmit"        # lost-copy resend (fault path)
CAT_TIMEOUT_WAIT = "timeout_wait"    # sender's retransmit timeout (idle)
CAT_STALL = "stall"                  # processor unavailable (idle)

#: Categories that are *not* busy work: they explain idleness instead.
IDLE_CATEGORIES = frozenset({CAT_TIMEOUT_WAIT, CAT_STALL})

CATEGORIES = (CAT_BROADCAST, CAT_CONSTANT_TESTS, CAT_RECV, CAT_TOKEN_ADD,
              CAT_TOKEN_DELETE, CAT_SUCCESSOR, CAT_SEND, CAT_TRANSIT,
              CAT_ACK, CAT_RETRANSMIT, CAT_TIMEOUT_WAIT, CAT_STALL)


@dataclass(slots=True, frozen=True)
class Span:
    """One typed interval on one row of a cycle timeline.

    ``proc`` is a match-processor index, or :data:`CONTROL` /
    :data:`NETWORK`.  ``act_id`` ties the span to the trace activation
    it processes or carries (-1 when not applicable).
    """

    category: str
    proc: int
    start_us: float
    end_us: float
    act_id: int = -1

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    @property
    def is_busy(self) -> bool:
        return self.category not in IDLE_CATEGORIES


@dataclass(slots=True, frozen=True)
class Envelope:
    """One activation's full processing interval on its processor.

    The fine-grained spans inside it (recv, token, successors, sends)
    are for display; the envelope is the unit the attribution pass and
    the critical-path walk reason about.  ``wait_comm_us`` /
    ``wait_protocol_us`` record how much of the *delivery delay* of the
    message that triggered this envelope was pure communication
    (send overhead + latency + jitter) vs protocol waiting (retransmit
    timeouts); both are zero for locally generated tokens.
    """

    act_id: int
    parent_id: Optional[int]
    proc: int
    start_us: float
    end_us: float
    via_message: bool
    wait_comm_us: float = 0.0
    wait_protocol_us: float = 0.0

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


@dataclass(slots=True)
class CycleTimeline:
    """Every span and envelope of one simulated cycle.

    With round compression a run of consecutive identical fully-idle
    cycles is recorded once with ``repeat`` set to the run length: the
    spans describe the first cycle of the stretch (``index``), and the
    section-level accountings (:attr:`Timeline.total_us`,
    :meth:`Timeline.cycle_offsets_us`) scale by ``repeat`` — exact,
    since every makespan is a multiple of 0.5 µs.
    """

    index: int
    n_procs: int
    makespan_us: float
    proc_busy_us: List[float]
    spans: List[Span]
    envelopes: List[Envelope]
    #: How many consecutive identical cycles this entry stands for.
    repeat: int = 1

    def spans_for(self, proc: int) -> List[Span]:
        return [s for s in self.spans if s.proc == proc]

    def busy_from_spans(self) -> List[float]:
        """Per-processor busy time recomputed from the spans alone."""
        totals = [0.0] * self.n_procs
        for span in self.spans:
            if span.proc >= 0 and span.is_busy:
                totals[span.proc] += span.end_us - span.start_us
        return totals

    def control_busy_from_spans(self) -> float:
        return sum(s.end_us - s.start_us for s in self.spans
                   if s.proc == CONTROL and s.is_busy)

    def network_busy_from_spans(self) -> float:
        return sum(s.end_us - s.start_us for s in self.spans
                   if s.proc == NETWORK and s.is_busy)

    def max_busy_end_us(self) -> float:
        """Latest end of any busy span on a processor or control."""
        return max((s.end_us for s in self.spans
                    if s.proc >= CONTROL and s.is_busy), default=0.0)

    def reconcile(self, result: CycleResult, *,
                  exact: bool = True, rel_tol: float = 1e-9) -> None:
        """Assert this timeline accounts for *result*'s timing.

        Checks that per-processor span durations sum to
        ``proc_busy_us``, control spans to ``control_busy_us``, network
        transits to ``network_busy_us``, and that the latest busy span
        ends at ``makespan_us``.  With *exact* (the default) equality
        must be bit-for-bit — valid for any cost model whose constants
        are multiples of 0.5 µs, i.e. every model in the paper; pass
        ``exact=False`` for arbitrary float costs.  Raises
        :class:`ValueError` on any discrepancy.
        """
        def close(a: float, b: float) -> bool:
            if exact:
                return a == b
            return abs(a - b) <= rel_tol * max(1.0, abs(a), abs(b))

        busy = self.busy_from_spans()
        for p, (got, want) in enumerate(zip(busy, result.proc_busy_us)):
            if not close(got, want):
                raise ValueError(
                    f"cycle {self.index}: proc {p} span total {got!r} "
                    f"!= proc_busy_us {want!r}")
        if not close(self.control_busy_from_spans(),
                     result.control_busy_us):
            raise ValueError(
                f"cycle {self.index}: control span total "
                f"{self.control_busy_from_spans()!r} != "
                f"control_busy_us {result.control_busy_us!r}")
        if not close(self.network_busy_from_spans(),
                     result.network_busy_us):
            raise ValueError(
                f"cycle {self.index}: network span total "
                f"{self.network_busy_from_spans()!r} != "
                f"network_busy_us {result.network_busy_us!r}")
        if not close(self.max_busy_end_us(), result.makespan_us):
            raise ValueError(
                f"cycle {self.index}: latest busy span ends at "
                f"{self.max_busy_end_us()!r}, makespan is "
                f"{result.makespan_us!r}")


@dataclass(slots=True)
class Timeline:
    """A whole recorded section: config echo plus one entry per cycle."""

    trace_name: str
    n_procs: int
    costs: CostModel
    overheads: OverheadModel
    faulty: bool = False
    cycles: List[CycleTimeline] = field(default_factory=list)

    def __iter__(self) -> Iterator[CycleTimeline]:
        return iter(self.cycles)

    def __len__(self) -> int:
        return len(self.cycles)

    @property
    def total_us(self) -> float:
        # ``m * 1 == m`` bit-for-bit, so this matches the pre-repeat
        # accounting exactly on uncompressed timelines.
        return sum(c.makespan_us * c.repeat for c in self.cycles)

    def n_cycles(self) -> int:
        """Number of simulated cycles (compressed runs counted in full)."""
        return sum(c.repeat for c in self.cycles)

    def cycle_offsets_us(self) -> List[float]:
        """Absolute start time of each recorded entry (cycles are
        serialized; a compressed entry advances by ``repeat`` cycles)."""
        offsets = []
        t = 0.0
        for cycle in self.cycles:
            offsets.append(t)
            t += cycle.makespan_us * cycle.repeat
        return offsets

    def longest_cycle(self) -> CycleTimeline:
        if not self.cycles:
            raise ValueError("empty timeline")
        return max(self.cycles, key=lambda c: c.makespan_us)


class TimelineRecorder:
    """Opt-in span collector: set ``RunConfig(recorder=...)``.

    After the run, :attr:`timeline` holds the recorded
    :class:`Timeline`.  A recorder can be reused; each
    ``simulate_config`` call replaces the previous timeline.
    """

    def __init__(self) -> None:
        self.timeline: Optional[Timeline] = None

    def begin_section(self, trace_name: str, n_procs: int,
                      costs: CostModel, overheads: OverheadModel,
                      faulty: bool) -> None:
        self.timeline = Timeline(trace_name=trace_name, n_procs=n_procs,
                                 costs=costs, overheads=overheads,
                                 faulty=faulty)

    def add_cycle(self, cycle: CycleTimeline) -> None:
        assert self.timeline is not None, \
            "add_cycle before begin_section"
        self.timeline.cycles.append(cycle)


# ---------------------------------------------------------------------------
# The recorded event loop: the fast loop's arithmetic, span by span.
# ---------------------------------------------------------------------------

def _simulate_cycle_recorded(cycle: CycleTrace, n_procs: int,
                             costs: CostModel, overheads: OverheadModel,
                             mapping: BucketMapping,
                             search_costs: Optional[Dict[int, float]],
                             recorder: TimelineRecorder) -> CycleResult:
    """Fault-free cycle simulation with span recording.

    Mirror of :func:`repro.mpc.simulator._simulate_cycle`: every
    floating-point operation on the timing state happens in the same
    order with the same operands, so the returned :class:`CycleResult`
    is bit-identical to the fast loop's — the only additions are span
    and envelope appends.  ``tests/test_mpc_timeline.py`` holds the two
    loops together.
    """
    send_us = overheads.send_us
    recv_us = overheads.recv_us
    latency_us = overheads.latency_us
    left_us = costs.left_token_us
    right_us = costs.right_token_us
    successor_us = costs.successor_us
    acts = cycle.activations
    get_extra = (search_costs or {}).get

    spans: List[Span] = []
    envelopes: List[Envelope] = []
    add_span = spans.append
    add_envelope = envelopes.append
    #: delivery delay of an inter-processor token (generation -> arrival)
    message_wait_us = send_us + latency_us

    index = cycle.key_index()
    dest_of = index.destinations(mapping)
    base = index.base

    # --- step 1: broadcast -------------------------------------------------
    control_busy = send_us
    match_start = send_us + latency_us + recv_us
    network_busy = latency_us if n_procs > 0 else 0.0
    n_messages = 1
    add_span(Span(CAT_BROADCAST, CONTROL, 0.0, send_us))
    if n_procs > 0:
        add_span(Span(CAT_TRANSIT, NETWORK, send_us, send_us + latency_us))

    # --- step 2: constant tests on every processor -------------------------
    for p in range(n_procs):
        add_span(Span(CAT_RECV, p, send_us + latency_us, match_start))
        add_span(Span(CAT_CONSTANT_TESTS, p, match_start,
                      match_start + costs.constant_tests_us))
    ready = [match_start + costs.constant_tests_us] * n_procs
    busy = [recv_us + costs.constant_tests_us] * n_procs
    activations = [0] * n_procs
    left_activations = [0] * n_procs

    seq = 0
    token_messages = 0
    queue: list = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    control_arrivals: List[float] = []
    control_ready = control_busy

    def send_to_control(depart: float, msg_id: int) -> None:
        nonlocal control_busy, control_ready, network_busy, n_messages
        n_messages += 1
        network_busy += latency_us
        arrive = depart + latency_us
        add_span(Span(CAT_TRANSIT, NETWORK, depart, arrive, msg_id))
        begin = max(control_ready, arrive)
        control_ready = begin + recv_us
        add_span(Span(CAT_RECV, CONTROL, begin, control_ready, msg_id))
        control_busy += recv_us
        control_arrivals.append(control_ready)

    for root in cycle.roots():
        owner = dest_of[root.act_id - base]
        if root.kind == KIND_TERMINAL:
            start = ready[owner]
            depart = start + send_us
            add_span(Span(CAT_SEND, owner, start, depart, root.act_id))
            add_envelope(Envelope(root.act_id, None, owner, start,
                                  depart, False))
            busy[owner] += send_us
            ready[owner] = depart
            send_to_control(depart, root.act_id)
            continue
        seq += 1
        heappush(queue, (ready[owner], seq, owner, False, root))

    # --- steps 3-4: event loop ---------------------------------------------
    while queue:
        arrival, _, p, via_message, act = heappop(queue)
        proc_ready = ready[p]
        start = proc_ready if proc_ready > arrival else arrival
        t = start
        if via_message:
            t += recv_us
            add_span(Span(CAT_RECV, p, start, t, act.act_id))
        token_start = t
        t += left_us if act.side == LEFT else right_us
        extra = get_extra(act.act_id)
        if extra is not None:
            t += extra
        add_span(Span(CAT_TOKEN_ADD if act.tag == "+" else
                      CAT_TOKEN_DELETE, p, token_start, t, act.act_id))
        activations[p] += 1
        if act.side == LEFT:
            left_activations[p] += 1

        for succ_id in act.successors:
            succ = acts[succ_id]
            gen_start = t
            t += successor_us
            add_span(Span(CAT_SUCCESSOR, p, gen_start, t, succ_id))
            if succ.kind == KIND_TERMINAL:
                send_start = t
                t += send_us
                add_span(Span(CAT_SEND, p, send_start, t, succ_id))
                send_to_control(t, succ_id)
                continue
            dest = dest_of[succ_id - base]
            seq += 1
            if dest == p:
                heappush(queue, (t, seq, p, False, succ))
            else:
                send_start = t
                t += send_us
                token_messages += 1
                add_span(Span(CAT_SEND, p, send_start, t, succ_id))
                add_span(Span(CAT_TRANSIT, NETWORK, t, t + latency_us,
                              succ_id))
                heappush(queue, (t + latency_us, seq, dest, True, succ))

        add_envelope(Envelope(
            act.act_id, act.parent_id, p, start, t, via_message,
            wait_comm_us=message_wait_us if via_message else 0.0))
        busy[p] += t - start
        ready[p] = t

    # Token messages are priced after the loop, as in the fast loop.
    n_messages += token_messages
    network_busy += token_messages * latency_us

    makespan = max([match_start + costs.constant_tests_us]
                   + ready + control_arrivals)
    recorder.add_cycle(CycleTimeline(
        index=cycle.index, n_procs=n_procs, makespan_us=makespan,
        proc_busy_us=list(busy), spans=spans, envelopes=envelopes))
    return CycleResult(index=cycle.index, makespan_us=makespan,
                       proc_busy_us=busy,
                       proc_activations=activations,
                       proc_left_activations=left_activations,
                       n_messages=n_messages,
                       network_busy_us=network_busy,
                       control_busy_us=control_busy)


def _record_idle_stretch(recorder: TimelineRecorder, start_index: int,
                         count: int, n_procs: int, costs: CostModel,
                         overheads: OverheadModel) -> None:
    """Record *count* consecutive fully-idle cycles as one entry.

    The spans are exactly what :func:`_simulate_cycle_recorded` emits
    for one empty cycle — broadcast, transit, per-processor receive and
    constant tests — stored once with ``repeat=count``, so a
    million-cycle idle stretch costs one :class:`CycleTimeline`.
    :meth:`CycleTimeline.reconcile` against the compressed run's
    template result holds bit-exactly.
    """
    send_us = overheads.send_us
    recv_us = overheads.recv_us
    latency_us = overheads.latency_us
    match_start = send_us + latency_us + recv_us
    makespan = match_start + costs.constant_tests_us
    spans: List[Span] = [Span(CAT_BROADCAST, CONTROL, 0.0, send_us)]
    if n_procs > 0:
        spans.append(Span(CAT_TRANSIT, NETWORK, send_us,
                          send_us + latency_us))
    for p in range(n_procs):
        spans.append(Span(CAT_RECV, p, send_us + latency_us, match_start))
        spans.append(Span(CAT_CONSTANT_TESTS, p, match_start, makespan))
    recorder.add_cycle(CycleTimeline(
        index=start_index, n_procs=n_procs, makespan_us=makespan,
        proc_busy_us=[recv_us + costs.constant_tests_us] * n_procs,
        spans=spans, envelopes=[], repeat=count))


# ---------------------------------------------------------------------------
# Exports: Chrome trace-event JSON, JSONL spans, ASCII Gantt.
# ---------------------------------------------------------------------------

def _thread_ids(n_procs: int) -> Dict[int, int]:
    """Chrome tid per row: control first, then procs, network last."""
    tids = {CONTROL: 0, NETWORK: n_procs + 1}
    for p in range(n_procs):
        tids[p] = p + 1
    return tids


def _thread_name(proc: int) -> str:
    if proc == CONTROL:
        return "control"
    if proc == NETWORK:
        return "network"
    return f"proc {proc}"


def chrome_trace(timeline: Timeline) -> Dict[str, object]:
    """The timeline as a Chrome trace-event JSON object.

    Cycles are laid end to end on one absolute time axis (they are
    serialized by the control barrier), timestamps are microseconds
    (Chrome's native unit), and each row becomes a named thread.  Load
    the written file in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``.
    """
    tids = _thread_ids(timeline.n_procs)
    events: List[Dict[str, object]] = [
        {"name": "process_name", "ph": "M", "pid": 0,
         "args": {"name": f"repro {timeline.trace_name} "
                          f"@{timeline.n_procs} procs"}},
    ]
    for proc, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append({"name": "thread_name", "ph": "M", "pid": 0,
                       "tid": tid, "args": {"name": _thread_name(proc)}})
    for offset, cycle in zip(timeline.cycle_offsets_us(),
                             timeline.cycles):
        if cycle.repeat == 1:
            name = f"cycle {cycle.index}"
        else:
            name = (f"cycles {cycle.index}-"
                    f"{cycle.index + cycle.repeat - 1} (idle x"
                    f"{cycle.repeat})")
        cycle_args: Dict[str, object] = {"cycle": cycle.index,
                                         "makespan_us": cycle.makespan_us}
        if cycle.repeat != 1:
            cycle_args["repeat"] = cycle.repeat
        events.append({
            "name": name, "cat": "cycle", "ph": "X",
            "ts": offset, "dur": cycle.makespan_us * cycle.repeat,
            "pid": 0, "tid": tids[CONTROL], "args": cycle_args})
        for span in cycle.spans:
            args: Dict[str, object] = {"cycle": cycle.index}
            if span.act_id >= 0:
                args["act_id"] = span.act_id
            events.append({
                "name": span.category, "cat": span.category, "ph": "X",
                "ts": offset + span.start_us, "dur": span.duration_us,
                "pid": 0, "tid": tids[span.proc], "args": args})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace": timeline.trace_name,
            "n_procs": timeline.n_procs,
            "overheads_us": timeline.overheads.total_us,
            "faulty": timeline.faulty,
        },
    }


def write_chrome_trace(timeline: Timeline, path) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(chrome_trace(timeline), stream)
        stream.write("\n")


def timeline_jsonl(timeline: Timeline) -> Iterator[str]:
    """One JSON line per span, with absolute (section-level) times."""
    for offset, cycle in zip(timeline.cycle_offsets_us(),
                             timeline.cycles):
        for span in cycle.spans:
            record = {
                "trace": timeline.trace_name,
                "cycle": cycle.index,
                "proc": _thread_name(span.proc),
                "category": span.category,
                "start_us": offset + span.start_us,
                "end_us": offset + span.end_us,
                "act_id": span.act_id if span.act_id >= 0 else None,
                "busy": span.is_busy,
            }
            if cycle.repeat != 1:
                record["repeat"] = cycle.repeat
            yield json.dumps(record, separators=(",", ":"))


def write_timeline_jsonl(timeline: Timeline, stream: IO[str]) -> int:
    n = 0
    for line in timeline_jsonl(timeline):
        stream.write(line + "\n")
        n += 1
    return n


#: Gantt glyph per category (later spans overwrite earlier ones, so the
#: fine-grained work inside an envelope wins over its container).
_GANTT_GLYPHS = {
    CAT_BROADCAST: "B",
    CAT_CONSTANT_TESTS: "c",
    CAT_RECV: "<",
    CAT_TOKEN_ADD: "#",
    CAT_TOKEN_DELETE: "=",
    CAT_SUCCESSOR: "+",
    CAT_SEND: ">",
    CAT_TRANSIT: "~",
    CAT_ACK: "a",
    CAT_RETRANSMIT: "r",
    CAT_TIMEOUT_WAIT: "t",
    CAT_STALL: "X",
}

GANTT_LEGEND = ("B broadcast  c const-tests  < recv  # token+  = token-  "
                "+ successor  > send  ~ transit  a ack  r retransmit  "
                "t timeout  X stall  . idle")


def gantt(cycle: CycleTimeline, width: int = 64,
          include_network: bool = True) -> str:
    """ASCII Gantt of one cycle: one row per processor, time across.

    Each column covers ``makespan / width`` microseconds; a cell shows
    the glyph of the last span overlapping its midpoint (see
    :data:`GANTT_LEGEND`), ``.`` when the row is idle there.
    """
    if width < 8:
        raise ValueError("width must be >= 8")
    makespan = cycle.makespan_us
    rows = [CONTROL] + list(range(cycle.n_procs))
    if include_network:
        rows.append(NETWORK)
    grids = {proc: ["."] * width for proc in rows}
    if makespan > 0:
        scale = width / makespan
        for span in cycle.spans:
            grid = grids.get(span.proc)
            if grid is None:
                continue
            first = int(span.start_us * scale)
            last = int(span.end_us * scale)
            if last == first:  # sub-column span: still show one cell
                last = first + 1
            glyph = _GANTT_GLYPHS.get(span.category, "?")
            for i in range(max(0, first), min(width, last)):
                grid[i] = glyph
    label_w = max(len(_thread_name(p)) for p in rows)
    stretch = "" if cycle.repeat == 1 else \
        f" (x{cycle.repeat} idle cycles)"
    lines = [f"cycle {cycle.index}{stretch}: makespan "
             f"{makespan / 1000:.3f} ms, {width} cols of "
             f"{makespan / width:.1f} us"]
    for proc in rows:
        lines.append(f"{_thread_name(proc).rjust(label_w)} "
                     f"|{''.join(grids[proc])}|")
    lines.append(GANTT_LEGEND)
    return "\n".join(lines)


def gantt_section(timeline: Timeline, width: int = 64,
                  cycles: Optional[Sequence[int]] = None) -> str:
    """Gantt charts for several cycles (default: the longest one)."""
    if cycles is None:
        chosen = [timeline.longest_cycle()]
    else:
        by_index = {c.index: c for c in timeline.cycles}
        try:
            chosen = [by_index[i] for i in cycles]
        except KeyError as err:
            raise ValueError(f"no cycle {err.args[0]} in timeline "
                             f"(have {sorted(by_index)})") from None
    return "\n\n".join(gantt(c, width=width) for c in chosen)
