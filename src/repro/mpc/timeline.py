"""Per-event simulation timelines: typed spans, recorded on demand.

The paper's contribution is the *analysis* of why speedups saturate, not
the speedup numbers themselves — yet a :class:`~repro.mpc.metrics
.SimResult` only carries end-of-run aggregates.  This module records,
when explicitly asked to, everything the event loop does as **typed
spans** on a per-cycle timeline: the broadcast, the constant tests,
every token add/delete, every successor generation, every message send
/ transit / receive, and (on the fault path) every ack, retransmission,
timeout wait and stall.  The spans are the one
:class:`~repro.obs.spans.Span` type the live executors' tracing also
emits, so a recorded :class:`Timeline` exports through the same
:func:`~repro.obs.spans.chrome_trace` (Perfetto) and
:func:`~repro.obs.spans.timeline_jsonl` writers as a live run, with
the same row names.  This module adds :func:`gantt`, an ASCII
per-cycle Gantt chart for the terminal, and through
:mod:`repro.mpc.attribution` the timeline decomposes into the paper's
Section 5 idle-time limiter categories.

Strictly opt-in, one loop
-------------------------
Recording is enabled by passing a :class:`TimelineRecorder` in a
:class:`~repro.mpc.config.RunConfig`.  Without one the simulator runs
its hook-free fast loop untouched, so the disabled cost is exactly
zero; ``benchmarks/bench_harness_perf.py`` pins that.  With one, every
cycle goes through the instrumented loop
(:func:`repro.mpc.faults.simulate_cycle_with_faults`), the same loop
that injects faults; without a fault model it runs the plain exchange
with the fast loop's arithmetic.  The recorder only appends spans and
envelopes, so a recorded run returns a bit-identical
:class:`~repro.mpc.metrics.SimResult` for any costs.  The spans double
as a cross-check of the simulator itself: per-processor span
durations sum to ``CycleResult.proc_busy_us`` and the latest busy span
ends at ``CycleResult.makespan_us`` (see
:meth:`CycleTimeline.reconcile`).  With the paper's cost models every
time constant is a multiple of 0.5 µs, so all of this arithmetic is
exact in floating point and "sum to" means ``==``, not "within
epsilon".

This module holds the per-cycle containers, the recorder and the
Gantt chart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# CATEGORIES is re-exported for callers importing it from here.
from ..obs.spans import (CAT_ACK, CAT_BROADCAST, CAT_CONSTANT_TESTS,
                         CAT_RECV, CAT_RETRANSMIT, CAT_SEND, CAT_STALL,
                         CAT_SUCCESSOR, CAT_TIMEOUT_WAIT, CAT_TOKEN_ADD,
                         CAT_TOKEN_DELETE, CAT_TRANSIT, CATEGORIES,
                         CONTROL, NETWORK, Span, row_name)
from .costmodel import CostModel, OverheadModel
from .metrics import CycleResult


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

    # -- the exportable-timeline protocol of repro.obs.spans ---------------
    has_network = True

    def export_header(self) -> Tuple[str, Dict[str, object]]:
        return (f"repro {self.trace_name} @{self.n_procs} procs",
                {"trace": self.trace_name, "n_procs": self.n_procs,
                 "overheads_us": self.overheads.total_us,
                 "faulty": self.faulty})

    def segments(self) -> Iterator[tuple]:
        """One ``(offset_us, index, repeat, makespan_us, spans)`` per
        recorded cycle, span times relative to the cycle start."""
        for offset, cycle in zip(self.cycle_offsets_us(), self.cycles):
            yield (offset, cycle.index, cycle.repeat, cycle.makespan_us,
                   cycle.spans)


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
# Export: ASCII Gantt (Chrome and JSONL live in repro.obs.spans).
# ---------------------------------------------------------------------------

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
    label_w = max(len(row_name(p)) for p in rows)
    stretch = "" if cycle.repeat == 1 else \
        f" (x{cycle.repeat} idle cycles)"
    lines = [f"cycle {cycle.index}{stretch}: makespan "
             f"{makespan / 1000:.3f} ms, {width} cols of "
             f"{makespan / width:.1f} us"]
    for proc in rows:
        lines.append(f"{row_name(proc).rjust(label_w)} "
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
