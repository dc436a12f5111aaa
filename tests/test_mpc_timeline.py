"""Tests of the opt-in timeline recorder and its exports.

The contract under test: a recorder never changes simulation results
(bit-identical SimResult, fault-free and faulty), and the spans it
produces reconcile exactly with the aggregate counters — per-processor
busy sums, control busy, network busy, and the makespan.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpc import (FaultModel, OverheadModel, ProtocolModel,
                       RunConfig, StallWindow, TimelineRecorder,
                       chrome_trace, gantt, gantt_section, simulate,
                       simulate_config, timeline_jsonl,
                       write_chrome_trace)
from repro.mpc.costmodel import TABLE_5_1
from repro.mpc.timeline import CONTROL, NETWORK, CATEGORIES
from repro.rete.hashing import BucketKey
from repro.trace import (KIND_TERMINAL, CycleTrace, SectionTrace,
                         TraceActivation)
from repro.workloads import weaver_section

from tests.test_simulator_properties import random_traces

OV16 = next(o for o in TABLE_5_1 if o.total_us == 16)


@pytest.fixture(scope="module")
def weaver():
    return weaver_section()


def recorded(trace, n_procs, **kwargs):
    recorder = TimelineRecorder()
    result = simulate_config(trace, RunConfig(n_procs=n_procs,
                                              recorder=recorder,
                                              **kwargs))
    return result, recorder.timeline


class TestBitIdentity:
    def test_fault_free(self, weaver):
        base = simulate(weaver, n_procs=8, overheads=OV16)
        result, timeline = recorded(weaver, 8, overheads=OV16)
        assert result == base
        assert len(timeline.cycles) == len(base.cycles)

    def test_faulty(self, weaver):
        faults = FaultModel(seed=11, loss_prob=0.15, dup_prob=0.05,
                            jitter_us=3.0)
        base = simulate_config(weaver, RunConfig(
            n_procs=8, overheads=OV16, faults=faults))
        result, timeline = recorded(weaver, 8, overheads=OV16,
                                    faults=faults)
        assert result == base
        assert timeline.faulty

    def test_recorder_reusable(self, weaver):
        recorder = TimelineRecorder()
        simulate_config(weaver, RunConfig(n_procs=2, overheads=OV16,
                                          recorder=recorder))
        first = recorder.timeline
        simulate_config(weaver, RunConfig(n_procs=4, overheads=OV16,
                                          recorder=recorder))
        assert recorder.timeline is not first
        assert recorder.timeline.n_procs == 4


class TestReconciliation:
    """Span totals must equal the aggregate counters, bit for bit."""

    @pytest.mark.parametrize("n_procs", [1, 4, 16])
    def test_fault_free_exact(self, weaver, n_procs):
        result, timeline = recorded(weaver, n_procs, overheads=OV16)
        for cycle_timeline, cycle_result in zip(timeline.cycles,
                                                result.cycles):
            cycle_timeline.reconcile(cycle_result)

    def test_faulty_exact_without_jitter(self, weaver):
        # All protocol constants are multiples of 0.5 us, so even the
        # ack/retransmit machinery reconciles exactly — only jitter
        # introduces non-dyadic floats.
        faults = FaultModel(seed=5, loss_prob=0.2, dup_prob=0.1)
        result, timeline = recorded(weaver, 8, overheads=OV16,
                                    faults=faults,
                                    protocol=ProtocolModel())
        assert result.retransmits > 0
        for cycle_timeline, cycle_result in zip(timeline.cycles,
                                                result.cycles):
            cycle_timeline.reconcile(cycle_result)

    def test_faulty_with_jitter_close(self, weaver):
        faults = FaultModel(seed=5, loss_prob=0.1, jitter_us=2.5)
        result, timeline = recorded(weaver, 8, overheads=OV16,
                                    faults=faults)
        for cycle_timeline, cycle_result in zip(timeline.cycles,
                                                result.cycles):
            cycle_timeline.reconcile(cycle_result, exact=False)

    def test_reconcile_detects_tampering(self, weaver):
        result, timeline = recorded(weaver, 4, overheads=OV16)
        cycle = timeline.cycles[0]
        cycle.spans[0] = type(cycle.spans[0])(
            category=cycle.spans[0].category, proc=cycle.spans[0].proc,
            start_us=cycle.spans[0].start_us,
            end_us=cycle.spans[0].end_us + 1.0)
        with pytest.raises(ValueError):
            cycle.reconcile(result.cycles[0])

    def test_stall_spans_are_not_busy(self, weaver):
        faults = FaultModel(seed=0, stalls=(
            StallWindow(proc=0, start_us=0.0, end_us=500.0),))
        result, timeline = recorded(weaver, 4, overheads=OV16,
                                    faults=faults)
        stall_spans = [s for c in timeline.cycles for s in c.spans
                      if s.category == "stall"]
        assert stall_spans
        assert not any(s.is_busy for s in stall_spans)
        for cycle_timeline, cycle_result in zip(timeline.cycles,
                                                result.cycles):
            cycle_timeline.reconcile(cycle_result)


#: Overhead rows for the invisibility property.  The last two are not
#: dyadic (no multiple of 0.5 us), so float sums depend on their order:
#: a recorded loop pricing messages in any other order than the fast
#: loop would change a result bit there.
RECORDER_OVERHEADS = (
    OverheadModel(send_us=5.0, recv_us=3.0),
    OverheadModel(send_us=0.1, recv_us=0.7, latency_us=0.3),
    OverheadModel(send_us=0.2, recv_us=0.7, latency_us=1.3),
)


def _dyadic(overheads: OverheadModel) -> bool:
    return all((2 * v).is_integer() for v in (
        overheads.send_us, overheads.recv_us, overheads.latency_us))


@st.composite
def traces_with_idle_stretches(draw):
    """A :func:`random_traces` trace, renumbered to leave a drawn run of
    empty cycles (0-3) before each of its cycles, each of which also
    gets 0-2 single-CE instantiations (terminal roots, shipped straight
    from the constant tests)."""
    busy = draw(random_traces())
    trace = SectionTrace(name=busy.name)
    index = 0
    for cycle in busy:
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            index += 1
            trace.cycles.append(CycleTrace(index=index))
        index += 1
        renumbered = CycleTrace(index=index)
        for act in cycle.ordered():
            renumbered.add(act)
        first = cycle.max_act_id() + 1
        for i in range(draw(st.integers(min_value=0, max_value=2))):
            renumbered.add(TraceActivation(
                first + i, None, 20 + i, KIND_TERMINAL, "left", "+",
                BucketKey(20 + i, ()), ()))
        trace.cycles.append(renumbered)
    return trace


@given(trace=traces_with_idle_stretches(),
       n_procs=st.integers(min_value=1, max_value=12),
       overheads=st.sampled_from(RECORDER_OVERHEADS),
       compress=st.booleans())
def test_recorder_never_changes_results(trace, n_procs, overheads,
                                        compress):
    """Property: recording is invisible to the simulation physics."""
    config = RunConfig(n_procs=n_procs, overheads=overheads,
                       compress_rounds=compress)
    base = simulate_config(trace, config)
    recorder = TimelineRecorder()
    result = simulate_config(trace, config.replace(recorder=recorder))
    assert result == base
    assert len(recorder.timeline.cycles) == len(result.cycles)
    for cycle_timeline, cycle_result in zip(recorder.timeline.cycles,
                                            result.cycles):
        cycle_timeline.reconcile(cycle_result,
                                 exact=_dyadic(overheads))


@given(trace=random_traces(),
       n_procs=st.integers(min_value=1, max_value=8),
       loss=st.sampled_from([0.0, 0.1, 0.5]))
def test_recorder_never_changes_fault_results(trace, n_procs, loss):
    faults = FaultModel(seed=1, loss_prob=loss, dup_prob=0.1)
    base = simulate_config(trace, RunConfig(
        n_procs=n_procs, overheads=OV16, faults=faults))
    recorder = TimelineRecorder()
    result = simulate_config(trace, RunConfig(
        n_procs=n_procs, overheads=OV16, faults=faults,
        recorder=recorder))
    assert result == base
    if not faults.is_null:
        for cycle_timeline, cycle_result in zip(recorder.timeline.cycles,
                                                result.cycles):
            cycle_timeline.reconcile(cycle_result)


class TestExports:
    def test_chrome_trace_round_trips(self, weaver, tmp_path):
        _, timeline = recorded(weaver, 4, overheads=OV16)
        path = tmp_path / "trace.json"
        write_chrome_trace(timeline, path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data == chrome_trace(timeline)

    def test_chrome_trace_schema(self, weaver):
        _, timeline = recorded(weaver, 4, overheads=OV16)
        data = chrome_trace(timeline)
        events = data["traceEvents"]
        assert isinstance(events, list) and events
        names = {e["name"] for e in events if e["ph"] == "M"}
        assert "process_name" in names and "thread_name" in names
        for event in events:
            assert event["ph"] in ("M", "X")
            if event["ph"] == "X":
                assert event["ts"] >= 0 and event["dur"] >= 0
                assert isinstance(event["tid"], int)
                # every duration event names a known category or cycle
                assert event["cat"] == "cycle" or \
                    event["name"] in CATEGORIES

    def test_chrome_trace_cycles_do_not_overlap(self, weaver):
        _, timeline = recorded(weaver, 4, overheads=OV16)
        offsets = timeline.cycle_offsets_us()
        for offset, cycle in zip(offsets, timeline.cycles):
            for span in cycle.spans:
                assert offset + span.end_us <= \
                    offset + cycle.makespan_us + 1e-9

    def test_jsonl_lines_parse(self, weaver):
        _, timeline = recorded(weaver, 4, overheads=OV16)
        lines = list(timeline_jsonl(timeline))
        assert len(lines) == sum(len(c.spans) for c in timeline.cycles)
        for line in lines:
            record = json.loads(line)
            assert record["category"] in CATEGORIES
            assert record["end_us"] >= record["start_us"]

    def test_gantt_smoke(self, weaver):
        _, timeline = recorded(weaver, 4, overheads=OV16)
        chart = gantt(timeline.cycles[0], width=40)
        lines = chart.splitlines()
        # header + control + 4 procs + network + legend
        assert len(lines) == 8
        assert "control" in chart and "proc 0" in chart
        assert "network" in chart

    def test_gantt_section_selects_cycles(self, weaver):
        _, timeline = recorded(weaver, 2, overheads=OV16)
        indices = [c.index for c in timeline.cycles[:2]]
        out = gantt_section(timeline, width=32, cycles=indices)
        for index in indices:
            assert f"cycle {index}:" in out
        with pytest.raises(ValueError):
            gantt_section(timeline, cycles=[999])

    def test_gantt_rejects_narrow_width(self, weaver):
        _, timeline = recorded(weaver, 2, overheads=OV16)
        with pytest.raises(ValueError):
            gantt(timeline.cycles[0], width=4)


class TestTimelineStructure:
    def test_rows_are_well_formed(self, weaver):
        _, timeline = recorded(weaver, 4, overheads=OV16)
        for cycle in timeline.cycles:
            for span in cycle.spans:
                assert span.end_us >= span.start_us
                assert span.proc in (CONTROL, NETWORK) or \
                    0 <= span.proc < cycle.n_procs
                assert span.category in CATEGORIES

    def test_envelopes_cover_activations(self, weaver):
        _, timeline = recorded(weaver, 4, overheads=OV16)
        for trace_cycle, cycle in zip(weaver, timeline.cycles):
            non_terminal_roots = [a for a in trace_cycle
                                  if a.kind != "terminal"
                                  or a.parent_id is None]
            assert len(cycle.envelopes) == len(non_terminal_roots)

    def test_total_and_offsets(self, weaver):
        _, timeline = recorded(weaver, 4, overheads=OV16)
        offsets = timeline.cycle_offsets_us()
        assert offsets[0] == 0.0
        assert timeline.total_us == pytest.approx(
            offsets[-1] + timeline.cycles[-1].makespan_us)
        assert timeline.longest_cycle().makespan_us == \
            max(c.makespan_us for c in timeline.cycles)
