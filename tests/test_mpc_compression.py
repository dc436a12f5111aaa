"""Round compression, sparse per-processor state and the streaming path.

The contract under test is strong: with ``compress_rounds=True`` the
simulator must produce results *bit-identical* to the exact dense loop
(and to the frozen reference mirror) after RLE expansion — on any
trace, any seed, any processor count.  Compression is a representation
change, never a model change.
"""

import dataclasses
import io
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpc import (CostModel, RunConfig, SparseProcArray,
                       TimelineRecorder, attribute_timeline,
                       iter_cycle_results, simulate_config, total_time_us)
from repro.mpc._reference import simulate_reference
from repro.mpc.costmodel import TABLE_5_1, ZERO_OVERHEADS
from repro.mpc.faults import FaultModel, StallWindow
from repro.rete.hashing import BucketKey
from repro.trace import (CycleTrace, SectionTrace, TraceActivation,
                         TraceBuilder, validate_trace)
from repro.trace.events import IdleRun, materialize
from repro.trace.format import FileTraceStream, save_entries
from repro.workloads import StreamSpec, SyntheticStream


def _identical(a, b):
    """Bitwise equality via the same lens the oracles use."""
    return dataclasses.asdict(a) == dataclasses.asdict(b)


def _small_trace(idle_runs=((2, 3), (7, 2)), n_active=4):
    """A few active cycles with explicit empty stretches between them."""
    trace = SectionTrace(name="small")
    idle = dict(idle_runs)
    index = 1
    made = 0
    while made < n_active:
        if index in idle:
            for j in range(idle[index]):
                trace.cycles.append(CycleTrace(index=index + j))
            index += idle.pop(index)
            continue
        rows = {act_id: TraceActivation(
            act_id=act_id, parent_id=None, node_id=act_id, kind="join",
            side="right" if act_id == 1 else "left", tag="+",
            key=BucketKey(act_id, (act_id,)),
            successors=(3,) if act_id == 1 else ()) for act_id in (1, 2)}
        rows[3] = TraceActivation(
            act_id=3, parent_id=1, node_id=1, kind="terminal",
            side="left", tag="+", key=BucketKey(1, (1,)), successors=())
        trace.cycles.append(CycleTrace(index, rows))
        index += 1
        made += 1
    assert validate_trace(trace) == []
    return trace


# -- bit-exactness -----------------------------------------------------------

@pytest.mark.parametrize("n_procs", [1, 3, 16])
@pytest.mark.parametrize("overheads", TABLE_5_1)
def test_compressed_matches_exact_and_reference(n_procs, overheads):
    trace = _small_trace()
    exact = simulate_config(trace, RunConfig(
        n_procs=n_procs, overheads=overheads))
    compressed = simulate_config(trace, RunConfig(
        n_procs=n_procs, overheads=overheads, compress_rounds=True))
    reference = simulate_reference(trace, n_procs, overheads=overheads)
    assert _identical(compressed.expanded(), exact)
    assert _identical(exact, reference)
    assert compressed.total_us == exact.total_us
    assert compressed.n_messages == exact.n_messages
    # The RLE actually bit: fewer stored cycles than simulated ones.
    assert len(compressed.cycles) < compressed.n_cycles == len(trace.cycles)


def test_compressed_with_search_costs():
    """The deletion-search tracker is causal state; compression must
    charge idle cycles through it identically."""
    trace = _small_trace()
    costs = CostModel(delete_search_us=2.0)
    exact = simulate_config(trace, RunConfig(n_procs=4, costs=costs))
    compressed = simulate_config(
        trace, RunConfig(n_procs=4, costs=costs, compress_rounds=True))
    assert _identical(compressed.expanded(), exact)


def test_p1_degenerate():
    trace = _small_trace()
    exact = simulate_config(trace, RunConfig(n_procs=1))
    compressed = simulate_config(
        trace, RunConfig(n_procs=1, compress_rounds=True))
    assert _identical(compressed.expanded(), exact)


def test_all_idle_section_collapses_to_one_run():
    trace = SectionTrace(name="idle", cycles=[
        CycleTrace(index=i) for i in range(1, 51)])
    compressed = simulate_config(
        trace, RunConfig(n_procs=8, compress_rounds=True))
    assert len(compressed.cycles) == 1
    assert compressed.repeats == [50]
    exact = simulate_config(trace, RunConfig(n_procs=8))
    assert _identical(compressed.expanded(), exact)
    assert compressed.total_us == exact.total_us


def test_empty_trace():
    trace = SectionTrace(name="empty", cycles=[])
    compressed = simulate_config(
        trace, RunConfig(n_procs=4, compress_rounds=True))
    assert compressed.cycles == [] and compressed.n_cycles == 0
    assert compressed.total_us == 0.0


def test_compression_off_by_default():
    result = simulate_config(_small_trace(), RunConfig(n_procs=4))
    assert result.repeats is None


def test_compress_composes_with_fault_injection():
    """Compression no longer refuses faults: draws are keyed to absolute
    cycle indices, so the compressed run matches the exact loop bitwise."""
    trace = _small_trace()
    faults = FaultModel(seed=11, loss_prob=0.05, dup_prob=0.02,
                        stalls=(StallWindow(proc=0, start_us=0.0,
                                            end_us=50.0, cycle=3),))
    exact = simulate_config(trace, RunConfig(n_procs=4, faults=faults))
    compressed = simulate_config(
        trace, RunConfig(n_procs=4, compress_rounds=True, faults=faults))
    assert _identical(compressed.expanded(), exact)
    assert compressed.total_us == exact.total_us
    assert compressed.n_messages == exact.n_messages
    # A null fault model never perturbs a run either way.
    config = RunConfig(n_procs=4, compress_rounds=True,
                       faults=FaultModel())
    assert not config.faulty


def test_stall_window_untouched_without_compression():
    """The fault path is unchanged: a stall overlapping an idle stretch
    still lands on the exact per-cycle loop (compression defaults off)."""
    trace = _small_trace()
    faults = FaultModel(stalls=(StallWindow(proc=0, start_us=0.0,
                                            end_us=100.0, cycle=3),))
    result = simulate_config(trace, RunConfig(n_procs=4, faults=faults))
    assert result.repeats is None
    assert result.n_cycles == len(trace.cycles)


# -- hypothesis: compression is invisible at any seed ------------------------

@st.composite
def traces_with_idle(draw):
    """Random small forests with random idle stretches interleaved."""
    builder = TraceBuilder("random")
    index = 1
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        idle = draw(st.integers(min_value=0, max_value=4))
        for j in range(idle):
            builder.new_cycle(index + j)
        index += idle
        builder.new_cycle(index)
        parents = []
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            node = draw(st.integers(min_value=1, max_value=6))
            parents.append(builder.root(
                node, side=draw(st.sampled_from(["left", "right"])),
                tag=draw(st.sampled_from(["+", "-"])),
                values=(draw(st.integers(0, 3)),)))
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            parent = draw(st.sampled_from(parents))
            node = draw(st.integers(min_value=1, max_value=6))
            kind = draw(st.sampled_from(["join", "terminal"]))
            act = builder.child(parent, node, kind=kind)
            if kind != "terminal":
                parents.append(act)
        index += 1
    # Optional idle tail (exercises the final flush).
    for j in range(draw(st.integers(min_value=0, max_value=3))):
        builder.new_cycle(index + j)
    return builder.build()


@given(trace=traces_with_idle(),
       n_procs=st.integers(min_value=1, max_value=32),
       overhead_row=st.integers(min_value=0, max_value=3))
def test_compression_invisible(trace, n_procs, overhead_row):
    assert validate_trace(trace) == []
    overheads = TABLE_5_1[overhead_row]
    exact = simulate_config(trace, RunConfig(
        n_procs=n_procs, overheads=overheads))
    compressed = simulate_config(trace, RunConfig(
        n_procs=n_procs, overheads=overheads, compress_rounds=True))
    assert _identical(compressed.expanded(), exact)
    assert compressed.total_us == exact.total_us


# -- SparseProcArray ---------------------------------------------------------

def test_sparse_array_sequence_protocol():
    arr = SparseProcArray(5, 1.5, {2: 4.0})
    assert len(arr) == 5
    assert arr[0] == 1.5 and arr[2] == 4.0 and arr[-1] == 1.5
    assert arr[-3] == 4.0
    assert arr[1:4] == [1.5, 4.0, 1.5]
    assert list(arr) == [1.5, 1.5, 4.0, 1.5, 1.5]
    with pytest.raises(IndexError):
        arr[5]
    with pytest.raises(IndexError):
        arr[-6]


def test_sparse_array_equality_both_directions():
    arr = SparseProcArray(3, 0.0, {1: 2.0})
    dense = [0.0, 2.0, 0.0]
    assert arr == dense
    assert dense == arr  # list.__eq__ defers via NotImplemented
    assert arr == tuple(dense)
    assert arr != [0.0, 2.0, 1.0]
    assert arr == SparseProcArray(3, 0.0, {1: 2.0})
    # Same values, different (default, overrides) split.
    assert SparseProcArray(3, 2.0, {0: 0.0, 2: 0.0}) == arr
    assert SparseProcArray(3, 0.0) != SparseProcArray(4, 0.0)


def test_sparse_array_fast_sum():
    arr = SparseProcArray(100, 0.5, {3: 2.0, 7: 4.0})
    assert arr.fast_sum() == sum(list(arr)) == 49.0 + 6.0


# -- SimResult RLE -----------------------------------------------------------

def test_rle_aggregates_match_expansion():
    trace = _small_trace(idle_runs=((2, 5),), n_active=3)
    compressed = simulate_config(
        trace, RunConfig(n_procs=4, compress_rounds=True))
    expanded = compressed.expanded()
    assert compressed.n_cycles == expanded.n_cycles == len(trace.cycles)
    assert compressed.total_us == expanded.total_us
    assert compressed.n_messages == expanded.n_messages
    assert compressed.average_idle_fraction() \
        == expanded.average_idle_fraction()
    assert compressed.network_utilization() \
        == expanded.network_utilization()
    for pos in range(compressed.n_cycles):
        assert compressed.cycle_at(pos).makespan_us \
            == expanded.cycles[pos].makespan_us
    # Expanded indices are consecutive and 1-based like the trace.
    assert [c.index for c in expanded.cycles] \
        == [c.index for c in trace.cycles]


# -- streaming sources -------------------------------------------------------

def test_synthetic_stream_deterministic_and_picklable():
    stream = SyntheticStream(StreamSpec(
        active_cycles=5, activations_per_cycle=20, idle_between=3,
        terminals_per_cycle=2, seed=7))
    first = materialize(stream)
    second = materialize(stream)
    assert _identical(first, second)
    clone = pickle.loads(pickle.dumps(stream))
    assert _identical(materialize(clone), first)
    assert stream.total_activations() == 100
    assert stream.n_cycles() == 20 == len(first.cycles)
    assert validate_trace(first) == []


def test_stream_simulates_like_materialized():
    stream = SyntheticStream(StreamSpec(
        active_cycles=4, activations_per_cycle=15, idle_between=6,
        seed=3))
    section = materialize(stream)
    for n_procs in (1, 5, 64):
        exact = simulate_config(section, RunConfig(n_procs=n_procs))
        compressed = simulate_config(
            stream, RunConfig(n_procs=n_procs, compress_rounds=True))
        assert _identical(compressed.expanded(), exact)
        assert len(compressed.cycles) < exact.n_cycles


def test_file_stream_round_trip_with_idle_runs(tmp_path):
    stream = SyntheticStream(StreamSpec(
        active_cycles=3, activations_per_cycle=10, idle_between=4,
        seed=1))
    path = tmp_path / "stream.trace"
    save_entries(stream.name, iter(stream), path)
    reread = FileTraceStream(path)
    assert _identical(materialize(reread), materialize(stream))
    # Idle runs survive as markers, not expanded cycles.
    kinds = [type(e).__name__ for e in reread]
    assert "IdleRun" in kinds
    compressed = simulate_config(
        reread, RunConfig(n_procs=8, compress_rounds=True))
    exact = simulate_config(materialize(stream), RunConfig(n_procs=8))
    assert _identical(compressed.expanded(), exact)


def test_iter_cycle_results_streams_pairs():
    trace = _small_trace(idle_runs=((1, 4), (6, 2)), n_active=3)
    pairs = list(iter_cycle_results(
        trace, RunConfig(n_procs=4, compress_rounds=True)))
    assert sum(repeat for _, repeat in pairs) == len(trace.cycles)
    assert any(repeat > 1 for _, repeat in pairs)
    exact = simulate_config(trace, RunConfig(n_procs=4))
    assert sum(r.makespan_us * k for r, k in pairs) == exact.total_us


def test_total_time_us_matches_sim_result():
    trace = _small_trace()
    config = RunConfig(n_procs=8, compress_rounds=True)
    assert total_time_us(trace, config) \
        == simulate_config(trace, config).total_us \
        == simulate_config(trace, RunConfig(n_procs=8)).total_us


# -- timeline / attribution under compression --------------------------------

def test_recorded_compressed_timeline_reconciles():
    trace = _small_trace(idle_runs=((2, 6),), n_active=3)
    recorder = TimelineRecorder()
    compressed = simulate_config(trace, RunConfig(
        n_procs=4, compress_rounds=True, recorder=recorder))
    timeline = recorder.timeline
    assert timeline.n_cycles() == len(trace.cycles)
    assert timeline.total_us == compressed.total_us
    stored = {(c.index, c.repeat) for c in timeline.cycles}
    assert any(repeat > 1 for _, repeat in stored)
    for cycle_tl, (cycle_result, _) in zip(
            timeline.cycles,
            iter_cycle_results(trace, RunConfig(n_procs=4,
                                                compress_rounds=True))):
        cycle_tl.reconcile(cycle_result)
    attribution = attribute_timeline(timeline)
    assert attribution.n_cycles == len(trace.cycles)
    for cycle in attribution.cycles:
        cycle.check_sums()


def test_compressed_attribution_matches_uncompressed_totals():
    trace = _small_trace(idle_runs=((2, 6),), n_active=3)

    def record(compress):
        recorder = TimelineRecorder()
        simulate_config(trace, RunConfig(
            n_procs=4, compress_rounds=compress, recorder=recorder))
        return attribute_timeline(recorder.timeline)

    compressed, exact = record(True), record(False)
    assert compressed.n_cycles == exact.n_cycles
    assert sum(c.idle_us for c in compressed.cycles) \
        == sum(c.idle_us for c in exact.cycles)
    assert sum(c.busy_us for c in compressed.cycles) \
        == sum(c.busy_us for c in exact.cycles)


# -- CLI ---------------------------------------------------------------------

def test_cli_compress_rounds_smoke(capsys):
    from repro.cli import main
    assert main(["simulate", "--section", "rubik", "--procs", "8",
                 "--compress-rounds", "--json"]) == 0
    import json as json_mod
    compressed = json_mod.loads(capsys.readouterr().out)
    assert main(["simulate", "--section", "rubik", "--procs", "8",
                 "--json"]) == 0
    exact = json_mod.loads(capsys.readouterr().out)
    # The "obs" snapshot is process-global state (cache hits, sweep
    # counters) that accumulates across the two invocations; the
    # equality under test is the simulation payload.
    compressed.pop("obs", None)
    exact.pop("obs", None)
    assert compressed == exact


def test_cli_compress_rounds_composes_with_faults(capsys):
    from repro.cli import main
    assert main(["simulate", "--section", "rubik", "--procs", "8",
                 "--compress-rounds", "--loss", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "rubik" in out


# -- O(active work): no O(P) state per active cycle --------------------------

def test_active_cycles_allocate_no_per_processor_state():
    """2,000 one-activation cycles at P=65,536: after the first cycle
    (which allocates the simulation's per-processor lists once), no
    cycle's peak allocation comes anywhere near one O(P) list, and the
    results kept for all of them stay far below one list per cycle."""
    import tracemalloc

    n_procs, n_cycles = 65_536, 2_000
    one_list = 8 * n_procs  # one pointer per processor
    cycles = []
    for index in range(1, n_cycles + 1):
        cycles.append(CycleTrace(index, {1: TraceActivation(
            act_id=1, parent_id=None, node_id=1 + index % 7, kind="join",
            side="right", tag="+",
            key=BucketKey(1 + index % 7, (index % 11,)),
            successors=())}))
    config = RunConfig(n_procs=n_procs, compress_rounds=True)
    kept = []
    cycle_peaks = []
    tracemalloc.start()
    try:
        results = iter_cycle_results(iter(cycles), config)
        kept.append(next(results))
        for _ in range(n_cycles - 1):
            tracemalloc.reset_peak()
            current, _ = tracemalloc.get_traced_memory()
            pair = next(results)
            cycle_peaks.append(tracemalloc.get_traced_memory()[1]
                               - current)
            kept.append(pair)
        total, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kept) == n_cycles and all(k == 1 for _, k in kept)
    assert max(cycle_peaks) < one_list / 16
    assert total < n_cycles * one_list / 100
    for (result, _), cycle in zip(kept[:3], cycles):
        assert _identical(result, simulate_config(
            SectionTrace("one", [cycle]), RunConfig(n_procs=n_procs)
        ).cycles[0])
