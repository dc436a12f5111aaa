"""Property-based tests of the MPC simulator over random valid traces.

A hypothesis strategy generates arbitrary causal activation forests;
the simulator must then satisfy the physics of the model regardless of
trace shape: speedups bounded by the machine size, busy time conserved,
more overhead never helping, determinism, and serialization consistency.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpc import (CostModel, OverheadModel, ZERO_OVERHEADS,
                       RandomMapping, RunConfig, simulate,
                       simulate_base, simulate_config,
                       simulate_master_copy, simulate_pairs,
                       simulate_replicated, speedup)
from repro.trace import (TraceBuilder, dumps_trace, loads_trace,
                         validate_trace)
from tests.trace_view import acts


@st.composite
def random_traces(draw):
    """A random valid section trace: 1-3 cycles of random forests."""
    n_cycles = draw(st.integers(min_value=1, max_value=3))
    builder = TraceBuilder("random")
    for cycle_index in range(1, n_cycles + 1):
        builder.new_cycle(cycle_index)
        n_roots = draw(st.integers(min_value=1, max_value=8))
        frontier = []
        for _ in range(n_roots):
            node = draw(st.integers(min_value=1, max_value=12))
            side = draw(st.sampled_from(["left", "right"]))
            tag = draw(st.sampled_from(["+", "-"]))
            values = tuple(draw(st.lists(
                st.integers(min_value=0, max_value=5), max_size=2)))
            frontier.append(builder.root(node, side=side, tag=tag,
                                         values=values))
        # Random expansion: attach children to random frontier members.
        n_children = draw(st.integers(min_value=0, max_value=20))
        for _ in range(n_children):
            parent = draw(st.sampled_from(frontier))
            node = draw(st.integers(min_value=1, max_value=12))
            kind = draw(st.sampled_from(["join", "join", "terminal"]))
            values = () if kind == "terminal" else tuple(draw(st.lists(
                st.integers(min_value=0, max_value=5), max_size=2)))
            act = builder.child(parent, node, values=values, kind=kind)
            if kind != "terminal":
                frontier.append(act)
    return builder.build()


@given(trace=random_traces(),
       n_procs=st.integers(min_value=1, max_value=16))
def test_speedup_bounded_and_positive(trace, n_procs):
    assert validate_trace(trace) == []
    base = simulate_base(trace)
    run = simulate(trace, n_procs=n_procs)
    s = speedup(base, run)
    assert 0 < s <= n_procs + 1e-9


@given(trace=random_traces(),
       n_procs=st.integers(min_value=2, max_value=16))
def test_work_conservation_zero_overheads(trace, n_procs):
    """At zero overheads, total busy time = base work + (P-1) extra
    constant-test evaluations (the only duplicated work)."""
    base = simulate_base(trace)
    run = simulate(trace, n_procs=n_procs)
    busy = sum(sum(c.proc_busy_us) for c in run.cycles)
    n_cycles = len(trace.cycles)
    expected = base.total_us + (n_procs - 1) * 30.0 * n_cycles
    assert busy == pytest.approx(expected)


@given(trace=random_traces(),
       n_procs=st.integers(min_value=1, max_value=16))
def test_overheads_never_help(trace, n_procs):
    light = simulate(trace, n_procs=n_procs,
                     overheads=OverheadModel(send_us=1, recv_us=1))
    heavy = simulate(trace, n_procs=n_procs,
                     overheads=OverheadModel(send_us=20, recv_us=12))
    assert heavy.total_us >= light.total_us - 1e-9


@given(trace=random_traces(),
       n_procs=st.integers(min_value=1, max_value=16),
       seed=st.integers(min_value=0, max_value=3))
def test_determinism(trace, n_procs, seed):
    mapping = RandomMapping(n_procs=n_procs, seed=seed)
    a = simulate_config(trace, RunConfig(n_procs=n_procs,
                                         mapping=mapping))
    b = simulate_config(trace, RunConfig(
        n_procs=n_procs,
        mapping=RandomMapping(n_procs=n_procs, seed=seed)))
    assert a.total_us == b.total_us
    assert [c.proc_busy_us for c in a.cycles] == \
        [c.proc_busy_us for c in b.cycles]


@given(trace=random_traces())
def test_cycle_times_sum(trace):
    run = simulate(trace, n_procs=4)
    assert run.total_us == pytest.approx(
        sum(c.makespan_us for c in run.cycles))


@given(trace=random_traces())
def test_single_proc_zero_overhead_equals_base(trace):
    base = simulate_base(trace)
    run = simulate(trace, n_procs=1, overheads=ZERO_OVERHEADS)
    assert run.total_us == pytest.approx(base.total_us)


@given(trace=random_traces())
def test_trace_format_roundtrip_preserves_simulation(trace):
    """Serializing and re-reading a trace must not change any timing."""
    back = loads_trace(dumps_trace(trace))
    a = simulate(trace, n_procs=8)
    b = simulate(back, n_procs=8)
    assert a.total_us == pytest.approx(b.total_us)


@given(trace=random_traces(),
       n=st.integers(min_value=1, max_value=8))
def test_variant_simulators_accept_any_valid_trace(trace, n):
    """Pairs / replicated / master-copy must handle arbitrary valid
    traces without error and produce positive times."""
    assert simulate_pairs(trace, n_pairs=n).total_us > 0
    assert simulate_replicated(trace, n).total_us > 0
    assert simulate_master_copy(trace, n).total_us > 0


@given(trace=random_traces(),
       n_procs=st.integers(min_value=1, max_value=16))
def test_activation_counts_complete(trace, n_procs):
    run = simulate(trace, n_procs=n_procs)
    counted = sum(sum(c.proc_activations) for c in run.cycles)
    expected = sum(1 for c in trace.cycles for a in acts(c)
                   if a.kind != "terminal")
    assert counted == expected
