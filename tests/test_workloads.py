"""Tests for the synthetic characteristic sections and demo programs.

The Table 5-2 counts are hard requirements: the sections ARE the
experiment inputs, so these tests pin the published statistics exactly.
"""

import pytest

from repro.analysis import alternation_score, coefficient_of_variation
from repro.mpc import simulate, simulate_base, speedup
from repro.trace import validate_trace
from repro.workloads import (all_sections, rubik_section, tourney_section,
                             weaver_section)
from repro.workloads.synthetic import (TraceBuilder, partition_counts,
                                       zipf_weights)
from repro.workloads.tourney import CP_NODE
from repro.workloads.weaver import HOT_NODE
from tests.trace_view import acts, view


class TestSyntheticHelpers:
    def test_zipf_normalised(self):
        w = zipf_weights(10, 1.0)
        assert sum(w) == pytest.approx(1.0)
        assert w[0] > w[-1]

    def test_zipf_zero_skew_uniform(self):
        w = zipf_weights(4, 0.0)
        assert all(x == pytest.approx(0.25) for x in w)

    def test_zipf_rejects_empty(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)

    def test_partition_exact_total(self):
        counts = partition_counts(100, zipf_weights(7, 1.3))
        assert sum(counts) == 100

    def test_partition_proportionality(self):
        counts = partition_counts(100, [0.7, 0.2, 0.1])
        assert counts == [70, 20, 10]

    def test_partition_zero_total(self):
        assert partition_counts(0, [0.5, 0.5]) == [0, 0]

    def test_builder_requires_cycle(self):
        b = TraceBuilder("x")
        with pytest.raises(RuntimeError):
            b.root(1, side="left")

    def test_builder_rejects_terminal_successor(self):
        b = TraceBuilder("x")
        b.new_cycle()
        r = b.root(1, side="right")
        t = b.terminal(r, node=9)
        with pytest.raises(ValueError):
            b.child(t, node=2)


class TestTable52:
    """Table 5-2, exactly."""

    def test_rubik_counts(self):
        stats = rubik_section().stats()
        assert (stats.left, stats.right, stats.total) == (2388, 6114, 8502)

    def test_tourney_counts(self):
        stats = tourney_section().stats()
        assert (stats.left, stats.right, stats.total) == (10667, 83, 10750)

    def test_weaver_counts(self):
        stats = weaver_section().stats()
        assert (stats.left, stats.right, stats.total) == (338, 78, 416)

    def test_left_fractions_match_paper(self):
        assert round(100 * rubik_section().stats().left_fraction) == 28
        assert round(100 * tourney_section().stats().left_fraction) == 99
        assert round(100 * weaver_section().stats().left_fraction) == 81


class TestSectionStructure:
    def test_all_sections_validate(self):
        for trace in all_sections():
            assert validate_trace(trace) == []

    def test_deterministic_given_seed(self):
        from repro.trace import dumps_trace
        assert dumps_trace(rubik_section(3)) == dumps_trace(rubik_section(3))

    def test_seeds_change_layout_not_stats(self):
        a, b = rubik_section(0), rubik_section(99)
        assert a.stats().total == b.stats().total
        from repro.trace import dumps_trace
        assert dumps_trace(a) != dumps_trace(b)

    def test_rubik_has_four_cycles(self):
        assert len(rubik_section().cycles) == 4

    def test_tourney_has_five_cycles_cp_in_middle(self):
        trace = tourney_section()
        assert len(trace.cycles) == 5
        sizes = [len(c) for c in trace.cycles]
        assert sizes[2] == max(sizes)  # the cross-product cycle

    def test_tourney_cp_bucket_is_shared(self):
        """The cross-product node tests no variable: one bucket."""
        trace = tourney_section()
        cp_keys = {a.key for c in trace for a in acts(c)
                   if a.node_id == CP_NODE}
        assert len(cp_keys) == 1
        assert next(iter(cp_keys)).values == ()

    def test_tourney_multiple_modify_structure(self):
        """The cp stream: a populated prefix (tokens from earlier
        cycles' adds), then the modify wave — alternating deletes and
        re-adds, "half of which are adds and half are deletes"."""
        trace = tourney_section()
        tags = [a.tag for c in trace for a in acts(c)
                if a.node_id == CP_NODE and a.parent_id is None]
        half = len(tags) // 2
        prefix, wave = tags[:half], tags[half:]
        assert all(t == "+" for t in prefix)
        assert abs(wave.count("+") - wave.count("-")) <= 1
        # Deletes therefore always land on a non-empty bucket.
        depth = 0
        for t in tags:
            depth += 1 if t == "+" else -1
            assert depth > 0

    def test_weaver_heavy_cycle_shape(self):
        """Three left activations generate 120 of ~150 (Section 5.2.1)."""
        trace = weaver_section()
        heavy = trace.cycles[1]
        hot = [a for a in acts(heavy) if a.node_id == HOT_NODE]
        assert len(hot) == 3
        assert sum(len(a.successors) for a in hot) == 120
        two_input = sum(a.kind != "terminal" for a in acts(heavy))
        assert 140 <= two_input <= 160

    def test_weaver_hot_node_has_multiple_branches(self):
        """Successors spread across >1 destination node, so unsharing
        (Fig 5-3) has branches to split."""
        trace = weaver_section()
        heavy = trace.cycles[1]
        dests = set()
        by_id = view(heavy)
        for a in by_id.values():
            if a.node_id == HOT_NODE:
                for s in a.successors:
                    dests.add(by_id[s].node_id)
        assert len(dests) >= 2

    def test_rubik_alternating_active_buckets(self):
        """Consecutive cycles use (nearly) disjoint left-bucket sets;
        the only overlap is the pinned mid-weight bucket that keeps one
        processor busy in both cycles (Fig 5-5)."""
        trace = rubik_section()
        def left_keys(c):
            return {a.key for a in acts(trace.cycles[c])
                    if a.side == "left" and a.kind != "terminal"}
        overlap = left_keys(0) & left_keys(1)
        assert len(overlap) <= 2
        assert len(overlap) < len(left_keys(0)) / 4
        # Same-parity cycles reuse the same bucket set entirely.
        assert left_keys(0) == left_keys(2)


class TestSectionBehaviour:
    """Coarse speedup-shape guards; precise claims live in benchmarks/."""

    def test_rubik_speeds_up_well(self):
        trace = rubik_section()
        base = simulate_base(trace)
        assert speedup(base, simulate(trace, n_procs=32)) > 8.0

    def test_weaver_is_the_worst_section(self):
        results = {}
        for trace in all_sections():
            base = simulate_base(trace)
            results[trace.name] = speedup(base,
                                          simulate(trace, n_procs=32))
        assert results["weaver"] < results["rubik"]
        assert results["weaver"] < results["tourney"]

    def test_fig_5_5_alternation(self):
        """Busy processors in one Rubik cycle are idle in the next."""
        trace = rubik_section()
        run = simulate(trace, n_procs=16)
        c1 = run.cycles[0].proc_left_activations
        c2 = run.cycles[1].proc_left_activations
        assert alternation_score(c1, c2) > 0.0

    def test_fig_5_5_per_cycle_uneven(self):
        trace = rubik_section()
        run = simulate(trace, n_procs=16)
        assert coefficient_of_variation(
            run.cycles[0].proc_left_activations) > 0.3


class TestDemoPrograms:
    def test_blocks_world_runs_and_traces(self):
        from repro.workloads.programs import blocks_world_trace
        trace = blocks_world_trace()
        assert validate_trace(trace) == []
        assert trace.total_activations() > 0

    def test_monkey_halts(self):
        from repro.ops5 import run_program
        from repro.rete import ReteNetwork
        from repro.workloads.programs import monkey_program
        result = run_program(monkey_program(), matcher=ReteNetwork())
        assert result.halted
        assert "got bananas" in result.output

    def test_router_routes_all_nets(self):
        from repro.ops5 import run_program
        from repro.rete import ReteNetwork
        from repro.workloads.programs import router_program
        result = run_program(router_program(), matcher=ReteNetwork())
        assert result.halted
        assert "routing complete" in result.output

    def test_demo_traces_simulate(self):
        from repro.workloads.programs import monkey_trace
        trace = monkey_trace()
        base = simulate_base(trace)
        run = simulate(trace, n_procs=4)
        assert speedup(base, run) >= 0.9


class TestSectionMemo:
    def test_memory_layer_returns_same_object(self):
        from repro.workloads.programs import (blocks_world_trace,
                                              monkey_trace, router_trace)
        for build in (rubik_section, tourney_section, weaver_section):
            first = build(1)
            assert build(1) is first
            assert build(seed=1) is first
            assert build(2) is not first
        assert rubik_section() is rubik_section(0)
        for build in (blocks_world_trace, monkey_trace, router_trace):
            assert build() is build()
