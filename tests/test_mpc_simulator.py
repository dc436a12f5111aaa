"""Tests for the MPC discrete-event simulator: exact hand-computed
timings, conservation laws, and overhead behaviour."""

import pytest

from repro.mpc import (CostModel, ExplicitMapping, OverheadModel,
                       RoundRobinMapping, RunConfig, ZERO_OVERHEADS,
                       bucket_work, simulate, simulate_base,
                       simulate_config, speedup)
from repro.rete.hashing import BucketKey
from repro.trace import CycleTrace, SectionTrace, TraceActivation


def act(i, node, side="right", tag="+", parent=None, succ=(), kind="join",
        vals=()):
    return TraceActivation(act_id=i, parent_id=parent, node_id=node,
                           kind=kind, side=side, tag=tag,
                           key=BucketKey(node, tuple(vals)),
                           successors=tuple(succ))


def section(*cycles):
    return SectionTrace(name="t", cycles=list(cycles))


def fanout_trace(n_roots=20):
    """Independent right roots, each generating one left successor."""
    cycle = CycleTrace(index=1)
    i = 1
    for n in range(n_roots):
        cycle.add(act(i, node=n + 1, side="right", succ=(i + 1,)))
        cycle.add(act(i + 1, node=100 + n, side="left", parent=i))
        i += 2
    return section(cycle)


class TestExactTimings:
    def test_base_case_arithmetic(self):
        # 30 (constant tests) + 20*(16 store + 16 gen) + 20*32 left store
        base = simulate_base(fanout_trace(20))
        assert base.total_us == pytest.approx(30 + 20 * 32 + 20 * 32)

    def test_single_root_no_successors(self):
        cycle = CycleTrace(index=1)
        cycle.add(act(1, node=1, side="right"))
        base = simulate_base(section(cycle))
        assert base.total_us == pytest.approx(30 + 16)

    def test_left_root_costs_more(self):
        cycle = CycleTrace(index=1)
        cycle.add(act(1, node=1, side="left"))
        base = simulate_base(section(cycle))
        assert base.total_us == pytest.approx(30 + 32)

    def test_deletes_cost_like_adds(self):
        cycle = CycleTrace(index=1)
        cycle.add(act(1, node=1, side="right", tag="-"))
        base = simulate_base(section(cycle))
        assert base.total_us == pytest.approx(30 + 16)

    def test_empty_cycle_costs_constant_tests_plus_broadcast(self):
        trace = section(CycleTrace(index=1))
        base = simulate_base(trace)
        assert base.total_us == pytest.approx(30)
        loaded = simulate(trace, n_procs=4,
                          overheads=OverheadModel(send_us=5, recv_us=3))
        assert loaded.total_us == pytest.approx(5 + 0.5 + 3 + 30)

    def test_cycles_serialize(self):
        c1 = CycleTrace(index=1)
        c1.add(act(1, node=1, side="right"))
        c2 = CycleTrace(index=2)
        c2.add(act(1, node=2, side="right"))
        base = simulate_base(section(c1, c2))
        assert base.total_us == pytest.approx(2 * (30 + 16))

    def test_terminal_successor_costs_generation_only_at_zero_overhead(self):
        cycle = CycleTrace(index=1)
        cycle.add(act(1, node=1, side="right", succ=(2,)))
        cycle.add(act(2, node=99, kind="terminal", side="left", parent=1))
        base = simulate_base(section(cycle))
        assert base.total_us == pytest.approx(30 + 16 + 16)

    def test_custom_cost_model(self):
        cycle = CycleTrace(index=1)
        cycle.add(act(1, node=1, side="left"))
        costs = CostModel(constant_tests_us=10, left_token_us=5,
                          right_token_us=2, successor_us=1)
        base = simulate_base(section(cycle), costs=costs)
        assert base.total_us == pytest.approx(10 + 5)


class TestParallelBehaviour:
    def test_speedup_bounded_by_procs(self):
        base = simulate_base(fanout_trace())
        for p in (2, 4, 8):
            run = simulate(fanout_trace(), n_procs=p)
            assert speedup(base, run) <= p + 1e-9

    def test_one_proc_zero_overhead_is_base(self):
        trace = fanout_trace()
        base = simulate_base(trace)
        run = simulate(trace, n_procs=1, overheads=ZERO_OVERHEADS)
        assert run.total_us == pytest.approx(base.total_us)

    def test_independent_work_scales(self):
        trace = fanout_trace(64)
        base = simulate_base(trace)
        run = simulate(trace, n_procs=8)
        assert speedup(base, run) > 4.0

    def test_serial_chain_does_not_scale(self):
        # A dependency chain: each activation generates the next.
        cycle = CycleTrace(index=1)
        n = 20
        for i in range(1, n + 1):
            succ = (i + 1,) if i < n else ()
            cycle.add(act(i, node=i, side="left",
                          parent=i - 1 if i > 1 else None, succ=succ))
        trace = section(cycle)
        base = simulate_base(trace)
        run = simulate(trace, n_procs=16)
        assert speedup(base, run) < 1.5

    def test_hot_bucket_serializes(self):
        """All roots in one bucket: no parallelism available (the
        Tourney cross-product effect)."""
        cycle = CycleTrace(index=1)
        for i in range(1, 33):
            cycle.add(act(i, node=7, side="left"))
        trace = section(cycle)
        base = simulate_base(trace)
        run = simulate(trace, n_procs=16)
        assert speedup(base, run) < 1.2

    def test_work_conservation_zero_overheads(self):
        """Total busy time equals the base work (minus per-proc constant
        tests duplication) when nothing is added by communication."""
        trace = fanout_trace(16)
        run = simulate(trace, n_procs=4)
        busy = sum(sum(c.proc_busy_us) for c in run.cycles)
        base = simulate_base(trace)
        # Every processor redundantly runs the 30us constant tests.
        expected = (base.total_us - 30) + 4 * 30
        assert busy == pytest.approx(expected)

    def test_explicit_mapping_controls_placement(self):
        cycle = CycleTrace(index=1)
        cycle.add(act(1, node=1, side="right", vals=("a",)))
        cycle.add(act(2, node=1, side="right", vals=("b",)))
        trace = section(cycle)
        together = ExplicitMapping(n_procs=2, assignment={
            BucketKey(1, ("a",)): 0, BucketKey(1, ("b",)): 0})
        apart = ExplicitMapping(n_procs=2, assignment={
            BucketKey(1, ("a",)): 0, BucketKey(1, ("b",)): 1})
        t_together = simulate_config(
            trace, RunConfig(n_procs=2, mapping=together)).total_us
        t_apart = simulate_config(
            trace, RunConfig(n_procs=2, mapping=apart)).total_us
        assert t_apart < t_together

    def test_mapping_proc_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(n_procs=4, mapping=RoundRobinMapping(n_procs=8))

    def test_rejects_zero_procs(self):
        with pytest.raises(ValueError):
            simulate(fanout_trace(), n_procs=0)


class TestOverheads:
    def test_overheads_slow_things_down(self):
        trace = fanout_trace()
        fast = simulate(trace, n_procs=8)
        slow = simulate(trace, n_procs=8,
                        overheads=OverheadModel(send_us=20, recv_us=12))
        assert slow.total_us > fast.total_us

    def test_overheads_do_not_matter_on_one_proc(self):
        """With one match processor only the broadcast is a message."""
        trace = fanout_trace()
        fast = simulate(trace, n_procs=1)
        slow = simulate(trace, n_procs=1,
                        overheads=OverheadModel(send_us=20, recv_us=12))
        # Broadcast: send 20 + latency 0.5 + recv 12 = 32.5us extra.
        assert slow.total_us == pytest.approx(fast.total_us + 32.5)

    def test_messages_counted(self):
        trace = fanout_trace(20)
        solo = simulate(trace, n_procs=1)
        multi = simulate(trace, n_procs=8)
        assert solo.n_messages == 1  # only the broadcast
        assert multi.n_messages > solo.n_messages

    def test_network_mostly_idle_at_nectar_latency(self):
        trace = fanout_trace(64)
        run = simulate(trace, n_procs=16,
                       overheads=OverheadModel(send_us=5, recv_us=3))
        assert run.network_idle_fraction() > 0.9

    def test_latency_only_delays_not_occupies(self):
        trace = fanout_trace(16)
        lat0 = simulate(trace, n_procs=4,
                        overheads=OverheadModel(latency_us=0.0))
        lat5 = simulate(trace, n_procs=4,
                        overheads=OverheadModel(latency_us=5.0))
        busy0 = sum(sum(c.proc_busy_us) for c in lat0.cycles)
        busy5 = sum(sum(c.proc_busy_us) for c in lat5.cycles)
        assert busy0 == pytest.approx(busy5)
        assert lat5.total_us >= lat0.total_us


class TestPerProcessorMetrics:
    def test_activation_counts_sum_to_trace(self):
        trace = fanout_trace(20)
        run = simulate(trace, n_procs=8)
        counted = sum(sum(c.proc_activations) for c in run.cycles)
        in_trace = sum(1 for c in trace.cycles for a in c
                       if a.kind != "terminal")
        assert counted == in_trace

    def test_left_counts_subset_of_activations(self):
        run = simulate(fanout_trace(20), n_procs=8)
        for c in run.cycles:
            for left, total in zip(c.proc_left_activations,
                                   c.proc_activations):
                assert left <= total

    def test_idle_fractions_in_range(self):
        run = simulate(fanout_trace(20), n_procs=8)
        for c in run.cycles:
            for f in c.idle_fractions():
                assert 0.0 <= f <= 1.0


class TestBucketWork:
    def test_work_matches_cost_model(self):
        cycle = CycleTrace(index=1)
        cycle.add(act(1, node=1, side="left", succ=(2,)))
        cycle.add(act(2, node=2, side="left", parent=1))
        work = bucket_work(cycle)
        assert work[BucketKey(1, ())] == pytest.approx(32 + 16)
        assert work[BucketKey(2, ())] == pytest.approx(32)

    def test_terminals_excluded(self):
        cycle = CycleTrace(index=1)
        cycle.add(act(1, node=1, side="right", succ=(2,)))
        cycle.add(act(2, node=9, kind="terminal", side="left", parent=1))
        work = bucket_work(cycle)
        assert BucketKey(9, ()) not in work


class TestEventOrderAtEqualTimes:
    """The event queue drains each arrival time's events in push order.
    Zero-cost models make many events share one time, including events
    pushed at the very time being drained; every cycle must still match
    the reference loop's heap of (arrival, sequence) entries."""

    @pytest.mark.parametrize("costs", [
        CostModel(constant_tests_us=0.0, left_token_us=0.0,
                  right_token_us=0.0, successor_us=0.0),
        CostModel(left_token_us=0.0, right_token_us=0.0),
        CostModel(successor_us=0.0, delete_search_us=0.5),
    ])
    @pytest.mark.parametrize("overheads", [
        ZERO_OVERHEADS, OverheadModel(send_us=0.0, recv_us=3.0),
        OverheadModel(send_us=5.0, recv_us=0.0, latency_us=0.0)])
    @pytest.mark.parametrize("compress", [False, True])
    def test_matches_reference(self, costs, overheads, compress):
        from repro.mpc._reference import simulate_reference
        from repro.workloads import rubik_section, weaver_section

        for trace in (rubik_section().slice(0, 2), weaver_section()):
            for n_procs in (1, 4, 32):
                got = simulate_config(trace, RunConfig(
                    n_procs=n_procs, costs=costs, overheads=overheads,
                    compress_rounds=compress)).expanded()
                want = simulate_reference(trace, n_procs, costs=costs,
                                          overheads=overheads)
                assert got.cycles == want.cycles
