"""Tests for the mapping variants: processor pairs (Section 3.1),
the replication/master continuum (Section 6) and termination-detection
models (Section 4 future work)."""

import pytest

from repro.mpc import (CostModel, OverheadModel, TABLE_5_1,
                       TerminationScheme, ZERO_OVERHEADS,
                       apply_termination, detection_delay,
                       simulate, simulate_base, simulate_master_copy,
                       simulate_pairs, simulate_replicated, speedup,
                       termination_overhead_fraction)
from repro.rete.hashing import BucketKey
from repro.trace import CycleTrace, SectionTrace, TraceActivation


def act(i, node, side="right", parent=None, succ=(), kind="join",
        vals=()):
    return TraceActivation(act_id=i, parent_id=parent, node_id=node,
                           kind=kind, side=side, tag="+",
                           key=BucketKey(node, tuple(vals)),
                           successors=tuple(succ))


def one_cycle(name, acts):
    """A one-cycle section of the activation rows *acts*."""
    return SectionTrace(name=name, cycles=[
        CycleTrace(1, {a.act_id: a for a in acts})])


def fanout_trace(n_roots=24):
    acts = []
    i = 1
    for n in range(n_roots):
        acts.append(act(i, node=n + 1, side="right", succ=(i + 1,)))
        acts.append(act(i + 1, node=100 + n, side="left", parent=i))
        i += 2
    return one_cycle("t", acts)


class TestProcessorPairs:
    def test_pairs_speed_up_independent_work(self):
        trace = fanout_trace()
        base = simulate_base(trace)
        run = simulate_pairs(trace, n_pairs=8)
        assert speedup(base, run) > 3.0

    def test_pairs_report_double_processor_count(self):
        run = simulate_pairs(fanout_trace(), n_pairs=4)
        assert run.n_procs == 8
        assert len(run.cycles[0].proc_busy_us) == 8

    def test_micro_task_overlap_beats_merged_at_same_partitions(self):
        """A pair overlaps store and generate, so at the same number of
        hash partitions (n pairs vs n merged processors) pairs are at
        least as fast at zero overheads."""
        trace = fanout_trace()
        for n in (2, 4, 8):
            merged = simulate(trace, n_procs=n)
            paired = simulate_pairs(trace, n_pairs=n)
            assert paired.total_us <= merged.total_us + 1e-6

    def test_merged_wins_at_same_cpu_budget_with_overheads(self):
        """The Section 3.2 rationale for merging: with few processors
        and real overheads, a merged mapping uses the CPUs better than
        pairs (which pay the intra-pair forward on every activation)."""
        trace = fanout_trace()
        overheads = TABLE_5_1[3]
        merged = simulate(trace, n_procs=8, overheads=overheads)
        paired = simulate_pairs(trace, n_pairs=4, overheads=overheads)
        assert merged.total_us < paired.total_us

    def test_pairs_count_messages(self):
        run = simulate_pairs(fanout_trace(), n_pairs=4)
        # At least the broadcast + relays + one forward per activation.
        assert run.n_messages > 4

    def test_pairs_charge_deletion_search(self):
        """Footnote 6: a '-' activation scans its bucket past the
        entries before it, on the pair's store micro-task."""
        trace = one_cycle("deletes", [TraceActivation(
            act_id=i, parent_id=None, node_id=3, kind="join",
            side="right", tag=tag, key=BucketKey(3, (1,)), successors=())
            for i, tag in enumerate("++-", start=1)])
        plain = simulate_pairs(trace, n_pairs=1)
        searched = simulate_pairs(trace, n_pairs=1,
                                  costs=CostModel(delete_search_us=1.5))
        # The delete scans past two entries at 1.5 us each.
        assert searched.total_us == plain.total_us + 3.0

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            simulate_pairs(fanout_trace(), n_pairs=0)

    def test_rejects_mapping_mismatch(self):
        from repro.mpc import RoundRobinMapping
        with pytest.raises(ValueError):
            simulate_pairs(fanout_trace(), n_pairs=4,
                           mapping=RoundRobinMapping(n_procs=8))


class TestContinuum:
    def test_distributed_beats_both_extremes(self):
        """The paper positions its mapping near the centre of the
        continuum; on a bucket-friendly trace it must beat both the
        fully replicated and the master-copy extreme."""
        trace = fanout_trace(32)
        base = simulate_base(trace)
        distributed = speedup(base, simulate(trace, n_procs=16))
        replicated = speedup(base, simulate_replicated(trace, 16))
        master = speedup(base, simulate_master_copy(trace, 16))
        assert distributed > replicated
        assert distributed > master

    def test_replicated_store_cost_scales_with_procs(self):
        """Replication applies every store on every processor, so at
        zero overheads the busy time grows with the machine."""
        trace = fanout_trace()
        small = simulate_replicated(trace, 2)
        large = simulate_replicated(trace, 16)
        busy_small = sum(sum(c.proc_busy_us) for c in small.cycles)
        busy_large = sum(sum(c.proc_busy_us) for c in large.cycles)
        assert busy_large > 2 * busy_small

    def test_master_copy_master_is_bottleneck(self):
        trace = fanout_trace(32)
        run = simulate_master_copy(trace, 8)
        busy = [sum(c.proc_busy_us[p] for c in run.cycles)
                for p in range(8)]
        assert busy[0] == max(busy)

    def test_single_processor_degenerate_cases_run(self):
        trace = fanout_trace(4)
        assert simulate_replicated(trace, 1).total_us > 0
        assert simulate_master_copy(trace, 1).total_us > 0

    def test_extremes_reject_zero_procs(self):
        with pytest.raises(ValueError):
            simulate_replicated(fanout_trace(), 0)
        with pytest.raises(ValueError):
            simulate_master_copy(fanout_trace(), 0)

    def test_replicated_handles_terminals(self):
        trace = one_cycle("t", [
            act(1, node=1, side="right", succ=(2,)),
            act(2, node=9, kind="terminal", side="left", parent=1)])
        run = simulate_replicated(trace, 4,
                                  overheads=TABLE_5_1[1])
        assert run.total_us > 0


class TestTermination:
    OVH = OverheadModel(send_us=5, recv_us=3)

    def test_ideal_is_free(self):
        assert detection_delay(TerminationScheme.IDEAL, 32, self.OVH) \
            == 0.0

    def test_zero_overheads_make_everything_free_except_hops(self):
        assert detection_delay(TerminationScheme.BARRIER, 32,
                               ZERO_OVERHEADS) == 0.0

    def test_barrier_scales_linearly_in_recv(self):
        d16 = detection_delay(TerminationScheme.BARRIER, 16, self.OVH)
        d32 = detection_delay(TerminationScheme.BARRIER, 32, self.OVH)
        assert d32 - d16 == pytest.approx(16 * self.OVH.recv_us)

    def test_ring_scales_linearly(self):
        d8 = detection_delay(TerminationScheme.RING, 8, self.OVH)
        d16 = detection_delay(TerminationScheme.RING, 16, self.OVH)
        assert d16 > d8
        hop = 5 + 0.5 + 3
        assert d8 == pytest.approx(9 * hop)

    def test_tree_scales_logarithmically(self):
        d4 = detection_delay(TerminationScheme.TREE, 4, self.OVH)
        d32 = detection_delay(TerminationScheme.TREE, 32, self.OVH)
        hop = 5 + 0.5 + 3
        assert d4 == pytest.approx(3 * hop)   # 2 levels + report
        assert d32 == pytest.approx(6 * hop)  # 5 levels + report

    def test_tree_beats_ring_at_scale(self):
        assert detection_delay(TerminationScheme.TREE, 32, self.OVH) < \
            detection_delay(TerminationScheme.RING, 32, self.OVH)

    def test_apply_termination_adds_per_cycle(self):
        trace = fanout_trace()
        run = simulate(trace, n_procs=8, overheads=self.OVH)
        augmented = apply_termination(run, TerminationScheme.RING,
                                      self.OVH)
        delay = detection_delay(TerminationScheme.RING, 8, self.OVH)
        assert augmented.total_us == pytest.approx(
            run.total_us + len(run.cycles) * delay)

    def test_apply_termination_does_not_mutate_original(self):
        trace = fanout_trace()
        run = simulate(trace, n_procs=8, overheads=self.OVH)
        before = run.total_us
        apply_termination(run, TerminationScheme.RING, self.OVH)
        assert run.total_us == before

    def test_overhead_fraction_bounded(self):
        trace = fanout_trace()
        run = simulate(trace, n_procs=8, overheads=self.OVH)
        frac = termination_overhead_fraction(
            run, TerminationScheme.RING, self.OVH)
        assert 0.0 < frac < 0.5

    def test_invalid_processor_count(self):
        with pytest.raises(ValueError):
            detection_delay(TerminationScheme.RING, 0, self.OVH)
