"""Tests for the dedicated constant-test processor variant (§3.2 v2)."""

import pytest

from repro.mpc import (TABLE_5_1, ZERO_OVERHEADS, OverheadModel,
                       RoundRobinMapping, simulate, simulate_base, simulate_dedicated_alpha,
                       speedup)
from repro.rete.hashing import BucketKey
from repro.trace import CycleTrace, SectionTrace, TraceActivation


def act(i, node, side="right", parent=None, succ=(), kind="join",
        vals=()):
    return TraceActivation(act_id=i, parent_id=parent, node_id=node,
                           kind=kind, side=side, tag="+",
                           key=BucketKey(node, tuple(vals)),
                           successors=tuple(succ))


def root_heavy_trace(n=60):
    cycle = CycleTrace(index=1)
    for i in range(n):
        cycle.add(act(i + 1, node=i + 1))
    return SectionTrace(name="roots", cycles=[cycle])


class TestBasics:
    def test_reports_combined_processor_count(self):
        run = simulate_dedicated_alpha(root_heavy_trace(), 8,
                                       n_const_procs=2)
        assert run.n_procs == 10

    def test_match_procs_do_no_constant_tests(self):
        """Match processors start at 0 busy; the dedicated ones carry
        the constant-test work."""
        run = simulate_dedicated_alpha(root_heavy_trace(), 4,
                                       n_const_procs=2)
        c = run.cycles[0]
        # Dedicated procs (last two) carry 30/2 = 15us of tests each.
        assert c.proc_busy_us[4] >= 15.0
        assert c.proc_busy_us[5] >= 15.0

    def test_constant_tests_split_among_dedicated_procs(self):
        one = simulate_dedicated_alpha(_empty_trace(), 4,
                                       n_const_procs=1)
        three = simulate_dedicated_alpha(_empty_trace(), 4,
                                         n_const_procs=3)
        # Empty cycle: makespan = broadcast + 30/k.
        assert one.total_us > three.total_us

    def test_every_root_is_a_message(self):
        run = simulate_dedicated_alpha(root_heavy_trace(60), 8,
                                       n_const_procs=2)
        # broadcast + 60 root messages (terminals would add more).
        assert run.n_messages == 61

    def test_local_successor_pays_no_receive(self):
        """Only message deliveries pay the receive overhead: a successor
        whose bucket is on its producer's processor is never sent."""
        cycle = CycleTrace(index=1)
        cycle.add(act(1, node=3, succ=(2,), vals=(1,)))
        cycle.add(act(2, node=4, side="left", parent=1, vals=(1,)))
        run = simulate_dedicated_alpha(
            SectionTrace(name="chain", cycles=[cycle]), 1,
            overheads=OverheadModel(send_us=5, recv_us=3))
        # One root receive + right token + successor + left token.
        assert run.cycles[0].proc_busy_us[0] == 3 + 16 + 16 + 32
        assert run.n_messages == 2  # the broadcast and the root

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            simulate_dedicated_alpha(root_heavy_trace(), 0)
        with pytest.raises(ValueError):
            simulate_dedicated_alpha(root_heavy_trace(), 4,
                                     n_const_procs=0)

    def test_rejects_mapping_mismatch(self):
        with pytest.raises(ValueError):
            simulate_dedicated_alpha(root_heavy_trace(), 4,
                                     mapping=RoundRobinMapping(8))


def _empty_trace():
    return SectionTrace(name="empty", cycles=[CycleTrace(index=1)])


class TestPaperTradeoff:
    def test_marginal_win_at_zero_overheads(self):
        """Without communication costs, skipping the duplicated
        constant tests is a (small) win."""
        trace = root_heavy_trace(100)
        base = simulate_base(trace)
        broadcast = speedup(base, simulate(trace, 8))
        dedicated = speedup(base, simulate_dedicated_alpha(
            trace, 8, n_const_procs=2))
        assert dedicated >= broadcast * 0.95

    def test_bottleneck_at_high_overheads(self):
        """The paper's warning: with comparatively high overheads the
        dedicated processors bottleneck on per-root sends, and
        broadcasting is preferable."""
        from repro.workloads import rubik_section
        trace = rubik_section()
        base = simulate_base(trace)
        overheads = TABLE_5_1[3]
        broadcast = speedup(base, simulate(trace, 16,
                                           overheads=overheads))
        dedicated = speedup(base, simulate_dedicated_alpha(
            trace, 16, n_const_procs=2, overheads=overheads))
        assert broadcast > 1.3 * dedicated

    def test_more_dedicated_procs_relieve_the_bottleneck(self):
        from repro.workloads import rubik_section
        trace = rubik_section()
        base = simulate_base(trace)
        overheads = TABLE_5_1[3]
        two = speedup(base, simulate_dedicated_alpha(
            trace, 16, n_const_procs=2, overheads=overheads))
        six = speedup(base, simulate_dedicated_alpha(
            trace, 16, n_const_procs=6, overheads=overheads))
        assert six > two
