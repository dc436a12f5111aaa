"""Unit tests for SimResult/CycleResult metrics and Rete stats helpers."""

import pytest

from repro.mpc import CycleResult, SimResult, speedup, speedup_series
from repro.trace.events import ActivationStats, SectionTrace, TraceBuilder


def cycle(makespan, busy, left=None, msgs=0, net=0.0):
    return CycleResult(index=1, makespan_us=makespan,
                       proc_busy_us=list(busy),
                       proc_activations=[int(b) for b in busy],
                       proc_left_activations=left or [0] * len(busy),
                       n_messages=msgs, network_busy_us=net,
                       control_busy_us=0.0)


class TestCycleResult:
    def test_idle_fractions(self):
        c = cycle(100.0, [100.0, 50.0])
        assert c.idle_fractions() == [0.0, 0.5]

    def test_idle_fractions_zero_makespan(self):
        c = cycle(0.0, [0.0, 0.0])
        assert c.idle_fractions() == [0.0, 0.0]

    def test_idle_clamped_nonnegative(self):
        c = cycle(10.0, [15.0])  # busy exceeding makespan: clamp
        assert c.idle_fractions() == [0.0]

    def test_n_procs(self):
        assert cycle(1.0, [1, 2, 3]).n_procs == 3


class TestSimResult:
    def test_total_sums_cycles(self):
        r = SimResult(trace_name="t", n_procs=2,
                      cycles=[cycle(10.0, [5, 5]), cycle(20.0, [9, 9])])
        assert r.total_us == 30.0

    def test_messages_sum(self):
        r = SimResult(trace_name="t", n_procs=1,
                      cycles=[cycle(1.0, [1], msgs=3),
                              cycle(1.0, [1], msgs=4)])
        assert r.n_messages == 7

    def test_average_idle_fraction(self):
        r = SimResult(trace_name="t", n_procs=2,
                      cycles=[cycle(10.0, [10.0, 0.0])])
        assert r.average_idle_fraction() == pytest.approx(0.5)

    @pytest.mark.parametrize("repeats", [None, []])
    def test_empty_float_aggregates_are_floats(self, repeats):
        r = SimResult(trace_name="x", n_procs=1, repeats=repeats)
        for name in ("total_us", "timeout_wait_us", "stall_us",
                     "recovery_us"):
            assert type(getattr(r, name)) is float, name

    def test_average_idle_empty(self):
        r = SimResult(trace_name="t", n_procs=2, cycles=[])
        assert r.average_idle_fraction() == 0.0

    def test_network_utilization(self):
        r = SimResult(trace_name="t", n_procs=2,
                      cycles=[cycle(100.0, [1, 1], net=5.0)])
        assert r.network_utilization() == pytest.approx(0.05)
        assert r.network_idle_fraction() == pytest.approx(0.95)

    def test_network_utilization_capped(self):
        r = SimResult(trace_name="t", n_procs=2,
                      cycles=[cycle(1.0, [1, 1], net=50.0)])
        assert r.network_utilization() == 1.0

    def test_left_token_distribution(self):
        r = SimResult(trace_name="t", n_procs=2,
                      cycles=[cycle(1.0, [1, 1], left=[3, 7])])
        assert r.left_token_distribution(0) == [3, 7]


class TestSpeedupHelpers:
    def base(self, total):
        return SimResult(trace_name="t", n_procs=1,
                         cycles=[cycle(total, [total])])

    def test_speedup(self):
        assert speedup(self.base(100.0), self.base(25.0)) == 4.0

    def test_speedup_rejects_degenerate(self):
        with pytest.raises(ValueError):
            speedup(self.base(100.0),
                    SimResult(trace_name="t", n_procs=1, cycles=[]))

    def test_speedup_series(self):
        base = self.base(100.0)
        runs = [self.base(50.0), self.base(20.0)]
        assert speedup_series(base, runs) == [2.0, 5.0]


class TestActivationStats:
    """The Table 5-2 counts a section reads off its tables: two-input
    activations by side, terminal deliveries apart, and the successors
    of the two-input ones."""

    def section(self, *roots):
        """One cycle of root activations ``(kind, side, n_terminals)``
        at node 3, each with *n_terminals* terminal children."""
        builder = TraceBuilder("t")
        builder.new_cycle()
        for kind, side, n_terminals in roots:
            root = builder.root(3, side, kind=kind)
            for _ in range(n_terminals):
                builder.terminal(root, 9)
        return builder.build()

    def test_counts_sides(self):
        stats = self.section(("join", "left", 0),
                             ("join", "right", 0)).stats()
        assert stats.left == 1 and stats.right == 1
        assert stats.total == 2

    def test_terminal_counted_separately(self):
        stats = self.section(("terminal", "left", 0)).stats()
        assert stats.total == 0
        assert stats.terminal == 1

    def test_successors_accumulated(self):
        stats = self.section(("join", "left", 3),
                             ("negative", "right", 4)).stats()
        assert stats.successors == 7
        assert stats.terminal == 7 and stats.total == 2

    def test_left_fraction_and_row(self):
        stats = self.section(("join", "left", 0), ("join", "right", 0),
                             ("join", "right", 0),
                             ("join", "right", 0)).stats()
        assert stats.left_fraction == pytest.approx(0.25)
        assert "25%" in stats.row("t")

    def test_empty_stats(self):
        stats = ActivationStats()
        assert stats.left_fraction == 0.0
        assert stats.row("t").split()[-1] == "0"
        assert SectionTrace("t").stats() == stats

    def test_node_ids(self):
        section = self.section(("join", "left", 1), ("join", "right", 0))
        assert section.node_ids() == [3]
