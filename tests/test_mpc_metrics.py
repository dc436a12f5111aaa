"""Unit tests for SimResult/CycleResult metrics and Rete stats helpers."""

import pytest

from repro.mpc import CycleResult, SimResult, speedup, speedup_series
from repro.rete import ActivationCounter


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


class TestActivationCounter:
    def make_event(self, kind="join", side="left", n_succ=2):
        from repro.rete import ActivationEvent, BucketKey
        return ActivationEvent(act_id=1, parent_id=None, node_id=3,
                               node_label="x", node_kind=kind,
                               side=side, tag="+",
                               key=BucketKey(3, ()),
                               n_successors=n_succ)

    def test_counts_sides(self):
        counter = ActivationCounter()
        counter(self.make_event(side="left"))
        counter(self.make_event(side="right"))
        assert counter.left == 1 and counter.right == 1
        assert counter.total == 2

    def test_terminal_counted_separately(self):
        counter = ActivationCounter()
        counter(self.make_event(kind="terminal"))
        assert counter.total == 0
        assert counter.terminal == 1

    def test_successors_accumulated(self):
        counter = ActivationCounter()
        counter(self.make_event(n_succ=3))
        counter(self.make_event(n_succ=4))
        assert counter.successors == 7

    def test_left_fraction_and_summary(self):
        counter = ActivationCounter()
        counter(self.make_event(side="left"))
        counter(self.make_event(side="right"))
        counter(self.make_event(side="right"))
        counter(self.make_event(side="right"))
        assert counter.left_fraction() == pytest.approx(0.25)
        assert "25%" in counter.summary()

    def test_empty_counter(self):
        counter = ActivationCounter()
        assert counter.left_fraction() == 0.0
        assert "total=0" in counter.summary()

    def test_by_node_tally(self):
        counter = ActivationCounter()
        counter(self.make_event())
        counter(self.make_event())
        assert counter.by_node == {3: 2}
