"""Tests for the shared-bus (shared-memory) baseline simulator."""

import pytest

from repro.mpc import (CostModel, simulate, simulate_base,
                       simulate_shared_bus, speedup)
from repro.rete.hashing import BucketKey
from repro.trace import CycleTrace, SectionTrace, TraceActivation


def act(i, node, side="right", tag="+", parent=None, succ=(),
        kind="join", vals=()):
    return TraceActivation(act_id=i, parent_id=parent, node_id=node,
                           kind=kind, side=side, tag=tag,
                           key=BucketKey(node, tuple(vals)),
                           successors=tuple(succ))


def one_cycle(name, acts):
    """A one-cycle section of the activation rows *acts*."""
    return SectionTrace(name=name, cycles=[
        CycleTrace(1, {a.act_id: a for a in acts})])


def spread_trace(n=64):
    """Independent activations in distinct buckets."""
    return one_cycle("spread", [act(i + 1, node=i + 1) for i in range(n)])


def hot_bucket_trace(n=32):
    """All activations share one bucket."""
    return one_cycle("hot", [act(i + 1, node=7, side="left")
                             for i in range(n)])


class TestBasics:
    def test_single_proc_matches_base_plus_queue(self):
        trace = spread_trace(10)
        base = simulate_base(trace)
        run = simulate_shared_bus(trace, n_procs=1, queue_access_us=2.0)
        # 10 pops x 2us on top of the serial work.
        assert run.total_us == pytest.approx(base.total_us + 20.0)

    def test_zero_queue_cost_single_proc_equals_base(self):
        trace = spread_trace(10)
        base = simulate_base(trace)
        run = simulate_shared_bus(trace, n_procs=1, queue_access_us=0.0)
        assert run.total_us == pytest.approx(base.total_us)

    def test_spread_work_scales(self):
        trace = spread_trace(64)
        base = simulate_base(trace)
        run = simulate_shared_bus(trace, n_procs=8)
        assert speedup(base, run) > 4.0

    def test_speedup_bounded(self):
        trace = spread_trace(64)
        base = simulate_base(trace)
        for p in (2, 4, 8):
            run = simulate_shared_bus(trace, n_procs=p)
            assert speedup(base, run) <= p + 1e-9

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            simulate_shared_bus(spread_trace(), n_procs=0)
        with pytest.raises(ValueError):
            simulate_shared_bus(spread_trace(), 2, queue_access_us=-1)
        with pytest.raises(ValueError):
            simulate_shared_bus(spread_trace(), 2, n_queues=0)


class TestContentionEffects:
    def test_hot_bucket_serializes_shared_memory_too(self):
        """The paper's closing point: multiple tokens in one bucket are
        processed sequentially on shared memory as well."""
        trace = hot_bucket_trace(32)
        base = simulate_base(trace)
        run = simulate_shared_bus(trace, n_procs=16)
        assert speedup(base, run) < 1.5

    def test_hot_bucket_does_not_stall_other_work(self):
        """A processor whose next task's bucket is locked must take
        other work instead of spinning."""
        acts = []
        i = 1
        for _ in range(16):           # hot bucket: serial 16 x 32us
            acts.append(act(i, node=7, side="left"))
            i += 1
        for k in range(64):           # independent filler
            acts.append(act(i, node=100 + k))
            i += 1
        trace = one_cycle("mix", acts)
        base = simulate_base(trace)
        run = simulate_shared_bus(trace, n_procs=8)
        # Serial hot chain = 16*32 = 512us; filler = 64*16/7 procs.
        # If procs blocked on the bucket, makespan would exceed 1ms.
        assert run.cycles[0].makespan_us < 700

    def test_single_queue_is_a_bottleneck_at_scale(self):
        trace = spread_trace(256)
        base = simulate_base(trace)
        many = speedup(base, simulate_shared_bus(trace, n_procs=32,
                                                 n_queues=8))
        one = speedup(base, simulate_shared_bus(trace, n_procs=32,
                                                n_queues=1))
        assert one < many

    def test_no_static_partition_imbalance(self):
        """Unlike the MPC round-robin mapping, shared memory balances
        activations across processors regardless of bucket hashing."""
        trace = spread_trace(64)
        run = simulate_shared_bus(trace, n_procs=8)
        counts = run.cycles[0].proc_activations
        assert max(counts) - min(counts) <= 1

    def test_transactions_counted(self):
        trace = spread_trace(10)
        run = simulate_shared_bus(trace, n_procs=4)
        assert run.n_messages == 10  # one pop per activation

    def test_search_costs_apply(self):
        trace = one_cycle("s", [
            act(i, node=1, side="left", tag=tag)
            for i, tag in enumerate(["+", "+", "+", "-"], start=1)])
        plain = simulate_shared_bus(trace, 1, queue_access_us=0.0)
        priced = simulate_shared_bus(
            trace, 1, costs=CostModel(delete_search_us=2.0),
            queue_access_us=0.0)
        assert priced.total_us == pytest.approx(plain.total_us + 6.0)


class TestPaperComparison:
    def test_comparable_speedups_on_sections(self):
        """Section 5.2: MPC speedups are comparable to the shared-bus
        implementation on these sections."""
        from repro.workloads import all_sections
        for trace in all_sections():
            base = simulate_base(trace)
            mpc = speedup(base, simulate(trace, n_procs=16))
            bus = speedup(base, simulate_shared_bus(trace, n_procs=16))
            ratio = mpc / bus
            assert 0.5 <= ratio <= 2.0, (trace.name, ratio)
