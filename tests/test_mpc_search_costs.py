"""Tests for the footnote-6 deletion-search cost model."""

import pytest

from repro.mpc import (CostModel, compute_search_costs, simulate,
                       simulate_base)
from repro.rete.hashing import BucketKey
from repro.trace import CycleTrace, SectionTrace, TraceActivation


def act(i, node, tag, side="left", vals=()):
    return TraceActivation(act_id=i, parent_id=None, node_id=node,
                           kind="join", side=side, tag=tag,
                           key=BucketKey(node, tuple(vals)),
                           successors=())


def section(*tag_lists):
    """One bucket per cycle-list; all activations at node 1."""
    return SectionTrace(name="s", cycles=[
        CycleTrace(index, {i: act(i, node=1, tag=tag)
                           for i, tag in enumerate(tags, start=1)})
        for index, tags in enumerate(tag_lists, start=1)])


class TestComputeSearchCosts:
    def test_disabled_by_default(self):
        trace = section(["+", "-"])
        assert compute_search_costs(trace, CostModel()) == {}

    def test_delete_scans_current_depth(self):
        trace = section(["+", "+", "+", "-"])
        costs = CostModel(delete_search_us=2.0)
        extra = compute_search_costs(trace, costs)
        # The delete sees 3 entries: 3 * 2us.
        assert extra == {1: {4: 6.0}}

    def test_alternating_stream_stays_cheap(self):
        trace = section(["+", "-", "+", "-"])
        costs = CostModel(delete_search_us=2.0)
        extra = compute_search_costs(trace, costs)
        assert extra == {1: {2: 2.0, 4: 2.0}}

    def test_depth_persists_across_cycles(self):
        """Rete memory lives across MRA cycles: adds in cycle 1 make a
        delete in cycle 2 expensive."""
        trace = section(["+", "+"], ["-"])
        costs = CostModel(delete_search_us=1.0)
        extra = compute_search_costs(trace, costs)
        assert extra == {2: {1: 2.0}}

    def test_delete_from_empty_bucket_free(self):
        trace = section(["-"])
        costs = CostModel(delete_search_us=5.0)
        assert compute_search_costs(trace, costs) == {}

    def test_distinct_buckets_tracked_separately(self):
        cycle = CycleTrace(1, {1: act(1, node=1, tag="+", vals=(1,)),
                               2: act(2, node=1, tag="+", vals=(2,)),
                               3: act(3, node=1, tag="-", vals=(1,))})
        trace = SectionTrace(name="s", cycles=[cycle])
        extra = compute_search_costs(trace, CostModel(delete_search_us=1))
        assert extra == {1: {3: 1.0}}


class TestSimulationWithSearchCosts:
    def test_base_time_includes_search(self):
        trace = section(["+", "+", "+", "-"])
        plain = simulate_base(trace)
        priced = simulate_base(trace,
                               costs=CostModel(delete_search_us=2.0))
        assert priced.total_us == pytest.approx(plain.total_us + 6.0)

    def test_search_on_hot_bucket_hurts_parallel_run_more(self):
        """Search costs land on the serial hot bucket, so the parallel
        makespan absorbs them in full while T1 merely grows — the
        speedup falls."""
        # Hot bucket: 20 adds then 10 deletes; plus independent filler
        # work that parallelizes perfectly.
        acts = {}
        i = 1
        for _ in range(20):
            acts[i] = act(i, node=1, tag="+")
            i += 1
        for _ in range(10):
            acts[i] = act(i, node=1, tag="-")
            i += 1
        for k in range(200):
            acts[i] = act(i, node=100 + k, tag="+", side="right")
            i += 1
        trace = SectionTrace(name="s", cycles=[CycleTrace(1, acts)])

        def speedup_at(search):
            costs = CostModel(delete_search_us=search)
            base = simulate_base(trace, costs=costs)
            run = simulate(trace, n_procs=16, costs=costs)
            return base.total_us / run.total_us

        assert speedup_at(4.0) < speedup_at(0.0)

    def test_scaled_preserves_search_cost(self):
        costs = CostModel(delete_search_us=3.0).scaled(2.5)
        assert costs.delete_search_us == 3.0
