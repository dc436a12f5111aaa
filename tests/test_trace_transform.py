"""Tests for trace-level transformations (unshare, copy-and-constraint,
dummy nodes)."""

import pytest

from repro.rete.hashing import BucketKey
from repro.trace import (CycleTrace, SectionTrace, TraceActivation,
                         copy_and_constraint_trace, insert_dummy_nodes,
                         unshare_trace, validate_trace)
from tests.trace_view import acts, roots, view


def act(act_id, node, side="right", tag="+", parent=None, succ=(),
        kind="join", values=()):
    return TraceActivation(
        act_id=act_id, parent_id=parent, node_id=node, kind=kind,
        side=side, tag=tag, key=BucketKey(node, tuple(values)),
        successors=tuple(succ))


def cycle_of(index, *acts):
    """Cycle *index* of the activation rows *acts*."""
    return CycleTrace(index, {a.act_id: a for a in acts})


def shared_node_trace():
    """Fig 5-3 shape: node 1 (shared) feeds nodes 2 and 3."""
    cycle = cycle_of(
        1, act(1, node=1, side="right", succ=(2, 3, 4)),
        act(2, node=2, side="left", parent=1),
        act(3, node=3, side="left", parent=1),
        act(4, node=2, side="left", parent=1))
    return SectionTrace(name="shared", cycles=[cycle])


class TestUnshare:
    def test_trace_validates_before_and_after(self):
        trace = shared_node_trace()
        assert validate_trace(trace) == []
        out = unshare_trace(trace)
        assert validate_trace(out) == []

    def test_activation_at_shared_node_is_replicated(self):
        out = unshare_trace(shared_node_trace())
        cycle = out.cycles[0]
        copies = roots(cycle)
        assert len(copies) == 2  # one copy per output branch
        # Copies live at fresh node ids with the same key values.
        assert len({r.node_id for r in copies}) == 2

    def test_successors_partition_by_branch(self):
        out = unshare_trace(shared_node_trace())
        cycle = out.cycles[0]
        succ_counts = sorted(len(r.successors) for r in roots(cycle))
        assert succ_counts == [1, 2]  # node-3 branch, node-2 branch

    def test_total_downstream_work_preserved(self):
        trace = shared_node_trace()
        out = unshare_trace(trace)
        # Non-root activations (the real downstream work) are unchanged.
        before = sum(a.parent_id is not None for c in trace for a in acts(c))
        after = sum(a.parent_id is not None for c in out for a in acts(c))
        assert after == before

    def test_single_branch_node_untouched(self):
        cycle = cycle_of(
            1, act(1, node=1, succ=(2,)),
            act(2, node=2, side="left", parent=1))
        trace = SectionTrace(name="mono", cycles=[cycle])
        out = unshare_trace(trace)
        assert len(out.cycles[0]) == 2
        assert {a.node_id for a in acts(out.cycles[0])} == {1, 2}

    def test_explicit_node_selection(self):
        trace = shared_node_trace()
        # Selecting a node with a single branch (or absent) is a no-op.
        out = unshare_trace(trace, node_ids=[99])
        assert len(out.cycles[0]) == len(trace.cycles[0])

    def test_mid_chain_parent_duplication(self):
        """When the unshared node is fed by a parent, the parent's
        successor count grows: it must generate one token per copy."""
        cycle = cycle_of(
            1, act(1, node=9, succ=(2,)),
            act(2, node=1, side="left", parent=1, succ=(3, 4)),
            act(3, node=2, side="left", parent=2),
            act(4, node=3, side="left", parent=2))
        trace = SectionTrace(name="chain", cycles=[cycle])
        out = unshare_trace(trace, node_ids=[1])
        assert validate_trace(out) == []
        [root] = roots(out.cycles[0])
        assert len(root.successors) == 2  # was 1; duplicated work


class TestCopyAndConstraint:
    def hot_bucket_trace(self, n=8):
        """All activations of node 5 share a single (valueless) bucket —
        the Tourney cross-product shape."""
        cycle = cycle_of(1, *(act(i + 1, node=5, side="left",
                                  tag="+" if i % 2 == 0 else "-")
                              for i in range(n)))
        return SectionTrace(name="hot", cycles=[cycle])

    def test_validates(self):
        out = copy_and_constraint_trace(self.hot_bucket_trace(), 5, 4)
        assert validate_trace(out) == []

    def test_spreads_over_k_buckets(self):
        out = copy_and_constraint_trace(self.hot_bucket_trace(8), 5, 4)
        keys = {a.key for c in out for a in acts(c)}
        assert len(keys) == 4

    def test_round_robin_is_balanced(self):
        out = copy_and_constraint_trace(self.hot_bucket_trace(8), 5, 4)
        per_node = {}
        for a in acts(out.cycles[0]):
            per_node[a.node_id] = per_node.get(a.node_id, 0) + 1
        assert sorted(per_node.values()) == [2, 2, 2, 2]

    def test_activation_count_unchanged(self):
        trace = self.hot_bucket_trace(8)
        out = copy_and_constraint_trace(trace, 5, 4)
        assert out.total_activations() == trace.total_activations()

    def test_custom_assignment(self):
        out = copy_and_constraint_trace(
            self.hot_bucket_trace(4), 5, 2,
            assignment=lambda row: row[0])  # odd/even split by act_id
        nodes = [a.node_id for a in acts(out.cycles[0])]
        assert nodes[0] != nodes[1] and nodes[0] == nodes[2]

    def test_other_nodes_untouched(self):
        cycle = cycle_of(
            1, act(1, node=5),
            act(2, node=7, values=("x",)))
        trace = SectionTrace(name="mixed", cycles=[cycle])
        out = copy_and_constraint_trace(trace, 5, 2)
        other = [a for a in acts(out.cycles[0]) if a.key.values == ("x",)]
        assert other[0].node_id == 7

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            copy_and_constraint_trace(self.hot_bucket_trace(), 5, 0)


class TestDummyNodes:
    def bottleneck_trace(self, fanout=12):
        """One left activation generating many successors (Weaver small
        cycles, Section 5.2.1)."""
        cycle = cycle_of(
            1, act(1, node=1, side="left", succ=tuple(range(2, 2 + fanout))),
            *(act(2 + i, node=10 + (i % 3), side="left", parent=1)
              for i in range(fanout)))
        return SectionTrace(name="bottleneck", cycles=[cycle])

    def test_validates(self):
        out = insert_dummy_nodes(self.bottleneck_trace(), 1, parts=3)
        assert validate_trace(out) == []

    def test_bottleneck_fanout_reduced(self):
        out = insert_dummy_nodes(self.bottleneck_trace(12), 1, parts=3)
        [root] = roots(out.cycles[0])
        assert len(root.successors) == 3  # hands off to 3 dummies

    def test_dummies_carry_the_original_successors(self):
        out = insert_dummy_nodes(self.bottleneck_trace(12), 1, parts=3)
        cycle = out.cycles[0]
        [root] = roots(cycle)
        by_id = view(cycle)
        dummy_succ = sum(len(by_id[d].successors) for d in root.successors)
        assert dummy_succ == 12

    def test_activation_count_grows_by_dummies(self):
        trace = self.bottleneck_trace(12)
        out = insert_dummy_nodes(trace, 1, parts=3)
        assert out.total_activations() == trace.total_activations() + 3

    def test_single_successor_not_split(self):
        trace = self.bottleneck_trace(1)
        out = insert_dummy_nodes(trace, 1, parts=2)
        assert out.total_activations() == trace.total_activations()

    def test_rejects_parts_below_two(self):
        with pytest.raises(ValueError):
            insert_dummy_nodes(self.bottleneck_trace(), 1, parts=1)
