"""Behavioural tests for the Rete network: joins, negation, deletion,
state invariants and the activation log."""

import pytest

from repro.ops5 import parse_production
from repro.ops5.wme import WME
from repro.check.oracles import log_events
from repro.rete import build_network
from repro.trace import TraceRecorder


def net_for(*sources):
    return build_network([parse_production(s) for s in sources])


def names(network):
    return sorted(i.production.name for i in network.conflict_set())


class TestJoins:
    def test_two_ce_join_on_variable(self):
        net = net_for("(p r (a ^v <x>) (b ^w <x>) --> (remove 1))")
        net.add_wme(WME(1, "a", {"v": 7}))
        assert names(net) == []
        net.add_wme(WME(2, "b", {"w": 7}))
        assert names(net) == ["r"]

    def test_join_respects_values(self):
        net = net_for("(p r (a ^v <x>) (b ^w <x>) --> (remove 1))")
        net.add_wme(WME(1, "a", {"v": 7}))
        net.add_wme(WME(2, "b", {"w": 8}))
        assert names(net) == []

    def test_order_independence_right_then_left(self):
        net = net_for("(p r (a ^v <x>) (b ^w <x>) --> (remove 1))")
        net.add_wme(WME(2, "b", {"w": 7}))   # CE2 first
        net.add_wme(WME(1, "a", {"v": 7}))   # CE1 second
        assert names(net) == ["r"]

    def test_three_ce_chain(self):
        net = net_for("""
            (p r (a ^v <x>) (b ^w <x> ^u <y>) (c ^z <y>) --> (remove 1))
        """)
        net.add_wme(WME(1, "a", {"v": 1}))
        net.add_wme(WME(2, "b", {"w": 1, "u": 2}))
        net.add_wme(WME(3, "c", {"z": 2}))
        assert names(net) == ["r"]

    def test_cross_product_counts(self):
        net = net_for("(p r (a) (b) --> (remove 1))")
        for i in range(3):
            net.add_wme(WME(i + 1, "a", {}))
        for i in range(3):
            net.add_wme(WME(i + 4, "b", {}))
        assert len(net.conflict_set()) == 9

    def test_residual_relational_join(self):
        net = net_for("(p r (a ^v <x>) (b ^w > <x>) --> (remove 1))")
        net.add_wme(WME(1, "a", {"v": 5}))
        net.add_wme(WME(2, "b", {"w": 6}))
        net.add_wme(WME(3, "b", {"w": 4}))
        assert len(net.conflict_set()) == 1

    def test_same_wme_both_ces(self):
        net = net_for("(p r (a ^v <x>) (a ^v <x>) --> (remove 1))")
        net.add_wme(WME(1, "a", {"v": 1}))
        insts = net.conflict_set()
        assert len(insts) == 1
        assert [w.wme_id for w in insts[0].wmes] == [1, 1]

    def test_bindings_available_in_instantiation(self):
        net = net_for("(p r (a ^v <x>) (b ^w <x> ^q <y>) --> (remove 1))")
        net.add_wme(WME(1, "a", {"v": 7}))
        net.add_wme(WME(2, "b", {"w": 7, "q": "hello"}))
        [inst] = net.conflict_set()
        assert inst.bindings == {"x": 7, "y": "hello"}


class TestDeletion:
    def test_delete_left_wme_retracts(self):
        net = net_for("(p r (a ^v <x>) (b ^w <x>) --> (remove 1))")
        wa = WME(1, "a", {"v": 7})
        net.add_wme(wa)
        net.add_wme(WME(2, "b", {"w": 7}))
        assert len(net.conflict_set()) == 1
        net.remove_wme(wa)
        assert net.conflict_set() == []

    def test_delete_right_wme_retracts(self):
        net = net_for("(p r (a ^v <x>) (b ^w <x>) --> (remove 1))")
        wb = WME(2, "b", {"w": 7})
        net.add_wme(WME(1, "a", {"v": 7}))
        net.add_wme(wb)
        net.remove_wme(wb)
        assert net.conflict_set() == []

    def test_memories_empty_after_full_retraction(self):
        net = net_for("""
            (p r (a ^v <x>) (b ^w <x>) (c) --> (remove 1))
        """)
        wmes = [WME(1, "a", {"v": 7}), WME(2, "b", {"w": 7}),
                WME(3, "c", {})]
        for w in wmes:
            net.add_wme(w)
        assert len(net.conflict_set()) == 1
        for w in wmes:
            net.remove_wme(w)
        assert net.conflict_set() == []
        assert net.memories.is_empty()

    def test_partial_deletion_keeps_other_matches(self):
        net = net_for("(p r (a ^v <x>) (b ^w <x>) --> (remove 1))")
        net.add_wme(WME(1, "a", {"v": 7}))
        net.add_wme(WME(2, "b", {"w": 7}))
        net.add_wme(WME(3, "b", {"w": 7}))
        assert len(net.conflict_set()) == 2
        net.remove_wme(WME(2, "b", {"w": 7}))
        assert len(net.conflict_set()) == 1


class TestNegation:
    def test_negated_ce_blocks_and_releases(self):
        net = net_for("(p r (goal) -(blocker) --> (remove 1))")
        net.add_wme(WME(1, "goal", {}))
        assert names(net) == ["r"]
        blocker = WME(2, "blocker", {})
        net.add_wme(blocker)
        assert names(net) == []
        net.remove_wme(blocker)
        assert names(net) == ["r"]

    def test_negation_with_join_variable(self):
        net = net_for(
            "(p r (goal ^obj <o>) -(done ^obj <o>) --> (remove 1))")
        net.add_wme(WME(1, "goal", {"obj": "x"}))
        net.add_wme(WME(2, "done", {"obj": "y"}))  # different obj: no block
        assert names(net) == ["r"]
        net.add_wme(WME(3, "done", {"obj": "x"}))
        assert names(net) == []

    def test_negation_count_multiple_blockers(self):
        net = net_for("(p r (goal) -(blocker) --> (remove 1))")
        net.add_wme(WME(1, "goal", {}))
        b1, b2 = WME(2, "blocker", {}), WME(3, "blocker", {})
        net.add_wme(b1)
        net.add_wme(b2)
        net.remove_wme(b1)
        assert names(net) == []  # b2 still blocks
        net.remove_wme(b2)
        assert names(net) == ["r"]

    def test_token_arriving_while_blocked_never_propagates(self):
        net = net_for("(p r (goal) -(blocker) --> (remove 1))")
        net.add_wme(WME(1, "blocker", {}))
        net.add_wme(WME(2, "goal", {}))
        assert names(net) == []

    def test_negation_mid_chain(self):
        net = net_for("""
            (p r (a ^v <x>) -(hold ^v <x>) (b ^w <x>) --> (remove 1))
        """)
        net.add_wme(WME(1, "a", {"v": 1}))
        net.add_wme(WME(2, "b", {"w": 1}))
        assert names(net) == ["r"]
        net.add_wme(WME(3, "hold", {"v": 1}))
        assert names(net) == []

    def test_negation_cleanup_leaves_no_state(self):
        net = net_for("(p r (goal) -(blocker) --> (remove 1))")
        g, b = WME(1, "goal", {}), WME(2, "blocker", {})
        net.add_wme(g)
        net.add_wme(b)
        net.remove_wme(b)
        net.remove_wme(g)
        assert net.memories.is_empty()
        assert net.conflict_set() == []


class TestAlwaysFalseCE:
    def test_positive_always_false_never_matches(self):
        net = net_for("(p r (a ^v > <x>) --> (halt))")
        net.add_wme(WME(1, "a", {"v": 5}))
        assert net.conflict_set() == []

    def test_negated_always_false_always_satisfied(self):
        net = net_for("(p r (goal) -(a ^v > <x>) --> (remove 1))")
        net.add_wme(WME(1, "goal", {}))
        net.add_wme(WME(2, "a", {"v": 5}))
        assert names(net) == ["r"]


class TestActivationEvents:
    """What a reader of the activation log sees; the Table 5-2 counts
    come from the recorded section's ``stats()``."""

    def test_counter_sees_left_and_right(self):
        net = net_for("(p r (a ^v <x>) (b ^w <x>) --> (remove 1))")
        recorder = TraceRecorder(net)
        net.add_wme(WME(1, "a", {"v": 7}))   # left activation (CE1)
        net.add_wme(WME(2, "b", {"w": 7}))   # right activation (CE2)
        stats = recorder.section("s").stats()
        assert stats.left == 1
        assert stats.right == 1
        assert stats.terminal == 1
        assert stats.successors == 1

    def test_parent_child_linkage(self):
        net = net_for(
            "(p r (a ^v <x>) (b ^w <x>) (c) --> (remove 1))")
        log = net.keep_log(self)
        net.add_wme(WME(1, "c", {}))
        net.add_wme(WME(2, "a", {"v": 7}))
        net.add_wme(WME(3, "b", {"w": 7}))
        rows = log_events(log)
        ids = {row[0] for row in rows}
        roots = [row for row in rows if row[1] is None]
        children = [row for row in rows if row[1] is not None]
        assert len(roots) == 3
        for act_id, parent, *_ in children:
            assert parent in ids
            assert parent < act_id

    def test_successor_count_on_cross_product(self):
        net = net_for("(p r (a) (b) --> (remove 1))")
        for i in range(5):
            net.add_wme(WME(i + 1, "a", {}))
        recorder = TraceRecorder(net)
        net.add_wme(WME(99, "b", {}))
        # One right activation meeting 5 stored left tokens.
        stats = recorder.section("s").stats()
        assert stats.right == 1
        assert stats.successors == 5

    def test_no_observer_no_overhead_path(self):
        net = net_for("(p r (a) --> (halt))")
        net.add_wme(WME(1, "a", {}))   # must simply not crash
        assert len(net.conflict_set()) == 1
