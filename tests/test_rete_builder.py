"""Unit tests for CE analysis and network construction (incl. sharing)."""

import pytest

from repro.ops5 import Predicate, parse_production
from repro.rete import ReteNetwork, analyze_ce, build_network
from repro.rete.builder import CEAnalysis


def ce_at(source, index=1, bound=()):
    p = parse_production(source)
    return analyze_ce(p.lhs[index - 1], set(bound))


class TestAnalyzeCE:
    def test_constant_tests_go_to_alpha(self):
        a = ce_at("(p r (block ^color blue ^size 3) --> (halt))")
        assert len(a.const_tests) == 2
        assert a.eq_tests == ()
        assert a.new_bindings == ()

    def test_fresh_variable_binds(self):
        a = ce_at("(p r (block ^name <x>) --> (halt))")
        assert a.new_bindings == (("x", "name"),)
        assert a.eq_tests == ()

    def test_bound_variable_becomes_eq_join_test(self):
        a = ce_at("(p r (a ^v <x>) (b ^w <x>) --> (halt))",
                  index=2, bound={"x"})
        assert a.eq_tests == (("x", "w"),)
        assert a.new_bindings == ()

    def test_bound_variable_relational_is_residual(self):
        a = ce_at("(p r (a ^v <x>) (b ^w > <x>) --> (halt))",
                  index=2, bound={"x"})
        assert a.residual_tests == (("x", Predicate.GT, "w"),)
        assert a.eq_tests == ()

    def test_repeated_fresh_variable_is_intra_test(self):
        a = ce_at("(p r (pair ^a <x> ^b <x>) --> (halt))")
        assert a.intra_tests == (("a", Predicate.EQ, "b"),)
        assert a.new_bindings == (("x", "a"),)

    def test_relational_on_unbound_is_always_false(self):
        a = ce_at("(p r (a ^v > <x>) --> (halt))")
        assert a.always_false

    def test_relational_then_eq_still_always_false(self):
        # Sequential semantics: the failing test comes first.
        a = ce_at("(p r (a ^v > <x> ^w <x>) --> (halt))")
        assert a.always_false

    def test_variable_bound_twice_across_attrs_eq_joins_both(self):
        a = ce_at("(p r (a ^v <x>) (b ^p <x> ^q <x>) --> (halt))",
                  index=2, bound={"x"})
        assert a.eq_tests == (("x", "p"), ("x", "q"))

    def test_eq_tests_sorted_for_determinism(self):
        a = ce_at("(p r (a ^v <x> ^w <y>) (b ^zz <y> ^aa <x>) --> (halt))",
                  index=2, bound={"x", "y"})
        assert a.eq_tests == (("x", "aa"), ("y", "zz"))


class TestSharing:
    def two_rule_network(self, share=True):
        p1 = parse_production("""
            (p r1 (goal ^id <g>) (task ^goal <g>) --> (remove 2))
        """)
        p2 = parse_production("""
            (p r2 (goal ^id <g>) (task ^goal <g>) (extra) --> (remove 3))
        """)
        return build_network([p1, p2], share=share)

    def test_common_prefix_shared(self):
        net = self.two_rule_network(share=True)
        # r1: join(goal,task).  r2: join(goal,task) shared + join(extra).
        assert net.node_count() == 2

    def test_unshared_build_duplicates(self):
        net = self.two_rule_network(share=False)
        assert net.node_count() == 3

    def test_alpha_patterns_shared_even_when_unshared(self):
        shared = self.two_rule_network(share=True)
        unshared = self.two_rule_network(share=False)
        assert shared.alpha_pattern_count() == \
            unshared.alpha_pattern_count()

    def test_identical_productions_fully_shared(self):
        p1 = parse_production("(p a (x ^v <i>) (y ^w <i>) --> (remove 1))")
        p2 = parse_production("(p b (x ^v <i>) (y ^w <i>) --> (remove 2))")
        net = build_network([p1, p2])
        assert net.node_count() == 1  # one join, two terminals

    def test_different_tests_not_shared(self):
        p1 = parse_production("(p a (x ^v <i>) (y ^w <i>) --> (remove 1))")
        p2 = parse_production("(p b (x ^v <i>) (y ^u <i>) --> (remove 1))")
        net = build_network([p1, p2])
        assert net.node_count() == 2

    def test_unshared_matches_same_conflict_set(self):
        from repro.ops5.wme import WME
        for share in (True, False):
            net = self.two_rule_network(share=share)
            net.add_wme(WME(1, "goal", {"id": "g1"}, timestamp=1))
            net.add_wme(WME(2, "task", {"goal": "g1"}, timestamp=2))
            net.add_wme(WME(3, "extra", {}, timestamp=3))
            names = sorted(i.production.name for i in net.conflict_set())
            assert names == ["r1", "r2"], f"share={share}"


class TestLateProductionAdd:
    def test_add_production_after_wme_raises(self):
        from repro.ops5.wme import WME
        from repro.rete import ReteError
        net = ReteNetwork()
        net.add_production(parse_production("(p r (a) --> (halt))"))
        net.add_wme(WME(1, "a", {}))
        with pytest.raises(ReteError):
            net.add_production(parse_production("(p r2 (b) --> (halt))"))

    def test_reference_engine_raises_the_same_error(self):
        from repro.ops5.wme import WME
        from repro.rete import ReteError
        from repro.rete._reference import ReferenceReteNetwork
        net = ReferenceReteNetwork()
        net.add_production(parse_production("(p r (a) --> (halt))"))
        net.remove_wme(WME(1, "a", {}))
        with pytest.raises(ReteError):
            net.add_production(parse_production("(p r2 (b) --> (halt))"))


class TestObservers:
    def test_observers_list_is_shared_with_the_kernel(self):
        from repro.ops5.wme import WME
        net = ReteNetwork()
        net.add_production(parse_production("(p r (a) --> (halt))"))
        net.add_wme(WME(1, "a", {}))
        seen = []
        net.observers.append(seen.append)
        net.add_wme(WME(2, "a", {}))
        assert [e.node_kind for e in seen] == ["terminal"]
        with pytest.raises(AttributeError):
            net.observers = []


class TestNoReferenceCycles:
    """A dropped network, with the events its observers kept, is freed by
    reference counting, not at the cycle collector's next full pass."""

    @pytest.mark.parametrize("engine", ["kernel", "reference"])
    def test_dropped_network_is_freed_at_once(self, engine):
        import gc
        import weakref
        from repro.rete._reference import ReferenceReteNetwork
        from repro.trace.recorder import TraceRecorder
        from repro.workloads import (adversarial_cross_product,
                                     replay_deltas)
        net = (ReteNetwork if engine == "kernel" else ReferenceReteNetwork)()
        recorder = TraceRecorder(net)
        replay_deltas(net, *adversarial_cross_product(4))
        assert recorder.section("x").cycles
        dropped = weakref.ref(net)
        gc.disable()
        try:
            del net, recorder
            assert dropped() is None
        finally:
            gc.enable()
