"""Unit tests for the flattened match kernel's building blocks:
token-pool lifecycle, alpha matching, flat memories and the network
front-end's compile behaviour."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ops5 import parse_production
from repro.ops5.ast import AttrTest, Constant, Disjunction, Predicate
from repro.ops5.wme import WME
from repro.rete import FlatMemories, ReteError, ReteNetwork, TokenPool
from repro.rete._reference import ReferenceReteNetwork
from repro.rete.kernel import ReteKernel, _AlphaClass, _AlphaSlot
from repro.rete.nodes import AlphaPattern


def _wme(wid, cls="a", **attrs):
    return WME(wid, cls, attrs, timestamp=wid)


# ---------------------------------------------------------------------------
# TokenPool
# ---------------------------------------------------------------------------

class TestTokenPool:
    def test_alloc_starts_unreferenced(self):
        pool = TokenPool()
        idx = pool.alloc((1,), (_wme(1),), ("x",))
        assert pool.refs[idx] == 0
        assert pool.live_count() == 1

    def test_release_frees_and_reuses_slot(self):
        pool = TokenPool()
        idx = pool.alloc((1,), (_wme(1),), ("x",))
        pool.retain(idx)
        pool.release(idx)
        assert pool.live_count() == 0
        assert pool.ids[idx] is None
        idx2 = pool.alloc((2,), (_wme(2),), ("y",))
        assert idx2 == idx  # free list reuses the slot
        assert pool.values[idx2] == ("y",)

    def test_refcount_keeps_slot_alive(self):
        pool = TokenPool()
        idx = pool.alloc((1,), (_wme(1),), ())
        pool.retain(idx)
        pool.retain(idx)
        pool.release(idx)
        assert pool.live_count() == 1
        pool.release(idx)
        assert pool.live_count() == 0

    def test_release_if_unused_only_frees_unreferenced(self):
        pool = TokenPool()
        kept = pool.alloc((1,), (_wme(1),), ())
        pool.retain(kept)
        loose = pool.alloc((2,), (_wme(2),), ())
        pool.release_if_unused(kept)
        pool.release_if_unused(loose)
        assert pool.live_count() == 1
        assert pool.ids[kept] == (1,)

    def test_wave_end_sweep_cannot_double_free_reused_slot(self):
        """A slot recycled mid-wave and immediately reallocated must
        survive the wave-end ``release_if_unused`` sweep over the old
        index — the free marker (refs == -1) breaks the aliasing."""
        pool = TokenPool()
        idx = pool.alloc((1,), (_wme(1),), ())
        pool.retain(idx)
        pool.release(idx)            # mid-wave recycle: refs -> -1
        assert pool.refs[idx] == -1
        again = pool.alloc((2,), (_wme(2),), ())
        assert again == idx          # reallocated under the same index
        pool.retain(again)
        pool.release_if_unused(idx)  # wave-end sweep over the OLD alloc
        assert pool.live_count() == 1
        assert pool.ids[again] == (2,)
        assert idx not in pool._free

    def test_capacity_is_high_water_mark(self):
        pool = TokenPool()
        slots = [pool.alloc((i,), (_wme(i),), ()) for i in range(5)]
        for idx in slots:
            pool.release_if_unused(idx)
        assert pool.capacity() == 5
        assert pool.live_count() == 0
        pool.alloc((9,), (_wme(9),), ())
        assert pool.capacity() == 5  # reuse, not growth


# ---------------------------------------------------------------------------
# alpha match
# ---------------------------------------------------------------------------

def _const_battery_network(n_patterns):
    net = ReteNetwork()
    for v in range(n_patterns):
        net.add_production(parse_production(
            f"(p const{v} (a ^p {v}) --> (remove 1))"))
    return net


class TestAlphaMatch:
    def test_bool_values_never_match_numeric_constants(self):
        # values_equal(True, 1) is False even though True == 1 in
        # Python; the alpha tests must preserve that.
        net = _const_battery_network(12)
        net.add_wme(_wme(1, p=True))
        assert net.conflict_set() == []
        net.add_wme(_wme(2, p=1))
        assert [i.production.name for i in net.conflict_set()] \
            == ["const1"]


#: Constants and wme values whose OPS5 equality differs from Python's
#: or from hashing: ``1 == 1.0``, ``"1" != 1``, ``True`` is neither a
#: number nor a symbol, NaN equals nothing.
ALPHA_VALUES = [1, 1.0, "1", 2, 2.5, "x", "nil", True, False,
                float("nan"), -0.0, 0]

alpha_operands = st.one_of(
    st.sampled_from(ALPHA_VALUES).map(Constant),
    st.lists(st.sampled_from([1, 2.5, "x", "1"]), min_size=1,
             max_size=3).map(lambda vs: Disjunction(tuple(vs))))

alpha_tests = st.builds(
    lambda attr, pred, operand: AttrTest(
        attr, Predicate.EQ if isinstance(operand, Disjunction) else pred,
        operand),
    st.sampled_from(["p", "q"]),
    st.sampled_from([Predicate.EQ, Predicate.EQ, Predicate.NE,
                     Predicate.LT, Predicate.GE]),
    alpha_operands)

alpha_patterns = st.lists(
    st.builds(lambda tests: AlphaPattern(0, "a", tuple(tests)),
              st.lists(alpha_tests, max_size=3)),
    min_size=1, max_size=8)

alpha_wmes = st.builds(
    lambda attrs: WME(1, "a", attrs),
    st.dictionaries(st.sampled_from(["p", "q"]),
                    st.sampled_from(ALPHA_VALUES + [None])))


class TestHashedAlphaDispatch:
    @given(patterns=alpha_patterns, wmes=st.lists(alpha_wmes, max_size=6))
    def test_matches_a_full_scan(self, patterns, wmes):
        """Hashed dispatch matches the same slots, in the same order,
        as testing every slot of the class."""
        alpha = _AlphaClass([_AlphaSlot(p) for p in patterns])
        for wme in wmes:
            scan = [s for s in alpha.slots
                    if ReteKernel._alpha_match(s, wme)]
            hashed = [s for s in alpha.candidates(wme)
                      if ReteKernel._alpha_match(s, wme)]
            assert hashed == scan
            assert scan == [s for s, p in zip(alpha.slots, patterns)
                            if p.matches(wme)]

    def test_hashes_on_the_shared_eq_attribute(self):
        net = _const_battery_network(12)
        alpha = net.kernel._alpha["a"]
        assert alpha.attr == "p"
        assert len(alpha.candidates(_wme(1, p=3))) == 1
        assert len(alpha.candidates(_wme(1, p=3.0))) == 1
        assert alpha.candidates(_wme(1, p="3")) == ()
        assert alpha.candidates(_wme(1, p=True)) == alpha.slots

    def test_no_shared_eq_attribute_scans(self):
        net = ReteNetwork()
        net.add_production(parse_production(
            "(p one (a ^p 1 ^q > 2) --> (remove 1))"))
        net.add_production(parse_production(
            "(p two (a ^q 1) (a ^p <> 3) --> (remove 1))"))
        alpha = net.kernel._alpha["a"]
        assert alpha.attr is None
        assert alpha.candidates(_wme(1, p=1, q=1)) == alpha.slots

    def test_nan_constants_are_never_keyed(self):
        nan = float("nan")
        patterns = [AlphaPattern(0, "a", (AttrTest("p", Predicate.EQ,
                                                   Constant(nan)),)),
                    AlphaPattern(0, "a", (AttrTest("p", Predicate.EQ,
                                                   Constant(1)),)),
                    AlphaPattern(0, "a", (AttrTest("p", Predicate.EQ,
                                                   Constant(2)),))]
        alpha = _AlphaClass([_AlphaSlot(p) for p in patterns])
        assert alpha.attr == "p" and set(alpha.table) == {1, 2}
        wme = WME(1, "a", {"p": nan})
        assert [s for s in alpha.candidates(wme)
                if ReteKernel._alpha_match(s, wme)] == []


# ---------------------------------------------------------------------------
# activation event order
# ---------------------------------------------------------------------------

class TestEventOrder:
    def test_mixed_terminal_and_beta_children(self):
        """A join feeding both a terminal and a deeper join delivers the
        reference engine's events: same ids, parents, successor counts
        and post-order."""
        sources = [
            "(p short (a ^p <x>) (b ^p <x>) --> (remove 1))",
            "(p long (a ^p <x>) (b ^p <x>) (c ^q <x>) --> (remove 1))",
        ]
        fast, reference = ReteNetwork(), ReferenceReteNetwork()
        streams = ([], [])
        for engine, events in zip((fast, reference), streams):
            engine.observers.append(events.append)
            for source in sources:
                engine.add_production(parse_production(source))
            wid = 0
            for cls, attrs in [("c", {"q": 1}), ("c", {"q": 1}),
                               ("b", {"p": 1}), ("b", {"p": 1}),
                               ("a", {"p": 1})]:
                wid += 1
                engine.add_wme(_wme(wid, cls, **attrs))
        fast_events, reference_events = streams
        assert [(e.act_id, e.parent_id, e.node_id, e.side, e.tag,
                 e.key, e.n_successors) for e in fast_events] == \
            [(e.act_id, e.parent_id, e.node_id, e.side, e.tag, e.key,
              e.n_successors) for e in reference_events]
        last = fast_events[-1]
        # two b matches x (terminal + join child)
        assert last.parent_id is None and last.n_successors == 4
        kinds = {e.node_kind for e in fast_events if e.parent_id}
        assert kinds == {"join", "terminal"}


# ---------------------------------------------------------------------------
# FlatMemories
# ---------------------------------------------------------------------------

class TestFlatMemories:
    def test_counts_and_empty(self):
        mem = FlatMemories(3)
        assert mem.is_empty()
        assert mem.counts() == (0, 0)
        mem.left[1][("k",)] = [0, 1]
        mem.right[2][()] = [_wme(1)]
        assert not mem.is_empty()
        assert mem.counts() == (2, 1)
        mem.clear()
        assert mem.is_empty()

    def test_empty_bucket_must_be_deleted_not_kept(self):
        # The kernel deletes emptied buckets so is_empty stays O(nodes).
        mem = FlatMemories(1)
        mem.left[0][("k",)] = []
        assert not mem.is_empty()  # documents why deletion matters


# ---------------------------------------------------------------------------
# network front end
# ---------------------------------------------------------------------------

class TestNetworkFrontEnd:
    def test_late_production_add_raises(self):
        net = ReteNetwork()
        net.add_production(parse_production(
            "(p one (a ^p 1) --> (remove 1))"))
        net.add_wme(_wme(1, p=1))
        with pytest.raises(ReteError):
            net.add_production(parse_production(
                "(p two (a ^p 2) --> (remove 1))"))

    def test_kernel_recompiles_after_new_production(self):
        net = ReteNetwork()
        net.add_production(parse_production(
            "(p one (a ^p 1) --> (remove 1))"))
        first = net.kernel
        net.add_production(parse_production(
            "(p two (a ^p 2) --> (remove 1))"))
        assert net.kernel is not first
        net.add_wme(_wme(1, p=2))
        assert [i.production.name for i in net.conflict_set()] == ["two"]

    def test_memories_drain_after_symmetric_churn(self):
        net = ReteNetwork()
        net.add_production(parse_production(
            "(p join2 (a ^p <x>) (b ^p <x>) --> (remove 1))"))
        wmes = [_wme(1, p=1), WME(2, "b", {"p": 1}, timestamp=2)]
        for wme in wmes:
            net.add_wme(wme)
        assert len(net.conflict_set()) == 1
        assert not net.memories.is_empty()
        for wme in wmes:
            net.remove_wme(wme)
        assert net.conflict_set() == []
        assert net.memories.is_empty()
        assert net.kernel.pool.live_count() == 0
