"""Unit tests for the flattened match kernel's building blocks:
tuple tokens in the left buckets, alpha matching, flat memories and the network
front-end's compile behaviour."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.check.oracles import event_tuples, log_events
from repro.ops5 import parse_production
from repro.ops5.ast import AttrTest, Constant, Disjunction, Predicate
from repro.ops5.wme import WME
from repro.rete import FlatMemories, ReteError, ReteNetwork
from repro.rete._reference import ReferenceReteNetwork
from repro.rete.kernel import ReteKernel, _AlphaClass, _AlphaSlot
from repro.rete.nodes import AlphaPattern
from tests.rete_memory_image import left_buckets, left_state


def _wme(wid, cls="a", **attrs):
    return WME(wid, cls, attrs, timestamp=wid)


# ---------------------------------------------------------------------------
# tokens: (ids, wmes, values) tuples held by the left buckets
# ---------------------------------------------------------------------------

def _pair(*sources):
    """A kernel network and a reference network with *sources*."""
    engines = ReteNetwork(), ReferenceReteNetwork()
    for source in sources:
        for engine in engines:
            engine.add_production(parse_production(source))
    return engines


def _apply(engines, op, wme):
    for engine in engines:
        getattr(engine, op)(wme)


class TestTupleTokens:
    JOIN = "(p j (a ^p <x>) (b ^p <x>) --> (remove 1))"

    def test_outputs_feeding_only_terminals_are_not_stored(self):
        net, reference = engines = _pair(self.JOIN)
        a, b = _wme(1, p=1), WME(2, "b", {"p": 1}, timestamp=2)
        _apply(engines, "add_wme", a)
        _apply(engines, "add_wme", b)
        ci = net.kernel.node_id.index(1)
        assert net.kernel.logged_plan[ci][1] == ()  # pushes nothing
        # only the unit token is stored: the join's output became an
        # instantiation and nothing else
        assert left_state(net) == ({(1, (1,)): [(1,)]}, {})
        assert left_buckets(reference) == left_buckets(net)
        (inst,) = net.conflict_set()
        assert inst.wmes == (a, b)

    def test_minus_wave_drops_the_stored_token(self):
        net, _ = engines = _pair(self.JOIN)
        a = _wme(1, p=1)
        _apply(engines, "add_wme", a)
        (token,) = net.kernel.memories.left[0][(1,)].values()
        assert token == ((1,), (a,), (1,))
        _apply(engines, "remove_wme", a)
        assert net.kernel.memories.left[0] == {}
        assert left_state(net) == ({}, {})

    def test_token_shared_by_two_buckets_survives_one_removal(self):
        """A negative node stores a token and passes the same tuple on;
        its child dropping it leaves the negative node's copy whole."""
        net, reference = engines = _pair(
            "(p n (a ^p <x>) -(c ^p <x>) (b ^p <x>) --> (remove 1))")
        a = _wme(1, p=1)
        _apply(engines, "add_wme", a)
        kernel = net.kernel
        neg, join = (kernel.node_id.index(i) for i in (1, 2))
        (stored,) = kernel.memories.left[neg][(1,)].values()
        (passed,) = kernel.memories.left[join][(1,)].values()
        assert passed is stored
        _apply(engines, "add_wme", WME(2, "c", {"p": 1}, timestamp=2))
        assert kernel.memories.left[join] == {}
        assert kernel.memories.left[neg][(1,)][(1,)] == ((1,), (a,), (1,))
        assert left_buckets(net) == left_buckets(reference)

    def test_minus_tokens_are_never_stored(self):
        """A minus wave whose plus twin never arrived stores nothing and
        raises nothing, like the reference's list buckets."""
        net, reference = engines = _pair(self.JOIN)
        _apply(engines, "remove_wme", _wme(1, p=1))
        _apply(engines, "remove_wme", WME(2, "b", {"p": 1}, timestamp=2))
        assert left_state(net) == ({}, {}) and net.memories.is_empty()
        assert left_buckets(reference) == {}

    def test_duplicate_copies_leave_first_stored_first(self):
        """The same wme added twice stores two copies of one token (the
        second under an alias); removals take the first-stored copy."""
        net, reference = engines = _pair(self.JOIN)
        a = _wme(1, p=1)
        key = (1, (1,), (1,))
        _apply(engines, "add_wme", a)
        _apply(engines, "add_wme", a)
        assert left_state(net) == ({(1, (1,)): [(1,), (1,)]}, {key: 1})
        _apply(engines, "remove_wme", a)
        assert left_state(net) == ({(1, (1,)): [(1,)]}, {key: 1})
        _apply(engines, "add_wme", a)
        assert left_state(net) == ({(1, (1,)): [(1,), (1,)]}, {key: 2})
        assert left_buckets(net) == left_buckets(reference)
        _apply(engines, "remove_wme", a)
        _apply(engines, "remove_wme", a)
        assert left_state(net) == ({}, {}) and net.memories.is_empty()
        assert reference.memories.is_empty()

    def test_churn_leaves_no_token_behind(self):
        net, reference = engines = _pair(
            self.JOIN, "(p k (a ^p <x>) (b ^p <x>) (c ^p <x>) --> (remove 1))")
        wmes = [_wme(1, p=1), WME(2, "b", {"p": 1}, timestamp=2),
                WME(3, "c", {"p": 1}, timestamp=3)]
        for _ in range(5):
            for wme in wmes:
                _apply(engines, "add_wme", wme)
            assert len(net.conflict_set()) == 2
            assert left_buckets(net) == left_buckets(reference)
            for wme in reversed(wmes):
                _apply(engines, "remove_wme", wme)
            assert left_state(net) == ({}, {}) and net.memories.is_empty()


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
        """A join feeding both a terminal and a deeper join logs the
        rows of the reference engine's events: same ids, parents,
        successor counts, and the post-order the rows imply."""
        sources = [
            "(p short (a ^p <x>) (b ^p <x>) --> (remove 1))",
            "(p long (a ^p <x>) (b ^p <x>) (c ^q <x>) --> (remove 1))",
        ]
        fast, reference = ReteNetwork(), ReferenceReteNetwork()
        reference_events = []
        reference.observers.append(reference_events.append)
        log = fast.keep_log(self)
        for engine in (fast, reference):
            for source in sources:
                engine.add_production(parse_production(source))
            wid = 0
            for cls, attrs in [("c", {"q": 1}), ("c", {"q": 1}),
                               ("b", {"p": 1}), ("b", {"p": 1}),
                               ("a", {"p": 1})]:
                wid += 1
                engine.add_wme(_wme(wid, cls, **attrs))
        rows = log_events(log)
        assert rows == event_tuples(reference_events)
        # read in post-order, the rows give the reference's event order
        order, open_path = [], []
        for act_id, parent, *_ in rows:
            while open_path and open_path[-1] != parent:
                order.append(open_path.pop())
            open_path.append(act_id)
        assert (order + open_path[::-1]
                == [e.act_id for e in reference_events])
        # the reference's post-order ends with the last root: the a
        # wme's, whose two b matches x (terminal + join child) make 4
        last = next(row for row in rows
                    if row[0] == reference_events[-1].act_id)
        assert last[1] is None and last[7] == 4
        kinds = {row[3] for row in rows if row[1]}
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
        net, reference = ReteNetwork(), ReferenceReteNetwork()
        for engine in (net, reference):
            engine.add_production(parse_production(
                "(p join2 (a ^p <x>) (b ^p <x>) --> (remove 1))"))
        wmes = [_wme(1, p=1), WME(2, "b", {"p": 1}, timestamp=2)]
        for wme in wmes:
            net.add_wme(wme)
            reference.add_wme(wme)
        assert len(net.conflict_set()) == 1
        assert not net.memories.is_empty()
        assert left_state(net) == ({(1, (1,)): [(1,)]}, {})
        assert left_buckets(net) == left_buckets(reference)
        for wme in wmes:
            net.remove_wme(wme)
        assert net.conflict_set() == []
        assert net.memories.is_empty()
        assert left_state(net) == ({}, {})
