"""Unit tests for conflict resolution (LEX / MEA / refraction)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ops5 import Instantiation, Strategy, parse_production, select
from repro.ops5.wme import WME


def inst(production, *wmes):
    return Instantiation(production=production, wmes=tuple(wmes),
                         bindings={})


@pytest.fixture
def p_one():
    return parse_production("(p one (a) --> (halt))")


@pytest.fixture
def p_two():
    return parse_production("(p two (a) (b) --> (halt))")


@pytest.fixture
def p_specific():
    return parse_production("(p specific (a ^v 1 ^w 2) --> (halt))")


class TestLEX:
    def test_recency_wins(self, p_one):
        old = inst(p_one, WME(1, "a", {}, timestamp=1))
        new = inst(p_one, WME(2, "a", {}, timestamp=9))
        assert select([old, new], Strategy.LEX) is new

    def test_recency_compares_sorted_descending(self, p_two):
        # {9, 1} vs {5, 4}: 9 > 5, so the first wins even though its
        # second tag is older.
        a = inst(p_two, WME(1, "a", {}, timestamp=9),
                 WME(2, "b", {}, timestamp=1))
        b = inst(p_two, WME(3, "a", {}, timestamp=5),
                 WME(4, "b", {}, timestamp=4))
        assert select([a, b], Strategy.LEX) is a

    def test_prefix_equal_longer_wins(self, p_one, p_two):
        w = WME(1, "a", {}, timestamp=5)
        shorter = inst(p_one, w)
        longer = inst(p_two, w, WME(2, "b", {}, timestamp=3))
        # longer's stamps (5,3) vs shorter's (5,): first element ties,
        # 3 beats exhaustion.
        assert select([shorter, longer], Strategy.LEX) is longer

    def test_specificity_breaks_recency_tie(self, p_one, p_specific):
        w = WME(1, "a", {"v": 1, "w": 2}, timestamp=5)
        plain = inst(p_one, w)
        specific = inst(p_specific, w)
        assert select([plain, specific], Strategy.LEX) is specific

    def test_empty_conflict_set(self):
        assert select([], Strategy.LEX) is None

    def test_deterministic_final_tiebreak(self, p_one):
        w = WME(1, "a", {}, timestamp=5)
        p_zzz = parse_production("(p zzz (a) --> (halt))")
        a = inst(p_one, w)
        b = inst(p_zzz, w)
        # Same recency, same specificity: name order decides, stably.
        assert select([a, b], Strategy.LEX) is select([b, a], Strategy.LEX)


class TestMEA:
    def test_first_ce_recency_dominates(self, p_two):
        # LEX would pick `a` (has the most recent tag overall); MEA must
        # pick `b` because its FIRST-CE wme is more recent.
        a = inst(p_two, WME(1, "a", {}, timestamp=2),
                 WME(2, "b", {}, timestamp=9))
        b = inst(p_two, WME(3, "a", {}, timestamp=5),
                 WME(4, "b", {}, timestamp=1))
        assert select([a, b], Strategy.LEX) is a
        assert select([a, b], Strategy.MEA) is b

    def test_falls_back_to_lex_on_first_ce_tie(self, p_two):
        w_first = WME(1, "a", {}, timestamp=5)
        a = inst(p_two, w_first, WME(2, "b", {}, timestamp=2))
        b = inst(p_two, w_first, WME(3, "b", {}, timestamp=7))
        assert select([a, b], Strategy.MEA) is b


class TestRefraction:
    def test_fired_keys_skipped(self, p_one):
        w = WME(1, "a", {}, timestamp=5)
        i = inst(p_one, w)
        assert select([i], Strategy.LEX, fired={i.key()}) is None

    def test_key_distinguishes_wmes(self, p_one):
        i1 = inst(p_one, WME(1, "a", {}, timestamp=1))
        i2 = inst(p_one, WME(2, "a", {}, timestamp=1))
        assert i1.key() != i2.key()

    def test_key_distinguishes_productions(self, p_one):
        other = parse_production("(p other (a) --> (halt))")
        w = WME(1, "a", {})
        assert inst(p_one, w).key() != inst(other, w).key()


class TestInstantiationHelpers:
    def test_wme_for_ce_positive(self, p_two):
        wa, wb = WME(1, "a", {}), WME(2, "b", {})
        i = inst(p_two, wa, wb)
        assert i.wme_for_ce(1) is wa
        assert i.wme_for_ce(2) is wb

    def test_wme_for_ce_negated_returns_none(self):
        p = parse_production("(p r (a) -(b) --> (halt))")
        i = inst(p, WME(1, "a", {}))
        assert i.wme_for_ce(2) is None

    def test_wme_for_ce_skips_negated_positions(self):
        p = parse_production("(p r (a) -(b) (c) --> (halt))")
        wa, wc = WME(1, "a", {}), WME(2, "c", {})
        i = inst(p, wa, wc)
        assert i.wme_for_ce(3) is wc


PRODUCTIONS = [parse_production(source) for source in (
    "(p one (a) --> (halt))",
    "(p two (a) (b) --> (halt))",
    "(p specific (a ^v 1 ^w 2) --> (halt))",
)]


@st.composite
def candidates(draw):
    """Instantiations with colliding time tags and wme ids (so keys can
    tie), and a fired subset."""
    out = []
    for _ in range(draw(st.integers(0, 8))):
        production = draw(st.sampled_from(PRODUCTIONS))
        wmes = tuple(WME(draw(st.integers(1, 3)), "a", {},
                         timestamp=draw(st.integers(0, 3)))
                     for _ in production.positive_ces())
        out.append(inst(production, *wmes))
    fired = {c.key() for c in out if draw(st.booleans())}
    return out, fired


@given(case=candidates(), strategy=st.sampled_from(list(Strategy)))
def test_select_is_first_maximal_unfired(case, strategy):
    """The one-pass select picks what ``max`` over the unfired
    candidates picks: the first one with the greatest key."""
    conflict_set, fired = case
    key = ((lambda i: i.mea_key) if strategy is Strategy.MEA
           else (lambda i: i.lex_key))
    want = max((i for i in conflict_set if i.key() not in fired),
               key=key, default=None)
    assert select(conflict_set, strategy, fired) is want
