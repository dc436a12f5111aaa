"""Rete bucket keys against OPS5 equality: a known defect, pinned.

Both Rete engines key their memory buckets (and the activation log's
rows) by raw value tuples, so a join or negated CE equates ``True`` with
``1`` and one NaN object with itself, where OPS5 equality
(``ops5/values.values_equal``, the naive matcher) does not.  These cases
fail today; a key normaliser that follows OPS5 equality flips them, and
``strict`` makes that flip visible.
"""

import pytest

from repro.ops5 import NaiveMatcher, parse_production
from repro.ops5.wme import WME
from repro.rete import ReteNetwork
from repro.rete._reference import ReferenceReteNetwork

RULE = "(p x (a ^p <k>) -(b ^p <k>) --> (remove 1))"

_NAN = float("nan")

#: (value of ``a ^p``, value of ``b ^p``): OPS5 calls each pair unequal
CASES = {"1-vs-True": (1, True), "True-vs-1": (True, 1),
         "shared-nan": (_NAN, _NAN)}


def _instantiations(matcher, a_value, b_value):
    matcher.add_production(parse_production(RULE))
    matcher.add_wme(WME(1, "a", {"p": a_value}))
    matcher.add_wme(WME(2, "b", {"p": b_value}))
    return len(matcher.conflict_set())


@pytest.mark.parametrize("case", sorted(CASES))
def test_naive_matcher_keeps_the_instantiation(case):
    assert _instantiations(NaiveMatcher(), *CASES[case]) == 1


@pytest.mark.xfail(strict=True, reason="Rete bucket keys equate raw "
                   "values (True == 1, a NaN object with itself)")
@pytest.mark.parametrize("engine", [ReteNetwork, ReferenceReteNetwork],
                         ids=["kernel", "reference"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_rete_engines_follow_ops5_equality(engine, case):
    assert _instantiations(engine(), *CASES[case]) == \
        _instantiations(NaiveMatcher(), *CASES[case])
