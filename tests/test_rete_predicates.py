"""Compiled predicates (``rete/predicates.py``) against their definition.

The match kernel evaluates every residual, intra-CE and constant test
through a compiled function; ``Predicate.apply`` stays the definition
the reference engine uses.  These properties pin the two to the same
verdict on every OPS5-relevant operand kind: ints, floats (``1.0``
equals ``1``; NaN and infinities included), bools (neither number nor
symbol), symbols, ``"nil"`` and the symbol ``"1"`` (never the number).
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ops5.ast import AttrTest, Constant, Disjunction, Predicate
from repro.rete.predicates import compile_constant_test, compile_predicate

values = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([1.0, -0.0, 2.5, math.inf, -math.inf, math.nan]),
    st.floats(min_value=-3, max_value=3),
    st.booleans(),
    st.sampled_from(["nil", "1", "a", "b", ""]),
    st.text(max_size=3),
)


@given(st.sampled_from(list(Predicate)), values, values)
def test_compiled_predicate_equals_apply(predicate, actual, expected):
    compiled = compile_predicate(predicate)
    assert compiled(actual, expected) is predicate.apply(actual, expected)


@given(st.sampled_from(list(Predicate)), values, values)
def test_compiled_constant_test_equals_evaluate(predicate, actual, value):
    test = AttrTest("x", predicate, Constant(value))
    attr, fn, operand = compile_constant_test(test)
    assert attr == "x"
    assert fn(actual, operand) is test.evaluate_constant(actual)


@given(values, st.lists(values, min_size=1, max_size=4))
def test_compiled_disjunction_equals_evaluate(actual, options):
    test = AttrTest("x", Predicate.EQ, Disjunction(tuple(options)))
    _, fn, operand = compile_constant_test(test)
    assert fn(actual, operand) is test.evaluate_constant(actual)


@pytest.mark.parametrize("predicate, actual, expected, verdict", [
    (Predicate.EQ, 1, 1.0, True),
    (Predicate.EQ, "1", 1, False),
    (Predicate.EQ, True, 1, False),
    (Predicate.EQ, True, True, False),
    (Predicate.NE, "1", 1, True),
    (Predicate.LT, "a", "b", False),
    (Predicate.GT, 2, 1.5, True),
    (Predicate.GE, True, 0, False),
    (Predicate.SAME_TYPE, "nil", "x", True),
    (Predicate.SAME_TYPE, 1, "1", False),
])
def test_ops5_typing_anchors(predicate, actual, expected, verdict):
    assert compile_predicate(predicate)(actual, expected) is verdict
    assert predicate.apply(actual, expected) is verdict
