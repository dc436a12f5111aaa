"""OPS5 match predicates compiled into plain functions.

:meth:`repro.ops5.ast.Predicate.apply` is the definition of every
attribute test: OPS5 typing (symbols are ``str``, numbers are ``int`` or
``float``, ``bool`` is neither), ``1 == 1.0``, ``"1" != 1``, and
relational tests on symbols fail rather than raise.  It is also slow on
the match hot path — an enum ``if`` chain, then ``values_ordered`` /
``is_number`` / ``isinstance`` layers, for every residual join test.

:func:`compile_predicate` returns one small function per predicate with
the same semantics.  Each takes a fast path when both operands are
exactly ``int``/``float``/``str`` (the only types OPS5 source and
``compute`` produce) and otherwise defers to :mod:`repro.ops5.values`,
so an unusual operand can never change a verdict.  The kernel compiles
residual, intra-CE and constant tests with these at build time; the
frozen reference engine keeps calling ``Predicate.apply``.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..ops5.ast import AttrTest, Constant, Disjunction, Predicate
from ..ops5.values import Value, values_equal, values_ordered

#: ``actual <pred> expected`` -> bool.
PredicateFn = Callable[[Value, Value], bool]

#: Exact types whose Python comparisons already are OPS5's, provided
#: both operands have the same one (``1 == 1.0`` is decided below).
_PLAIN = frozenset((int, float, str))
#: Exact numeric types (``bool`` deliberately absent).
_NUMERIC = frozenset((int, float))


def _eq(actual: Value, expected: Value) -> bool:
    kind = type(actual)
    if kind is type(expected) and kind in _PLAIN:
        return actual == expected
    return values_equal(actual, expected)


def _ne(actual: Value, expected: Value) -> bool:
    kind = type(actual)
    if kind is type(expected) and kind in _PLAIN:
        return actual != expected
    return not values_equal(actual, expected)


def _lt(actual: Value, expected: Value) -> bool:
    if type(actual) in _NUMERIC and type(expected) in _NUMERIC:
        return actual < expected
    return values_ordered(actual, expected) and actual < expected


def _le(actual: Value, expected: Value) -> bool:
    if type(actual) in _NUMERIC and type(expected) in _NUMERIC:
        return actual <= expected
    return values_ordered(actual, expected) and actual <= expected


def _gt(actual: Value, expected: Value) -> bool:
    if type(actual) in _NUMERIC and type(expected) in _NUMERIC:
        return actual > expected
    return values_ordered(actual, expected) and actual > expected


def _ge(actual: Value, expected: Value) -> bool:
    if type(actual) in _NUMERIC and type(expected) in _NUMERIC:
        return actual >= expected
    return values_ordered(actual, expected) and actual >= expected


def _same_type(actual: Value, expected: Value) -> bool:
    return isinstance(actual, str) == isinstance(expected, str)


_COMPILED: Dict[Predicate, PredicateFn] = {
    Predicate.EQ: _eq,
    Predicate.NE: _ne,
    Predicate.LT: _lt,
    Predicate.LE: _le,
    Predicate.GT: _gt,
    Predicate.GE: _ge,
    Predicate.SAME_TYPE: _same_type,
}


def compile_predicate(predicate: Predicate) -> PredicateFn:
    """The plain function equivalent to ``predicate.apply``."""
    return _COMPILED[predicate]


def _in_disjunction(actual: Value, values: Tuple[Value, ...]) -> bool:
    for value in values:
        if _eq(actual, value):
            return True
    return False


def compile_constant_test(test: AttrTest) -> Tuple[str, Callable, object]:
    """``(attr, fn, operand)`` with ``fn(wme value, operand)`` equal to
    ``test.evaluate_constant(wme value)``."""
    if isinstance(test.operand, Disjunction):
        return test.attr, _in_disjunction, test.operand.values
    assert isinstance(test.operand, Constant)
    return test.attr, compile_predicate(test.predicate), test.operand.value
