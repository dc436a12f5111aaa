"""Abstract syntax for OPS5 productions.

The grammar implemented here is the OPS5 subset the paper's programs use:
attribute-named condition elements with constant tests, relational
predicates, variable bindings (including conjunctive ``{ ... }``
restrictions), optional CE negation, and the standard RHS actions.

The AST is deliberately matcher-agnostic: both the naive matcher and the
Rete compiler consume these classes.  Every node is a frozen dataclass so
productions can be hashed, deduplicated and shared safely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple, Union

from .errors import SemanticError
from .values import Value, format_value, values_equal, values_ordered


class Predicate(enum.Enum):
    """The OPS5 match predicates usable in attribute tests."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    SAME_TYPE = "<=>"   # both numbers or both symbols

    def apply(self, actual: Value, expected: Value) -> bool:
        """Evaluate ``actual <pred> expected`` with OPS5 semantics.

        Relational predicates only succeed on pairs of numbers; applying
        ``<`` to a symbol is a failed match, never an error.
        """
        if self is Predicate.EQ:
            return values_equal(actual, expected)
        if self is Predicate.NE:
            return not values_equal(actual, expected)
        if self is Predicate.SAME_TYPE:
            return isinstance(actual, str) == isinstance(expected, str)
        if not values_ordered(actual, expected):
            return False
        if self is Predicate.LT:
            return actual < expected
        if self is Predicate.LE:
            return actual <= expected
        if self is Predicate.GT:
            return actual > expected
        if self is Predicate.GE:
            return actual >= expected
        raise AssertionError(f"unhandled predicate {self}")


@dataclass(frozen=True)
class Constant:
    """A literal operand in a test, e.g. the ``blue`` in ``^color blue``."""

    value: Value

    def __str__(self) -> str:
        return format_value(self.value)


@dataclass(frozen=True)
class Variable:
    """A variable operand, e.g. ``<x>``.  Identified by name."""

    name: str

    def __str__(self) -> str:
        return f"<{self.name}>"


@dataclass(frozen=True)
class Disjunction:
    """A value disjunction ``<< red blue >>``: matches any listed value.

    Only constants may appear inside the brackets (OPS5 rule), and a
    disjunction may only be tested with the implicit equality predicate.
    """

    values: Tuple[Value, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise SemanticError("empty << >> disjunction")

    def matches(self, actual: Value) -> bool:
        return any(values_equal(actual, v) for v in self.values)

    def __str__(self) -> str:
        return "<< " + " ".join(format_value(v)
                                for v in self.values) + " >>"


Operand = Union[Constant, Variable, Disjunction]


@dataclass(frozen=True)
class AttrTest:
    """One restriction on one attribute: ``^attr <pred> operand``.

    A bare value position like ``^color blue`` is ``EQ`` against a
    constant; ``^name <x>`` is ``EQ`` against a variable (a binding
    occurrence if ``<x>`` is new in this production, a consistency test
    otherwise).  Conjunctive restrictions ``^size { > 2 < <max> }``
    expand to several AttrTests on the same attribute.
    """

    attr: str
    predicate: Predicate
    operand: Operand

    def is_constant_test(self) -> bool:
        """True when the operand is a literal or a value disjunction
        (both decidable from one wme: alpha-network eligible)."""
        return isinstance(self.operand, (Constant, Disjunction))

    def evaluate_constant(self, actual: Value) -> bool:
        """Evaluate this (constant) test against an attribute value."""
        if isinstance(self.operand, Disjunction):
            return self.operand.matches(actual)
        assert isinstance(self.operand, Constant)
        return self.predicate.apply(actual, self.operand.value)

    def __str__(self) -> str:
        pred = "" if self.predicate is Predicate.EQ else f"{self.predicate.value} "
        return f"^{self.attr} {pred}{self.operand}"


@dataclass(frozen=True)
class ConditionElement:
    """One pattern of a production LHS.

    Parameters
    ----------
    cls:
        Required element class; ``(block ...)`` only matches wmes of class
        ``block``.
    tests:
        The attribute restrictions, in source order.
    negated:
        True for ``-(...)`` CEs, satisfied only when *no* wme matches.
    """

    cls: str
    tests: Tuple[AttrTest, ...] = ()
    negated: bool = False

    def variables(self) -> Tuple[str, ...]:
        """Names of the variables mentioned by this CE, in first-use order."""
        seen: List[str] = []
        for test in self.tests:
            if isinstance(test.operand, Variable) and test.operand.name not in seen:
                seen.append(test.operand.name)
        return tuple(seen)

    def constant_tests(self) -> Tuple[AttrTest, ...]:
        """The subset of tests with literal operands (alpha tests)."""
        return tuple(t for t in self.tests if t.is_constant_test())

    def variable_tests(self) -> Tuple[AttrTest, ...]:
        """The subset of tests whose operand is a variable."""
        return tuple(t for t in self.tests if not t.is_constant_test())

    def __str__(self) -> str:
        inner = " ".join([self.cls] + [str(t) for t in self.tests])
        return f"-({inner})" if self.negated else f"({inner})"


# ---------------------------------------------------------------------------
# RHS actions
# ---------------------------------------------------------------------------

#: Arithmetic operators accepted inside ``(compute ...)``.
COMPUTE_OPS = ("+", "-", "*", "//", "\\\\")


@dataclass(frozen=True)
class ComputeExpr:
    """An RHS arithmetic expression: ``(compute <n> + 1)``.

    ``items`` alternates terms (constants/variables) and operator
    symbols; evaluation is strictly **left to right** with no
    precedence, e.g. ``(compute 2 + 3 * 4)`` is 20.  (Classic OPS5
    evaluates compute right to left; we document the deviation — left
    to right matches how the expression reads and is what every modern
    clone does.)  ``//`` is integer division, ``\\\\`` is modulus, as
    in OPS5.
    """

    items: Tuple[Union[Constant, Variable, str], ...]

    def __post_init__(self) -> None:
        if not self.items or len(self.items) % 2 == 0:
            raise SemanticError(
                "compute needs an odd-length term/op alternation")
        for i, item in enumerate(self.items):
            if i % 2 == 0:
                if not isinstance(item, (Constant, Variable)):
                    raise SemanticError(
                        f"compute term {item!r} must be a constant or "
                        f"variable")
            elif item not in COMPUTE_OPS:
                raise SemanticError(f"unknown compute operator {item!r}")

    def variables(self) -> Tuple[str, ...]:
        return tuple(item.name for item in self.items
                     if isinstance(item, Variable))

    def __str__(self) -> str:
        parts = [str(i) for i in self.items]
        return f"(compute {' '.join(parts)})"


@dataclass(frozen=True)
class RHSValue:
    """A value position on the RHS: constant, variable, or a
    ``(compute ...)`` arithmetic expression."""

    operand: Union[Constant, Variable, ComputeExpr]

    def variables(self) -> Tuple[str, ...]:
        """Variable names this value position reads."""
        if isinstance(self.operand, Variable):
            return (self.operand.name,)
        if isinstance(self.operand, ComputeExpr):
            return self.operand.variables()
        return ()

    def __str__(self) -> str:
        return str(self.operand)


@dataclass(frozen=True)
class MakeAction:
    """``(make cls ^attr val ...)`` — add a wme."""

    cls: str
    assignments: Tuple[Tuple[str, RHSValue], ...] = ()

    def __str__(self) -> str:
        parts = [f"make {self.cls}"]
        parts += [f"^{a} {v}" for a, v in self.assignments]
        return f"({' '.join(parts)})"


@dataclass(frozen=True)
class RemoveAction:
    """``(remove k ...)`` — delete the wme(s) matching CE index k (1-based)."""

    ce_indices: Tuple[int, ...]

    def __str__(self) -> str:
        return f"(remove {' '.join(str(i) for i in self.ce_indices)})"


@dataclass(frozen=True)
class ModifyAction:
    """``(modify k ^attr val ...)`` — delete + re-add the CE-k wme, updated."""

    ce_index: int
    assignments: Tuple[Tuple[str, RHSValue], ...] = ()

    def __str__(self) -> str:
        parts = [f"modify {self.ce_index}"]
        parts += [f"^{a} {v}" for a, v in self.assignments]
        return f"({' '.join(parts)})"


@dataclass(frozen=True)
class WriteAction:
    """``(write ...)`` — emit values to the interpreter's output stream."""

    values: Tuple[RHSValue, ...] = ()

    def __str__(self) -> str:
        return f"(write {' '.join(str(v) for v in self.values)})"


@dataclass(frozen=True)
class HaltAction:
    """``(halt)`` — stop the MRA loop after this firing."""

    def __str__(self) -> str:
        return "(halt)"


@dataclass(frozen=True)
class BindAction:
    """``(bind <var> value)`` — bind an RHS-local variable."""

    variable: str
    value: RHSValue

    def __str__(self) -> str:
        return f"(bind <{self.variable}> {self.value})"


Action = Union[MakeAction, RemoveAction, ModifyAction, WriteAction,
               HaltAction, BindAction]


@dataclass(frozen=True)
class Production:
    """A complete OPS5 production: name, LHS condition elements, RHS actions."""

    name: str
    lhs: Tuple[ConditionElement, ...]
    rhs: Tuple[Action, ...] = ()

    def __post_init__(self) -> None:
        self.validate()

    def positive_ces(self) -> Tuple[Tuple[int, ConditionElement], ...]:
        """The non-negated CEs with their 1-based LHS positions."""
        return tuple((i + 1, ce) for i, ce in enumerate(self.lhs)
                     if not ce.negated)

    def specificity(self) -> int:
        """Number of tests in the LHS; the LEX tie-breaker."""
        return self._specificity

    @cached_property
    def _specificity(self) -> int:
        return sum(1 + len(ce.tests) for ce in self.lhs)

    def validate(self) -> None:
        """Check the structural rules OPS5 imposes; raise SemanticError.

        * The LHS must contain at least one CE, and the first CE must be
          positive (OPS5 requires it; negation needs a prior positive
          context).
        * ``remove``/``modify`` indices must name positive CEs.
        * RHS variables must be bound on the LHS or by an earlier ``bind``.
        """
        if not self.lhs:
            raise SemanticError(f"production {self.name}: empty LHS")
        if self.lhs[0].negated:
            raise SemanticError(
                f"production {self.name}: first CE may not be negated")

        positive_indices = {i for i, _ in self.positive_ces()}
        bound: set[str] = set()
        for ce in self.lhs:
            if not ce.negated:
                bound.update(ce.variables())

        for action in self.rhs:
            if isinstance(action, (RemoveAction,)):
                for idx in action.ce_indices:
                    if idx not in positive_indices:
                        raise SemanticError(
                            f"production {self.name}: remove references CE "
                            f"{idx}, which is not a positive CE")
            if isinstance(action, ModifyAction):
                if action.ce_index not in positive_indices:
                    raise SemanticError(
                        f"production {self.name}: modify references CE "
                        f"{action.ce_index}, which is not a positive CE")
            for value in _action_values(action):
                for var in value.variables():
                    if var not in bound:
                        raise SemanticError(
                            f"production {self.name}: RHS uses unbound "
                            f"variable <{var}>")
            if isinstance(action, BindAction):
                bound.add(action.variable)

    def __str__(self) -> str:
        lhs = "\n  ".join(str(ce) for ce in self.lhs)
        rhs = "\n  ".join(str(a) for a in self.rhs)
        return f"(p {self.name}\n  {lhs}\n  -->\n  {rhs})"


def _action_values(action: Action) -> Sequence[RHSValue]:
    """All RHSValue positions of *action*, for validation sweeps."""
    if isinstance(action, MakeAction):
        return [v for _, v in action.assignments]
    if isinstance(action, ModifyAction):
        return [v for _, v in action.assignments]
    if isinstance(action, WriteAction):
        return list(action.values)
    if isinstance(action, BindAction):
        return [action.value]
    return []


@dataclass(frozen=True)
class Program:
    """A parsed OPS5 source file: productions plus initial-WM directives."""

    productions: Tuple[Production, ...]
    initial_wmes: Tuple[Tuple[str, Tuple[Tuple[str, Value], ...]], ...] = ()

    def production(self, name: str) -> Production:
        """Look up a production by name (raises KeyError if missing)."""
        for p in self.productions:
            if p.name == name:
                return p
        raise KeyError(name)
