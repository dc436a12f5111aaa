"""The Rete network's structural representation: alpha patterns, join
and negative nodes, and production (terminal) nodes.

The paper's three node types (Section 2.2) map as follows:

* **Constant-test nodes** are folded into :class:`AlphaPattern` — one
  pattern per distinct (class, constant tests, intra-CE tests) triple,
  shared across productions.  The paper's simulator likewise treats all
  constant tests as a single 30 µs lump per cycle, so the internal
  topology of the constant-test part is not observable.
* **Memory nodes** are not objects at all: their contents live in the two
  global hash tables, keyed by (node id, equality-test values) — the
  paper's Section 3.1 data structure.  Each join/negative node's
  ``eq_tests`` name the values of its keys.
* **Two-input nodes** are :class:`JoinNode` / :class:`NegativeNode`.

These classes are plain descriptors — ids, labels, test and binding
specs, children — built by :class:`~repro.rete.builder.NetworkBuilder`
and read by everything else: the flat kernel
(:mod:`repro.rete.kernel`) lowers them into instruction arrays, dot
export and the footprint analysis walk them, and the reference engine
(:mod:`repro.rete._reference`) wraps them in its own executing node
types.  No node holds run state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..ops5.ast import AttrTest, Predicate
from ..ops5.wme import WME


#: Equality join test: token.binding(var) must equal wme.get(attr).
#: These tests define the hash-bucket key (paper Section 3.1).
EqTest = Tuple[str, str]  # (var, attr)

#: Residual (non-equality) join test: predicate.apply(wme[attr], binding).
ResidualTest = Tuple[str, Predicate, str]  # (var, predicate, attr)

#: Binding extraction: variable var takes the value of wme attribute attr.
BindingSpec = Tuple[str, str]  # (var, attr)

#: Intra-CE test: predicate.apply(wme[attr], wme[first_attr]).
IntraTest = Tuple[str, Predicate, str]  # (first_attr, predicate, attr)


@dataclass(frozen=True)
class AlphaPattern:
    """A shared constant-test chain ending in wme delivery.

    ``matches`` evaluates the class test, the constant tests and the
    intra-CE variable-consistency tests — everything decidable from a
    single wme.  ``always_false`` marks patterns that can never match
    (e.g. a relational test on a variable with no prior binding), kept
    for semantic parity with the naive matcher.
    """

    pattern_id: int
    cls: str
    const_tests: Tuple[AttrTest, ...] = ()
    intra_tests: Tuple[IntraTest, ...] = ()
    always_false: bool = False

    def matches(self, wme: WME) -> bool:
        if self.always_false:
            return False
        if wme.cls != self.cls:
            return False
        for test in self.const_tests:
            if not test.evaluate_constant(wme.get(test.attr)):
                return False
        for first_attr, predicate, attr in self.intra_tests:
            if not predicate.apply(wme.get(attr), wme.get(first_attr)):
                return False
        return True

    def signature(self) -> Tuple:
        """Sharing key: patterns with equal signatures are one pattern."""
        return (self.cls, tuple(sorted(self.const_tests,
                                       key=lambda t: (t.attr,
                                                      t.predicate.value,
                                                      str(t.operand)))),
                tuple(sorted(self.intra_tests,
                             key=lambda t: (t[0], t[1].value, t[2]))),
                self.always_false)


class BetaNode:
    """Base class for nodes that accept tokens on their left input."""

    def __init__(self, node_id: int, label: str) -> None:
        self.node_id = node_id
        self.label = label
        self.children: List[BetaNode] = []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} #{self.node_id} {self.label}>"


class JoinNode(BetaNode):
    """A two-input node testing joint satisfaction of CEs.

    Left input: tokens (from the parent join/negative node, or unit
    tokens made from wmes matching the first CE).  Right input: wmes
    from this CE's alpha pattern.  Memory contents are stored in the
    global hash tables under keys derived from ``eq_tests``; matches
    pass ``residual_tests`` and bind ``new_bindings``.
    """

    kind = "join"

    def __init__(self, node_id: int, label: str,
                 eq_tests: Tuple[EqTest, ...],
                 residual_tests: Tuple[ResidualTest, ...],
                 new_bindings: Tuple[BindingSpec, ...]) -> None:
        super().__init__(node_id, label)
        self.eq_tests = eq_tests
        self.residual_tests = residual_tests
        self.new_bindings = new_bindings


class NegativeNode(BetaNode):
    """A two-input node for a negated CE.

    A token passes (propagates with tag +) while *zero* wmes of the
    negated CE's alpha pattern are consistent with it.  An engine
    tracks a join count per stored token; right-side arrivals can
    therefore *retract* previously-propagated tokens (emit -) and
    right-side deletions can release them (emit +).
    """

    kind = "negative"

    def __init__(self, node_id: int, label: str,
                 eq_tests: Tuple[EqTest, ...],
                 residual_tests: Tuple[ResidualTest, ...]) -> None:
        super().__init__(node_id, label)
        self.eq_tests = eq_tests
        self.residual_tests = residual_tests


class ProductionNode(BetaNode):
    """Terminal node: full tokens become conflict-set instantiations."""

    kind = "terminal"

    def __init__(self, node_id: int, label: str, production) -> None:
        super().__init__(node_id, label)
        self.production = production
