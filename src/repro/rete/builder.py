"""Compilation of OPS5 productions into the Rete network.

The builder analyses each condition element into:

* an **alpha specification** — class test, constant tests and intra-CE
  variable-consistency tests (everything decidable from one wme);
* **equality join tests** against variables bound by earlier CEs — these
  become the hash-bucket key of the two-input node (paper Section 3.1);
* **residual join tests** — non-equality predicates against earlier
  bindings, evaluated after the bucket lookup;
* **new bindings** — variables first bound by this CE.

Nodes are *shared* between productions whenever the parent beta node, the
alpha pattern and all tests coincide — the sharing whose removal the
paper studies in Section 5.2.1 (Figure 5-3).

:class:`NetworkBuilder` owns the resulting structure — the alpha
patterns, their subscriptions, the beta nodes and terminals, and each
production's node ids — as public fields.  It is the network's one
intermediate representation: the flat kernel lowers it, the reference
engine wraps it, and dot export and the footprint analysis read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..ops5.ast import (AttrTest, ConditionElement, Predicate,
                        Production, Variable)
from .nodes import (AlphaPattern, BetaNode, BindingSpec, EqTest, IntraTest,
                    JoinNode, NegativeNode, ProductionNode, ResidualTest)


class ReteError(Exception):
    """Raised on illegal network operations (e.g. late production adds)."""


@dataclass(frozen=True)
class CEAnalysis:
    """The compiled form of one condition element, given prior bindings."""

    cls: str
    const_tests: Tuple[AttrTest, ...]
    intra_tests: Tuple[IntraTest, ...]
    always_false: bool
    eq_tests: Tuple[EqTest, ...]
    residual_tests: Tuple[ResidualTest, ...]
    new_bindings: Tuple[BindingSpec, ...]


def analyze_ce(ce: ConditionElement, bound: Set[str]) -> CEAnalysis:
    """Split *ce*'s tests into alpha/join/binding components.

    *bound* is the set of variables bound by earlier positive CEs.
    Mirrors the sequential semantics of the naive matcher exactly,
    including the always-fails case of a non-equality predicate applied
    to a variable with no prior binding.
    """
    const_tests: List[AttrTest] = []
    intra_tests: List[IntraTest] = []
    eq_tests: List[EqTest] = []
    residual_tests: List[ResidualTest] = []
    new_bindings: List[BindingSpec] = []
    ce_local: Dict[str, str] = {}  # var -> attr of first in-CE binding
    always_false = False

    for test in ce.tests:
        operand = test.operand
        if test.is_constant_test():
            const_tests.append(test)
            continue
        assert isinstance(operand, Variable)
        var = operand.name
        if var in bound:
            if test.predicate is Predicate.EQ:
                eq_tests.append((var, test.attr))
            else:
                residual_tests.append((var, test.predicate, test.attr))
        elif var in ce_local:
            intra_tests.append((ce_local[var], test.predicate, test.attr))
        else:
            if test.predicate is Predicate.EQ:
                ce_local[var] = test.attr
                new_bindings.append((var, test.attr))
            else:
                # Unbound variable under a relational predicate: the CE
                # can never match (naive-matcher parity).
                always_false = True

    return CEAnalysis(
        cls=ce.cls,
        const_tests=tuple(const_tests),
        intra_tests=tuple(intra_tests),
        always_false=always_false,
        eq_tests=tuple(sorted(eq_tests)),
        residual_tests=tuple(sorted(residual_tests,
                                    key=lambda t: (t[0], t[1].value, t[2]))),
        new_bindings=tuple(sorted(new_bindings)),
    )


#: Identifies a beta node's position for sharing: either the CE1 alpha
#: pattern (+ its binding spec) or an interior node id.
ParentKey = Tuple


class Subscription:
    """Delivery of an alpha pattern's matches to one beta-node input."""

    __slots__ = ("node", "side", "unit_bindings")

    def __init__(self, node: BetaNode, side: str,
                 unit_bindings: Tuple[BindingSpec, ...] = ()) -> None:
        self.node = node
        self.side = side  # "left" (unit tokens) or "right" (raw wmes)
        self.unit_bindings = unit_bindings


class NetworkBuilder:
    """Incrementally compiles productions into one network's structure.

    Node ids and pattern ids count from 1 in creation order; a parent
    node always has a smaller id than its children.  Once
    :attr:`sealed` (the first wme has entered the network), adding a
    production raises :class:`ReteError`: backfilling the memories of
    freshly created (possibly shared) nodes is not supported, and
    silently wrong matches would be worse than an error.
    """

    def __init__(self, share: bool = True) -> None:
        #: When False, two-input nodes are never shared between
        #: productions — the global form of the paper's Section 5.2.1
        #: "unsharing" transformation (Figure 5-3).
        self.share = share
        self.sealed = False
        self.alpha_patterns: List[AlphaPattern] = []
        #: pattern id -> the node inputs its matches feed, in wiring order
        self.subscriptions: Dict[int, List[Subscription]] = {}
        #: node id -> join, negative or terminal node, in creation order
        self.beta_nodes: Dict[int, BetaNode] = {}
        self.terminals: List[ProductionNode] = []
        #: two-input node ids used by each production (shared nodes
        #: appear under every production using them); the Section 3.1
        #: partitioning constraint needs this.
        self.production_nodes: Dict[str, List[int]] = {}
        self._alpha_by_sig: Dict[Tuple, AlphaPattern] = {}
        self._node_by_share_key: Dict[Tuple, BetaNode] = {}

    # -- alpha network --------------------------------------------------------

    def _get_alpha(self, analysis: CEAnalysis) -> AlphaPattern:
        probe = AlphaPattern(pattern_id=-1, cls=analysis.cls,
                             const_tests=analysis.const_tests,
                             intra_tests=analysis.intra_tests,
                             always_false=analysis.always_false)
        sig = probe.signature()
        existing = self._alpha_by_sig.get(sig)
        if existing is not None:
            return existing
        pattern = AlphaPattern(pattern_id=len(self.alpha_patterns) + 1,
                               cls=analysis.cls,
                               const_tests=analysis.const_tests,
                               intra_tests=analysis.intra_tests,
                               always_false=analysis.always_false)
        self._alpha_by_sig[sig] = pattern
        self.alpha_patterns.append(pattern)
        self.subscriptions[pattern.pattern_id] = []
        return pattern

    def _subscribe(self, pattern: AlphaPattern, node: BetaNode, side: str,
                   unit_bindings: Tuple[BindingSpec, ...] = ()) -> None:
        self.subscriptions[pattern.pattern_id].append(
            Subscription(node, side, unit_bindings))

    # -- beta network -----------------------------------------------------------

    def add_production(self, production: Production) -> ProductionNode:
        """Compile *production*, sharing nodes with earlier productions."""
        if self.sealed:
            raise ReteError(
                "productions must be added before any wme; "
                "rebuild the network to change the rule set")
        bound: Set[str] = set()
        parent_key: Optional[ParentKey] = None
        parent_node: Optional[BetaNode] = None
        first_alpha: Optional[AlphaPattern] = None
        first_bindings: Tuple[BindingSpec, ...] = ()
        used_nodes: List[int] = []

        for index, ce in enumerate(production.lhs):
            analysis = analyze_ce(ce, bound)
            alpha = self._get_alpha(analysis)

            if index == 0:
                # CE1 contributes no two-input node; its unit tokens feed
                # the next node's left input directly.
                first_alpha = alpha
                first_bindings = analysis.new_bindings
                parent_key = ("alpha", alpha.pattern_id,
                              analysis.new_bindings)
                bound.update(var for var, _ in analysis.new_bindings)
                continue

            kind = "negative" if ce.negated else "join"
            share_key = (parent_key, alpha.pattern_id, kind,
                         analysis.eq_tests, analysis.residual_tests,
                         analysis.new_bindings)
            node = (self._node_by_share_key.get(share_key)
                    if self.share else None)
            if node is None:
                node_id = len(self.beta_nodes) + 1
                label = f"{production.name}/ce{index + 1}"
                if ce.negated:
                    node = NegativeNode(
                        node_id=node_id, label=label,
                        eq_tests=analysis.eq_tests,
                        residual_tests=analysis.residual_tests)
                else:
                    node = JoinNode(
                        node_id=node_id, label=label,
                        eq_tests=analysis.eq_tests,
                        residual_tests=analysis.residual_tests,
                        new_bindings=analysis.new_bindings)
                if self.share:
                    self._node_by_share_key[share_key] = node
                self.beta_nodes[node_id] = node
                # Wire the right input to the alpha pattern...
                self._subscribe(alpha, node, side="right")
                # ...and the left input to the parent.
                if parent_node is None:
                    assert first_alpha is not None
                    self._subscribe(first_alpha, node, side="left",
                                    unit_bindings=first_bindings)
                else:
                    parent_node.children.append(node)

            if not ce.negated:
                bound.update(var for var, _ in analysis.new_bindings)
            parent_key = ("node", node.node_id)
            parent_node = node
            used_nodes.append(node.node_id)

        pnode = ProductionNode(node_id=len(self.beta_nodes) + 1,
                               label=f"{production.name}/terminal",
                               production=production)
        self.beta_nodes[pnode.node_id] = pnode
        self.terminals.append(pnode)
        if parent_node is None:
            # Single positive CE: unit tokens go straight to the terminal.
            assert first_alpha is not None
            self._subscribe(first_alpha, pnode, side="left",
                            unit_bindings=first_bindings)
        else:
            parent_node.children.append(pnode)
        self.production_nodes[production.name] = used_nodes
        return pnode

    # -- introspection ------------------------------------------------------------

    def two_input_nodes(self) -> List[BetaNode]:
        """The join and negative nodes, in creation order."""
        return [n for n in self.beta_nodes.values()
                if not isinstance(n, ProductionNode)]
