"""The Rete network: the paper's match engine, usable as an interpreter
matcher and as the source of hash-table activity traces.

:class:`ReteNetwork` implements the :class:`repro.ops5.matcher.Matcher`
protocol.  Working-memory deltas enter through :meth:`add_wme` /
:meth:`remove_wme`; the network propagates +/- tokens through the shared
join structure, keeps all memory-node state in the two global hash
tables, and maintains the conflict set at the terminal nodes.

Since the flattened-kernel rewrite (ROADMAP item 2) this class is a
*front end*: productions are compiled by the ordinary
:class:`~repro.rete.builder.NetworkBuilder` into the node-object graph
(kept for structural introspection, sharing analysis and dot export),
and the first working-memory delta lowers that graph into a
:class:`~repro.rete.kernel.ReteKernel` — flat instruction arrays, a
pooled token store and class-indexed alpha dispatch — which executes
all waves from then on.  The original object-dispatch engine survives
unchanged as :class:`repro.rete._reference.ReferenceReteNetwork`; the
``rete_fast_vs_reference`` conformance oracle pins the two to identical
conflict sets and activation-event streams.

Every two-input/terminal activation is reported to ``observers`` as an
:class:`~repro.rete.stats.ActivationEvent` — the raw material for the
Figure 4-1 trace.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..ops5.ast import Production
from ..ops5.conflict import Instantiation
from ..ops5.wme import WME
from .builder import NetworkBuilder
from .hashing import BucketKey
from .kernel import ReteKernel
from .memory import FlatMemories
from .nodes import (AlphaPattern, BetaNode, BindingSpec, JoinNode,
                    NegativeNode, ProductionNode)
from .stats import ActivationEvent
from .tokens import MINUS, PLUS


class ReteError(Exception):
    """Raised on illegal network operations (e.g. late production adds)."""


class _Subscription:
    """Delivery of an alpha pattern's matches to one beta-node input."""

    __slots__ = ("node", "side", "unit_bindings")

    def __init__(self, node: BetaNode, side: str,
                 unit_bindings: Tuple[BindingSpec, ...] = ()) -> None:
        self.node = node
        self.side = side  # "left" (unit tokens) or "right" (raw wmes)
        self.unit_bindings = unit_bindings


class ReteNetwork:
    """A complete Rete match engine with hashed memories."""

    def __init__(self, share: bool = True) -> None:
        #: When False, two-input nodes are never shared between
        #: productions — the global form of the paper's Section 5.2.1
        #: "unsharing" transformation (Figure 5-3).
        self.share = share
        self.observers: List[Callable[[ActivationEvent], None]] = []
        self._builder = NetworkBuilder(self)
        self._alpha_patterns: List[AlphaPattern] = []
        self._subscriptions: Dict[int, List[_Subscription]] = {}
        self._beta_nodes: Dict[int, BetaNode] = {}
        self._terminals: List[ProductionNode] = []
        self._productions: List[Production] = []
        #: two-input node ids used by each production (shared nodes
        #: appear under every production using them); the Section 3.1
        #: partitioning constraint needs this.
        self.production_nodes: Dict[str, List[int]] = {}
        self._next_node_id = 1
        self._next_pattern_id = 1
        self._next_act_id = 1
        self._live_wme_count = 0
        self._wmes_seen = False
        self._kernel: Optional[ReteKernel] = None

    # -- Matcher protocol -----------------------------------------------------

    def add_production(self, production: Production) -> None:
        """Compile *production* into the network.

        Must be called before any wme enters the network: backfilling the
        memories of freshly created (possibly shared) nodes is not
        supported, and silently wrong matches would be worse than an
        error.
        """
        if self._wmes_seen:
            raise ReteError(
                "productions must be added before any wme; "
                "rebuild the network to change the rule set")
        self._productions.append(production)
        self._builder.add_production(production)
        self._kernel = None  # recompile lazily with the new topology

    def add_wme(self, wme: WME) -> None:
        """Propagate a wme addition (a + token wave) through the network."""
        self._wmes_seen = True
        self._live_wme_count += 1
        (self._kernel or self._compile()).dispatch(wme, PLUS)

    def remove_wme(self, wme: WME) -> None:
        """Propagate a wme deletion (a - token wave) through the network."""
        self._wmes_seen = True
        self._live_wme_count -= 1
        (self._kernel or self._compile()).dispatch(wme, MINUS)

    def conflict_set(self) -> List[Instantiation]:
        """All live instantiations across the terminal nodes."""
        return (self._kernel or self._compile()).conflict_set()

    # -- kernel management ----------------------------------------------------

    def _compile(self) -> ReteKernel:
        """Lower the node graph into the flat kernel (idempotent)."""
        kernel = ReteKernel(self)
        self._kernel = kernel
        return kernel

    @property
    def kernel(self) -> ReteKernel:
        """The compiled kernel (compiling on first access)."""
        return self._kernel or self._compile()

    @property
    def memories(self) -> FlatMemories:
        """The global left/right memory tables of the compiled kernel."""
        return (self._kernel or self._compile()).memories

    # -- builder services -----------------------------------------------------

    def new_node_id(self) -> int:
        nid = self._next_node_id
        self._next_node_id += 1
        return nid

    def new_pattern_id(self) -> int:
        pid = self._next_pattern_id
        self._next_pattern_id += 1
        return pid

    def register_alpha(self, pattern: AlphaPattern) -> None:
        self._alpha_patterns.append(pattern)
        self._subscriptions.setdefault(pattern.pattern_id, [])

    def register_beta(self, node: BetaNode) -> None:
        self._beta_nodes[node.node_id] = node

    def register_terminal(self, node: ProductionNode) -> None:
        self._beta_nodes[node.node_id] = node
        self._terminals.append(node)

    def subscribe(self, pattern: AlphaPattern, node: BetaNode, side: str,
                  unit_bindings: Tuple[BindingSpec, ...] = ()) -> None:
        self._subscriptions[pattern.pattern_id].append(
            _Subscription(node, side, unit_bindings))

    # -- activation reporting ---------------------------------------------------------

    def emit_activation(self, node: BetaNode, side: str, tag: str,
                        key: BucketKey, parent_act: Optional[int]) -> \
            Optional[ActivationEvent]:
        """Open an activation event.  Returns None when nobody listens.

        Kept for API parity with the reference engine; the kernel emits
        its events directly (same ids, same order).
        """
        if not self.observers:
            return None
        event = ActivationEvent(
            act_id=self._next_act_id, parent_id=(
                parent_act.act_id if isinstance(parent_act, ActivationEvent)
                else parent_act),
            node_id=node.node_id, node_label=node.label,
            node_kind=node.kind, side=side, tag=tag, key=key)
        self._next_act_id += 1
        return event

    def finish_activation(self, event: Optional[ActivationEvent],
                          n_successors: int) -> None:
        """Close an activation event and deliver it to observers."""
        if event is None:
            return
        event.n_successors = n_successors
        for observer in self.observers:
            observer(event)

    # -- introspection -----------------------------------------------------------------

    @property
    def productions(self) -> Sequence[Production]:
        return tuple(self._productions)

    def two_input_nodes(self) -> List[BetaNode]:
        """The join and negative nodes, in creation order."""
        return [n for n in self._beta_nodes.values()
                if isinstance(n, (JoinNode, NegativeNode))]

    def node_count(self) -> int:
        """Number of two-input nodes (sharing metric for Fig 5-3 tests)."""
        return len(self.two_input_nodes())

    def alpha_pattern_count(self) -> int:
        return len(self._alpha_patterns)

    def node(self, node_id: int) -> BetaNode:
        return self._beta_nodes[node_id]
