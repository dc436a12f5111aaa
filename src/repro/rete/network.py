"""The Rete network: the paper's match engine, usable as an interpreter
matcher and as the source of hash-table activity traces.

:class:`ReteNetwork` implements the :class:`repro.ops5.matcher.Matcher`
protocol.  Working-memory deltas enter through :meth:`add_wme` /
:meth:`remove_wme`; the network propagates +/- tokens through the shared
join structure, keeps all memory-node state in the two global hash
tables, and maintains the conflict set at the terminal nodes.

Productions are compiled by a
:class:`~repro.rete.builder.NetworkBuilder`, which owns the network's
structure (alpha patterns, subscriptions, node descriptors).  The first
working-memory delta lowers that structure into a
:class:`~repro.rete.kernel.ReteKernel` — flat instruction arrays,
tuple tokens and hashed alpha dispatch — which executes all waves
from then on (DESIGN §4.5).  The original object-dispatch engine is
kept as an oracle in :mod:`repro.rete._reference`; the
``rete_fast_vs_reference`` conformance oracle pins the two to identical
conflict sets and activation-event streams.

While anything listens, every two-input/terminal activation is numbered
and written as one row to the network's
:class:`~repro.rete.stats.ActivationLog` — the raw material for the
Figure 4-1 trace, which :class:`~repro.trace.recorder.TraceRecorder`
compiles straight from the rows while it lives
(:meth:`ReteNetwork.keep_log`).
``observers`` receive the same activations as
:class:`~repro.rete.stats.ActivationEvent` objects, replayed from the log
in post-order after each wave.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..ops5.ast import Production
from ..ops5.conflict import Instantiation
from ..ops5.wme import WME
from .builder import NetworkBuilder, ReteError
from .kernel import ReteKernel
from .memory import FlatMemories
from .nodes import BetaNode
from .stats import ActivationEvent, ActivationLog
from .tokens import MINUS, PLUS

__all__ = ["ReteError", "ReteNetwork"]


class ReteNetwork:
    """A complete Rete match engine with hashed memories."""

    def __init__(self, share: bool = True) -> None:
        #: the network's structure; ``share=False`` never shares
        #: two-input nodes between productions (Figure 5-3 unsharing)
        self.builder = NetworkBuilder(share)
        self._observers: List[Callable[[ActivationEvent], None]] = []
        self._log = ActivationLog()
        self._kernel: Optional[ReteKernel] = None

    # -- Matcher protocol -----------------------------------------------------

    def add_production(self, production: Production) -> None:
        """Compile *production* into the network.

        Raises :class:`ReteError` once any wme has entered the network.
        """
        self.builder.add_production(production)
        self._kernel = None  # recompile lazily with the new topology

    def add_wme(self, wme: WME) -> None:
        """Propagate a wme addition (a + token wave) through the network."""
        self.builder.sealed = True
        (self._kernel or self._compile()).dispatch(wme, PLUS)

    def remove_wme(self, wme: WME) -> None:
        """Propagate a wme deletion (a - token wave) through the network."""
        self.builder.sealed = True
        (self._kernel or self._compile()).dispatch(wme, MINUS)

    def conflict_set(self) -> List[Instantiation]:
        """All live instantiations across the terminal nodes."""
        return (self._kernel or self._compile()).conflict_set()

    # -- kernel management ----------------------------------------------------

    def _compile(self) -> ReteKernel:
        """Lower the builder's structure into the flat kernel."""
        kernel = ReteKernel(self.builder, self._observers, self._log)
        self._kernel = kernel
        return kernel

    @property
    def observers(self) -> List[Callable[[ActivationEvent], None]]:
        """Call-backs receiving every :class:`ActivationEvent`, in
        post-order once each wave is done.

        The kernel holds this same list: append to it or remove from it
        in place (the attribute cannot be rebound).
        """
        return self._observers

    def keep_log(self, reader: object) -> ActivationLog:
        """The network's activation log, with every row written from
        now on kept for as long as *reader* (or another reader) lives."""
        self._log.keep(reader)
        return self._log

    @property
    def kernel(self) -> ReteKernel:
        """The compiled kernel (compiling on first access)."""
        return self._kernel or self._compile()

    @property
    def memories(self) -> FlatMemories:
        """The global left/right memory tables of the compiled kernel."""
        return (self._kernel or self._compile()).memories

    # -- introspection -----------------------------------------------------------------

    @property
    def production_nodes(self) -> Dict[str, List[int]]:
        """Two-input node ids used by each production."""
        return self.builder.production_nodes

    def two_input_nodes(self) -> List[BetaNode]:
        """The join and negative nodes, in creation order."""
        return self.builder.two_input_nodes()

    def node_count(self) -> int:
        """Number of two-input nodes (sharing metric for Fig 5-3 tests)."""
        return len(self.builder.two_input_nodes())

    def alpha_pattern_count(self) -> int:
        return len(self.builder.alpha_patterns)
