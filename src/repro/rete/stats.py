"""Activation events and aggregate statistics for Rete runs.

An *activation* (paper Section 2.2) is the combined act of storing a
token in a memory node and running the associated two-input node test.
Every activation in a network run is reported to registered observers as
an :class:`ActivationEvent`; the trace recorder builds simulator input
from these, and :class:`ActivationCounter` aggregates them into the
left/right totals of the paper's Table 5-2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .hashing import BucketKey


@dataclass(slots=True)
class ActivationEvent:
    """One token/wme arrival at a two-input or terminal node.

    Attributes
    ----------
    act_id:
        Serial number within the network's lifetime; children always have
        larger ids than their parent.
    parent_id:
        The activation whose matching produced this one, or None for root
        activations generated directly by a wme change (the constant-test
        outputs of paper Section 3.2 step 2).
    node_kind:
        ``"join"``, ``"negative"`` or ``"terminal"``.
    side:
        ``"left"`` or ``"right"`` — which memory the arriving item is
        stored into.  Terminal arrivals are ``"left"`` by convention.
    tag:
        ``"+"`` or ``"-"``.
    key:
        The hash-bucket key (node id + equality-test values).
    n_successors:
        Number of successor activations this one generated (16 µs each in
        the paper's cost model).
    """

    act_id: int
    parent_id: Optional[int]
    node_id: int
    node_label: str
    node_kind: str
    side: str
    tag: str
    key: BucketKey
    n_successors: int = 0


@dataclass
class ActivationCounter:
    """Observer accumulating the Table 5-2 style counts.

    Counts *two-input node* activations only (join + negative): the paper
    counts left/right activations at two-input nodes; terminal arrivals
    are instantiation deliveries, not memory activations.
    """

    left: int = 0
    right: int = 0
    terminal: int = 0
    successors: int = 0
    by_node: Dict[int, int] = field(default_factory=dict)

    def __call__(self, event: ActivationEvent) -> None:
        if event.node_kind == "terminal":
            self.terminal += 1
            return
        if event.side == "left":
            self.left += 1
        else:
            self.right += 1
        self.successors += event.n_successors
        self.by_node[event.node_id] = self.by_node.get(event.node_id, 0) + 1

    @property
    def total(self) -> int:
        """Total two-input node activations (left + right)."""
        return self.left + self.right

    def left_fraction(self) -> float:
        """Fraction of activations that are left activations."""
        return self.left / self.total if self.total else 0.0

    def summary(self) -> str:
        """One-line summary in the Table 5-2 format."""
        lf = 100.0 * self.left_fraction()
        return (f"left={self.left} ({lf:.0f}%)  "
                f"right={self.right} ({100 - lf:.0f}%)  "
                f"total={self.total}")
