"""Rete match engine with hashed memories (paper Sections 2.2 and 3.1).

The central class is :class:`ReteNetwork`, a drop-in
:class:`~repro.ops5.matcher.Matcher` for the OPS5 interpreter::

    from repro.ops5 import Interpreter, parse_program
    from repro.rete import ReteNetwork

    interp = Interpreter(matcher=ReteNetwork())
    interp.load_program(parse_program(source))
    interp.run()

While anything listens, the network writes every two-input and terminal
activation as one row to its activation log
(:class:`~repro.rete.stats.ActivationLog`) — that is how
:mod:`repro.trace` records simulator input.  Attach an observer to
``network.observers`` to receive the same activations as
:class:`ActivationEvent` objects, in post-order after each wave.

:class:`NetworkBuilder` owns the network's structure (the node
descriptors of :mod:`repro.rete.nodes`), and :class:`ReteKernel` lowers
it into the one production engine.  The original object-dispatch engine
is an oracle only: import it from :mod:`repro.rete._reference`.
"""

from .builder import CEAnalysis, NetworkBuilder, ReteError, analyze_ce
from .dot import save_dot, to_dot
from .footprint import (INLINE_BYTES_PER_NODE, STRUCT_BYTES_PER_NODE,
                        Partitioning, inline_bytes, partition_nodes,
                        partitions_needed, struct_bytes)
from .hashing import BucketKey, bucket_index, fnv1a, stable_hash
from .kernel import ReteKernel
from .memory import FlatMemories
from .network import ReteNetwork
from .nodes import (AlphaPattern, BetaNode, JoinNode, NegativeNode,
                    ProductionNode)
from .stats import ActivationCounter, ActivationEvent, ActivationLog
from .tokens import MINUS, PLUS
from .transform import (build_network, build_unshared_network,
                        copy_and_constraint_ranges,
                        copy_and_constraint_values, sharing_factor)

__all__ = [
    "CEAnalysis", "NetworkBuilder", "ReteError", "analyze_ce",
    "BucketKey", "bucket_index", "fnv1a", "stable_hash",
    "FlatMemories",
    "ReteKernel",
    "ReteNetwork",
    "AlphaPattern", "BetaNode", "JoinNode", "NegativeNode",
    "ProductionNode",
    "ActivationCounter", "ActivationEvent", "ActivationLog",
    "MINUS", "PLUS",
    "build_network", "build_unshared_network",
    "copy_and_constraint_ranges", "copy_and_constraint_values",
    "sharing_factor",
    "INLINE_BYTES_PER_NODE", "STRUCT_BYTES_PER_NODE", "Partitioning",
    "inline_bytes", "partition_nodes", "partitions_needed",
    "struct_bytes",
    "save_dot", "to_dot",
]
