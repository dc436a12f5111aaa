"""Rete match engine with hashed memories (paper Sections 2.2 and 3.1).

The central class is :class:`ReteNetwork`, a drop-in
:class:`~repro.ops5.matcher.Matcher` for the OPS5 interpreter::

    from repro.ops5 import Interpreter, parse_program
    from repro.rete import ReteNetwork

    interp = Interpreter(matcher=ReteNetwork())
    interp.load_program(parse_program(source))
    interp.run()

Attach an observer to ``network.observers`` to see every two-input node
activation — that is how :mod:`repro.trace` records simulator input.
"""

from .builder import CEAnalysis, NetworkBuilder, analyze_ce
from .dot import save_dot, to_dot
from .footprint import (INLINE_BYTES_PER_NODE, STRUCT_BYTES_PER_NODE,
                        Partitioning, inline_bytes, partition_nodes,
                        partitions_needed, struct_bytes)
from ._reference import ReferenceReteNetwork
from .hashing import BucketKey, bucket_index, fnv1a, stable_hash
from .kernel import ReteKernel
from .memory import FlatMemories, HashedMemories
from .network import ReteError, ReteNetwork
from .nodes import (AlphaPattern, BetaNode, JoinNode, NegativeNode,
                    ProductionNode)
from .stats import ActivationCounter, ActivationEvent
from .tokens import (EMPTY_TOKEN, MINUS, PLUS, Token, TokenPool,
                     make_unit_token)
from .transform import (build_network, build_unshared_network,
                        copy_and_constraint_ranges,
                        copy_and_constraint_values, sharing_factor)

__all__ = [
    "CEAnalysis", "NetworkBuilder", "analyze_ce",
    "BucketKey", "bucket_index", "fnv1a", "stable_hash",
    "FlatMemories", "HashedMemories",
    "ReteKernel",
    "ReferenceReteNetwork", "ReteError", "ReteNetwork",
    "AlphaPattern", "BetaNode", "JoinNode", "NegativeNode",
    "ProductionNode",
    "ActivationCounter", "ActivationEvent",
    "EMPTY_TOKEN", "MINUS", "PLUS", "Token", "TokenPool",
    "make_unit_token",
    "build_network", "build_unshared_network",
    "copy_and_constraint_ranges", "copy_and_constraint_values",
    "sharing_factor",
    "INLINE_BYTES_PER_NODE", "STRUCT_BYTES_PER_NODE", "Partitioning",
    "inline_bytes", "partition_nodes", "partitions_needed",
    "struct_bytes",
    "save_dot", "to_dot",
]
