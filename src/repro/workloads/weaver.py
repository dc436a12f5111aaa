"""The "small cycles" section: Weaver (paper Sections 5 and 5.2.1).

Four consecutive small cycles from a VLSI-routing expert system.
Published characteristics reproduced exactly:

* Table 5-2: 338 left activations (81%), 78 right (19%), 416 total.
* Small cycles (≈100 tokens or less) limit speedup: there is simply not
  much to do in parallel, and what there is, is badly shaped — in one
  cycle, **three left activations generate 120 of its ≈150 activations**
  (Section 5.2.1).  Generating each successor costs 16 µs at the single
  site holding the bucket, so those three activations are the critical
  path.
* The bottleneck node is *shared* by several outputs (Figure 5-3's O1/O2
  shape): each hot activation's successors spread across
  ``HOT_BRANCHES`` distinct destination nodes, so unsharing the node
  splits generation across processors — Figure 5-4's substantial
  improvement.
"""

from __future__ import annotations

import random
from functools import lru_cache

from ..trace.events import SectionTrace
from .synthetic import TraceBuilder, partition_counts

#: Table 5-2 targets.
LEFT_TOTAL = 338
RIGHT_TOTAL = 78
N_CYCLES = 4

#: The shared bottleneck node of the heavy cycle.
HOT_NODE = 40

#: Heavy-cycle structure (Section 5.2.1's numbers).
HOT_ROOTS = 3               # the three producing left activations
HOT_FANOUT = 40             # successors each (3 x 40 = 120)
HOT_BRANCHES = 4            # distinct destination nodes (outputs sharing
                            # the node; what unsharing splits)
HEAVY_LEFT = 130            # 3 hot + 7 other roots + 120 generated
HEAVY_RIGHT = 20            # right activations in the heavy cycle
TERMINALS_HEAVY = 12


def weaver_section(seed: int = 0) -> SectionTrace:
    """The Weaver section trace (deterministic for a given seed).

    Built once per process and seed; repeated calls return the same
    shared (and therefore read-only) trace.
    """
    return _build_weaver_section(seed)


@lru_cache(maxsize=None)
def _build_weaver_section(seed: int) -> SectionTrace:
    rng = random.Random(seed)
    builder = TraceBuilder("weaver")

    small_left = partition_counts(LEFT_TOTAL - HEAVY_LEFT,
                                  [1.0 / (N_CYCLES - 1)] * (N_CYCLES - 1))
    small_right = partition_counts(RIGHT_TOTAL - HEAVY_RIGHT,
                                   [1.0 / (N_CYCLES - 1)] * (N_CYCLES - 1))

    def small_cycle(n_left: int, n_right: int) -> None:
        builder.new_cycle()
        for i in range(n_right):
            builder.root(1 + i % 6, side="right",
                         values=(rng.randrange(30),))
        # Small cycles carry little parallelism: a handful of chains of
        # dependent activations (each token enables the next join down).
        n_roots = max(1, n_left // 5)
        chains = [builder.root(10 + i % 5, side="left",
                               values=(rng.randrange(30),))
                  for i in range(n_roots)]
        made = n_roots
        i = 0
        while made < n_left:
            chains[i % n_roots] = builder.child(
                chains[i % n_roots], 20 + i % 4,
                values=(rng.randrange(30),))
            made += 1
            i += 1

    # Cycle 1: small.
    small_cycle(small_left[0], small_right[0])

    # Cycle 2: the heavy small cycle of Section 5.2.1.
    builder.new_cycle()
    for i in range(HEAVY_RIGHT):
        builder.root(1 + i % 6, side="right", values=(rng.randrange(30),))
    # All three producers land in one bucket of the shared node — "a
    # processor that generates such [a] large number of successors
    # becomes a bottleneck" (Section 5.2.1).
    hot_roots = [builder.root(HOT_NODE, side="left", values=())
                 for _ in range(HOT_ROOTS)]
    other_roots = [builder.root(30 + i % 3, side="left",
                                values=(rng.randrange(30),))
                   for i in range(HEAVY_LEFT - HOT_ROOTS
                                  - HOT_ROOTS * HOT_FANOUT)]
    generated = []
    for root in hot_roots:
        for j in range(HOT_FANOUT):
            # Successors cycle over the node's output branches, so each
            # hot activation feeds all HOT_BRANCHES destinations.
            dest = 41 + j % HOT_BRANCHES
            generated.append(builder.child(
                root, dest, values=(rng.randrange(50),)))
    for i in range(TERMINALS_HEAVY):
        builder.terminal(generated[i * 7 % len(generated)],
                         node=900 + i % 3)

    # Cycles 3-4: small.
    small_cycle(small_left[1], small_right[1])
    small_cycle(small_left[2], small_right[2])

    trace = builder.build()
    stats = trace.stats()
    assert stats.left == LEFT_TOTAL, stats.left
    assert stats.right == RIGHT_TOTAL, stats.right
    return trace
