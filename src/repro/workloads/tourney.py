"""The "cross-product" section: Tourney (paper Section 5).

One cycle with a heavy cross-product, surrounded by four small cycles
for comparison.  Published characteristics reproduced exactly:

* Table 5-2: 10667 left activations (99%), 83 right (1%), 10750 total.
* The cross-product node tests **no variable**, so every token arriving
  at it hashes to the same bucket ("non-randomized tokens") and is
  processed serially by the bucket's owner — the section's dominant
  speedup limiter (Section 5.2.2).
* The multiple-modify effect: the cross-product bucket's traffic is an
  alternating stream of deletes and re-adds caused by modify actions on
  the wmes matching one production.
* Copy-and-constraint (Figure 5-6) splits the cross-product node and
  yields an improvement that is real but modest, because secondary hot
  buckets downstream then become the limiter (the paper additionally
  notes its baseline Tourney speedups are overestimated).

Structure of the cross-product cycle: ``CP_ROOTS`` left tokens pile into
the single bucket of node ``CP_NODE``; each generates ``CP_FANOUT``
successors at stage-2 nodes whose buckets are Zipf-skewed (the secondary
hot spots); those in turn generate a thinner, well-hashed stage 3.
"""

from __future__ import annotations

import random
from functools import lru_cache

from ..trace.events import SectionTrace
from .synthetic import TraceBuilder, partition_counts, zipf_weights

#: Table 5-2 targets.
LEFT_TOTAL = 10667
RIGHT_TOTAL = 83
N_SMALL_CYCLES = 4

#: The cross-product node (no equality test -> a single shared bucket).
CP_NODE = 50

#: Small-cycle structure.
SMALL_LEFT = 25             # left activations per small cycle
SMALL_RIGHT = 5             # right activations per small cycle

#: Cross-product cycle structure (calibrated to Figures 5-2/5-6).
CP_ROOTS = 240              # left tokens arriving at the cp bucket
CP_FANOUT = 12              # successors generated per cp token
STAGE2_NODES = 5            # nodes receiving cp successors
STAGE2_BUCKETS = 40         # distinct stage-2 buckets
STAGE2_SKEW = 0.85          # skew: a few stage-2 buckets stay hot
STAGE3_VALUE_SPACE = 400    # stage 3 hashes well
TERMINALS = 40              # instantiations out of the cp cycle


def tourney_section(seed: int = 0) -> SectionTrace:
    """The Tourney section trace (deterministic for a given seed).

    Built once per process and seed; repeated calls return the same
    shared (and therefore read-only) trace.
    """
    return _build_tourney_section(seed)


@lru_cache(maxsize=None)
def _build_tourney_section(seed: int) -> SectionTrace:
    rng = random.Random(seed)
    builder = TraceBuilder("tourney")

    cp_left = LEFT_TOTAL - N_SMALL_CYCLES * SMALL_LEFT
    cp_right = RIGHT_TOTAL - N_SMALL_CYCLES * SMALL_RIGHT
    stage2_total = CP_ROOTS * CP_FANOUT
    stage3_total = cp_left - CP_ROOTS - stage2_total
    assert stage3_total >= 0, "structure knobs exceed the left budget"

    def small_cycle() -> None:
        builder.new_cycle()
        for i in range(SMALL_RIGHT):
            builder.root(1 + i % 3, side="right",
                         values=(rng.randrange(40),))
        parents = []
        for i in range(SMALL_LEFT // 5):
            parents.append(builder.root(10 + i % 4, side="left",
                                        values=(rng.randrange(40),)))
        made = len(parents)
        i = 0
        while made < SMALL_LEFT:
            parent = parents[i % len(parents)]
            parents.append(builder.child(parent, 20 + i % 3,
                                         values=(rng.randrange(40),)))
            made += 1
            i += 1

    # Two small cycles, the cross-product cycle, two more small cycles
    # ("four small cycles that surround the cross-product cycle").
    small_cycle()
    small_cycle()

    # --- the cross-product cycle ---------------------------------------
    builder.new_cycle()
    for i in range(cp_right):
        builder.root(1 + i % 5, side="right", values=(rng.randrange(60),))

    stage2_weights = zipf_weights(STAGE2_BUCKETS, STAGE2_SKEW)
    stage2_counts = partition_counts(stage2_total, stage2_weights)
    stage2_values = list(range(STAGE2_BUCKETS))
    # How many stage-3 tokens each stage-2 token generates, on average.
    stage3_counts = partition_counts(
        stage3_total, [1.0 / stage2_total] * stage2_total)

    # The multiple-modify effect: the first half of the stream populates
    # the bucket (the tokens the earlier cycles left behind), then each
    # modify issues a delete of an old token followed by the re-add —
    # "multiple tokens headed for the same bucket, half of which are
    # adds and half are deletes".  The deletes land on a full bucket,
    # which is what makes their search expensive (footnote 6).
    cp_tokens = []
    for i in range(CP_ROOTS):
        if i < CP_ROOTS // 2:
            tag = "+"
        else:
            tag = "-" if i % 2 == 0 else "+"
        cp_tokens.append(builder.root(CP_NODE, side="left", tag=tag,
                                      values=()))

    stage2_tokens = []
    bucket_iter = [(b, n) for b, n in enumerate(stage2_counts)
                   for _ in range(n)]
    rng.shuffle(bucket_iter)
    for i, (bucket_idx, _) in enumerate(bucket_iter):
        parent = cp_tokens[i // CP_FANOUT]
        node = 60 + bucket_idx % STAGE2_NODES
        stage2_tokens.append(builder.child(
            parent, node, values=(stage2_values[bucket_idx],)))

    made = 0
    for i, count in enumerate(stage3_counts):
        for _ in range(count):
            builder.child(stage2_tokens[i], node=70 + made % 6,
                          values=(rng.randrange(STAGE3_VALUE_SPACE),))
            made += 1

    for i in range(TERMINALS):
        builder.terminal(stage2_tokens[-(i + 1)], node=900 + i % 4)

    small_cycle()
    small_cycle()

    trace = builder.build()
    stats = trace.stats()
    assert stats.left == LEFT_TOTAL, stats.left
    assert stats.right == RIGHT_TOTAL, stats.right
    return trace
