"""Trace diagnostics: detect the paper's speedup limiters automatically.

Section 5.2 identifies four phenomena by inspecting traces by hand:

* **small cycles** — cycles with ≲100 tokens, which "limit speedups"
  (Section 5.2.1);
* **bottleneck generators** — a few activations generating most of a
  cycle's tokens (Weaver's 3-of-150), fixable by unsharing or dummy
  nodes;
* **cross-products with no hashing** — a node whose equality-test list
  is empty funnels every token into one bucket (Tourney), fixable by
  copy-and-constraint;
* **the multiple-modify effect** — alternating delete/add streams into
  one bucket caused by modify actions.

:func:`diagnose` runs all detectors over a section trace and returns
:class:`Finding` records with the paper's recommended remedy, so the
whole Section 5.2 methodology is executable.  The detectors read each
cycle's :meth:`~repro.trace.events.CycleKeyIndex.two_input_rows`::

    for finding in diagnose(trace):
        print(finding)
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import ne
from typing import Dict, List, Tuple

from ..rete.hashing import BucketKey
from ..trace.events import TAG_MINUS, SectionTrace

#: "Small cycles are those with few (100 or less) tokens in them."
SMALL_CYCLE_TOKENS = 100

#: A generator is a bottleneck when this fraction of a cycle's
#: activations flows from it (3 activations making 120 of 150 ≈ 0.8 of
#: the generated tokens from 2% of the activations).
BOTTLENECK_SHARE = 0.5

#: Minimum activations in one bucket of one cycle to call it a hot
#: (non-discriminating) bucket.
HOT_BUCKET_TOKENS = 50


@dataclass(frozen=True)
class Finding:
    """One detected phenomenon with its paper-recommended remedy."""

    kind: str            # "small-cycle" | "bottleneck-generator" |
    #                      "cross-product" | "multiple-modify"
    cycle_index: int     # -1 for section-wide findings
    node_id: int         # -1 when not tied to a node
    detail: str
    remedy: str

    def __str__(self) -> str:
        where = (f"cycle {self.cycle_index}" if self.cycle_index >= 0
                 else "section")
        node = f", node {self.node_id}" if self.node_id >= 0 else ""
        return f"[{self.kind}] {where}{node}: {self.detail} " \
               f"-> {self.remedy}"


def find_small_cycles(trace: SectionTrace,
                      threshold: int = SMALL_CYCLE_TOKENS
                      ) -> List[Finding]:
    """Cycles with at most *threshold* two-input tokens."""
    findings = []
    for cycle in trace:
        n = len(cycle.key_index().two_input_rows())
        if 0 < n <= threshold:
            findings.append(Finding(
                kind="small-cycle", cycle_index=cycle.index, node_id=-1,
                detail=f"{n} tokens",
                remedy="process the affected productions on a single "
                       "processor to avoid communication overheads "
                       "(Section 5.2.1)"))
    return findings


def find_bottleneck_generators(trace: SectionTrace,
                               share: float = BOTTLENECK_SHARE
                               ) -> List[Finding]:
    """Nodes whose few activations generate most of a cycle's tokens."""
    findings = []
    for cycle in trace:
        rows = cycle.key_index().two_input_rows()
        total_generated = sum(len(kids) for _, _, kids in rows)
        if total_generated == 0:
            continue
        by_node: Dict[int, Tuple[int, int]] = {}
        for key, _, kids in rows:
            count, generated = by_node.get(key.node_id, (0, 0))
            by_node[key.node_id] = (count + 1, generated + len(kids))
        n_acts = len(rows)
        for node_id, (count, generated) in sorted(by_node.items()):
            if generated >= share * total_generated \
                    and count <= max(3, n_acts // 10):
                findings.append(Finding(
                    kind="bottleneck-generator",
                    cycle_index=cycle.index, node_id=node_id,
                    detail=f"{count} activations generate {generated} "
                           f"of {total_generated} tokens",
                    remedy="unshare the node, or insert dummy nodes, "
                           "or apply copy-and-constraint "
                           "(Section 5.2.1)"))
    return findings


def find_cross_products(trace: SectionTrace,
                        threshold: int = HOT_BUCKET_TOKENS
                        ) -> List[Finding]:
    """Buckets absorbing many tokens in one cycle.

    A valueless bucket key means the node tests no variable — the
    hashing scheme cannot discriminate at all (Tourney's case); keys
    with values can still be hot when the data lacks variety.
    """
    findings = []
    for cycle in trace:
        per_bucket = Counter(key for key, _, _ in
                             cycle.key_index().two_input_rows())
        for key, count in sorted(per_bucket.items(),
                                 key=lambda kv: -kv[1]):
            if count < threshold:
                break
            no_hash = not key.values
            findings.append(Finding(
                kind="cross-product", cycle_index=cycle.index,
                node_id=key.node_id,
                detail=f"{count} tokens in one bucket"
                       + (" (no variable tested: no hashing "
                          "discrimination)" if no_hash else ""),
                remedy="apply copy-and-constraint to split the culprit "
                       "production (Section 5.2.2)"))
    return findings


def find_multiple_modify(trace: SectionTrace,
                         min_pairs: int = 10) -> List[Finding]:
    """Buckets receiving interleaved delete/add streams.

    The signature of the multiple-modify effect: within one cycle, one
    bucket sees many deletes each (re)followed by adds.
    """
    findings = []
    for cycle in trace:
        deletes_of: Dict[BucketKey, List[bool]] = {}
        for key, code, _ in cycle.key_index().two_input_rows():
            deletes_of.setdefault(key, []).append(code & TAG_MINUS > 0)
        storms = []
        for key, stream in deletes_of.items():
            deletes = stream.count(True)
            adds = len(stream) - deletes
            if deletes < min_pairs or adds < min_pairs:
                continue
            flips = sum(map(ne, stream, stream[1:]))
            if flips >= min_pairs:
                storms.append((key, adds, deletes, flips))
        # Only the storms are sorted: ordering every key of the cycle
        # cost most of the detector's time.
        for key, adds, deletes, flips in sorted(storms):
            findings.append(Finding(
                kind="multiple-modify", cycle_index=cycle.index,
                node_id=key.node_id,
                detail=f"{adds} adds / {deletes} deletes "
                       f"interleaved ({flips} alternations) in one "
                       f"bucket",
                remedy="a modify storm on wmes matching one "
                       "production; consider restructuring the "
                       "modifies (Section 5.2.2)"))
    return findings


def diagnose(trace: SectionTrace) -> List[Finding]:
    """Run every detector, ordered by cycle then kind."""
    findings = (find_small_cycles(trace)
                + find_bottleneck_generators(trace)
                + find_cross_products(trace)
                + find_multiple_modify(trace))
    return sorted(findings,
                  key=lambda f: (f.cycle_index, f.kind, f.node_id))


#: Minimum share of measured idle time for a category to be reported.
MEASURED_IDLE_SHARE = 0.15

_MEASURED_REMEDIES = {
    "broadcast_floor":
        "cycles too small to amortize the serial broadcast and constant "
        "tests; process the affected productions on a single processor "
        "(Section 5.2.1)",
    "chain_wait":
        "long dependent chains starve the other processors; unshare the "
        "generating nodes or insert dummy nodes (Section 5.2.1)",
    "comm_overhead":
        "per-message handling dominates the waits; reduce message "
        "overheads or coarsen the granularity (Section 5.1)",
    "imbalance":
        "dominant buckets unbalance the load; apply copy-and-constraint "
        "or the idealized greedy distribution (Sections 5.2.2 and 3.3)",
    "protocol":
        "protocol and fault machinery (stalls, timeouts, recoveries) "
        "dominates; tune the retransmit protocol or fix the network",
}


def diagnose_measured(trace: SectionTrace, n_procs: int = 16,
                      overheads=None) -> List[Finding]:
    """Findings from a *measured* idle-time attribution (not heuristics).

    Simulates *trace* on *n_procs* processors with a timeline recorder,
    runs :func:`repro.mpc.attribution.attribute_timeline`, and reports
    every idle category holding at least :data:`MEASURED_IDLE_SHARE` of
    the measured idle time, largest first.  This is the closed loop the
    static detectors above approximate: the simulator *measures* which
    limiter actually dominates.
    """
    from ..mpc import RunConfig, attribute_timeline, simulate_config
    from ..mpc.costmodel import TABLE_5_1
    from ..mpc.timeline import TimelineRecorder
    if overheads is None:
        overheads = next(o for o in TABLE_5_1 if o.total_us == 8)
    recorder = TimelineRecorder()
    simulate_config(trace, RunConfig(n_procs=n_procs,
                                     overheads=overheads,
                                     recorder=recorder))
    return _idle_findings(
        attribute_timeline(recorder.timeline), "measured-idle",
        f"idle time at {n_procs} procs ({overheads.label()} overheads)")


def diagnose_live(timeline) -> List[Finding]:
    """Findings from a live traced run's measured attribution.

    Same closed loop as :func:`diagnose_measured`, but the numbers are
    wall-clock truth from a traced ``actors`` run: *timeline* is the
    :class:`~repro.obs.trace.LiveTimeline` off ``RunResult.live``
    (``repro run --backend actors --trace-live``).  Attribution comes
    from :func:`repro.obs.trace.live_attribution` — the same
    category vocabulary as the simulator's, so the remedies carry
    over verbatim and a sim-vs-live comparison is category-by-category.
    """
    from ..obs.trace import live_attribution
    return _idle_findings(
        live_attribution(timeline), "live-idle",
        f"measured live idle time on {timeline.n_procs} actors "
        f"({timeline.transport} transport)")


def _idle_findings(section, kind: str, what: str) -> List[Finding]:
    """One *kind* finding per idle category of *section* (a
    :class:`~repro.mpc.attribution.SectionAttribution`) holding at
    least :data:`MEASURED_IDLE_SHARE` of its idle time, largest first;
    *what* names the idle time in each finding's detail."""
    shares = section.idle_shares()
    idle_by_category = section.idle_by_category()
    findings = []
    for category in sorted(shares, key=lambda c: -shares[c]):
        if shares[category] < MEASURED_IDLE_SHARE:
            continue
        findings.append(Finding(
            kind=kind, cycle_index=-1, node_id=-1,
            detail=f"{shares[category]:.0%} of {what} is {category} "
                   f"({idle_by_category[category] / 1000:.2f} ms of "
                   f"{section.idle_us / 1000:.2f} ms)",
            remedy=_MEASURED_REMEDIES[category]))
    return findings
