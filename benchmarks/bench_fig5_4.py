"""Figures 5-3 and 5-4: unsharing the Rete network — Weaver speedups.

Paper, Section 5.2.1: in Weaver's small cycles, three left activations
generate 120 of ~150 activations; the generating site is a bottleneck
(16 us per successor).  Unsharing the node (Figure 5-3) lets each output
branch generate its successors independently; Figure 5-4 shows "a
substantial improvement" in the Weaver speedups.

The transformation duplicates some work ("this duplication should not be
a problem"), which the bench also verifies is bounded.
"""

import pytest

from conftest import once
from repro.analysis import curve_plot, format_table
from repro.mpc import speedup_curve
from repro.trace import unshare_trace, validate_trace
from repro.workloads.weaver import HOT_NODE

PROCS = [1, 2, 4, 8, 16, 24, 32]


def test_fig5_4(benchmark, weaver, report):
    def run():
        unshared = unshare_trace(weaver, node_ids=[HOT_NODE])
        validate_trace(unshared)
        return (speedup_curve(weaver, PROCS, label="weaver"),
                speedup_curve(unshared, PROCS, label="weaver+unshare"),
                unshared)

    baseline, unshared_curve, unshared = once(benchmark, run)

    rows = [[p, baseline.speedups[i], unshared_curve.speedups[i]]
            for i, p in enumerate(PROCS)]
    text = format_table(["procs", "shared (baseline)", "unshared"],
                        rows,
                        title="Figure 5-4: Weaver speedups with "
                              "unsharing")
    text += "\n\n" + curve_plot(
        PROCS, [baseline.speedups, unshared_curve.speedups],
        ["shared", "unshared"])
    improvement = unshared_curve.peak()[1] / baseline.peak()[1]
    text += f"\n\npeak improvement: {improvement:.2f}x (paper: substantial)"
    report("fig5_4", text)

    # Substantial improvement at scale...
    assert unshared_curve.at(16) > 1.2 * baseline.at(16)
    assert unshared_curve.at(32) > 1.2 * baseline.at(32)
    # ...and no loss anywhere.
    for i in range(len(PROCS)):
        assert unshared_curve.speedups[i] >= baseline.speedups[i] - 0.05

    # Duplicated work is bounded: the unshared trace grows by at most
    # the paper's 1.1-1.6x sharing factor band (we allow up to 1.6x).
    grow = unshared.total_activations() / weaver.total_activations()
    assert 1.0 <= grow <= 1.6


def test_fig5_3_unsharing_splits_generation(benchmark, weaver):
    """Figure 5-3's structural effect: after unsharing, no single hot
    activation generates the full 40-successor fan-out."""
    unshared = once(benchmark,
                    lambda: unshare_trace(weaver, node_ids=[HOT_NODE]))
    heavy_before = weaver.cycles[1].key_index()
    heavy_after = unshared.cycles[1].key_index()
    max_before = max(map(len, heavy_before.successors))
    max_after = max(map(len, heavy_after.successors))
    assert max_before == 40
    assert max_after <= max_before / 2
