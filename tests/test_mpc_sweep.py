"""Tests for sweep helpers (SpeedupCurve, overhead_sweep, formatting)."""

import pytest

from repro.mpc import (TABLE_5_1, OverheadModel, SpeedupCurve,
                       format_curves, overhead_sweep, speedup_curve,
                       speedup_loss)
from repro.rete.hashing import BucketKey
from repro.trace import CycleTrace, SectionTrace, TraceActivation


def fanout_trace(n_roots=24):
    acts = {}
    i = 1
    for n in range(n_roots):
        acts[i] = TraceActivation(
            act_id=i, parent_id=None, node_id=n + 1, kind="join",
            side="right", tag="+", key=BucketKey(n + 1, ()),
            successors=(i + 1,))
        acts[i + 1] = TraceActivation(
            act_id=i + 1, parent_id=i, node_id=100 + n, kind="join",
            side="left", tag="+", key=BucketKey(100 + n, ()),
            successors=())
        i += 2
    return SectionTrace(name="fan", cycles=[CycleTrace(1, acts)])


class TestSpeedupCurve:
    def test_curve_has_one_point_per_proc_count(self):
        curve = speedup_curve(fanout_trace(), [1, 2, 4])
        assert curve.proc_counts == [1, 2, 4]
        assert len(curve.speedups) == 3
        assert len(curve.results) == 3

    def test_one_processor_speedup_is_one(self):
        curve = speedup_curve(fanout_trace(), [1])
        assert curve.speedups[0] == pytest.approx(1.0)

    def test_peak(self):
        curve = SpeedupCurve(label="x", proc_counts=[1, 2, 4],
                             speedups=[1.0, 1.9, 1.5])
        assert curve.peak() == (2, 1.9)

    def test_at(self):
        curve = SpeedupCurve(label="x", proc_counts=[1, 2],
                             speedups=[1.0, 1.8])
        assert curve.at(2) == 1.8
        with pytest.raises(ValueError):
            curve.at(16)

    def test_rows_render(self):
        curve = SpeedupCurve(label="x", proc_counts=[8],
                             speedups=[3.25])
        assert curve.rows() == ["    8 procs:   3.25x"]

    def test_default_label_includes_overheads(self):
        curve = speedup_curve(fanout_trace(), [1],
                              overheads=OverheadModel(send_us=5,
                                                      recv_us=3))
        assert "8us" in curve.label

    def test_custom_mapping_for(self):
        from repro.mpc import RandomMapping
        curve = speedup_curve(
            fanout_trace(), [4],
            mapping_for=lambda p: RandomMapping(n_procs=p, seed=2))
        assert curve.speedups[0] > 0


class TestOverheadSweep:
    def test_one_curve_per_setting(self):
        curves = overhead_sweep(fanout_trace(), [1, 4])
        assert len(curves) == len(TABLE_5_1)

    def test_zero_overhead_curve_dominates(self):
        curves = overhead_sweep(fanout_trace(), [1, 4, 8])
        for i in range(len(curves[0].speedups)):
            assert curves[0].speedups[i] >= curves[3].speedups[i] - 1e-9

    def test_speedup_loss(self):
        zero = SpeedupCurve(label="0", proc_counts=[8], speedups=[10.0])
        loaded = SpeedupCurve(label="32", proc_counts=[8],
                              speedups=[7.0])
        assert speedup_loss(zero, loaded) == pytest.approx(0.3)

    def test_speedup_loss_degenerate(self):
        zero = SpeedupCurve(label="0", proc_counts=[1], speedups=[0.0])
        assert speedup_loss(zero, zero) == 0.0


class TestFormatCurves:
    def test_table_shape(self):
        curves = overhead_sweep(fanout_trace(), [1, 4])
        text = format_curves(curves, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("procs")
        assert len(lines) == 2 + 2  # header + 2 proc rows
