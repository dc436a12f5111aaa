"""Tests for the Section 5.2 trace diagnostics."""

import pytest

from repro.analysis import (diagnose, find_bottleneck_generators,
                            find_cross_products, find_multiple_modify,
                            find_small_cycles)
from repro.rete.hashing import BucketKey
from repro.trace import CycleTrace, SectionTrace, TraceActivation
from repro.workloads import rubik_section, tourney_section, weaver_section
from repro.workloads.tourney import CP_NODE
from repro.workloads.weaver import HOT_NODE


def act(i, node, side="left", tag="+", parent=None, succ=(), vals=()):
    return TraceActivation(act_id=i, parent_id=parent, node_id=node,
                           kind="join", side=side, tag=tag,
                           key=BucketKey(node, tuple(vals)),
                           successors=tuple(succ))


def single_cycle(acts):
    return SectionTrace(name="t", cycles=[
        CycleTrace(1, {a.act_id: a for a in acts})])


class TestSmallCycles:
    def test_small_cycle_flagged(self):
        trace = single_cycle([act(i, node=i) for i in range(1, 21)])
        [finding] = find_small_cycles(trace)
        assert finding.kind == "small-cycle"
        assert "20 tokens" in finding.detail

    def test_large_cycle_not_flagged(self):
        trace = single_cycle([act(i, node=i) for i in range(1, 150)])
        assert find_small_cycles(trace) == []

    def test_empty_cycle_not_flagged(self):
        trace = SectionTrace(name="t", cycles=[CycleTrace(index=1)])
        assert find_small_cycles(trace) == []


class TestBottleneckGenerators:
    def test_concentrated_generation_flagged(self):
        acts = [act(1, node=5, succ=tuple(range(10, 40)))]
        acts += [act(i, node=9, parent=1) for i in range(10, 40)]
        acts += [act(i, node=i) for i in range(50, 70)]  # other work
        trace = single_cycle(acts)
        findings = find_bottleneck_generators(trace)
        assert any(f.node_id == 5 for f in findings)

    def test_even_generation_not_flagged(self):
        # Many generators each making one token.
        acts = []
        i = 1
        for k in range(20):
            acts.append(act(i, node=k + 1, succ=(i + 1,)))
            acts.append(act(i + 1, node=100 + k, parent=i))
            i += 2
        assert find_bottleneck_generators(single_cycle(acts)) == []


class TestCrossProducts:
    def test_hot_valueless_bucket_flagged_with_no_hash_note(self):
        trace = single_cycle([act(i, node=7) for i in range(1, 61)])
        [finding] = find_cross_products(trace)
        assert finding.node_id == 7
        assert "no hashing" in finding.detail or \
            "no variable" in finding.detail

    def test_hot_valued_bucket_flagged_without_note(self):
        trace = single_cycle([act(i, node=7, vals=("k",))
                              for i in range(1, 61)])
        [finding] = find_cross_products(trace)
        assert "no variable" not in finding.detail

    def test_spread_buckets_not_flagged(self):
        trace = single_cycle([act(i, node=7, vals=(i,))
                              for i in range(1, 61)])
        assert find_cross_products(trace) == []


class TestMultipleModify:
    def test_alternating_stream_flagged(self):
        tags = ["+", "-"] * 15
        trace = single_cycle([act(i + 1, node=3, tag=t)
                              for i, t in enumerate(tags)])
        [finding] = find_multiple_modify(trace)
        assert finding.kind == "multiple-modify"
        assert finding.node_id == 3

    def test_adds_only_not_flagged(self):
        trace = single_cycle([act(i, node=3) for i in range(1, 40)])
        assert find_multiple_modify(trace) == []

    def test_block_of_deletes_without_alternation_not_flagged(self):
        tags = ["+"] * 15 + ["-"] * 15
        trace = single_cycle([act(i + 1, node=3, tag=t)
                              for i, t in enumerate(tags)])
        # Only one alternation: a bulk retract, not a modify storm.
        assert find_multiple_modify(trace) == []


class TestOnPaperSections:
    def test_tourney_cp_node_detected(self):
        findings = find_cross_products(tourney_section())
        assert any(f.node_id == CP_NODE and "no variable" in f.detail
                   for f in findings)

    def test_tourney_multiple_modify_detected(self):
        findings = find_multiple_modify(tourney_section())
        assert any(f.node_id == CP_NODE for f in findings)

    def test_weaver_bottleneck_detected(self):
        findings = find_bottleneck_generators(weaver_section())
        assert any(f.node_id == HOT_NODE for f in findings)
        [hot] = [f for f in findings if f.node_id == HOT_NODE]
        assert "3 activations generate 120" in hot.detail

    def test_weaver_small_cycles_detected(self):
        findings = find_small_cycles(weaver_section())
        assert len(findings) >= 3

    def test_rubik_has_no_bottleneck_generator(self):
        assert find_bottleneck_generators(rubik_section()) == []

    def test_diagnose_sorts_and_merges(self):
        findings = diagnose(tourney_section())
        keys = [(f.cycle_index, f.kind, f.node_id) for f in findings]
        assert keys == sorted(keys)
        kinds = {f.kind for f in findings}
        assert {"small-cycle", "cross-product",
                "multiple-modify"} <= kinds

    def test_finding_str_is_readable(self):
        [f] = [x for x in diagnose(weaver_section())
               if x.kind == "bottleneck-generator"]
        text = str(f)
        assert "bottleneck-generator" in text
        assert "unshare" in text
