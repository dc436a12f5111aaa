"""Tests for trace structural validation."""

import pytest

from repro.rete.hashing import BucketKey
from repro.trace import (CycleTrace, SectionTrace, TraceActivation,
                         TraceValidationError, validate_cycle,
                         validate_trace)
from repro.trace.validate import validate_rows


def act(act_id, node=1, side="left", tag="+", parent=None, succ=(),
        kind="join", key_node=None):
    return TraceActivation(
        act_id=act_id, parent_id=parent, node_id=node, kind=kind,
        side=side, tag=tag, key=BucketKey(key_node or node, ()),
        successors=tuple(succ))


def single(activation_list, index=1):
    return CycleTrace(index, {a.act_id: a for a in activation_list})


def refused(activation_list, problem):
    """Rows no table holds as written: the validator reports *problem*
    and the rows entry point refuses them with it."""
    rows = {a.act_id: a for a in activation_list}
    assert any(problem in p for p in validate_rows(1, rows))
    with pytest.raises(TraceValidationError, match=problem):
        CycleTrace(1, rows)


class TestValidateCycle:
    def test_valid_forest(self):
        cycle = single([
            act(1, side="right", succ=(2,)),
            act(2, node=2, parent=1),
        ])
        assert validate_cycle(cycle) == []

    def test_missing_parent(self):
        cycle = single([act(2, parent=9)])
        assert any("parent 9 missing" in p for p in validate_cycle(cycle))

    def test_parent_id_not_smaller(self):
        cycle = single([
            act(1, parent=2),
            act(2, succ=(1,)),
        ])
        assert any("not smaller" in p for p in validate_cycle(cycle))

    def test_dangling_successor(self):
        cycle = single([act(1, succ=(7,))])
        assert any("successor 7 missing" in p
                   for p in validate_cycle(cycle))

    def test_successor_claims_other_parent(self):
        cycle = single([
            act(1, succ=(3,)),
            act(2, succ=(3,)),
            act(3, parent=2),
        ])
        problems = validate_cycle(cycle)
        assert any("claims parent" in p or "also claimed" in p
                   for p in problems)

    def test_child_not_listed_in_parent(self):
        refused([
            act(1),
            act(2, parent=1),
        ], "not listed")

    def test_terminal_with_successors(self):
        cycle = single([
            act(1, kind="terminal", succ=(2,)),
            act(2, parent=1),
        ])
        assert any("terminal with successors" in p
                   for p in validate_cycle(cycle))

    def test_generated_right_activation_flagged(self):
        # Tokens generated at two-input nodes only produce left
        # activations (paper Section 3.2).
        cycle = single([
            act(1, succ=(2,)),
            act(2, parent=1, side="right"),
        ])
        assert any("right side" in p for p in validate_cycle(cycle))

    def test_key_node_mismatch(self):
        refused([act(1, node=1, key_node=5)], "bucket key node")

    def test_bad_tag(self):
        refused([act(1, tag="*")], "bad tag")

    def test_duplicate_act_id_rejected_at_add(self):
        with pytest.raises(ValueError):
            CycleTrace(1, {1: act(1), 2: act(1)})


class TestValidateTrace:
    def test_raises_by_default(self):
        trace = SectionTrace(name="bad",
                             cycles=[single([act(2, parent=9)])])
        with pytest.raises(TraceValidationError):
            validate_trace(trace)

    def test_collect_mode(self):
        trace = SectionTrace(name="bad",
                             cycles=[single([act(2, parent=9)])])
        problems = validate_trace(trace, raise_on_error=False)
        assert len(problems) == 1

    def test_duplicate_cycle_index(self):
        trace = SectionTrace(name="dup", cycles=[
            single([act(1)], index=3),
            single([act(1)], index=3),
        ])
        problems = validate_trace(trace, raise_on_error=False)
        assert any("duplicate cycle index" in p for p in problems)

    def test_empty_trace_is_valid(self):
        assert validate_trace(SectionTrace(name="empty")) == []
