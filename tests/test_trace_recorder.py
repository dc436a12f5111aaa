"""Tests for trace recording from live Rete runs."""

import pytest

from repro.ops5 import Interpreter, parse_program
from repro.rete import ReteNetwork
from repro.trace import (KIND_TERMINAL, TraceRecorder, record_program,
                         validate_trace)

PROGRAM = """
(startup
  (make stage ^n 1)
  (make item ^v 1)
  (make item ^v 2))
(p bump
  (stage ^n <k>)
  (item ^v <k>)
  -->
  (remove 2)
  (modify 1 ^n 2))
(p done
  (stage ^n 3)
  -->
  (remove 1))
"""


def record():
    return record_program(parse_program(PROGRAM), "test-section",
                          drop_setup_cycle=False)


class TestRecording:
    def test_cycle_zero_holds_setup(self):
        trace = record()
        assert trace.cycles[0].index == 0
        assert len(trace.cycles[0]) > 0

    def test_trace_validates(self):
        assert validate_trace(record()) == []

    def test_cycles_follow_firings(self):
        trace = record()
        # one bump firing (stage 0 + item 1); stage becomes 1, no item 1
        # left... items are v=1 and v=2; stage 0 matches item... let's
        # just check setup + at least one firing cycle exist.
        assert len(trace.cycles) >= 2

    def test_roots_have_no_parent(self):
        trace = record()
        for cycle in trace:
            for root in cycle.roots():
                assert root.parent_id is None

    def test_successor_links_bidirectional(self):
        trace = record()
        for cycle in trace:
            for act in cycle:
                for succ_id in act.successors:
                    assert cycle.activations[succ_id].parent_id == \
                        act.act_id

    def test_generated_activations_are_left(self):
        trace = record()
        for cycle in trace:
            for act in cycle:
                if act.parent_id is not None and act.kind != KIND_TERMINAL:
                    assert act.side == "left"

    def test_drop_setup_cycle(self):
        full = record_program(parse_program(PROGRAM), "s",
                              drop_setup_cycle=False)
        trimmed = record_program(parse_program(PROGRAM), "s",
                                 drop_setup_cycle=True)
        assert len(trimmed.cycles) == len(full.cycles) - 1
        assert all(c.index >= 1 for c in trimmed.cycles)

    def test_stats_count_terminal_separately(self):
        trace = record()
        stats = trace.stats()
        assert stats.total == stats.left + stats.right
        assert stats.terminal >= 1  # at least one instantiation appeared

    def test_bucket_key_carries_join_values(self):
        trace = record()
        keyed = [a for c in trace for a in c
                 if a.kind != KIND_TERMINAL and a.key.values]
        # The bump production joins on <k>, so some bucket keys carry
        # the joined value.
        assert keyed, "expected at least one value-discriminated bucket"

    def test_manual_cycle_control(self):
        from repro.ops5 import parse_production
        from repro.ops5.wme import WME
        net = ReteNetwork()
        net.add_production(
            parse_production("(p r (a ^v <x>) (b ^w <x>) --> (remove 1))"))
        rec = TraceRecorder(net)
        rec.set_cycle(5)
        net.add_wme(WME(1, "a", {"v": 1}))
        rec.set_cycle(6)
        net.add_wme(WME(2, "b", {"w": 1}))
        trace = rec.section("manual")
        assert [c.index for c in trace] == [5, 6]


class TestSectionHelpers:
    def test_slice(self):
        trace = record()
        sub = trace.slice(1, 2)
        assert len(sub.cycles) == 1
        assert sub.cycles[0].index == trace.cycles[1].index

    def test_total_activations(self):
        trace = record()
        assert trace.total_activations() == \
            sum(len(c) for c in trace.cycles)

    def test_node_ids_excludes_terminals(self):
        trace = record()
        terminal_nodes = {a.node_id for c in trace for a in c
                          if a.kind == KIND_TERMINAL}
        assert not (set(trace.node_ids()) & terminal_nodes)

    def test_table_5_2_style_row(self):
        stats = record().stats()
        row = stats.row("test")
        assert "test" in row and "%" in row


def _recorded(network, source):
    """Run *source* on *network* with a recorder; (trace, recorder)."""
    program = parse_program(source)
    recorder = TraceRecorder(network)
    interpreter = Interpreter(matcher=network)
    recorder.attach(interpreter)
    interpreter.load_program(program)
    assert interpreter.run(max_cycles=5000).halted
    return recorder.section("s", drop_setup_cycle=True), recorder


def _flat(trace):
    """Everything a section records, in insertion order, with exact
    value types (``repr`` tells ``1`` from ``1.0``)."""
    return [(c.index, [(a.act_id, a.parent_id, a.node_id, a.kind, a.side,
                        a.tag, repr(a.key), a.successors)
                       for a in c.activations.values()])
            for c in trace]


class TestRecordedKernelMatchesReference:
    """The one-pass recorder over the fast kernel yields the same
    sections as over the frozen reference engine, at the benchmark's
    program sizes."""

    @pytest.mark.parametrize("name", ["rubik", "tourney", "weaver"])
    def test_sections_identical(self, name):
        from repro.rete import ReferenceReteNetwork
        from repro.workloads.match import (rubik_match_program,
                                           tourney_match_program,
                                           weaver_match_program)
        source = {
            "rubik": lambda: rubik_match_program(0, n_moves=100),
            "tourney": lambda: tourney_match_program(
                0, n_players=24, n_rounds=75),
            "weaver": lambda: weaver_match_program(0),
        }[name]()
        fast, recorder = _recorded(ReteNetwork(), source)
        reference, _ = _recorded(ReferenceReteNetwork(), source)
        assert fast.total_activations() > 0
        assert _flat(fast) == _flat(reference)
        assert fast == reference
        again = recorder.section("s", drop_setup_cycle=True)
        assert again == fast and _flat(again) == _flat(fast)
        assert again.cycles[0] is not fast.cycles[0]
