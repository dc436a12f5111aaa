"""Tests for trace recording from live Rete runs."""

import pickle

import pytest

from repro.exec import run
from repro.mpc import (FaultModel, OverheadModel, RunConfig,
                       TimelineRecorder, simulate_config,
                       simulate_dedicated_alpha, simulate_master_copy,
                       simulate_pairs, simulate_replicated,
                       simulate_shared_bus, speedup_curve)
from repro.ops5 import Interpreter, parse_production, parse_program
from repro.ops5.wme import WME
from repro.rete import ReteNetwork
from repro.rete._reference import ReferenceReteNetwork
from repro.trace import (KIND_TERMINAL, CycleKeyIndex, CycleTrace,
                         TraceRecorder, dumps_trace, record_program,
                         validate_trace)
from repro.workloads.configurator import configurator_program
from repro.workloads.match import MATCH_PROGRAMS
from repro.workloads.programs import (BLOCKS_WORLD, GRID_ROUTER,
                                      MONKEY_AND_BANANAS)
from tests.trace_recorder_reference import ReferenceTraceRecorder
from tests.trace_view import acts, roots, view

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
            for root in roots(cycle):
                assert root.parent_id is None

    def test_successor_links_bidirectional(self):
        trace = record()
        for cycle in trace:
            by_id = view(cycle)
            for act in by_id.values():
                for succ_id in act.successors:
                    assert by_id[succ_id].parent_id == act.act_id

    def test_generated_activations_are_left(self):
        trace = record()
        for cycle in trace:
            for act in acts(cycle):
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
        keyed = [a for c in trace for a in acts(c)
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
        terminal_nodes = {a.node_id for c in trace for a in acts(c)
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
                       for a in acts(c)])
            for c in trace]


class TestRecordedKernelMatchesReference:
    """The one-pass recorder over the fast kernel yields the same
    sections as over the frozen reference engine, at the benchmark's
    program sizes."""

    @pytest.mark.parametrize("name", ["rubik", "tourney", "weaver"])
    def test_sections_identical(self, name):
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


def _recorders(program, max_cycles=5000):
    """The recorder over a kernel run, and the frozen reference
    recorder over the same program on the reference engine (the
    frozen recorder reads the observer events that only the reference
    engine delivers)."""
    out = []
    for network, recorder_type in ((ReteNetwork(), TraceRecorder),
                                   (ReferenceReteNetwork(),
                                    ReferenceTraceRecorder)):
        recorder = recorder_type(network)
        interpreter = Interpreter(matcher=network)
        recorder.attach(interpreter)
        interpreter.load_program(program)
        interpreter.run(max_cycles=max_cycles)
        out.append(recorder)
    return tuple(out)


def _assert_like_frozen(recorder, frozen):
    for drop in (False, True):
        section = recorder.section("s", drop_setup_cycle=drop)
        for cycle in section:
            assert cycle.key_index() == CycleTrace(
                cycle.index, view(cycle)).key_index()
        expect = frozen.section("s", drop_setup_cycle=drop)
        assert dumps_trace(section) == dumps_trace(expect)
        assert section == expect
        assert [len(c) for c in recorder.section("s", drop)] == \
            [len(c) for c in expect]


RECORDED_PROGRAMS = {
    **{f"{name}-{seed}": (lambda gen=gen, seed=seed:
                          parse_program(gen(seed)))
       for name, gen in sorted(MATCH_PROGRAMS.items())
       for seed in range(4)},
    "blocks": lambda: parse_program(BLOCKS_WORLD),
    "monkey": lambda: parse_program(MONKEY_AND_BANANAS),
    "router": lambda: parse_program(GRID_ROUTER),
    "configurator": lambda: configurator_program(2, 2),
}


class TestRecorderMatchesFrozenCopy:
    """The recorder compiles cycles straight from the kernel's log rows;
    the sections it yields are the frozen object-building recorder's
    over the reference engine's events, byte for byte through the text
    format."""

    @pytest.mark.parametrize("name", sorted(RECORDED_PROGRAMS))
    def test_program(self, name):
        _assert_like_frozen(*_recorders(RECORDED_PROGRAMS[name]()))

    def test_sparse_act_ids(self):
        """Returning to an earlier cycle leaves a gap in its act ids."""
        network, reference = ReteNetwork(), ReferenceReteNetwork()
        for net in (network, reference):
            net.add_production(parse_production(
                "(p r (a ^v <x>) (b ^w <x>) --> (remove 1))"))
        recorder = TraceRecorder(network)
        frozen = ReferenceTraceRecorder(reference)
        for cycle, wme in [(5, WME(1, "a", {"v": 1})),
                           (6, WME(2, "b", {"w": 1})),
                           (5, WME(3, "b", {"w": 1})),
                           (6, WME(4, "a", {"v": 2}))]:
            recorder.set_cycle(cycle)
            frozen.set_cycle(cycle)
            network.add_wme(wme)
            reference.add_wme(wme)
        section = recorder.section("manual")
        first = section.cycles[0]
        index = first.key_index()
        assert len(index.tags) > len(first)
        assert 0 in index.tags
        _assert_like_frozen(recorder, frozen)

    def test_repeated_sections_are_independent(self):
        recorder, _ = _recorders(RECORDED_PROGRAMS["blocks"]())
        first = recorder.section("s")
        text = dumps_trace(first)
        second = recorder.section("s")
        assert dumps_trace(second) == text
        assert second.cycles[0] is not first.cycles[0]

    def test_pickle_round_trip(self):
        recorder, frozen = _recorders(RECORDED_PROGRAMS["rubik-0"]())
        section = recorder.section("s", drop_setup_cycle=True)
        clone = pickle.loads(pickle.dumps(section))
        assert clone == section == frozen.section("s", True)
        assert dumps_trace(clone) == dumps_trace(section)
        for cycle, copy in zip(section, clone):
            assert copy.key_index() == cycle.key_index()

    def test_recorded_pipeline_builds_no_view(self, monkeypatch):
        """Recording, simulating (every machine model included) and
        planning a live run read only the compiled tables."""
        def refuse(index):
            raise AssertionError("built a TraceActivation view")
        monkeypatch.setattr(CycleKeyIndex, "view", refuse)
        section = record_program(RECORDED_PROGRAMS["rubik-0"](), "rubik")
        assert section.total_activations() > 0
        speedup_curve(section, (1, 4, 16))
        for faults in (None, FaultModel(seed=1, loss_prob=0.1,
                                        dup_prob=0.1)):
            recorder = TimelineRecorder()
            simulate_config(section, RunConfig(
                n_procs=4, overheads=OverheadModel(send_us=5, recv_us=3),
                faults=faults, recorder=recorder))
            assert any(c.envelopes for c in recorder.timeline)
        for model in (simulate_pairs, simulate_dedicated_alpha,
                      simulate_shared_bus, simulate_replicated,
                      simulate_master_copy):
            model(section, 4)
        run(section, RunConfig(n_procs=4), backend="actors")

    @pytest.mark.parametrize("name", ["rubik-0", "tourney-0"])
    def test_recording_builds_no_activation_events(self, monkeypatch,
                                                    name):
        """The kernel writes log rows only; activation events exist
        only in the reference engine, for its observers."""
        from repro.rete._reference import ActivationEvent

        def refuse(self, *args, **kwargs):
            raise AssertionError("built an ActivationEvent")
        monkeypatch.setattr(ActivationEvent, "__init__", refuse)
        section = record_program(RECORDED_PROGRAMS[name](), name)
        assert section.total_activations() > 0
        with pytest.raises(AssertionError, match="ActivationEvent"):
            network = ReferenceReteNetwork()
            network.observers.append(lambda event: None)
            interpreter = Interpreter(matcher=network)
            interpreter.load_program(RECORDED_PROGRAMS[name]())

    def test_rewritten_and_synthetic_traces_build_no_view(self,
                                                          monkeypatch):
        from repro.trace.transform import insert_dummy_nodes, unshare_trace
        from repro.workloads import (StreamSpec, SyntheticStream,
                                     tourney_section)

        def refuse(index):
            raise AssertionError("built a TraceActivation view")
        monkeypatch.setattr(CycleKeyIndex, "view", refuse)
        base = tourney_section(0)
        rewritten = insert_dummy_nodes(unshare_trace(base),
                                       base.node_ids()[0])
        stream = SyntheticStream(StreamSpec(active_cycles=20,
                                            idle_between=3))
        for source in (rewritten, stream):
            speedup_curve(source, (1, 4, 16))
            run(source, RunConfig(n_procs=4), backend="sim")
