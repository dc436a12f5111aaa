"""The activation log the match engines write while anything listens,
and the adapter that replays it to observers as events in post-order.

Every case runs on the flat kernel and the reference engine and holds
the kernel to the reference's event stream (the reference delivers its
events from its own recursion, not from a log) or to the frozen
object-building recorder in ``tests/trace_recorder_reference.py``.
"""

import pytest

from repro.ops5 import Interpreter, parse_production, parse_program
from repro.ops5.wme import WME
from repro.rete import ReteNetwork
from repro.rete._reference import ReferenceReteNetwork
from repro.trace import TraceRecorder, dumps_trace
from repro.workloads.match import MATCH_PROGRAMS, adversarial_cross_product
from repro.workloads.programs import BLOCKS_WORLD, MONKEY_AND_BANANAS
from tests.rete_memory_image import left_buckets, left_state
from tests.trace_recorder_reference import ReferenceTraceRecorder
from tests.trace_view import acts

ENGINES = {"kernel": ReteNetwork, "reference": ReferenceReteNetwork}

PROGRAMS = {
    **{f"{name}-{seed}": (lambda gen=gen, seed=seed: gen(seed))
       for name, gen in sorted(MATCH_PROGRAMS.items())
       for seed in range(2)},
    "blocks": lambda: BLOCKS_WORLD,
    "monkey": lambda: MONKEY_AND_BANANAS,
}


def _event_tuple(event):
    """Every field of an event, with exact key value types."""
    return (event.act_id, event.parent_id, event.node_id,
            event.node_label, event.node_kind, event.side, event.tag,
            event.key, repr(event.key), event.n_successors)


def _drive(network, source, hooks, max_cycles=400):
    """Run *source* on *network*, calling ``hooks[k](network,
    interpreter)`` just before MRA cycle *k* (0: before the program is
    loaded)."""
    interpreter = Interpreter(matcher=network)
    if 0 in hooks:
        hooks[0](network, interpreter)
    interpreter.load_program(parse_program(source))
    for k in range(1, max_cycles + 1):
        if k in hooks:
            hooks[k](network, interpreter)
        if interpreter.step() is None:
            break
    return interpreter


class _Listeners:
    """Hooks that attach observers and recorders to a network mid-run,
    and what they collected."""

    def __init__(self):
        self.events = []
        self.recorders = []

    def observe(self, network, interpreter):
        network.observers.append(self.events.append)

    def record(self, network, interpreter):
        """A recorder and a frozen recorder, started together."""
        recorder, frozen = (TraceRecorder(network),
                            ReferenceTraceRecorder(network))
        recorder.attach(interpreter)
        frozen.attach(interpreter)
        self.recorders.append((recorder, frozen))

    def stream(self):
        return [_event_tuple(event) for event in self.events]


def _run_both(source, plan):
    """Run *source* on both engines with hooks named by *plan* (cycle ->
    list of ``_Listeners`` method names); the listeners per engine."""
    out = {}
    for name, engine in ENGINES.items():
        listeners = _Listeners()
        hooks = {k: (lambda net, interp, names=names: [
                     getattr(listeners, n)(net, interp) for n in names])
                 for k, names in plan.items()}
        _drive(engine(), source, hooks)
        out[name] = listeners
    return out


def _assert_sections(listeners):
    """Every recorder matches the frozen recorder started with it, byte
    for byte, with and without the setup cycle."""
    for recorder, frozen in listeners.recorders:
        for drop in (False, True):
            section = recorder.section("s", drop_setup_cycle=drop)
            expect = frozen.section("s", drop_setup_cycle=drop)
            assert dumps_trace(section) == dumps_trace(expect)
            assert section == expect


def _flat(section):
    return [(c.index, [(a.act_id, a.parent_id, a.node_id, a.kind, a.side,
                        a.tag, repr(a.key), a.successors)
                       for a in acts(c)])
            for c in section]


@pytest.mark.parametrize("name", sorted(PROGRAMS))
class TestObserverAdapter:
    def test_observer_alone(self, name):
        runs = _run_both(PROGRAMS[name](), {0: ["observe"]})
        stream = runs["kernel"].stream()
        assert stream and stream == runs["reference"].stream()
        # post-order: every event follows all of its successors
        seen = set()
        for event in runs["kernel"].events:
            assert event.act_id not in seen
            if event.parent_id is not None:
                assert event.parent_id not in seen
            seen.add(event.act_id)

    def test_observer_with_recorder(self, name):
        runs = _run_both(PROGRAMS[name](), {0: ["observe", "record"]})
        assert runs["kernel"].stream() == runs["reference"].stream()
        for listeners in runs.values():
            _assert_sections(listeners)
        kernel, reference = (runs[e].recorders[0][0].section("s")
                             for e in ENGINES)
        assert _flat(kernel) == _flat(reference)

    def test_observer_attached_mid_run(self, name):
        runs = _run_both(PROGRAMS[name](), {3: ["observe"]})
        stream = runs["kernel"].stream()
        assert stream == runs["reference"].stream()
        if stream:  # nothing numbered activations before the observer
            assert min(event[0] for event in stream) == 1

    def test_observer_attached_mid_run_after_a_recorder(self, name):
        runs = _run_both(PROGRAMS[name](), {0: ["record"], 3: ["observe"]})
        assert runs["kernel"].stream() == runs["reference"].stream()
        for listeners in runs.values():
            _assert_sections(listeners)

    def test_two_recorders_started_at_different_cycles(self, name):
        runs = _run_both(PROGRAMS[name](), {0: ["record"], 4: ["record"]})
        for listeners in runs.values():
            assert len(listeners.recorders) == 2
            _assert_sections(listeners)
        for index in range(2):
            kernel, reference = (
                runs[e].recorders[index][0].section("s") for e in ENGINES)
            assert _flat(kernel) == _flat(reference)

    def test_recorder_created_after_activations_ran(self, name):
        for plan in ({3: ["record"]}, {0: ["observe"], 3: ["record"]}):
            runs = _run_both(PROGRAMS[name](), plan)
            for listeners in runs.values():
                _assert_sections(listeners)
            kernel, reference = (runs[e].recorders[0][0].section("s")
                                 for e in ENGINES)
            assert _flat(kernel) == _flat(reference)
            assert runs["kernel"].stream() == runs["reference"].stream()


class TestLog:
    def _network(self):
        network = ReteNetwork()
        network.add_production(parse_production(
            "(p r (a ^v <x>) (b ^w <x>) --> (remove 1))"))
        return network

    def test_log_stays_empty_while_only_observers_listen(self):
        network = self._network()
        events = []
        network.observers.append(events.append)
        log = network.kernel.log
        for wme in (WME(1, "a", {"v": 1}), WME(2, "b", {"w": 1}),
                    WME(3, "b", {"w": 1})):
            network.add_wme(wme)
            assert not (log.tags or log.parents or log.nodes or log.keys)
        assert [e.act_id for e in events] == [1, 3, 2, 5, 4]
        assert log.end == 6 and not log.readers

    def test_nothing_numbered_while_nothing_listens(self):
        network = self._network()
        network.add_wme(WME(1, "a", {"v": 1}))
        assert network.kernel.log.end == 1
        recorder = TraceRecorder(network)
        network.add_wme(WME(2, "b", {"w": 1}))
        index = recorder.section("s").cycles[0].key_index()
        assert index.base == 1 and len(index) == 2

    def test_rows_are_pre_order_and_kept_for_a_recorder(self):
        network = self._network()
        log = network.keep_log(self)
        network.add_wme(WME(1, "a", {"v": 1}))
        network.add_wme(WME(2, "b", {"w": 1}))
        assert log.start == 1 and log.end == 4
        assert log.parents == [None, None, 2]
        assert log.nodes == [1, 1, 2] and log.keys == [(1,), (1,), ()]
        assert list(log.tags) == [6, 4, 14]  # left join, right join, terminal

    def test_reference_log_starts_at_its_next_act_id(self):
        network = ReferenceReteNetwork()
        network.add_production(parse_production(
            "(p r (a ^v <x>) (b ^w <x>) --> (remove 1))"))
        events = []
        network.observers.append(events.append)
        network.add_wme(WME(1, "a", {"v": 1}))
        log = network.keep_log(self)
        network.add_wme(WME(2, "b", {"w": 1}))
        assert log.start == 2 and log.parents == [None, 2]
        assert [e.act_id for e in events] == [1, 3, 2]


def _apply(network, deltas):
    for tag, wme in deltas:
        (network.add_wme if tag == "+" else network.remove_wme)(wme)


def _cross(engine, n):
    """A network with the adversarial cross-product program, and its
    deltas (n adds of each class, then their removals)."""
    program, deltas = adversarial_cross_product(n)
    network = ENGINES[engine]()
    for production in program.productions:
        network.add_production(production)
    return network, deltas


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestLogReaders:
    """The log keeps rows only while a reader that asked for them is
    alive; once the last reader is gone the rows are dropped."""

    def test_dropped_recorder_releases_the_log(self, engine):
        network, deltas = _cross(engine, 8)
        log = TraceRecorder(network)._log
        assert log.readers == 0
        _apply(network, deltas)
        assert not (log.tags or log.parents or log.nodes or log.keys)

    def test_rows_are_dropped_at_the_next_wave(self, engine):
        network, deltas = _cross(engine, 4)
        recorder = TraceRecorder(network)
        log = recorder._log
        _apply(network, deltas[:3])
        assert log.readers and log.tags
        del recorder
        assert not log.readers and log.tags
        _apply(network, deltas[3:])
        assert not log.tags

    def test_one_reader_dropped_one_alive(self, engine):
        network, deltas = _cross(engine, 6)
        events = []
        network.observers.append(events.append)
        half = len(deltas) // 2
        alive, dropped = TraceRecorder(network), TraceRecorder(network)
        frozen = ReferenceTraceRecorder(network)
        log = alive._log
        _apply(network, deltas[:half])
        del dropped
        assert log.readers == 1
        alive.set_cycle(1)
        frozen.set_cycle(1)
        _apply(network, deltas[half:])
        for drop in (False, True):
            assert dumps_trace(alive.section("s", drop)) == dumps_trace(
                frozen.section("s", drop))
        del alive
        _apply(network, deltas)
        assert not log.readers and not log.tags
        # the observer saw every activation of all three passes
        reference, _ = _cross("reference", 6)
        expect = []
        reference.observers.append(expect.append)
        _apply(reference, deltas + deltas)
        assert ([_event_tuple(e) for e in events]
                == [_event_tuple(e) for e in expect])

    def test_a_new_reader_after_the_last_one_left(self, engine):
        network, deltas = _cross(engine, 4)
        first = TraceRecorder(network)
        _apply(network, deltas)
        del first
        second, frozen = (TraceRecorder(network),
                          ReferenceTraceRecorder(network))
        _apply(network, deltas)
        assert dumps_trace(second.section("s")) == dumps_trace(
            frozen.section("s"))


def _x(wid, cls, v, **extra):
    return WME(wid, cls, {"v": v, **extra}, timestamp=wid)


_X1, _X2, _Y1, _Y2, _Z1 = (_x(1, "x", 1), _x(2, "x", 1), _x(3, "y", 1),
                           _x(4, "y", 2), _x(5, "z", 1))

#: plus and minus waves on both inputs, and the same wme added twice
#: (its second unit token is stored under an alias copy)
_SCRIPT = [("+", _X1), ("+", _Y1), ("+", _X2), ("+", _Z1), ("+", _Y2),
           ("+", _X1), ("-", _Y1), ("+", _Y1), ("-", _X1), ("-", _Z1),
           ("-", _X1), ("-", _Y1), ("-", _X2), ("-", _Y2)]

IN_PLACE_CASES = {
    # join 1 feeds terminal `a` and join 2; join 2 feeds only `b`
    "shared-prefix": (["(p a (x ^v <v>) (y ^v <v>) --> (remove 1))",
                       "(p b (x ^v <v>) (y ^v <v>) (z ^v <v>) -->"
                       " (remove 1))"],
                      {1: False, 3: True}),
    # a negative node feeding only a terminal, on both inputs
    "negative": (["(p n (x ^v <v>) -(y ^v <v>) --> (remove 1))"],
                 {1: True}),
    # right activations of a join feeding two terminals
    "two-terminals": (["(p r (x ^v <v>) (y ^v <v>) --> (remove 1))",
                       "(p s (x ^v <v>) (y ^v <v>) --> (remove 2))"],
                      {1: True}),
}


def _signature(network):
    return sorted((inst.production.name, tuple(w.wme_id for w in inst.wmes),
                   sorted(inst.bindings.items()))
                  for inst in network.conflict_set())


@pytest.mark.parametrize("case", sorted(IN_PLACE_CASES))
class TestInPlaceNumbering:
    """A node whose children are all terminals numbers and logs its
    instantiations where it stands; the ids, rows and events must be
    those of pushing them as walk entries."""

    def _run(self, case, engine):
        rules, _ = IN_PLACE_CASES[case]
        network = ENGINES[engine]()
        for source in rules:
            network.add_production(parse_production(source))
        events = []
        network.observers.append(events.append)
        recorder, frozen = (TraceRecorder(network),
                            ReferenceTraceRecorder(network))
        plain = ReteNetwork()
        for source in rules:
            plain.add_production(parse_production(source))
        orders = []
        for cycle, (tag, wme) in enumerate(_SCRIPT, 1):
            recorder.set_cycle(cycle)
            frozen.set_cycle(cycle)
            for net in (network, plain):
                (net.add_wme if tag == "+" else net.remove_wme)(wme)
            assert _signature(network) == _signature(plain)
            orders.append([(inst.production.name,
                            tuple(w.wme_id for w in inst.wmes))
                           for inst in network.conflict_set()])
        return network, plain, events, recorder, frozen, orders

    def test_the_nodes_take_the_in_place_path(self, case):
        rules, in_place = IN_PLACE_CASES[case]
        network, *_ = self._run(case, "kernel")
        kernel = network.kernel
        # a node numbering in place pushes nothing on the logged walk
        assert {node_id: not kernel.logged_plan[
                    kernel.node_id.index(node_id)][1]
                for node_id in in_place} == in_place

    def test_matches_the_reference_and_the_frozen_recorder(self, case):
        runs = {engine: self._run(case, engine) for engine in ENGINES}
        kernel, reference = runs["kernel"], runs["reference"]
        assert kernel[2] and ([_event_tuple(e) for e in kernel[2]]
                              == [_event_tuple(e) for e in reference[2]])
        # the traced kernel stores instantiations in the reference's
        # order, so the conflict sets list alike
        assert kernel[5] == reference[5]
        for _, _, _, recorder, frozen, _ in runs.values():
            for drop in (False, True):
                section = recorder.section("s", drop)
                assert dumps_trace(section) == dumps_trace(
                    frozen.section("s", drop))
        assert (_flat(kernel[3].section("s"))
                == _flat(reference[3].section("s")))
        assert any(e.node_kind == "terminal" and e.tag == "-"
                   for e in kernel[2])

    def test_memories_match_untraced_and_reference(self, case):
        network, plain, *_ = self._run(case, "kernel")
        reference, *_ = self._run(case, "reference")
        assert left_state(network) == left_state(plain)
        assert left_buckets(network) == left_buckets(reference)
        assert network.memories.is_empty()
