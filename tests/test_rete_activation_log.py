"""The activation log the match engines write while a reader keeps it.

The log's rows are the only form the kernel's activations take.  Every
case runs on the flat kernel and the reference engine and holds the
kernel's rows to the reference engine's rows, to the event stream the
reference delivers to its observers from its own recursion, or to the
frozen object-building recorder in ``tests/trace_recorder_reference.py``
(which reads those events, so it runs on the reference engine).
"""

import pytest

from repro.ops5 import Interpreter, parse_production, parse_program
from repro.ops5.wme import WME
from repro.check.oracles import event_tuples, log_events
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


def _stream(rows):
    """:func:`log_events` or :func:`event_tuples` rows, with exact key
    value types."""
    return [row + (repr(row[6]),) for row in rows]


def _assert_pre_order(rows):
    """Each row's parent is on the open path of the rows before it:
    the rows are whole depth-first walks, an activation before its
    successors."""
    open_path = []
    for row in rows:
        act_id, parent = row[0], row[1]
        while open_path and open_path[-1] != parent:
            open_path.pop()
        assert parent is None or open_path, row
        open_path.append(act_id)


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
    """Hooks that attach log readers and recorders to a network mid-run,
    and what they collected.  On the reference engine a reader also
    observes its events, and every recorder has a frozen twin."""

    def __init__(self):
        self.log = None
        self.start = None
        #: the reference engine's observed events (None on the kernel)
        self.events = None
        self.recorders = []
        self.frozen = []

    def read(self, network, interpreter):
        self.log = network.keep_log(self)
        self.start = self.log.end
        if isinstance(network, ReferenceReteNetwork):
            self.events = []
            network.observers.append(self.events.append)

    def record(self, network, interpreter):
        """A recorder, and on the reference engine a frozen recorder
        started with it."""
        recorder = TraceRecorder(network)
        recorder.attach(interpreter)
        self.recorders.append(recorder)
        if isinstance(network, ReferenceReteNetwork):
            frozen = ReferenceTraceRecorder(network)
            frozen.attach(interpreter)
            self.frozen.append(frozen)

    def stream(self):
        """The rows read since :meth:`read`, in event form; on the
        reference engine they must equal its observed events."""
        if self.log is None:
            return []
        rows = _stream(log_events(self.log, self.start))
        if self.events is not None:
            assert rows == _stream(event_tuples(self.events))
        return rows


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


def _assert_sections(runs):
    """Every recorder on either engine matches the frozen recorder
    started with it on the reference engine, byte for byte, with and
    without the setup cycle."""
    frozen = runs["reference"].frozen
    for listeners in runs.values():
        assert len(listeners.recorders) == len(frozen)
        for recorder, twin in zip(listeners.recorders, frozen):
            for drop in (False, True):
                section = recorder.section("s", drop_setup_cycle=drop)
                expect = twin.section("s", drop_setup_cycle=drop)
                assert dumps_trace(section) == dumps_trace(expect)
                assert section == expect


def _flat(section):
    return [(c.index, [(a.act_id, a.parent_id, a.node_id, a.kind, a.side,
                        a.tag, repr(a.key), a.successors)
                       for a in acts(c)])
            for c in section]


@pytest.mark.parametrize("name", sorted(PROGRAMS))
class TestObserverAdapter:
    """What an observer of the reference engine sees, a reader of the
    kernel's log reads: each scenario's "observer" is now a log reader
    (``keep_log``), held on the reference engine to its observed
    events."""

    def test_observer_alone(self, name):
        runs = _run_both(PROGRAMS[name](), {0: ["read"]})
        stream = runs["kernel"].stream()
        assert stream and stream == runs["reference"].stream()
        _assert_pre_order(stream)
        # the reference's events are post-order: every event follows
        # all of its successors
        seen = set()
        for event in runs["reference"].events:
            assert event.act_id not in seen
            if event.parent_id is not None:
                assert event.parent_id not in seen
            seen.add(event.act_id)

    def test_observer_with_recorder(self, name):
        runs = _run_both(PROGRAMS[name](), {0: ["read", "record"]})
        assert runs["kernel"].stream() == runs["reference"].stream()
        _assert_sections(runs)
        kernel, reference = (runs[e].recorders[0].section("s")
                             for e in ENGINES)
        assert _flat(kernel) == _flat(reference)

    def test_observer_attached_mid_run(self, name):
        runs = _run_both(PROGRAMS[name](), {3: ["read"]})
        stream = runs["kernel"].stream()
        assert stream == runs["reference"].stream()
        if stream:  # nothing numbered activations before the reader
            assert min(row[0] for row in stream) == 1

    def test_observer_attached_mid_run_after_a_recorder(self, name):
        runs = _run_both(PROGRAMS[name](), {0: ["record"], 3: ["read"]})
        assert runs["kernel"].stream() == runs["reference"].stream()
        _assert_sections(runs)

    def test_two_recorders_started_at_different_cycles(self, name):
        runs = _run_both(PROGRAMS[name](), {0: ["record"], 4: ["record"]})
        for listeners in runs.values():
            assert len(listeners.recorders) == 2
        _assert_sections(runs)
        for index in range(2):
            kernel, reference = (
                runs[e].recorders[index].section("s") for e in ENGINES)
            assert _flat(kernel) == _flat(reference)

    def test_recorder_created_after_activations_ran(self, name):
        for plan in ({3: ["record"]}, {0: ["read"], 3: ["record"]}):
            runs = _run_both(PROGRAMS[name](), plan)
            _assert_sections(runs)
            kernel, reference = (runs[e].recorders[0].section("s")
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
        """Only the reference engine has observers: they number its
        activations and leave its log empty.  A reader of the kernel's
        log reads the same activations."""
        reference = ReferenceReteNetwork()
        reference.add_production(parse_production(
            "(p r (a ^v <x>) (b ^w <x>) --> (remove 1))"))
        events = []
        reference.observers.append(events.append)
        network = self._network()
        rows = network.keep_log(self)
        log = reference._run.log
        for wme in (WME(1, "a", {"v": 1}), WME(2, "b", {"w": 1}),
                    WME(3, "b", {"w": 1})):
            reference.add_wme(wme)
            network.add_wme(wme)
            assert not (log.tags or log.parents or log.nodes or log.keys)
        assert [e.act_id for e in events] == [1, 3, 2, 5, 4]
        assert not log.readers
        assert (_stream(log_events(rows))
                == _stream(event_tuples(events)))
        assert rows.end == 6

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
        twin, _ = _cross("reference", 6)
        events = []
        twin.observers.append(events.append)
        frozen = ReferenceTraceRecorder(twin)
        half = len(deltas) // 2
        alive, dropped = TraceRecorder(network), TraceRecorder(network)
        log = alive._log
        _apply(network, deltas[:half])
        _apply(twin, deltas[:half])
        del dropped
        assert log.readers == 1
        alive.set_cycle(1)
        frozen.set_cycle(1)
        _apply(network, deltas[half:])
        _apply(twin, deltas[half:])
        for drop in (False, True):
            assert dumps_trace(alive.section("s", drop)) == dumps_trace(
                frozen.section("s", drop))
        # the live reader read every activation of both passes
        assert (_stream(log_events(log))
                == _stream(event_tuples(events)))
        end = log.end
        del alive
        _apply(network, deltas)
        # with no reader left nothing is kept, and nothing is numbered
        assert not log.readers and not log.tags
        assert log.end == end

    def test_a_new_reader_after_the_last_one_left(self, engine):
        network, deltas = _cross(engine, 4)
        twin, _ = _cross("reference", 4)
        first, first_twin = TraceRecorder(network), TraceRecorder(twin)
        _apply(network, deltas)
        _apply(twin, deltas)
        del first, first_twin
        second, frozen = (TraceRecorder(network),
                          ReferenceTraceRecorder(twin))
        _apply(network, deltas)
        _apply(twin, deltas)
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
        """The network, an untraced kernel, the rows read in event form,
        the recorder, the frozen recorder (reference engine only) and
        the conflict-set orders after each wave."""
        rules, _ = IN_PLACE_CASES[case]
        network = ENGINES[engine]()
        for source in rules:
            network.add_production(parse_production(source))
        recorder = TraceRecorder(network)
        frozen = None
        if engine == "reference":
            events = []
            network.observers.append(events.append)
            frozen = ReferenceTraceRecorder(network)
        plain = ReteNetwork()
        for source in rules:
            plain.add_production(parse_production(source))
        orders = []
        for cycle, (tag, wme) in enumerate(_SCRIPT, 1):
            recorder.set_cycle(cycle)
            if frozen is not None:
                frozen.set_cycle(cycle)
            for net in (network, plain):
                (net.add_wme if tag == "+" else net.remove_wme)(wme)
            assert _signature(network) == _signature(plain)
            orders.append([(inst.production.name,
                            tuple(w.wme_id for w in inst.wmes))
                           for inst in network.conflict_set()])
        stream = _stream(log_events(recorder._log))
        if frozen is not None:
            assert stream == _stream(event_tuples(events))
        return network, plain, stream, recorder, frozen, orders

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
        assert kernel[2] and kernel[2] == reference[2]
        # the traced kernel stores instantiations in the reference's
        # order, so the conflict sets list alike
        assert kernel[5] == reference[5]
        frozen = reference[4]
        for _, _, _, recorder, _, _ in runs.values():
            for drop in (False, True):
                section = recorder.section("s", drop)
                assert dumps_trace(section) == dumps_trace(
                    frozen.section("s", drop))
        assert (_flat(kernel[3].section("s"))
                == _flat(reference[3].section("s")))
        assert any(row[3] == "terminal" and row[5] == "-"
                   for row in kernel[2])

    def test_memories_match_untraced_and_reference(self, case):
        network, plain, *_ = self._run(case, "kernel")
        reference, *_ = self._run(case, "reference")
        assert left_state(network) == left_state(plain)
        assert left_buckets(network) == left_buckets(reference)
        assert network.memories.is_empty()
