"""Recording hash-table activity traces from live Rete runs.

:class:`TraceRecorder` attaches to a :class:`~repro.rete.ReteNetwork` and
an :class:`~repro.ops5.Interpreter` and groups the network's activation
events by MRA cycle, producing the :class:`~repro.trace.events
.SectionTrace` the MPC simulator consumes.  This is the path that turns a
real OPS5 program into simulator input, end to end.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..ops5.interpreter import Interpreter
from ..rete.network import ReteNetwork
from ..rete.stats import ActivationEvent
from .events import CycleKeyIndex, CycleTrace, SectionTrace


class TraceRecorder:
    """Collects per-cycle activation forests from a network.

    Usage::

        network = ReteNetwork()
        interp = Interpreter(matcher=network)
        recorder = TraceRecorder(network)
        interp.load_program(program)        # recorded as cycle 0
        interp.run()                        # firings become cycles 1..n
        trace = recorder.section("my-run")

    Cycle 0 holds the activations caused by initial working-memory setup;
    experiment code usually drops it with ``trace.slice(1, None)`` since
    the paper's sections are mid-run cycles.
    """

    def __init__(self, network: ReteNetwork) -> None:
        self.network = network
        #: every event, in delivery order
        self._events: List[ActivationEvent] = []
        #: ``(cycle index, first event position)`` per cycle switch
        self._marks: List[Tuple[int, int]] = [(0, 0)]
        # The observer is the list's own append: no Python frame runs
        # per event.
        network.observers.append(self._events.append)

    # -- wiring ------------------------------------------------------------

    def attach(self, interpreter: Interpreter) -> None:
        """Follow the interpreter's cycle numbering.

        The cycle hook fires at the start of each MRA cycle, before any
        working-memory change of that firing reaches the matcher, so
        every activation lands in the right cycle bucket.
        """
        interpreter.cycle_listeners.append(self.set_cycle)

    def set_cycle(self, cycle: int) -> None:
        """Manual cycle control for driving the network without an
        interpreter (tests, custom drivers)."""
        self._marks.append((cycle, len(self._events)))

    # -- extraction --------------------------------------------------------------

    def section(self, name: str,
                drop_setup_cycle: bool = False) -> SectionTrace:
        """Build the finished section trace.

        Each cycle is compiled once, here, straight from its events
        into the table the simulators run on
        (:meth:`CycleKeyIndex.from_events`): events arrive in
        post-order, so a cycle's parent links are complete only once it
        is recorded.  The cycles' :class:`TraceActivation` objects are
        built only if something asks for them.  Cycles without events
        are omitted; calling this again builds an equal, independent
        trace.
        """
        events = self._events
        marks = self._marks
        by_cycle: Dict[int, List[ActivationEvent]] = {}
        for (index, start), (_, end) in zip(
                marks, marks[1:] + [(None, len(events))]):
            by_cycle.setdefault(index, []).extend(events[start:end])
        hashes: Dict[tuple, int] = {}
        return SectionTrace(name=name, cycles=[
            CycleTrace.from_index(
                index, CycleKeyIndex.from_events(by_cycle[index], hashes))
            for index in sorted(by_cycle)
            if by_cycle[index] and (index or not drop_setup_cycle)])


def record_program(program, name: str, max_cycles: int = 10_000,
                   drop_setup_cycle: bool = True) -> SectionTrace:
    """One-call convenience: run *program* under Rete and record a trace.

    The interpreter's startup wmes land in cycle 0, dropped by default.
    """
    network = ReteNetwork()
    recorder = TraceRecorder(network)
    interpreter = Interpreter(matcher=network)
    recorder.attach(interpreter)
    interpreter.load_program(program)
    interpreter.run(max_cycles=max_cycles)
    return recorder.section(name, drop_setup_cycle=drop_setup_cycle)
