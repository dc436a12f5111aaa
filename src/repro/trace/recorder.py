"""Recording hash-table activity traces from live Rete runs.

:class:`TraceRecorder` attaches to a :class:`~repro.rete.ReteNetwork` and
an :class:`~repro.ops5.Interpreter` and groups the network's activation
events by MRA cycle, producing the :class:`~repro.trace.events
.SectionTrace` the MPC simulator consumes.  This is the path that turns a
real OPS5 program into simulator input, end to end.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List

from ..ops5.interpreter import Interpreter
from ..rete.network import ReteNetwork
from ..rete.stats import ActivationEvent
from .events import CycleTrace, SectionTrace, TraceActivation

_act_id = attrgetter("act_id")


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
        #: cycle index -> that cycle's events, in delivery order
        self._cycles: Dict[int, List[ActivationEvent]] = {}
        #: the current cycle's list (cycle 0 until told otherwise)
        self._events = self._cycles.setdefault(0, [])
        network.observers.append(self._on_event)

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
        self._events = self._cycles.setdefault(cycle, [])

    # -- event collection -----------------------------------------------------

    def _on_event(self, event: ActivationEvent) -> None:
        # The event itself is the record: a slotted object the network
        # allocated anyway and never touches after delivery.
        self._events.append(event)

    # -- extraction --------------------------------------------------------------

    def section(self, name: str,
                drop_setup_cycle: bool = False) -> SectionTrace:
        """Build the finished section trace.

        Each :class:`TraceActivation` is built once, here, with its
        successors already known: events arrive in post-order, so a
        cycle's parent links are complete only once it is recorded.
        Activations are inserted in ascending act_id order and cycles
        without events are omitted; calling this again builds an equal,
        independent trace.
        """
        cycles: List[CycleTrace] = []
        for index in sorted(self._cycles):
            events = self._cycles[index]
            if not events or (drop_setup_cycle and index == 0):
                continue
            children: Dict[int, List[int]] = {}
            for ev in events:
                if ev.parent_id is not None:
                    children.setdefault(ev.parent_id, []).append(ev.act_id)
            acts: Dict[int, TraceActivation] = {}
            for ev in sorted(events, key=_act_id):
                kids = children.get(ev.act_id)
                acts[ev.act_id] = TraceActivation(
                    ev.act_id, ev.parent_id, ev.node_id, ev.node_kind,
                    ev.side, ev.tag, ev.key,
                    tuple(sorted(kids)) if kids else ())
            if len(acts) != len(events):
                raise ValueError(f"duplicate act_id in cycle {index}")
            cycles.append(CycleTrace(index=index, activations=acts))
        return SectionTrace(name=name, cycles=cycles)


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
