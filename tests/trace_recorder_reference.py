"""The trace recorder's original object-building ``section()``, frozen
as an oracle.

:class:`repro.trace.TraceRecorder` compiles each recorded cycle
straight from its activation events into a
:class:`~repro.trace.events.CycleKeyIndex`, building
:class:`~repro.trace.events.TraceActivation` objects only on demand;
``tests/test_trace_recorder.py`` holds its sections to the ones this
recorder builds, byte for byte through :mod:`repro.trace.format`.  Do
not edit: it is the definition the production recorder is checked
against.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List

from repro.trace.events import CycleTrace, SectionTrace, TraceActivation

_act_id = attrgetter("act_id")


class ReferenceTraceRecorder:
    """Collects per-cycle activation events from a network's observers
    and builds a section of :class:`TraceActivation` objects."""

    def __init__(self, network) -> None:
        self.network = network
        self._cycles: Dict[int, list] = {}
        self._events = self._cycles.setdefault(0, [])
        network.observers.append(self._on_event)

    def attach(self, interpreter) -> None:
        interpreter.cycle_listeners.append(self.set_cycle)

    def set_cycle(self, cycle: int) -> None:
        self._events = self._cycles.setdefault(cycle, [])

    def _on_event(self, event) -> None:
        self._events.append(event)

    def section(self, name: str,
                drop_setup_cycle: bool = False) -> SectionTrace:
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
