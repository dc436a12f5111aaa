"""Recording hash-table activity traces from live Rete runs.

:class:`TraceRecorder` attaches to a :class:`~repro.rete.ReteNetwork` (or
the reference engine) and an :class:`~repro.ops5.Interpreter`, keeps the
network's activation log (:class:`~repro.rete.stats.ActivationLog`:
one row per activation, written by the match engine as it numbers the
activation) and marks where each MRA cycle starts in it, producing the
:class:`~repro.trace.events.SectionTrace` the MPC simulator consumes.
No event object is built per activation on this path.  This is the path
that turns a real OPS5 program into simulator input, end to end.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Tuple

from ..ops5.interpreter import Interpreter
from ..rete.network import ReteNetwork
from ..rete.stats import ActivationLog
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

    Cycle 0 holds the activations caused by initial working-memory setup
    (or, for a recorder created mid-run, every activation until the
    first cycle switch); experiment code usually drops it with
    ``trace.slice(1, None)`` since the paper's sections are mid-run
    cycles.  Any number of recorders can share one network's log, each
    reading it from its own start.
    """

    def __init__(self, network: ReteNetwork) -> None:
        self.network = network
        self._log: ActivationLog = network.keep_log(self)
        #: ``(cycle index, act id of its first row)`` per cycle switch
        self._marks: List[Tuple[int, int]] = [(0, self._log.end)]

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
        self._marks.append((cycle, self._log.end))

    # -- extraction --------------------------------------------------------------

    def section(self, name: str,
                drop_setup_cycle: bool = False) -> SectionTrace:
        """Build the finished section trace.

        Each cycle is compiled once, here, straight from its log rows
        into the table the simulators run on
        (:meth:`CycleKeyIndex.from_columns`); the cycles of the section
        share one key memo.  A cycle returned to later (a revisited
        cycle index) has sparse act ids.  Cycles without activations
        are omitted; calling this again builds an equal, independent
        trace.
        """
        log = self._log
        marks = self._marks
        runs: Dict[int, List[Tuple[int, int]]] = {}
        for (index, begin), (_, end) in zip(
                marks, marks[1:] + [(None, log.end)]):
            if begin < end:
                runs.setdefault(index, []).append((begin, end))
        memo: Dict[tuple, tuple] = {}
        return SectionTrace(name=name, cycles=[
            CycleTrace.from_index(index, _compile(log, runs[index], memo))
            for index in sorted(runs) if index or not drop_setup_cycle])


def _compile(log: ActivationLog, runs: List[Tuple[int, int]],
             memo: Dict[tuple, tuple]) -> CycleKeyIndex:
    """The cycle whose rows are the act id ranges *runs* (ascending)."""
    rows = [slice(begin - log.start, end - log.start)
            for begin, end in runs]
    if len(rows) == 1:
        row, = rows
        return CycleKeyIndex.from_columns(
            runs[0][0], log.tags[row], log.parents[row], log.nodes[row],
            log.keys[row], memo)
    return CycleKeyIndex.from_columns(
        runs[0][0], b"".join(log.tags[row] for row in rows),
        list(chain.from_iterable(log.parents[row] for row in rows)),
        list(chain.from_iterable(log.nodes[row] for row in rows)),
        list(chain.from_iterable(log.keys[row] for row in rows)), memo,
        act_ids=[act_id for begin, end in runs
                 for act_id in range(begin, end)])


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
