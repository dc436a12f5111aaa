"""Spans recorded by the benchmark's own wrappers, kept in memory.

A span records name, start, end, busy duration, parent span, op id and
a call count.  Coarse calls (``parse_program``, ``speedup_curve``,
``run()`` ...) get one span each.  Per-wave matcher calls are summed
into one span per MRA cycle with the number of calls as its count, so
a traced program stays at a few hundred spans.

A layer's self time is the busy time of its spans minus the busy time
of their children.  The span name *is* the layer name, and the root
span of every op is ``bench``: its self time is whatever the wrappers
did not attribute to a layer.

Nothing here reaches into the program: every span is taken around a
call into a public function, or by a proxy/wrapper object the program
is handed instead of its own.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.trace.events import KIND_TERMINAL

_perf = time.perf_counter

#: The innermost open span of the running thread or asyncio task.  A
#: context variable rather than a stack, so a served session's task on
#: the server thread inherits the span it was submitted under.
CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "bench_span", default=None)


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Busy seconds.  ``end - start`` for a plain call; the sum of the
    #: calls' durations for an aggregated span.
    dur: float
    parent: Optional[int]
    op: Optional[int]
    n: int
    thread: str


class Tracer:
    """An append-only span store shared by the main and server threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Id of the op the main thread is running (stamped on spans).
        self.op: Optional[int] = None
        self._lock = threading.Lock()

    def add(self, name: str, start: float, end: float, dur: float,
            parent: Optional[int], n: int = 1) -> int:
        """Record a finished (or aggregated) span; returns its id.

        A child inherits its parent's op id; a root takes :attr:`op`.
        """
        op = self.spans[parent].op if parent is not None else self.op
        span = Span(name, start, end, dur, parent, op, n,
                    threading.current_thread().name)
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    def open(self, name: str, start: float,
             parent: Optional[int] = None) -> int:
        """Record a span whose end is not known yet (see :meth:`close`)."""
        return self.add(name, start, start, 0.0, parent)

    def close(self, sid: int, end: float) -> None:
        span = self.spans[sid]
        span.end = end
        span.dur = end - span.start

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Time the enclosed block as a child of the current span."""
        sid = self.open(name, _perf(), CURRENT.get())
        token = CURRENT.set(sid)
        try:
            yield sid
        finally:
            CURRENT.reset(token)
            self.close(sid, _perf())

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> List[float]:
        """Busy time of each span minus the busy time of its children."""
        own = [span.dur for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.dur
        return own

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer, summed over every span."""
        totals: Dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def root_seconds(self) -> float:
        """Wall seconds of all op roots (the denominator of shares)."""
        return sum(span.dur for span in self.spans if span.parent is None)

    # -- export -------------------------------------------------------------

    def write(self, stem: str) -> None:
        """Write ``<stem>.spans.jsonl`` and a Chrome ``<stem>.trace.json``.

        In the Chrome trace an aggregated span is drawn from its first
        call's start with its summed busy time as duration.
        """
        base = self.spans[0].start if self.spans else 0.0
        with open(stem + ".spans.jsonl", "w") as handle:
            for sid, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": sid, "name": span.name, "parent": span.parent,
                    "op": span.op, "n": span.n, "thread": span.thread,
                    "start_s": span.start - base, "end_s": span.end - base,
                    "dur_s": span.dur}) + "\n")
        events = [{
            "name": span.name, "ph": "X", "pid": 1, "tid": span.thread,
            "ts": (span.start - base) * 1e6, "dur": span.dur * 1e6,
            "args": {"id": sid, "parent": span.parent, "op": span.op,
                     "n": span.n}}
            for sid, span in enumerate(self.spans)]
        with open(stem + ".trace.json", "w") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)


@contextlib.contextmanager
def no_span(name: str) -> Iterator[None]:
    """The untraced stand-in for :meth:`Tracer.span`."""
    yield None


class TimedMatcher:
    """Matcher proxy handed to ``Interpreter(matcher=...)``.

    Times ``add_wme``/``remove_wme`` (layer ``rete.match``) and
    ``conflict_set`` (``rete.conflict_set``), and wraps the network's
    activation observers (``trace.record``, nested inside the match
    calls that fire them).  Calls are summed per MRA cycle: the
    interpreter's cycle hook flushes one aggregated span per layer.
    """

    def __init__(self, network, tracer: Tracer) -> None:
        self.network = network
        self.tracer = tracer
        self.parent: Optional[int] = None
        self.total_waves = self.total_events = self.total_terminals = 0
        self.total_cs_calls = 0
        self._reset()
        network.observers[:] = [self._timed(fn) for fn in network.observers]

    def _reset(self) -> None:
        self.first = None
        self.last = 0.0
        self.match_s = self.cs_s = self.record_s = 0.0
        self.waves = self.cs_calls = self.events = self.terminals = 0

    def _timed(self, observer):
        def timed(event) -> None:
            start = _perf()
            observer(event)
            self.record_s += _perf() - start
            self.events += 1
            if event.node_kind == KIND_TERMINAL:
                self.terminals += 1
        return timed

    def attach(self, interpreter, parent: int) -> None:
        """Flush per cycle under *parent* (the ``ops5.interpret`` span)."""
        self.parent = parent
        interpreter.cycle_listeners.append(lambda cycle: self.flush())

    def flush(self) -> None:
        if self.first is None:
            return
        add = self.tracer.add
        match = add("rete.match", self.first, self.last, self.match_s,
                    self.parent, self.waves)
        if self.events:
            add("trace.record", self.first, self.last, self.record_s,
                match, self.events)
        if self.cs_calls:
            add("rete.conflict_set", self.first, self.last, self.cs_s,
                self.parent, self.cs_calls)
        self.total_waves += self.waves
        self.total_events += self.events
        self.total_terminals += self.terminals
        self.total_cs_calls += self.cs_calls
        self._reset()

    # -- the Matcher protocol ----------------------------------------------

    def add_production(self, production) -> None:
        self.network.add_production(production)

    def add_wme(self, wme) -> None:
        start = _perf()
        self.network.add_wme(wme)
        self._wave(start)

    def remove_wme(self, wme) -> None:
        start = _perf()
        self.network.remove_wme(wme)
        self._wave(start)

    def _wave(self, start: float) -> None:
        end = _perf()
        if self.first is None:
            self.first = start
        self.last = end
        self.match_s += end - start
        self.waves += 1

    def conflict_set(self):
        start = _perf()
        result = self.network.conflict_set()
        end = _perf()
        if self.first is None:
            self.first = start
        self.last = end
        self.cs_s += end - start
        self.cs_calls += 1
        return result


def timed_function(tracer: Tracer, name: str, function):
    """Wrap a plain function so each call is a span named *name*."""
    def timed(*args, **kwargs):
        with tracer.span(name):
            return function(*args, **kwargs)
    return timed


def timed_coroutine(tracer: Tracer, name: str, function):
    """Wrap an ``async def`` so each awaited call is a span named *name*."""
    async def timed(*args, **kwargs):
        sid = tracer.open(name, _perf(), CURRENT.get())
        token = CURRENT.set(sid)
        try:
            return await function(*args, **kwargs)
        finally:
            CURRENT.reset(token)
            tracer.close(sid, _perf())
    return timed


@contextlib.contextmanager
def patched(module, name: str, replacement) -> Iterator[None]:
    """Rebind ``module.name`` for the duration of the block."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)
