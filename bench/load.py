"""The served-open load: open-loop Poisson rungs and closed-loop bursts
against an in-process ``SessionServer``.

Open loop: sessions are sent from the calling (main) thread on a seeded
schedule, whether or not earlier ones have finished.  Each session's
latency is timed from its *scheduled* send to its completion, stamped
by a future done-callback on the server thread.  A stalled generator
therefore charges the stall to every session it delays, and the
generator's own lateness is reported beside the latencies.
(``repro.exec.run_loadtest`` stamps each latency when it reads the
future, after every send has been issued, which charges early sessions
the rest of the offering window.)

Closed loop: a burst submits many sessions at once and waits for all
of them, so sessions per second of burst is the server's capacity; a
series sends one session at a time, so its latencies are service
latencies on an otherwise idle server.

The load is one process with two threads (this one and the server's
loop) and no sockets.
"""

from __future__ import annotations

import concurrent.futures
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec import (RunResult, SessionOverloaded, arrival_offsets,
                        match_signature)
from repro.obs import get_registry

from spans import CURRENT, Tracer

_perf = time.perf_counter

#: A generator that ran later than this (p99) is flagged as stalled.
GEN_LATE_LIMIT_MS = 10.0

#: A session still unfinished this long after the last send is failed.
DRAIN_TIMEOUT_S = 30.0


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Rung:
    """One offered rate held for a fixed number of sessions."""

    rate: float
    offered: int
    #: Completed sessions' latency from scheduled send (ms).
    latencies_ms: List[float] = field(default_factory=list)
    #: Generator lateness per send (ms).
    late_ms: List[float] = field(default_factory=list)
    #: Sessions outstanding at each send.
    backlog: List[int] = field(default_factory=list)
    shed: int = 0
    failed: int = 0
    #: ``served.session_latency_s`` p50/p99 over this rung (ms).
    server_p50_ms: float = math.nan
    server_p99_ms: float = math.nan
    errors: List[str] = field(default_factory=list)
    #: Session index -> messages exchanged, for successful sessions.
    messages: Dict[int, int] = field(default_factory=dict)

    def latency(self, q: float) -> float:
        return quantile(self.latencies_ms, q) if self.latencies_ms \
            else math.inf

    @property
    def late_p99_ms(self) -> float:
        return quantile(self.late_ms, 0.99)

    @property
    def generator_stalled(self) -> bool:
        return self.late_p99_ms > GEN_LATE_LIMIT_MS

    @property
    def backlog_grew(self) -> bool:
        """Whether sessions piled up: the last quarter's mean backlog is
        over twice the first quarter's, plus one."""
        quarter = max(1, len(self.backlog) // 4)
        head = statistics.fmean(self.backlog[:quarter])
        tail = statistics.fmean(self.backlog[-quarter:])
        return tail > 2.0 * head + 1.0

    def meets(self, q: float, limit_ms: float) -> bool:
        return (self.latency(q) <= limit_ms and self.shed == 0
                and self.failed == 0 and not self.backlog_grew)

    def summary(self) -> dict:
        return {
            "rate_per_s": self.rate, "offered": self.offered,
            "completed": len(self.latencies_ms), "shed": self.shed,
            "failed": self.failed,
            "p50_ms": self.latency(0.5), "p90_ms": self.latency(0.9),
            "p99_ms": self.latency(0.99),
            "server_p50_ms": self.server_p50_ms,
            "server_p99_ms": self.server_p99_ms,
            "gen_late_p99_ms": self.late_p99_ms,
            "generator_stalled": self.generator_stalled,
            "backlog_max": max(self.backlog, default=0),
            "backlog_grew": self.backlog_grew,
            "errors": self.errors[:5],
        }


def run_rung(server, sessions: Sequence[Tuple[object, list]], config,
             rate: float, seed: int, tracer: Optional[Tracer] = None,
             sleep: Callable[[float], None] = time.sleep) -> Rung:
    """Offer *sessions* at ``rate`` per second and wait for them all.

    *sessions* holds ``(trace, expected_signature)`` pairs, sent in
    order at seeded Poisson arrival times; each result must match its
    signature.  The server-side quantiles are read from
    ``served.session_latency_s`` since the process metrics registry was
    last reset.  With a *tracer*, each session is a ``bench`` root span
    (scheduled send to completion, so its self time is generator
    lateness) over an ``exec.served`` span (send to completion).
    *sleep* is the generator's wait, replaceable to inject a stall.
    """
    offered = len(sessions)
    offsets = arrival_offsets(offered, offered / rate, seed)
    rung = Rung(rate=rate, offered=offered)
    #: (session index, latency ms), appended by the done-callbacks.
    stamps: List[Tuple[int, float]] = []
    pending = []

    def stamp(due: float, index: int, roots: Tuple[int, int]):
        def done(_future) -> None:
            end = _perf()
            stamps.append((index, (end - due) * 1e3))
            if tracer is not None:
                tracer.close(roots[0], end)
                tracer.close(roots[1], end)
        return done

    start = _perf() + 0.005
    for index, (offset, (trace, expected)) in enumerate(
            zip(offsets, sessions)):
        due = start + offset
        delay = due - _perf()
        if delay > 0:
            sleep(delay)
        sent = _perf()
        rung.late_ms.append(max(0.0, sent - due) * 1e3)
        rung.backlog.append(len(pending) - len(stamps))
        roots = (-1, -1)
        token = None
        if tracer is not None:
            tracer.op = index
            root = tracer.open("bench", due)
            served = tracer.open("exec.served", sent, root)
            roots = (root, served)
            token = CURRENT.set(served)
        try:
            future = server.submit(trace, config)
        finally:
            if token is not None:
                CURRENT.reset(token)
        future.add_done_callback(stamp(due, index, roots))
        pending.append((future, expected))

    # Latencies were stamped by the callbacks; here only outcomes and
    # correctness are collected.  Shed and failed sessions stamped a
    # latency too, so only successful sessions' stamps are kept.
    ok = collect(pending, rung)
    rung.latencies_ms = [ms for index, ms in stamps if index in ok]
    histogram = get_registry().histogram("served.session_latency_s")
    if histogram.count:
        rung.server_p50_ms = histogram.quantile(0.5) * 1e3
        rung.server_p99_ms = histogram.quantile(0.99) * 1e3
    return rung


def collect(pending, outcome, first: int = 0) -> set:
    """Wait for *pending* ``(future, expected_signature)`` sessions and
    count each into *outcome* (a :class:`Rung` or :class:`Closed`) as
    shed, failed or correct; returns the indices (counted from *first*)
    of correct ones."""
    deadline = _perf() + DRAIN_TIMEOUT_S
    ok = set()
    for index, (future, expected) in enumerate(pending, first):
        try:
            result, fires, wall_s = future.result(
                timeout=max(0.0, deadline - _perf()))
        except SessionOverloaded:
            outcome.shed += 1
            continue
        except Exception as err:  # a failed session is a measurement
            outcome.failed += 1
            outcome.errors.append(f"session {index}: "
                                  f"{type(err).__name__}: {err}")
            continue
        got = match_signature(RunResult("served", result, fires, wall_s))
        if got != expected:
            outcome.failed += 1
            outcome.errors.append(f"session {index}: counters or fires "
                                  "differ from the simulator")
            continue
        ok.add(index)
        outcome.messages[index] = result.n_messages
    return ok


@dataclass
class Closed:
    """Closed-loop sessions: a burst, or a series sent one at a time."""

    offered: int
    #: Wall seconds of a burst, first submit to last completion.
    wall_s: float = 0.0
    #: Per-session latency (ms) of a series; empty for a burst.
    latencies_ms: List[float] = field(default_factory=list)
    shed: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    messages: Dict[int, int] = field(default_factory=dict)


def run_burst(server, sessions: Sequence[Tuple[object, list]],
              config) -> Closed:
    """Submit all *sessions* at once; time until every one is done."""
    burst = Closed(offered=len(sessions))
    start = _perf()
    pending = [(server.submit(trace, config), expected)
               for trace, expected in sessions]
    concurrent.futures.wait([future for future, _ in pending],
                            timeout=DRAIN_TIMEOUT_S)
    burst.wall_s = _perf() - start
    collect(pending, burst)
    return burst


def run_series(server, sessions: Sequence[Tuple[object, list]],
               config) -> Closed:
    """Send *sessions* one at a time, each after the last completed."""
    series = Closed(offered=len(sessions))
    for index, (trace, expected) in enumerate(sessions):
        sent = _perf()
        future = server.submit(trace, config)
        concurrent.futures.wait([future], timeout=DRAIN_TIMEOUT_S)
        series.latencies_ms.append((_perf() - sent) * 1e3)
        collect([(future, expected)], series, index)
    return series


def max_rate(rungs: Sequence[Rung], q: float, limit_ms: float) -> float:
    """Highest rate meeting the limit, log-interpolated between rungs.

    *rungs* ascend in rate.  Between the last rung that meets the limit
    and the next one, ``log(latency)`` is taken as linear in
    ``log(rate)`` and solved for the limit.  Past the top rung the top
    rate is returned; below the first, the first rate scaled down by
    how far its latency overshot.
    """
    passing = [r.meets(q, limit_ms) for r in rungs]
    if all(passing):
        return rungs[-1].rate
    first_fail = passing.index(False)
    high = rungs[first_fail]
    p_high = high.latency(q)
    if first_fail == 0:
        return high.rate * min(1.0, limit_ms / p_high)
    low = rungs[first_fail - 1]
    p_low = low.latency(q)
    if not math.isfinite(p_high) or p_high <= limit_ms or p_low <= 0:
        # Failed on shedding or backlog, not latency: no slope to use.
        return math.sqrt(low.rate * high.rate)
    fraction = math.log(limit_ms / p_low) / math.log(p_high / p_low)
    return low.rate * (high.rate / low.rate) ** fraction
