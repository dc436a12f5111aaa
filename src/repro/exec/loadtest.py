"""An open-loop load-test harness for the ``served`` backend.

A closed-loop driver (submit, wait, submit again) can never overload a
server: the moment the server slows down, the driver slows with it and
the measured latency flatters the system (*coordinated omission*).
This harness is **open-loop**: session arrival times are drawn up
front from an exponential inter-arrival process at the offered rate
``sessions / duration_s``, and the driver submits on schedule whether
or not earlier sessions have finished.  When the offered rate exceeds
the server's capacity the pending queue grows past the high-water
mark and the server sheds — exactly the behaviour the bench exists to
measure.  Each session's latency runs from its *scheduled* arrival to
its completion, stamped by a done-callback on the server thread, so a
session is never charged for the time the driver spends issuing later
ones, and a late driver is charged to the sessions it delayed.

The arrival schedule is seeded (:class:`random.Random`), so a bench
invocation is reproducible in *what it offers*; what the server
*achieves* (throughput, latency quantiles, shed counts) is measured
wall-clock truth.  Latency quantiles are computed exactly from the
client-observed per-session latencies (arrival → result), and the
server's own ``served.session_latency_s`` reservoir histogram rides
along in the payload for cross-checking.

``repro loadtest`` drives this and writes the payload to
``BENCH_served.json``.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List, Optional

from ..mpc.config import RunConfig
from ..obs import get_logger, get_registry, log_event
from ..trace.events import SectionTrace
from .errors import SessionOverloaded, exec_timeout_s
from .served import DEFAULT_MAX_SESSIONS, SessionServer

_LOG = get_logger("repro.exec.loadtest")

#: Default bench file written by ``repro loadtest``.
BENCH_PATH = "BENCH_served.json"


def _loadtest_trace(seed: int) -> SectionTrace:
    """A small deterministic section: big enough to exercise the full
    cycle protocol, small enough that one session is a few ms."""
    from ..workloads.generator import SectionSpec, generate_section
    return generate_section(SectionSpec(
        name=f"loadtest-{seed}", cycles=3,
        right_activations=150, left_activations=150))


def _exact_quantile(ordered: List[float], q: float) -> Optional[float]:
    """Linear-interpolated quantile of an already-sorted sample."""
    if not ordered:
        return None
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def arrival_offsets(sessions: int, duration_s: float,
                    seed: int) -> List[float]:
    """Seconds-from-start arrival times: *sessions* draws from an
    exponential inter-arrival process at rate ``sessions /
    duration_s`` (open-loop Poisson arrivals), deterministic in
    *seed*."""
    if sessions < 1:
        raise ValueError("sessions must be >= 1")
    if duration_s <= 0:
        raise ValueError("duration_s must be > 0")
    rng = random.Random(seed)
    rate = sessions / duration_s
    offsets: List[float] = []
    clock = 0.0
    for _ in range(sessions):
        clock += rng.expovariate(rate)
        offsets.append(clock)
    return offsets


def run_loadtest(sessions: int = 64, duration_s: float = 5.0,
                 seed: int = 0, procs: int = 2,
                 max_sessions: int = DEFAULT_MAX_SESSIONS,
                 max_pending: Optional[int] = None,
                 trace: Optional[SectionTrace] = None,
                 server: Optional[SessionServer] = None) -> Dict:
    """Offer *sessions* over *duration_s* seconds; measure the truth.

    Returns a JSON-ready payload: offered/achieved rates, exact
    client-observed latency quantiles, shed counts split by reason,
    the server's closing load snapshot and its ``served.*``
    instrument snapshot.  Pass an existing *server* to bench it in
    place (it is not stopped afterwards); otherwise a private one is
    started and torn down.
    """
    trace = trace if trace is not None else _loadtest_trace(seed)
    config = RunConfig(n_procs=procs)
    offsets = arrival_offsets(sessions, duration_s, seed)
    owned = server is None
    if owned:
        server = SessionServer(max_sessions, max_pending=max_pending)
        server.start()
    log_event(_LOG, "loadtest.start", sessions=sessions,
              duration_s=duration_s, seed=seed, procs=procs,
              rate_per_s=sessions / duration_s)
    futures = []
    shed = {"overloaded": 0, "draining": 0}
    errors: Dict[str, int] = {}
    #: session index -> seconds from scheduled arrival to completion
    stamps: Dict[int, float] = {}
    finished = threading.Semaphore(0)

    def stamp(index: int, due: float):
        def done(_future) -> None:
            stamps[index] = time.perf_counter() - due
            finished.release()
        return done

    start = time.perf_counter()
    try:
        for index, offset in enumerate(offsets):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                future = server.submit(trace, config)
            except SessionOverloaded as err:
                shed[err.code] = shed.get(err.code, 0) + 1
                continue
            future.add_done_callback(stamp(index, due))
            futures.append((index, future))
        # result() can return before a future's callbacks have run, so
        # wait for the callbacks themselves.
        give_up = time.perf_counter() + exec_timeout_s(60.0)
        for _ in futures:
            if not finished.acquire(
                    timeout=max(0.0, give_up - time.perf_counter())):
                break
        latencies: List[float] = []
        for index, future in futures:
            try:
                future.result(timeout=0)
                latencies.append(stamps[index])
            except SessionOverloaded as err:
                shed[err.code] = shed.get(err.code, 0) + 1
            except Exception as err:
                name = type(err).__name__
                errors[name] = errors.get(name, 0) + 1
        wall_s = time.perf_counter() - start
        load = server.load
    finally:
        if owned:
            server.stop()
    latencies.sort()
    completed = len(latencies)
    payload = {
        "bench": "served_loadtest",
        "sessions": sessions,
        "duration_s": duration_s,
        "seed": seed,
        "procs": procs,
        "max_sessions": server.max_sessions,
        "max_pending": server.max_pending,
        "offered_rate_per_s": sessions / duration_s,
        "wall_s": wall_s,
        "completed": completed,
        "throughput_per_s": completed / wall_s if wall_s else 0.0,
        "shed": {"total": sum(shed.values()), **shed},
        "errors": errors,
        "latency_s": {
            "count": completed,
            "mean": (sum(latencies) / completed) if completed else None,
            "min": latencies[0] if latencies else None,
            "max": latencies[-1] if latencies else None,
            "p50": _exact_quantile(latencies, 0.5),
            "p90": _exact_quantile(latencies, 0.9),
            "p95": _exact_quantile(latencies, 0.95),
            "p99": _exact_quantile(latencies, 0.99),
        },
        "server_load": load,
        "obs": get_registry().snapshot("served."),
    }
    log_event(_LOG, "loadtest.done", completed=completed,
              shed=payload["shed"]["total"],
              throughput_per_s=round(payload["throughput_per_s"], 1))
    return payload
