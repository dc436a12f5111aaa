"""Backend ``served``: one asyncio server, many concurrent sessions.

The paper simulates one production system at a time; a served
deployment multiplexes many.  :class:`SessionServer` owns a background
thread running a persistent asyncio event loop and hosts each
submitted run as one *session* — a full actor engine
(:func:`repro.exec.actors.run_section_async`, supervised like every
live run) with its own mailboxes, actor cores and plan stream.
Working memory stays sharded per session: no mailbox, core or bucket
partition is shared between sessions, so concurrent sessions are
isolated by construction and their results equal a solo run's.  WME changes are batched exactly as
in the single-session backends — one plan broadcast per recognize-act
cycle.

A session limit (:data:`DEFAULT_MAX_SESSIONS`) bounds concurrency;
excess submissions queue on the loop's semaphore — but only up to a
configurable high-water mark (*max_pending*).  Past it the server
*sheds load*: the session fails fast with a typed
:class:`~repro.exec.errors.SessionOverloaded` instead of queueing
unboundedly, and the TCP front-end answers with a structured JSON
error (``{"ok": false, "code": "overloaded", ...}``) instead of
hanging the client.  An optional TCP front-end
(:meth:`SessionServer.serve_tcp`) accepts JSON-line requests
(``{"section": "rubik", "procs": 8, "overhead": 8, "seed": 0}``) and
answers with one JSON line of result counters — enough to drive a
served deployment from anything that can speak newline-delimited JSON.
The front-end also serves health probes (``{"op": "health"}`` /
``{"op": "ready"}``) reporting uptime, active/pending load,
session/shed totals and drain state, plus an ``{"op": "stats"}``
probe returning the full process metrics snapshot; a companion
:meth:`SessionServer.serve_metrics` HTTP endpoint exposes the same
registry in Prometheus text format for scrapers (stdlib
``http.server``, no dependencies).  Completed sessions feed a
``served.session_latency_s`` histogram, so latency quantiles (p50/
p95/p99) are always one probe away — ``repro loadtest`` builds its
report from exactly these instruments.  :meth:`SessionServer.stop`
performs a *draining* shutdown by default: stop accepting, finish
in-flight cycles (deadline-bounded, ``REPRO_EXEC_TIMEOUT_S``-
overridable), then tear the loop down.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import threading
import time
from typing import Callable, Optional

from ..mpc.config import OVERHEADS, RunConfig
from ..obs import get_logger, get_registry, log_event, prometheus_text
from ..trace.events import SectionTrace
from .actors import _check_supported, run_section_async
from .base import RunHandle, RunResult
from .errors import SessionOverloaded, exec_timeout_s

_LOG = get_logger("repro.exec.served")

#: Sessions allowed to run concurrently before new ones queue.
DEFAULT_MAX_SESSIONS = 32

#: Default high-water mark: queued-but-not-running sessions allowed
#: per ``max_sessions`` before the server sheds instead of queueing.
PENDING_PER_SESSION = 4


def _default_trace_loader(section: str, seed: int = 0) -> SectionTrace:
    from ..workloads import (rubik_section, tourney_section,
                             weaver_section)
    sections = {"rubik": rubik_section, "tourney": tourney_section,
                "weaver": weaver_section}
    if section not in sections:
        raise ValueError(f"unknown section {section!r}; "
                         f"choose from {sorted(sections)}")
    return sections[section](seed)


class SessionServer:
    """A background asyncio loop hosting concurrent match sessions."""

    def __init__(self, max_sessions: int = DEFAULT_MAX_SESSIONS,
                 max_pending: Optional[int] = None) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if max_pending is None:
            max_pending = PENDING_PER_SESSION * max_sessions
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_sessions = max_sessions
        self.max_pending = max_pending
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._tcp_server = None
        self._metrics_server = None
        self._lock = threading.Lock()
        self._started_at: Optional[float] = None
        # Load bookkeeping, mutated only on the loop thread.
        self._active = 0
        self._pending = 0
        self._draining = False
        self._sessions_started = 0
        self._sessions_completed = 0
        self._sessions_failed = 0
        self._shed_overloaded = 0
        self._shed_draining = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "SessionServer":
        with self._lock:
            if self._thread is not None:
                return self
            started = threading.Event()

            def loop_main() -> None:
                loop = asyncio.new_event_loop()
                asyncio.set_event_loop(loop)
                self._loop = loop
                self._semaphore = asyncio.Semaphore(self.max_sessions)
                self._active = self._pending = 0
                self._draining = False
                self._sessions_started = 0
                self._sessions_completed = 0
                self._sessions_failed = 0
                self._shed_overloaded = self._shed_draining = 0
                self._started_at = time.monotonic()
                started.set()
                try:
                    loop.run_forever()
                finally:
                    loop.close()

            self._thread = threading.Thread(target=loop_main,
                                            name="repro-session-server",
                                            daemon=True)
            self._thread.start()
            started.wait()
        return self

    def stop(self, drain: bool = True,
             timeout: Optional[float] = None) -> None:
        """Shut the server down.

        With *drain* (the default) the listener closes first, new
        sessions are shed with code ``"draining"``, and in-flight
        sessions get up to *timeout* seconds (default
        :func:`~repro.exec.errors.exec_timeout_s` capped at 10 s) to
        finish before anything is cancelled.  ``drain=False`` cancels
        everything immediately.
        """
        base = exec_timeout_s(10.0) if timeout is None else timeout
        with self._lock:
            thread, loop = self._thread, self._loop
            # The semaphore stays alive until the drain completes:
            # sessions submitted before stop() may not have entered it
            # yet, and must drain normally rather than crash.
            self._thread = self._loop = None
        metrics = self._metrics_server
        self._metrics_server = None
        if metrics is not None:
            metrics.shutdown()
            metrics.server_close()
        if loop is None or thread is None:
            return
        server = self._tcp_server
        self._tcp_server = None
        drain_s = base if drain else 0.0
        asyncio.run_coroutine_threadsafe(
            self._drain_loop(server, drain_s),
            loop).result(timeout=drain_s + base)
        self._semaphore = None
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=base)

    def __enter__(self) -> "SessionServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._thread is not None

    # -- sessions -----------------------------------------------------------

    def submit(self, trace: SectionTrace,
               config: RunConfig) -> concurrent.futures.Future:
        """Open a session for ``(trace, config)``; future of the raw
        ``(SimResult, fires, wall_s)`` triple."""
        _check_supported(config)
        if config.live_trace:
            raise ValueError(
                "the served backend does not support live tracing; "
                "use backend 'actors' with --trace-live")
        self.start()
        return asyncio.run_coroutine_threadsafe(
            self._session(trace, config), self._loop)

    async def _session(self, trace: SectionTrace, config: RunConfig):
        self._shed_check()
        self._pending += 1
        acquired = False
        queued_at = time.perf_counter()
        try:
            async with self._semaphore:
                self._pending -= 1
                acquired = True
                self._active += 1
                self._sessions_started += 1
                get_registry().counter("served.sessions").inc()
                try:
                    value = await run_section_async(trace, config)
                except BaseException:
                    self._sessions_failed += 1
                    get_registry().counter("served.failed").inc()
                    raise
                finally:
                    self._active -= 1
                self._sessions_completed += 1
                get_registry().counter("served.completed").inc()
                # Queue wait included: this is the latency a client sees.
                get_registry().histogram(
                    "served.session_latency_s").observe(
                        time.perf_counter() - queued_at)
                return value
        finally:
            if not acquired:
                self._pending -= 1

    def _shed_check(self) -> None:
        """Raise :class:`SessionOverloaded` when this session must be
        shed (draining shutdown, or queue past the high-water mark)."""
        if self._draining:
            self._shed_draining += 1
            get_registry().counter("served.shed").inc()
            get_registry().counter("served.shed.draining").inc()
            log_event(_LOG, "served.shed", reason="draining")
            raise SessionOverloaded(
                "server is draining; no new sessions accepted",
                code="draining")
        if self._pending >= self.max_pending:
            self._shed_overloaded += 1
            get_registry().counter("served.shed").inc()
            get_registry().counter("served.shed.overloaded").inc()
            log_event(_LOG, "served.shed", reason="overloaded",
                      pending=self._pending, active=self._active)
            raise SessionOverloaded(
                f"server overloaded: {self._pending} sessions queued "
                f"(high-water mark {self.max_pending}); retry later",
                code="overloaded")

    @property
    def load(self) -> dict:
        """A point-in-time load snapshot (health-probe payload)."""
        uptime = (time.monotonic() - self._started_at
                  if self._started_at is not None else 0.0)
        return {
            "active": self._active,
            "pending": self._pending,
            "max_sessions": self.max_sessions,
            "max_pending": self.max_pending,
            "draining": self._draining,
            "uptime_s": round(uptime, 3),
            "sessions": {
                "started": self._sessions_started,
                "completed": self._sessions_completed,
                "failed": self._sessions_failed,
            },
            "shed": {
                "total": self._shed_overloaded + self._shed_draining,
                "overloaded": self._shed_overloaded,
                "draining": self._shed_draining,
            },
        }

    # -- TCP front-end ------------------------------------------------------

    def serve_tcp(self, host: str = "127.0.0.1", port: int = 0,
                  trace_loader: Optional[Callable[..., SectionTrace]]
                  = None) -> int:
        """Accept JSON-line session requests on *host*; returns the
        bound port (``port=0`` picks a free one)."""
        self.start()
        loader = trace_loader or _default_trace_loader

        async def handle(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
            try:
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    reply = await self._handle_request(line, loader)
                    writer.write(json.dumps(reply).encode() + b"\n")
                    await writer.drain()
            except asyncio.CancelledError:
                pass  # server shutting down with the connection open
            finally:
                writer.close()

        async def start_server():
            server = await asyncio.start_server(handle, host, port)
            self._tcp_server = server
            return server.sockets[0].getsockname()[1]

        return asyncio.run_coroutine_threadsafe(
            start_server(), self._loop).result(
                timeout=exec_timeout_s(10.0))

    async def _handle_request(self, line: bytes, loader) -> dict:
        """One JSON-line request → one structured JSON reply.

        Error replies always carry a machine-readable ``code``:
        ``"overloaded"`` / ``"draining"`` for shed load,
        ``"bad_request"`` for malformed input, ``"error"`` otherwise
        (including typed executor failures, whose class name rides in
        ``"error_type"``).
        """
        try:
            request = json.loads(line)
            op = request.get("op")
            if op in ("health", "ready"):
                return self._probe_reply(op)
            if op == "stats":
                return {"ok": True, "op": "stats", "load": self.load,
                        "obs": get_registry().snapshot()}
            trace = loader(request["section"],
                           int(request.get("seed", 0)))
            overhead = int(request.get("overhead", 0))
            overheads = OVERHEADS.get(overhead)
            if overhead and overheads is None:
                raise ValueError(f"overhead must be one of "
                                 f"{sorted(OVERHEADS)} or 0")
            config = RunConfig(n_procs=int(request.get("procs", 1)),
                               **({"overheads": overheads}
                                  if overheads else {}))
            result, fires, wall_s = await self._session(trace, config)
        except SessionOverloaded as err:
            return {"ok": False, "error": str(err), "code": err.code}
        except (KeyError, ValueError, TypeError,
                json.JSONDecodeError) as err:
            return {"ok": False, "error": str(err),
                    "code": "bad_request"}
        except Exception as err:
            return {"ok": False, "error": str(err), "code": "error",
                    "error_type": type(err).__name__}
        return {
            "ok": True,
            "section": trace.name,
            "procs": config.n_procs,
            "cycles": len(result.cycles),
            "total_us": result.total_us,
            "n_messages": result.n_messages,
            "fires": [list(f) for f in fires],
            "wall_s": wall_s,
        }

    def _probe_reply(self, op: str) -> dict:
        load = self.load
        if op == "health":
            return {"ok": True, "op": "health",
                    "status": "draining" if load["draining"] else "up",
                    **load}
        ready = (not load["draining"]
                 and load["pending"] < load["max_pending"])
        return {"ok": True, "op": "ready", "ready": ready, **load}

    # -- metrics scrape endpoint --------------------------------------------

    def serve_metrics(self, host: str = "127.0.0.1",
                      port: int = 0) -> int:
        """Expose the metrics registry over HTTP; returns the bound
        port (``port=0`` picks a free one).

        ``GET /metrics`` answers in the Prometheus text exposition
        format (:func:`~repro.obs.metrics.prometheus_text`); ``GET
        /health`` and ``GET /ready`` answer the same JSON payloads as
        the TCP probes.  Runs on a stdlib :class:`http.server
        .ThreadingHTTPServer` in a daemon thread — no dependencies,
        torn down by :meth:`stop`.
        """
        from http.server import (BaseHTTPRequestHandler,
                                 ThreadingHTTPServer)
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:
                if self.path.rstrip("/") in ("", "/metrics"):
                    body = prometheus_text(get_registry()).encode()
                    ctype = ("text/plain; version=0.0.4; "
                             "charset=utf-8")
                elif self.path.rstrip("/") in ("/health", "/ready"):
                    reply = server._probe_reply(
                        self.path.strip("/"))
                    body = json.dumps(reply).encode() + b"\n"
                    ctype = "application/json"
                else:
                    self.send_error(404)
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:
                pass  # routed through repro logging, not stderr

        self.start()
        httpd = ThreadingHTTPServer((host, port), Handler)
        self._metrics_server = httpd
        threading.Thread(target=httpd.serve_forever,
                         name="repro-metrics-server",
                         daemon=True).start()
        port = httpd.server_address[1]
        log_event(_LOG, "served.metrics", host=host, port=port)
        return port

    # -- shutdown -----------------------------------------------------------

    async def _drain_loop(self, server, drain_s: float) -> None:
        """Draining shutdown on the loop thread: close the listener,
        shed new sessions, give in-flight ones *drain_s* seconds to
        finish, then cancel whatever is left (idle client handlers,
        overdue sessions) so the loop stops clean."""
        self._draining = True
        if server is not None:
            server.close()
            await server.wait_closed()
        if drain_s > 0.0:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + drain_s
            while ((self._active or self._pending)
                   and loop.time() < deadline):
                await asyncio.sleep(0.01)
            # Grace tick: let handlers flush replies for sessions that
            # just finished before their tasks are cancelled.
            await asyncio.sleep(0.05)
        current = asyncio.current_task()
        leftovers = [task for task in asyncio.all_tasks()
                     if task is not current]
        if leftovers:
            log_event(_LOG, "served.drain",
                      cancelled=len(leftovers),
                      active=self._active, pending=self._pending)
        for task in leftovers:
            task.cancel()
        await asyncio.gather(*leftovers, return_exceptions=True)


class ServedExecutor:
    """Backend ``served``: sessions on a shared :class:`SessionServer`.

    Submissions from any thread multiplex onto one background loop;
    each returns immediately with a joinable handle, so N overlapping
    ``submit`` calls are N concurrent sessions.
    """

    name = "served"

    def __init__(self, max_sessions: int = DEFAULT_MAX_SESSIONS,
                 max_pending: Optional[int] = None,
                 server: Optional[SessionServer] = None) -> None:
        self._server = server or SessionServer(max_sessions,
                                               max_pending=max_pending)

    @property
    def server(self) -> SessionServer:
        return self._server

    def submit(self, trace: SectionTrace,
               config: RunConfig) -> RunHandle:
        future = self._server.submit(trace, config)

        def wrap(value) -> RunResult:
            result, fires, wall_s = value
            return RunResult(backend=self.name, result=result,
                             fires=fires, wall_s=wall_s)
        return RunHandle.from_future(future, wrap)

    def close(self) -> None:
        self._server.stop()

    def __enter__(self) -> "ServedExecutor":
        self._server.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
