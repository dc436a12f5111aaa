"""Observability primitives: a metrics registry and structured logging.

This package is deliberately dependency-free (stdlib only) and imported
by every layer of the harness — the conformance harness counts its
progress (``check.cases``, ``check.failures``, ``check.oracle_runs``,
``check.invariant_runs``, ``check.shrink_evals``), the live executors
count supervisor restarts, chaos faults and shed sessions, the CLI
routes its warnings through one configurable logger — so a single
``--json`` snapshot or ``-v`` flag surfaces what the whole stack did.

* :mod:`~repro.obs.metrics` — process-local counters and histograms
  (with reservoir quantiles), collected in a named registry,
  snapshotted as plain dicts or rendered as Prometheus text.
* :mod:`~repro.obs.logging` — the ``repro.*`` logger hierarchy with a
  verbosity-level configurator (``--quiet`` / ``-v`` / ``-vv``) and a
  ``key=value`` structured-event helper.
* :mod:`~repro.obs.trace` — distributed tracing for the live executor
  backends: per-actor flight recorders, span-context propagation over
  the Section 3.2 message protocol, clock-aligned merge, Chrome-trace
  / JSONL export, measured attribution and post-mortem dumps.
"""

from .logging import (configure_logging, get_logger, log_event,
                      verbosity_level)
from .metrics import (Counter, Histogram, MetricsRegistry, get_registry,
                      prometheus_text, reset_registry)
from .trace import (FlightRecorder, LiveSpan, LiveTimeline,
                    LiveTraceCollector, chrome_trace_live, dump_flight,
                    live_attribution, live_jsonl, reconcile_live,
                    write_chrome_trace_live, write_live_jsonl)

__all__ = [
    "configure_logging", "get_logger", "log_event", "verbosity_level",
    "Counter", "Histogram", "MetricsRegistry", "get_registry",
    "prometheus_text", "reset_registry",
    "FlightRecorder", "LiveSpan", "LiveTimeline", "LiveTraceCollector",
    "chrome_trace_live", "dump_flight", "live_attribution",
    "live_jsonl", "reconcile_live", "write_chrome_trace_live",
    "write_live_jsonl",
]
