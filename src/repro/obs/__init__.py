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
* :mod:`~repro.obs.spans` — the one span type, category vocabulary
  and row naming shared by simulated and live timelines, and their
  Chrome-trace / JSONL exporters.
* :mod:`~repro.obs.trace` — distributed tracing for the live executor
  backends: per-actor flight recorders, span-context propagation over
  the Section 3.2 message protocol, clock-aligned merge, measured
  attribution and post-mortem dumps.
"""

from .logging import (configure_logging, get_logger, log_event,
                      verbosity_level)
from .metrics import (Counter, Histogram, MetricsRegistry, get_registry,
                      prometheus_text, reset_registry)
from .spans import (Span, chrome_trace, timeline_jsonl, write_chrome_trace,
                    write_timeline_jsonl)
from .trace import (FlightRecorder, LiveTimeline, LiveTraceCollector,
                    dump_flight, live_attribution, reconcile_live)

__all__ = [
    "configure_logging", "get_logger", "log_event", "verbosity_level",
    "Counter", "Histogram", "MetricsRegistry", "get_registry",
    "prometheus_text", "reset_registry",
    "Span", "chrome_trace", "timeline_jsonl", "write_chrome_trace",
    "write_timeline_jsonl",
    "FlightRecorder", "LiveTimeline", "LiveTraceCollector",
    "dump_flight", "live_attribution", "reconcile_live",
]
