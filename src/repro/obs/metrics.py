"""Process-local metrics: named counters and histograms in a registry.

The harness is a batch tool, not a server, so this is intentionally the
smallest thing that works: plain Python objects, no locks (CPython's
GIL makes ``+=`` on an int effectively atomic for our purposes, and
worker processes each carry their own registry), and a
:meth:`MetricsRegistry.snapshot` that returns JSON-ready dicts for the
CLI's machine-readable outputs.

Typical use::

    from repro.obs import get_registry

    get_registry().counter("check.cases").inc()
    get_registry().histogram("served.session_latency_s").observe(elapsed)
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional

#: Reservoir size per histogram: enough for stable p99 estimates on
#: tens of thousands of observations without unbounded memory.
RESERVOIR_SIZE = 512


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self._value += n

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self._value})"


class Histogram:
    """Summary statistics, power-of-two buckets, and quantiles.

    Buckets are keyed by ``ceil(log2(value))`` (with a dedicated bucket
    for zero), which is plenty to tell "microseconds" from "seconds" in
    a report without storing every sample.  Quantiles come from a
    bounded **reservoir sample** (Vitter's algorithm R, at most
    :data:`RESERVOIR_SIZE` kept values): exact until the reservoir
    fills, an unbiased uniform sample after.  The reservoir's RNG is
    seeded from the histogram name, so a deterministic workload yields
    deterministic quantile estimates run over run.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets",
                 "_reservoir", "_rng")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}
        self._reservoir: List[float] = []
        self._rng = random.Random(name)

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError("histogram values must be >= 0")
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        bucket = -1 if value == 0 else math.ceil(math.log2(value)) \
            if value > 1 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        if len(self._reservoir) < RESERVOIR_SIZE:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < RESERVOIR_SIZE:
                self._reservoir[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """The *q*-quantile (``0 <= q <= 1``) of the sampled values,
        by linear interpolation; ``None`` before any observation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if not self._reservoir:
            return None
        ordered = sorted(self._reservoir)
        if len(ordered) == 1:
            return ordered[0]
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def summary(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    def __repr__(self) -> str:
        return (f"Histogram({self.name}: n={self.count}, "
                f"mean={self.mean:g})")


class MetricsRegistry:
    """A flat namespace of counters and histograms.

    Names are dotted strings (``"check.failures"``); asking for an
    existing name returns the existing instrument, so call sites never
    need to coordinate creation.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            if name in self._histograms:
                raise ValueError(f"{name!r} is already a histogram")
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            if name in self._counters:
                raise ValueError(f"{name!r} is already a counter")
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def counters(self, prefix: str = "") -> List[Counter]:
        return [c for name, c in sorted(self._counters.items())
                if name.startswith(prefix)]

    def snapshot(self, prefix: str = "") -> Dict[str, object]:
        """JSON-ready view: counter values and histogram summaries."""
        out: Dict[str, object] = {}
        for name, counter in sorted(self._counters.items()):
            if name.startswith(prefix):
                out[name] = counter.value
        for name, histogram in sorted(self._histograms.items()):
            if name.startswith(prefix):
                out[name] = histogram.summary()
        return out

    def reset(self) -> None:
        self._counters.clear()
        self._histograms.clear()


def _prom_name(name: str) -> str:
    """Sanitize a dotted instrument name to the Prometheus charset."""
    out = "".join(ch if ch.isalnum() or ch == "_" else "_"
                  for ch in name)
    return "repro_" + out


def prometheus_text(registry: "MetricsRegistry") -> str:
    """Render *registry* in the Prometheus text exposition format.

    Counters become ``repro_<name>_total`` counters; histograms become
    summaries (``_count`` / ``_sum`` plus ``quantile``-labeled sample
    lines from the reservoir).  Stdlib-only — the served stats endpoint
    (:meth:`repro.exec.served.SessionServer.serve_metrics`) serves
    this string so any Prometheus scraper can watch a live server.
    """
    lines: List[str] = []
    for name, counter in sorted(registry._counters.items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom}_total counter")
        lines.append(f"{prom}_total {counter.value}")
    for name, histogram in sorted(registry._histograms.items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} summary")
        for q in (0.5, 0.9, 0.95, 0.99):
            value = histogram.quantile(q)
            if value is not None:
                lines.append(f"{prom}{{quantile=\"{q:g}\"}} {value:g}")
        lines.append(f"{prom}_sum {histogram.total:g}")
        lines.append(f"{prom}_count {histogram.count}")
    return "\n".join(lines) + "\n"


#: The process-wide default registry (worker processes get their own).
_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _registry


def reset_registry() -> None:
    """Clear the default registry (test isolation)."""
    _registry.reset()
