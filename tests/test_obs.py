"""Tests of the observability layer: metrics registry and logging."""

import io
import logging
import sys

import pytest

from repro.obs import (configure_logging, get_logger, get_registry,
                       log_event, reset_registry, verbosity_level)
from repro.obs.metrics import Counter, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("x")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestHistogram:
    def test_summary_statistics(self):
        histogram = Histogram("t")
        for value in (0.0, 1.0, 2.0, 8.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == 11.0
        assert histogram.mean == pytest.approx(2.75)
        assert histogram.min == 0.0 and histogram.max == 8.0

    def test_power_of_two_buckets(self):
        histogram = Histogram("t")
        histogram.observe(0.0)    # zero bucket (-1)
        histogram.observe(0.5)    # <= 1 -> bucket 0
        histogram.observe(3.0)    # ceil(log2 3) = 2
        histogram.observe(4.0)    # ceil(log2 4) = 2
        assert histogram.buckets == {-1: 1, 0: 1, 2: 2}

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Histogram("t").observe(-0.5)

    def test_empty_mean_is_zero(self):
        assert Histogram("t").mean == 0.0


class TestRegistry:
    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.histogram("h")
        with pytest.raises(ValueError):
            registry.histogram("a")
        with pytest.raises(ValueError):
            registry.counter("h")

    def test_snapshot_is_json_ready_and_prefixed(self):
        import json
        registry = MetricsRegistry()
        registry.counter("cache.hits").inc(3)
        registry.counter("other.n").inc()
        registry.histogram("cache.ms").observe(2.0)
        snap = registry.snapshot("cache.")
        json.dumps(snap)
        assert snap["cache.hits"] == 3
        assert "other.n" not in snap
        assert snap["cache.ms"]["count"] == 1

    def test_counters_listing_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a")
        assert [c.name for c in registry.counters()] == ["a", "b"]

    def test_default_registry_reset(self):
        get_registry().counter("test_obs.tmp").inc()
        reset_registry()
        assert get_registry().snapshot("test_obs.") == {}


class TestLogging:
    def test_verbosity_mapping(self):
        assert verbosity_level() == logging.WARNING
        assert verbosity_level(verbose=1) == logging.INFO
        assert verbosity_level(verbose=2) == logging.DEBUG
        assert verbosity_level(verbose=5) == logging.DEBUG
        assert verbosity_level(verbose=3, quiet=True) == logging.ERROR

    def test_get_logger_normalizes_names(self):
        assert get_logger("exec.served") is \
            logging.getLogger("repro.exec.served")
        assert get_logger("repro.trace") is logging.getLogger("repro.trace")
        assert get_logger("") is logging.getLogger("repro")

    def test_configure_is_idempotent(self):
        root = logging.getLogger("repro")
        before = len(root.handlers)
        configure_logging(verbose=1)
        after_first = len(root.handlers)
        configure_logging(verbose=2)
        configure_logging(quiet=True)
        assert len(root.handlers) == after_first
        assert after_first <= before + 1
        # leave the suite in the default state
        configure_logging()

    def test_configured_stream_receives_messages(self):
        stream = io.StringIO()
        configure_logging(verbose=1, stream=stream)
        get_logger("test_obs").info("hello %d", 7)
        configure_logging(stream=sys.stderr)  # restore for other tests
        assert "INFO repro.test_obs: hello 7" in stream.getvalue()

    def test_log_event_formatting(self):
        stream = io.StringIO()
        configure_logging(verbose=2, stream=stream)
        log_event(get_logger("test_obs"), "cache_hit",
                  key="abc", elapsed=1.25, note="two words", n=3)
        configure_logging(stream=sys.stderr)
        line = stream.getvalue().strip()
        assert "cache_hit key=abc elapsed=1.25 note='two words' n=3" \
            in line

    def test_log_event_skips_when_disabled(self):
        stream = io.StringIO()
        configure_logging(quiet=True, stream=stream)
        log_event(get_logger("test_obs"), "noisy", level=logging.DEBUG)
        configure_logging(stream=sys.stderr)
        assert stream.getvalue() == ""
