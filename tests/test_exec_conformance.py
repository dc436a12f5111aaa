"""Cross-backend conformance: live actors vs the discrete simulator,
and the served multi-session mode.

The property pinned here is the PR's core claim: a *real* asyncio run
of the Section 3.2 message protocol produces the same match outcome —
per-processor activation counts, message counts, conflict-set
deliveries — as the discrete-event simulator, on arbitrary generated
traces.  The served mode must additionally keep concurrent sessions
isolated: N overlapping sessions each equal a solo run.
"""

import json
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.generate import generate_cases
from repro.exec import (ServedExecutor, SessionServer, match_signature,
                        run)
from repro.mpc import TABLE_5_1, RunConfig, simulate_config
from repro.workloads import rubik_section, weaver_section

from tests.test_simulator_properties import random_traces

OV8 = next(o for o in TABLE_5_1 if o.total_us == 8)


def signatures_match(trace, config):
    live = run(trace, config, backend="actors")
    sim = run(trace, config)
    assert match_signature(live) == match_signature(sim)


@settings(max_examples=25, deadline=None)
@given(trace=random_traces(),
       n_procs=st.integers(min_value=1, max_value=8),
       overheads=st.sampled_from(TABLE_5_1))
def test_actors_equal_sim_on_random_traces(trace, n_procs, overheads):
    """Property: identical match/fire sequences on arbitrary traces."""
    signatures_match(trace, RunConfig(n_procs=n_procs,
                                      overheads=overheads))


@pytest.mark.parametrize("case", [
    c for c in generate_cases(seed=0, budget=10) if c.family != "program"
], ids=lambda c: f"{c.family}-{c.index}")
def test_actors_equal_sim_on_adversarial_cases(case):
    """The conformance harness's own generated hard cases (cross
    products, modify bursts, empty cycles, deep chains...)."""
    signatures_match(case.trace, RunConfig(n_procs=4, overheads=OV8))


class TestServedSessions:
    def test_concurrent_sessions_are_isolated(self):
        """N overlapping sessions on different traces: each equals its
        own solo run — no shared working memory bleeds through."""
        traces = [rubik_section(), weaver_section(),
                  rubik_section(seed=3), weaver_section(seed=5)]
        config = RunConfig(n_procs=4, overheads=OV8)
        with ServedExecutor(max_sessions=2) as executor:
            handles = [executor.submit(trace, config)
                       for trace in traces]
            outcomes = [handle.result() for handle in handles]
        for trace, outcome in zip(traces, outcomes):
            assert outcome.backend == "served"
            solo = simulate_config(trace, config)
            assert match_signature(outcome) == \
                match_signature(run(trace, config))
            # Counters match the simulator field for field; only the
            # makespan differs (wall time on a live backend).
            for live_cycle, sim_cycle in zip(outcome.result.cycles,
                                             solo.cycles):
                assert live_cycle.proc_busy_us == sim_cycle.proc_busy_us
                assert live_cycle.n_messages == sim_cycle.n_messages
                assert live_cycle.network_busy_us == \
                    sim_cycle.network_busy_us
                assert live_cycle.control_busy_us == \
                    sim_cycle.control_busy_us

    def test_same_input_sessions_identical(self):
        trace = rubik_section()
        config = RunConfig(n_procs=8, overheads=OV8)
        with ServedExecutor() as executor:
            outcomes = [executor.submit(trace, config).result()
                        for _ in range(4)]
        first = match_signature(outcomes[0])
        for outcome in outcomes[1:]:
            assert match_signature(outcome) == first

    def test_session_limit_validated(self):
        with pytest.raises(ValueError, match="max_sessions"):
            SessionServer(max_sessions=0)

    def test_run_front_door(self):
        trace = rubik_section()
        config = RunConfig(n_procs=2)
        outcome = run(trace, config, backend="served")
        assert match_signature(outcome) == \
            match_signature(run(trace, config))


class TestTcpFrontEnd:
    def request(self, port, payload):
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=30) as sock:
            sock.sendall(json.dumps(payload).encode() + b"\n")
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
        return json.loads(reply)

    def test_json_line_session(self):
        with SessionServer(max_sessions=4) as server:
            port = server.serve_tcp()
            reply = self.request(port, {"section": "rubik", "procs": 8,
                                        "overhead": 8})
        assert reply["ok"]
        assert reply["section"] == "rubik"
        expected = run(rubik_section(),
                       RunConfig(n_procs=8, overheads=OV8))
        assert reply["cycles"] == len(expected.result.cycles)
        assert reply["n_messages"] == expected.result.n_messages
        assert reply["total_us"] > 0  # wall time on a live backend
        assert reply["wall_s"] > 0
        assert [tuple(f) for f in reply["fires"]] == expected.fires

    def test_bad_requests_answered_not_dropped(self):
        with SessionServer() as server:
            port = server.serve_tcp()
            unknown = self.request(port, {"section": "nope"})
            bad_overhead = self.request(port, {"section": "rubik",
                                               "overhead": 7})
        assert not unknown["ok"]
        assert "unknown section" in unknown["error"]
        assert not bad_overhead["ok"]
        assert "overhead" in bad_overhead["error"]


class TestServedObservability:
    """Satellite contract: a served deployment is probe-able — uptime,
    session/shed totals, a full stats snapshot, latency quantiles and
    a Prometheus scrape endpoint, all stdlib-only."""

    def test_probes_carry_uptime_sessions_and_shed(self):
        trace = rubik_section()
        with SessionServer(max_sessions=4) as server:
            server.submit(trace, RunConfig(n_procs=2)).result(
                timeout=60)
            health = server._probe_reply("health")
        assert health["uptime_s"] >= 0.0
        assert health["sessions"]["started"] == 1
        assert health["sessions"]["completed"] == 1
        assert health["sessions"]["failed"] == 0
        assert health["shed"] == {"total": 0, "overloaded": 0,
                                  "draining": 0}

    def test_stats_op_returns_load_and_registry(self):
        trace = rubik_section()
        with SessionServer(max_sessions=4) as server:
            port = server.serve_tcp()
            server.submit(trace, RunConfig(n_procs=2)).result(
                timeout=60)
            stats = TestTcpFrontEnd().request(port, {"op": "stats"})
        assert stats["ok"] and stats["op"] == "stats"
        assert stats["load"]["sessions"]["completed"] == 1
        # The registry is process-global: earlier tests' sessions
        # accumulate, so assert floors, not exact counts.
        latency = stats["obs"]["served.session_latency_s"]
        assert latency["count"] >= 1
        assert latency["p99"] is not None
        assert stats["obs"]["served.completed"] >= 1

    def test_metrics_endpoint_scrapes_prometheus_text(self):
        import urllib.request
        trace = rubik_section()
        with SessionServer(max_sessions=4) as server:
            metrics_port = server.serve_metrics()
            server.submit(trace, RunConfig(n_procs=2)).result(
                timeout=60)
            base = f"http://127.0.0.1:{metrics_port}"
            text = urllib.request.urlopen(
                f"{base}/metrics", timeout=30).read().decode()
            ready = json.loads(urllib.request.urlopen(
                f"{base}/ready", timeout=30).read())
        assert "# TYPE repro_served_sessions_total counter" in text
        assert "repro_served_session_latency_s_count" in text
        assert 'quantile="0.99"' in text
        assert ready["ok"] and ready["ready"]

    def test_live_trace_rejected(self):
        trace = rubik_section()
        server = SessionServer(max_sessions=2)
        try:
            with pytest.raises(ValueError, match="live tracing"):
                server.submit(trace, RunConfig(n_procs=2,
                                               live_trace=True))
        finally:
            server.stop()


class TestLoadtest:
    def test_arrival_schedule_is_deterministic(self):
        from repro.exec import arrival_offsets
        a = arrival_offsets(100, 2.0, seed=7)
        assert a == arrival_offsets(100, 2.0, seed=7)
        assert a != arrival_offsets(100, 2.0, seed=8)
        assert len(a) == 100
        assert all(x < y for x, y in zip(a, a[1:]))

    def test_accounting_balances_and_quantiles_ordered(self):
        from repro.exec import run_loadtest
        payload = run_loadtest(sessions=12, duration_s=0.3, seed=3,
                               procs=2)
        assert payload["completed"] + payload["shed"]["total"] \
            + sum(payload["errors"].values()) == 12
        latency = payload["latency_s"]
        if latency["count"]:
            assert latency["p50"] <= latency["p95"] <= latency["p99"]
            assert latency["p99"] <= latency["max"]

    def test_client_latency_tracks_server_latency(self):
        """On a trivially fast server the client-observed p50 is the
        server's own session latency plus dispatch, not an artifact of
        when the driver collects results."""
        from repro.exec import run_loadtest
        from repro.obs import reset_registry
        from repro.workloads.generator import SectionSpec, generate_section
        tiny = generate_section(SectionSpec(
            name="tiny", cycles=1, right_activations=4, left_activations=4))
        reset_registry()
        payload = run_loadtest(sessions=40, duration_s=1.0, seed=5,
                               procs=2, trace=tiny)
        assert payload["completed"] == 40
        client_p50 = payload["latency_s"]["p50"]
        server_p50 = payload["obs"]["served.session_latency_s"]["p50"]
        assert abs(client_p50 - server_p50) < 0.005

    def test_overload_sheds_with_reason(self):
        from repro.exec import run_loadtest
        # 40 arrivals in 10 ms against ~1-2 ms sessions: far past what
        # one running plus two pending sessions can absorb.
        payload = run_loadtest(sessions=40, duration_s=0.01, seed=3,
                               procs=2, max_sessions=1, max_pending=2)
        assert payload["shed"]["total"] > 0
        assert payload["shed"]["overloaded"] == payload["shed"]["total"]
        assert payload["completed"] + payload["shed"]["total"] \
            + sum(payload["errors"].values()) == 40
