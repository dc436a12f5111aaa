"""The live-tracing contract: invisible when off, exact when on.

What :mod:`repro.obs.trace` claims (and these tests pin):

* tracing a run changes nothing the protocol counts — match
  signatures and every per-cycle counter are bit-identical to the
  untraced run (wall-measured makespans excluded);
* the merged timeline *reconciles exactly* against the run's own
  counters: match-span delivery counts sum to ``proc_activations``,
  cumulative busy snapshots equal ``proc_busy_us`` with ``==``, send
  spans cover ``n_messages - 1``;
* under chaos restarts only the committed generation's spans survive
  the merge, and the coordinator's restart/replay spans reconcile with
  the ``supervise.*`` counters;
* exports mirror the simulator's ``repro profile`` formats, and a
  typed executor failure leaves a post-mortem flight dump behind.
"""

import json

import pytest

from repro.exec import (ActorExecutor, ChaosPolicy, RestartsExhausted,
                        match_signature, run)
from repro.mpc import (TABLE_5_1, RunConfig, SupervisePolicy,
                       TimelineRecorder, simulate_config)
from repro.obs import chrome_trace, get_registry, timeline_jsonl
from repro.obs.spans import (CAT_BARRIER_WAIT, CAT_CHECKPOINT_REPLAY,
                             CAT_CYCLE, CAT_MATCH, CAT_RESTART, CAT_SEND,
                             CONTROL)
from repro.obs.trace import (FlightRecorder, LiveTraceCollector,
                             dump_flight, live_attribution,
                             reconcile_live)
from repro.workloads.generator import SectionSpec, generate_section

OV8 = next(o for o in TABLE_5_1 if o.total_us == 8)

FAST = SupervisePolicy(heartbeat_s=0.02, cycle_timeout_s=5.0,
                       max_restarts=3, restart_delay_s=0.0)


@pytest.fixture(scope="module")
def small():
    return generate_section(SectionSpec(
        name="obs-trace", cycles=5, right_activations=250,
        left_activations=250))


def traced_run(trace, config, **options):
    outcome = ActorExecutor(**options).submit(
        trace, config.replace(live_trace=True)).result()
    assert outcome.live is not None
    return outcome


# ---------------------------------------------------------------------------
# FlightRecorder
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_drain_round_trip(self):
        recorder = FlightRecorder(3, generation=2)
        recorder.record("match", 7, 1.0, 2.0, n=4, act_id=9, src=1,
                        sent_s=0.5, busy_us=12.5)
        tag, actor, generation, _, _, _, spans, dropped = \
            recorder.drain()
        assert (tag, actor, generation, dropped) == ("spans", 3, 2, 0)
        assert spans == [("match", 7, 1.0, 2.0, 4, 9, 1, 0.5, 12.5)]
        assert len(recorder) == 0

    def test_ring_overwrites_are_counted(self):
        recorder = FlightRecorder(0, capacity=4)
        for i in range(10):
            recorder.record("match", i, 0.0, 1.0)
        assert len(recorder) == 4
        message = recorder.drain()
        spans, dropped = message[6], message[7]
        # Latest history wins, like the namesake.
        assert [s[1] for s in spans] == [6, 7, 8, 9]
        assert dropped == 6

    def test_drain_resets_dropped(self):
        recorder = FlightRecorder(0, capacity=1)
        recorder.record("match", 0, 0.0, 1.0)
        recorder.record("match", 1, 0.0, 1.0)
        assert recorder.drain()[7] == 1
        recorder.record("match", 2, 0.0, 1.0)
        assert recorder.drain()[7] == 0


class TestClockAlignment:
    def test_same_process_aligns_exactly(self):
        collector = LiveTraceCollector("t", 1, "asyncio")
        recorder = FlightRecorder(0)
        start = collector.recorder.perf_base + 0.25
        recorder.record("match", 0, start, start + 0.5)
        collector.add_drain(recorder.drain())
        collector.commit(0, 0)
        timeline = collector.build()
        span = [s for s in timeline.spans if s.proc == 0][0]
        # Same-pid recorders share the perf clock: exact placement on
        # the axis whose origin is the collector's own recorder.
        assert span.start_us == pytest.approx(0.25e6)
        assert span.duration_us == pytest.approx(0.5e6)

    def test_cross_process_anchors_through_wall_clock(self):
        collector = LiveTraceCollector("t", 1, "process")
        own = collector.recorder
        # A fabricated drain from a different pid whose perf clock has
        # an arbitrary origin: the wall base pins it to +1 s.
        drain = ("spans", 0, 0, 1000.0, own.wall_base + 1.0,
                 own.pid + 1, [("match", 0, 1000.25, 1000.75, 1, -1,
                                None, 0.0, 0.0)], 0)
        collector.add_drain(drain)
        collector.commit(0, 0)
        timeline = collector.build()
        span = [s for s in timeline.spans if s.proc == 0][0]
        assert span.start_us == pytest.approx(1.25e6, rel=1e-6)
        assert span.duration_us == pytest.approx(0.5e6)

    def test_uncommitted_generation_is_filtered(self):
        collector = LiveTraceCollector("t", 1, "asyncio")
        for generation in (0, 1):
            recorder = FlightRecorder(0, generation=generation)
            recorder.record("match", 0, 0.0, 1.0, n=generation + 1)
            collector.add_drain(recorder.drain())
        collector.commit(0, 1)
        committed = collector.build()
        actor_spans = [s for s in committed.spans if s.proc == 0]
        assert [s.generation for s in actor_spans] == [1]
        everything = collector.build(committed_only=False)
        assert len([s for s in everything.spans if s.proc == 0]) == 2

    def test_work_drained_after_its_cycle_closed_is_filtered(self):
        """Spans before counters: a match or send span of a cycle that
        reaches the collector after the cycle closed is a late
        duplicate's, never counted; a barrier wait is drained after
        its cycle closes by design and stays."""
        collector = LiveTraceCollector("t", 1, "asyncio")
        recorder = FlightRecorder(0)
        recorder.record(CAT_MATCH, 0, 0.0, 1.0, n=2)
        collector.add_drain(recorder.drain())
        collector.commit(0, 0)
        recorder.record(CAT_MATCH, 0, 1.0, 2.0, n=1)
        recorder.record(CAT_SEND, 0, 2.0, 2.5)
        recorder.record(CAT_BARRIER_WAIT, 0, 2.5, 3.0)
        collector.add_drain(recorder.drain())
        committed = [(s.category, s.n) for s in collector.build().spans
                     if s.proc == 0]
        assert committed == [(CAT_MATCH, 2), (CAT_BARRIER_WAIT, 1)]
        everything = collector.build(committed_only=False)
        assert len([s for s in everything.spans if s.proc == 0]) == 4


# ---------------------------------------------------------------------------
# Traced runs: invisibility and exact reconciliation
# ---------------------------------------------------------------------------


class TestTracedRuns:
    def test_bit_invisible_and_reconciles_asyncio(self, small):
        config = RunConfig(n_procs=4, overheads=OV8)
        plain = run(small, config, backend="actors")
        traced = traced_run(small, config)
        assert match_signature(plain) == match_signature(traced)
        reconcile_live(traced.live, traced.result)

    def test_reconciles_mp(self, small):
        config = RunConfig(n_procs=2, overheads=OV8)
        traced = traced_run(small, config, transport="process")
        assert traced.live.transport == "process"
        reconcile_live(traced.live, traced.result)

    def test_mp_records_every_barrier_like_asyncio(self, small):
        # A clean end shuts process workers down by message, so the
        # last cycle's barrier_wait spans are recorded too.
        config = RunConfig(n_procs=2, overheads=OV8)
        counts = {}
        for transport in ("asyncio", "process"):
            traced = traced_run(small, config, transport=transport)
            reconcile_live(traced.live, traced.result)
            per_cycle = {}
            for span in traced.live.spans:
                if span.category == CAT_BARRIER_WAIT:
                    per_cycle[span.cycle] = per_cycle.get(span.cycle, 0) + 1
            counts[transport] = per_cycle
        assert counts["process"] == counts["asyncio"] \
            == {c.index: 2 for c in small.cycles}

    def test_span_vocabulary_and_commits(self, small):
        config = RunConfig(n_procs=4, overheads=OV8)
        timeline = traced_run(small, config).live
        categories = {s.category for s in timeline.spans}
        assert {CAT_CYCLE, CAT_MATCH, CAT_SEND,
                CAT_BARRIER_WAIT} <= categories
        assert sorted(timeline.committed) \
            == [c.index for c in small.cycles]
        # One coordinator cycle span per committed cycle.
        cycle_spans = [s for s in timeline.spans
                       if s.category == CAT_CYCLE]
        assert len(cycle_spans) == len(small.cycles)
        assert all(s.proc == CONTROL for s in cycle_spans)

    def test_reconcile_rejects_tampered_counts(self, small):
        config = RunConfig(n_procs=2, overheads=OV8)
        traced = traced_run(small, config)
        timeline = traced.live
        victim = next(i for i, s in enumerate(timeline.spans)
                      if s.category == CAT_MATCH and s.n > 0)
        span = timeline.spans[victim]
        import dataclasses
        timeline.spans[victim] = dataclasses.replace(span, n=span.n + 1)
        with pytest.raises(ValueError, match="match spans cover"):
            reconcile_live(timeline, traced.result)

    def test_reconcile_rejects_dropped_spans(self, small):
        config = RunConfig(n_procs=2, overheads=OV8)
        timeline = traced_run(small, config).live
        timeline.dropped = 3
        with pytest.raises(ValueError, match="dropped"):
            reconcile_live(timeline, None)


class TestSupervisedTracing:
    def test_supervised_zero_chaos_reconciles(self, small):
        config = RunConfig(n_procs=2, overheads=OV8, supervise=FAST)
        traced = traced_run(small, config)
        reconcile_live(traced.live, traced.result)

    def test_restart_spans_reconcile_with_counters(self, small):
        """A chaos kill leaves restart/replay spans in the merged
        timeline, the restart count matches the ``supervise.restarts``
        delta, only committed generations survive, and the result is
        still bit-identical to the simulator's."""
        first = small.cycles[0].index
        chaos = ChaosPolicy(seed=3, kills=((first, 1),))
        config = RunConfig(n_procs=4, overheads=OV8, supervise=FAST)
        before = get_registry().counter("supervise.restarts").value
        outcome = ActorExecutor(chaos=chaos).submit(
            small, config.replace(live_trace=True)).result()
        restarts = get_registry().counter(
            "supervise.restarts").value - before
        assert restarts >= 1
        timeline = outcome.live
        restart_spans = [s for s in timeline.spans
                         if s.category == CAT_RESTART]
        assert len(restart_spans) == restarts
        assert all(s.proc == CONTROL for s in restart_spans)
        # A one-shot kill fails only the first attempt, so no failed
        # *replay* windows exist (those are pinned by the persistent-
        # kill dump test below).
        assert not any(s.category == CAT_CHECKPOINT_REPLAY
                       for s in timeline.spans)
        # Only the surviving generation's actor spans are merged.
        for index, generation in timeline.committed.items():
            for span in timeline.spans:
                if span.cycle == index and span.proc != CONTROL:
                    assert span.generation == generation
        reconcile_live(timeline, outcome.result)
        sim_sig = match_signature(run(small, config, backend="sim"))
        assert match_signature(outcome) == sim_sig

    def test_exhausted_restarts_dump_flight(self, small, tmp_path,
                                            monkeypatch):
        """A traced run dying with a typed error leaves a post-mortem
        dump: header line plus one JSONL span per recorded span,
        including the failed generations."""
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        first = small.cycles[0].index
        chaos = ChaosPolicy(seed=3, persistent_kills=((first, 0),))
        config = RunConfig(n_procs=2, overheads=OV8, supervise=FAST)
        before = get_registry().counter("trace_live.dumps").value
        with pytest.raises(RestartsExhausted):
            ActorExecutor(chaos=chaos).submit(
                small, config.replace(live_trace=True)).result()
        assert get_registry().counter(
            "trace_live.dumps").value == before + 1
        dumps = list(tmp_path.glob("flight-*.jsonl"))
        assert len(dumps) == 1
        lines = dumps[0].read_text().splitlines()
        header = json.loads(lines[0])
        assert header["reason"] == "RestartsExhausted"
        assert header["n_spans"] == len(lines) - 1
        # The coordinator's failure story is in the dump.
        categories = {json.loads(line)["category"]
                      for line in lines[1:]}
        assert CAT_RESTART in categories
        assert CAT_CHECKPOINT_REPLAY in categories


# ---------------------------------------------------------------------------
# Attribution and export
# ---------------------------------------------------------------------------


class TestLiveAttribution:
    def test_partition_is_exact(self, small):
        config = RunConfig(n_procs=4, overheads=OV8)
        timeline = traced_run(small, config).live
        section = live_attribution(timeline)
        assert len(section.cycles) == len(small.cycles)
        for cycle in section.cycles:
            cycle.check_sums()  # busy + idle == n_procs * makespan
            assert cycle.idle_us == pytest.approx(
                sum(cycle.idle_by_category.values()))
        shares = section.idle_shares()
        if section.idle_us:
            assert sum(shares.values()) == pytest.approx(1.0)


class TestExport:
    def test_chrome_trace_layout(self, small):
        config = RunConfig(n_procs=2, overheads=OV8)
        timeline = traced_run(small, config).live
        payload = chrome_trace(timeline)
        events = payload["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        # process_name + one thread_name per row (control + actors).
        assert len(meta) == 1 + 1 + timeline.n_procs
        assert len(spans) == len(timeline.spans)
        names = {e["args"]["name"] for e in meta
                 if e["name"] == "thread_name"}
        assert names == {"control", "proc 0", "proc 1"}
        assert all(e["dur"] >= 0 for e in spans)
        assert payload["otherData"]["transport"] == "asyncio"

    def test_jsonl_mirrors_spans(self, small):
        config = RunConfig(n_procs=2, overheads=OV8)
        timeline = traced_run(small, config).live
        lines = list(timeline_jsonl(timeline))
        assert len(lines) == len(timeline.spans)
        first = json.loads(lines[0])
        assert first["trace"] == timeline.trace_name
        assert {"cycle", "proc", "category", "start_us", "end_us",
                "wait_us", "generation"} <= set(first)

    def test_sim_and_live_exports_share_one_layout(self, small):
        """A recorded simulation and a live traced run of one section
        export the same rows and the same JSONL keys."""
        config = RunConfig(n_procs=2, overheads=OV8)
        recorder = TimelineRecorder()
        simulate_config(small, config.replace(recorder=recorder))
        timelines = (recorder.timeline, traced_run(small, config).live)
        rows = [{e["tid"]: e["args"]["name"]
                 for e in chrome_trace(t)["traceEvents"]
                 if e["name"] == "thread_name"} for t in timelines]
        for by_tid in rows:
            assert [by_tid[tid] for tid in range(3)] \
                == ["control", "proc 0", "proc 1"]
        key_sets = {frozenset(json.loads(line))
                    for t in timelines for line in timeline_jsonl(t)}
        assert len(key_sets) == 1
