"""Supervision and chaos: the live-mode fault-tolerance contract.

The contract under test (see :mod:`repro.exec.supervise` and
:mod:`repro.exec.chaos`): a supervised run under *any* seeded chaos
policy either recovers to counters bit-identical to the simulator's —
worker restarts replay the current :class:`~repro.exec.plan.CyclePlan`
checkpoint — or raises a typed :class:`~repro.exec.errors
.ExecutorError`.  Never a wedge, never silently-wrong results.  The
zero-chaos run must be indistinguishable from the simulator's.
"""

import asyncio
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import (ActorExecutor, ActorCyclePlan, ChaosPolicy,
                        CyclePlan, CycleTable, ExecutorCrashed,
                        ExecutorError, ExecutorWedged, NULL_CHAOS, ProtocolViolation,
                        RestartsExhausted, SessionOverloaded,
                        SessionServer, CONTROL, MatchActorCore,
                        build_plans, exec_timeout_s, match_signature,
                        run, run_section_async)
from repro.exec.errors import DEFAULT_TIMEOUT_S, ENV_TIMEOUT
from repro.exec.mp import run_section_process
from repro.exec.plan import CycleAccumulator
from repro.trace.events import TAG_JOIN, TAG_TERMINAL
from repro.mpc import TABLE_5_1, RunConfig, SupervisePolicy
from repro.workloads import rubik_section

from tests.test_simulator_properties import random_traces

OV8 = next(o for o in TABLE_5_1 if o.total_us == 8)

#: Fast-failing supervision for tests: no backoff pauses, and a wedge
#: surfaces in about a second instead of the 300 s production default.
FAST = SupervisePolicy(heartbeat_s=0.02, cycle_timeout_s=5.0,
                       max_restarts=3, restart_delay_s=0.0)


@pytest.fixture(scope="module")
def rubik():
    return rubik_section()


def sim_signature(trace, config):
    return match_signature(run(trace, config, backend="sim"))


def supervised(trace, config, chaos=None, transport="asyncio"):
    outcome = ActorExecutor(transport=transport, chaos=chaos).submit(
        trace, config).result()
    return match_signature(outcome)


class TestZeroChaosEquivalence:
    def test_supervised_asyncio_bit_identical(self, rubik):
        config = RunConfig(n_procs=4, overheads=OV8, supervise=FAST)
        assert supervised(rubik, config) == sim_signature(rubik, config)

    def test_supervised_mp_bit_identical(self, rubik):
        config = RunConfig(n_procs=2, overheads=OV8, supervise=FAST)
        assert supervised(rubik, config, transport="process") \
            == sim_signature(rubik, config)

    def test_null_chaos_is_no_chaos(self, rubik):
        assert ChaosPolicy().is_null
        assert NULL_CHAOS.is_null
        config = RunConfig(n_procs=4, overheads=OV8)
        assert supervised(rubik, config, chaos=NULL_CHAOS) \
            == sim_signature(rubik, config)


class TestEventDrivenLiveness:
    def test_zero_chaos_run_arms_no_timer_per_drain(self, rubik,
                                                     monkeypatch):
        """On asyncio a dead actor task reports itself and one watchdog
        per engine generation enforces the cycle deadline, so the
        control drains are untimed: a zero-chaos run arms at most one
        timer per generation plus one per cycle.  Every timer goes
        through ``call_at`` (``call_later`` delegates to it)."""
        armed = []
        call_at = asyncio.BaseEventLoop.call_at

        def counting(loop, when, callback, *args, **kwargs):
            armed.append(callback)
            return call_at(loop, when, callback, *args, **kwargs)

        from repro.obs import get_registry
        restarts = get_registry().counter("supervise.restarts")
        before = restarts.value
        config = RunConfig(n_procs=4, overheads=OV8, supervise=FAST)
        monkeypatch.setattr(asyncio.BaseEventLoop, "call_at", counting)
        outcome = ActorExecutor().submit(rubik, config).result()
        monkeypatch.undo()
        generations = 1 + restarts.value - before
        assert len(outcome.result.cycles) == len(rubik.cycles) > 1
        assert len(armed) <= generations + len(rubik.cycles), armed
        assert match_signature(outcome) == sim_signature(rubik, config)


class TestKillRecovery:
    def test_kill_worker_mid_run_restarts(self, rubik):
        """A worker killed at a known cycle is restarted and the cycle
        replayed from its plan checkpoint, bit-identically."""
        first = rubik.cycles[0].index
        chaos = ChaosPolicy(seed=3, kills=((first, 1),))
        config = RunConfig(n_procs=4, overheads=OV8, supervise=FAST)
        assert supervised(rubik, config, chaos=chaos) \
            == sim_signature(rubik, config)

    def test_mp_kill_worker_mid_run_restarts(self, rubik):
        """Same contract with real OS processes: the worker takes a
        SIGKILL and a fresh generation replays the cycle."""
        first = rubik.cycles[0].index
        chaos = ChaosPolicy(seed=3, kills=((first, 0),))
        config = RunConfig(n_procs=2, overheads=OV8, supervise=FAST)
        assert supervised(rubik, config, chaos=chaos,
                          transport="process") \
            == sim_signature(rubik, config)

    def test_persistent_kill_exhausts_restarts(self, rubik):
        first = rubik.cycles[0].index
        chaos = ChaosPolicy(seed=3, persistent_kills=((first, 0),))
        config = RunConfig(n_procs=2, overheads=OV8, supervise=FAST)
        with pytest.raises(RestartsExhausted) as info:
            supervised(rubik, config, chaos=chaos)
        assert info.value.cycle == first
        assert info.value.attempts == FAST.max_restarts + 1
        assert isinstance(info.value.last, ExecutorError)

    @pytest.mark.chaos
    def test_mp_persistent_kill_exhausts_restarts(self, rubik):
        first = rubik.cycles[0].index
        chaos = ChaosPolicy(seed=3, persistent_kills=((first, 1),))
        config = RunConfig(n_procs=2, overheads=OV8, supervise=FAST)
        with pytest.raises(RestartsExhausted) as info:
            supervised(rubik, config, chaos=chaos,
                       transport="process")
        assert info.value.attempts == FAST.max_restarts + 1


class TestDropWedgeDetection:
    def test_total_drop_wedges_with_typed_error(self, rubik):
        """Dropping every data message starves quiescence counting;
        the per-cycle deadline converts the hang into ExecutorWedged
        and exhaustion surfaces it — the run never blocks forever."""
        chaos = ChaosPolicy(seed=5, drop_prob=1.0)
        policy = SupervisePolicy(heartbeat_s=0.02, cycle_timeout_s=0.3,
                                 max_restarts=1, restart_delay_s=0.0)
        config = RunConfig(n_procs=4, overheads=OV8, supervise=policy)
        with pytest.raises(RestartsExhausted) as info:
            supervised(rubik, config, chaos=chaos)
        assert isinstance(info.value.last, ExecutorWedged)


class TestChaosPolicyUnit:
    def test_probability_validation(self):
        for field in ("kill_prob", "drop_prob", "dup_prob",
                      "delay_prob", "stall_prob"):
            with pytest.raises(ValueError):
                ChaosPolicy(**{field: 1.5})
            with pytest.raises(ValueError):
                ChaosPolicy(**{field: -0.1})

    def test_deterministic_draws(self):
        a = ChaosPolicy(seed=9, drop_prob=0.5)
        b = ChaosPolicy(seed=9, drop_prob=0.5)
        decisions = [(a.should_drop(c, 0, i, 0), b.should_drop(c, 0, i, 0))
                     for c in range(10) for i in range(10)]
        assert all(x == y for x, y in decisions)
        assert any(x for x, _ in decisions)
        assert not all(x for x, _ in decisions)

    def test_one_shot_kills_fire_on_first_attempt_only(self):
        chaos = ChaosPolicy(seed=1, kills=((4, 2),))
        assert chaos.should_kill(4, 2, attempt=0)
        assert not chaos.should_kill(4, 2, attempt=1)
        assert not chaos.should_kill(5, 2, attempt=0)

    def test_persistent_kills_fire_every_attempt(self):
        chaos = ChaosPolicy(seed=1, persistent_kills=((4, 2),))
        for attempt in range(5):
            assert chaos.should_kill(4, 2, attempt=attempt)


class TestChecksumGuard:
    """The acts_sum/acts_xor checksum: a duplicated delivery cannot
    silently compensate for a dropped one (the regression behind it:
    drop+duplicate with matching totals but wrong per-actor work)."""

    @staticmethod
    def _run_cycle_serially(plan, config):
        """Drive one cycle by hand: every core handles its broadcast and
        then its tokens, one message per batch, and reports each batch
        as the actor loops do; ``(accumulator, final reports)``."""
        n = config.n_procs
        cores = [MatchActorCore(i, config) for i in range(n)]
        acc = CycleAccumulator(plan, config)
        queue = deque()
        last = [None] * n

        def route(core, opened, out, processed):
            for dst, msg in out:
                if dst == CONTROL:
                    acc.note(msg)
                else:
                    queue.append((dst, msg))
            if processed or opened:
                last[core.actor_id] = core.report(processed)
                acc.note(last[core.actor_id])

        for i in range(n):
            route(cores[i], True,
                  *cores[i].on_cycle(("cycle", plan.per_actor[i],
                                      plan.index)))
        while queue:
            dst, msg = queue.popleft()
            route(cores[dst], False, *cores[dst].on_token(msg))
        assert acc.done
        return acc, last

    @staticmethod
    def _tampered(report, field, change):
        """*report* re-sent with snapshot *field* changed by *change*,
        as a zero-count report: only the snapshot moves."""
        snapshot = list(report[4])
        snapshot[field] = change(snapshot[field])
        return ("processed", 0, report[2], report[3], tuple(snapshot))

    def test_clean_stats_pass(self, rubik):
        config = RunConfig(n_procs=4, overheads=OV8)
        plan = build_plans(rubik, config)[0]
        acc, reports = self._run_cycle_serially(plan, config)
        assert all(len(r[4]) == 7 for r in reports)
        assert acc.snapshots == [r[4] for r in reports]
        cycle_result, fired = acc.finish(wall_s=0.0)
        assert fired == plan.expected_fires

    def test_corrupted_checksum_detected(self, rubik):
        config = RunConfig(n_procs=4, overheads=OV8)
        plan = build_plans(rubik, config)[0]
        acc, reports = self._run_cycle_serially(plan, config)
        # One act-id swapped for another on actor 0: counts and left
        # counts still agree with the plan, only the checksum can tell.
        bad = self._tampered(reports[0], 5, lambda v: v + 1)
        acc.note(self._tampered(bad, 6, lambda v: v ^ 3))
        with pytest.raises(ProtocolViolation, match="checksum"):
            acc.finish(wall_s=0.0)

    def test_miscounted_actor_detected(self, rubik):
        config = RunConfig(n_procs=4, overheads=OV8)
        plan = build_plans(rubik, config)[0]
        acc, reports = self._run_cycle_serially(plan, config)
        # One activation too many on actor 1.
        acc.note(self._tampered(reports[1], 1, lambda v: v + 1))
        with pytest.raises(ProtocolViolation):
            acc.finish(wall_s=0.0)

    def test_report_of_a_closed_cycle_never_counts(self, rubik):
        """A late duplicate's report names the cycle it belongs to; the
        next cycle's accumulator rejects it instead of counting it."""
        config = RunConfig(n_procs=4, overheads=OV8)
        first, second = build_plans(rubik, config)[:2]
        _, reports = self._run_cycle_serially(first, config)
        acc = CycleAccumulator(second, config)
        stale = ("processed", 1) + reports[0][2:]
        with pytest.raises(ProtocolViolation, match="closed cycle"):
            acc.note(stale)
        assert acc.processed == 0 and acc.snapshots == [None] * 4


class TestStaleCycleGuard:
    """Tokens and reports carry their cycle index, so cycles stay apart
    with no barrier but the next broadcast."""

    def test_late_token_of_a_closed_cycle_fails_the_actor(self, rubik):
        config = RunConfig(n_procs=4, overheads=OV8)
        first, second = build_plans(rubik, config)[:2]
        core = MatchActorCore(0, config)
        core.on_cycle(("cycle", first.per_actor[0], first.index))
        core.on_cycle(("cycle", second.per_actor[0], second.index))
        act_id = first.per_actor[0].roots[0]
        with pytest.raises(ProtocolViolation, match="closed cycle"):
            core.on_token(("token", act_id, first.index))

    @pytest.mark.parametrize("broadcast_first, error", [
        (True, ExecutorCrashed), (False, ProtocolViolation)])
    def test_late_duplicate_on_a_live_engine(self, rubik, broadcast_first,
                                             error):
        """A duplicate of a closed cycle's token, arriving after the
        next broadcast, fails its actor and surfaces as
        :class:`ExecutorCrashed`; arriving before it, the actor still
        processes it under the old table and control rejects the
        report as a :class:`ProtocolViolation`."""
        from repro.exec.actors import _AsyncEngine
        config = RunConfig(n_procs=4, overheads=OV8)
        first, second = build_plans(rubik, config)[:2]

        async def main():
            engine = _AsyncEngine(config, FAST, None, 0)
            engine.start()
            try:
                await engine.run_cycle(first)
                if broadcast_first:
                    engine.posts[1](("cycle", second.per_actor[1],
                                     second.index))
                engine.posts[1](("token", first.per_actor[1].roots[0],
                                 first.index))
                with pytest.raises(error) as info:
                    await engine.run_cycle(second)
                assert info.value.cycle == second.index
            finally:
                await engine.stop()

        asyncio.run(main())

    def test_idle_and_root_fire_actors_report_their_busy_time(self):
        """An actor with nothing to match and one that owns only a root
        fire still report the broadcast's receive and constant-test
        time; control waits for both reports."""
        config = RunConfig(n_procs=3, overheads=OV8)
        table = CycleTable(
            base=10, tags=bytes([TAG_TERMINAL, TAG_JOIN]), left=b"\x00\x00",
            successors=[(), ()], dest=[CONTROL, 2], extra={})
        shares = (ActorCyclePlan(table, (), (), (0, 0, 0, 0)),
                  ActorCyclePlan(table, (), (10,), (0, 0, 0, 0)),
                  ActorCyclePlan(table, (11,), (), (1, 0, 11, 11)))
        plan = CyclePlan(index=7, per_actor=shares, expected_processed=1,
                         expected_fires=(10,))
        cores = [MatchActorCore(i, config) for i in range(3)]
        acc = CycleAccumulator(plan, config)
        for i in (2, 1, 0):
            out, processed = cores[i].on_cycle(("cycle", shares[i], 7))
            for _, msg in out:
                acc.note(msg)
            acc.note(cores[i].report(processed))
            assert acc.done == (i == 0)
        result, fired = acc.finish(wall_s=0.0)
        base = OV8.recv_us + config.costs.constant_tests_us
        assert result.proc_busy_us[0] == base
        assert result.proc_busy_us[1] == base + OV8.send_us
        assert result.proc_activations == [0, 0, 1]
        assert fired == (10,)


class TestTimeoutKnob:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_TIMEOUT, "1.5")
        assert exec_timeout_s() == 1.5
        assert exec_timeout_s(42.0) == 1.5

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv(ENV_TIMEOUT, raising=False)
        assert exec_timeout_s() == DEFAULT_TIMEOUT_S
        assert exec_timeout_s(7.0) == 7.0

    def test_bad_values_fail_open(self, monkeypatch):
        for bad in ("zero", "-3", "0"):
            monkeypatch.setenv(ENV_TIMEOUT, bad)
            assert exec_timeout_s(7.0) == 7.0


class TestServedDegradation:
    def test_overloaded_session_shed_with_code(self, rubik):
        server = SessionServer(max_sessions=1, max_pending=1)
        server.start()
        try:
            # Force the high-water mark deterministically: the shed
            # check reads the pending gauge before incrementing it.
            server._pending = server.max_pending
            future = server.submit(rubik, RunConfig(n_procs=2))
            with pytest.raises(SessionOverloaded) as info:
                future.result(timeout=30)
            assert info.value.code == "overloaded"
        finally:
            server._pending = 0
            server.stop()

    def test_draining_server_sheds_new_sessions(self, rubik):
        server = SessionServer(max_sessions=2)
        server.start()
        try:
            server._draining = True
            future = server.submit(rubik, RunConfig(n_procs=2))
            with pytest.raises(SessionOverloaded) as info:
                future.result(timeout=30)
            assert info.value.code == "draining"
        finally:
            server._draining = False
            server.stop()

    def test_draining_stop_finishes_inflight_sessions(self, rubik):
        server = SessionServer(max_sessions=2)
        server.start()
        future = server.submit(rubik, RunConfig(n_procs=2,
                                                overheads=OV8))
        server.stop(drain=True)
        result, fires, wall_s = future.result(timeout=30)
        assert len(result.cycles) == len(rubik.cycles)

    def test_health_and_ready_probes(self):
        server = SessionServer(max_sessions=3)
        with server:
            health = server._probe_reply("health")
            ready = server._probe_reply("ready")
        assert health["ok"] and health["status"] == "up"
        assert health["max_sessions"] == 3
        assert ready["ok"] and ready["ready"]

    def test_supervised_session(self, rubik):
        config = RunConfig(n_procs=2, overheads=OV8, supervise=FAST)
        with SessionServer(max_sessions=2) as server:
            result, fires, wall_s = server.submit(
                rubik, config).result(timeout=60)
        reference = run(rubik, RunConfig(n_procs=2, overheads=OV8),
                        backend="sim")
        assert [tuple(f) for f in fires] == reference.fires


CHAOS_KINDS = ("kill", "dup", "delay", "stall")


@settings(deadline=None, max_examples=25)
@given(trace=random_traces(),
       chaos_seed=st.integers(min_value=0, max_value=2**32 - 1),
       kind=st.sampled_from(CHAOS_KINDS),
       n_procs=st.integers(min_value=2, max_value=4))
def test_supervised_equals_sim_under_random_chaos(trace, chaos_seed,
                                                  kind, n_procs):
    """Property: any seeded chaos policy yields either a bit-identical
    recovery or a typed error — never a silent divergence.  Message
    drops are excluded here (each one costs a full cycle deadline; the
    chaos-marked nightly test and the ``live_recovery`` oracle cover
    them) so the fast tier stays fast."""
    chaos = ChaosPolicy(
        seed=chaos_seed,
        kill_prob=0.05 if kind == "kill" else 0.0,
        dup_prob=0.05 if kind == "dup" else 0.0,
        delay_prob=0.05 if kind == "delay" else 0.0,
        delay_s=0.001,
        stall_prob=0.05 if kind == "stall" else 0.0,
        stall_s=0.005)
    config = RunConfig(n_procs=n_procs, supervise=FAST)
    try:
        live = supervised(trace, config, chaos=chaos)
    except ExecutorError:
        return  # typed and actionable — the conforming failure mode
    assert live == sim_signature(trace, config)


@pytest.mark.chaos
@settings(deadline=None, max_examples=15)
@given(trace=random_traces(),
       chaos_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_supervised_survives_random_drops(trace, chaos_seed):
    """Nightly tier: the same property with message drops, which cost
    a cycle deadline per wedge and are therefore kept off the PR gate."""
    chaos = ChaosPolicy(seed=chaos_seed, drop_prob=0.02)
    policy = SupervisePolicy(heartbeat_s=0.02, cycle_timeout_s=0.5,
                             max_restarts=3, restart_delay_s=0.0)
    config = RunConfig(n_procs=3, supervise=policy)
    try:
        live = supervised(trace, config, chaos=chaos)
    except ExecutorError:
        return
    assert live == sim_signature(trace, config)


class TestRestartObservability:
    """The supervision layer's story must be *observable*: restart and
    replay spans in a traced run, and ``supervise.*`` counters that
    reconcile with the typed error's own attempt accounting."""

    def _counters(self):
        from repro.obs import get_registry
        registry = get_registry()
        return {name: registry.counter(name).value
                for name in ("supervise.restarts", "supervise.giveups",
                             "supervise.crashes")}

    def test_restart_spans_match_counters_and_generation(self, rubik):
        from repro.obs.spans import CAT_RESTART
        first = rubik.cycles[0].index
        chaos = ChaosPolicy(seed=3, kills=((first, 1),))
        config = RunConfig(n_procs=4, overheads=OV8, supervise=FAST,
                           live_trace=True)
        before = self._counters()
        outcome = ActorExecutor(chaos=chaos).submit(
            rubik, config).result()
        after = self._counters()
        restarts = after["supervise.restarts"] \
            - before["supervise.restarts"]
        assert restarts >= 1
        assert after["supervise.giveups"] \
            == before["supervise.giveups"]
        timeline = outcome.live
        restart_spans = [s for s in timeline.spans
                         if s.category == CAT_RESTART]
        assert len(restart_spans) == restarts
        # The killed cycle committed on a later generation; each
        # restart advances the generation by exactly one.
        assert timeline.committed[first] == restarts
        assert match_signature(outcome) == sim_signature(
            rubik, RunConfig(n_procs=4, overheads=OV8,
                             supervise=FAST))

    def test_exhaustion_counters_reconcile_with_error(self, rubik):
        first = rubik.cycles[0].index
        chaos = ChaosPolicy(seed=3, persistent_kills=((first, 0),))
        config = RunConfig(n_procs=2, overheads=OV8, supervise=FAST)
        before = self._counters()
        with pytest.raises(RestartsExhausted) as info:
            ActorExecutor(chaos=chaos).submit(rubik, config).result()
        after = self._counters()
        # attempts = 1 first try + max_restarts replays; every failed
        # attempt except the last triggered a counted restart, the
        # last became the giveup, and each attempt crashed once.
        assert info.value.attempts == FAST.max_restarts + 1
        assert after["supervise.restarts"] \
            - before["supervise.restarts"] == info.value.attempts - 1
        assert after["supervise.giveups"] \
            - before["supervise.giveups"] == 1
        assert after["supervise.crashes"] \
            - before["supervise.crashes"] == info.value.attempts

    def test_exhaustion_replay_spans_in_flight_dump(
            self, rubik, tmp_path, monkeypatch):
        from repro.obs.spans import CAT_CHECKPOINT_REPLAY, CAT_RESTART
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        first = rubik.cycles[0].index
        chaos = ChaosPolicy(seed=3, persistent_kills=((first, 0),))
        config = RunConfig(n_procs=2, overheads=OV8, supervise=FAST,
                           live_trace=True)
        with pytest.raises(RestartsExhausted):
            ActorExecutor(chaos=chaos).submit(rubik, config).result()
        dump = next(iter(tmp_path.glob("flight-*.jsonl")))
        import json as json_mod
        lines = dump.read_text().splitlines()
        categories = [json_mod.loads(line)["category"]
                      for line in lines[1:]]
        # One restart window per counted restart, one failed-replay
        # window per re-attempt: both reconcile with max_restarts.
        assert categories.count(CAT_RESTART) == FAST.max_restarts
        assert categories.count(CAT_CHECKPOINT_REPLAY) == FAST.max_restarts


class TestSupervisedEntryPoints:
    def test_async_entry_point_returns_triple(self, rubik):
        config = RunConfig(n_procs=2, overheads=OV8, supervise=FAST)
        result, fires, wall_s = asyncio.run(
            run_section_async(rubik, config))
        assert len(result.cycles) == len(rubik.cycles)
        assert wall_s > 0.0

    def test_mp_entry_point_returns_triple(self, rubik):
        config = RunConfig(n_procs=2, overheads=OV8, supervise=FAST)
        result, fires, wall_s = run_section_process(rubik, config)
        assert len(result.cycles) == len(rubik.cycles)
        assert wall_s > 0.0
