"""Tests of the executor backends behind the one ``run()`` API.

The contracts under test:

* ``sim`` is bit-identical to calling :func:`simulate_config` directly;
* ``actors`` — a live asyncio/multiprocessing run of the Section 3.2
  message protocol — reproduces the simulator's counters and fire
  sequence exactly (timing fields excluded: they are wall time there);
* handles cache results and errors; unsupported configs are rejected
  with actionable messages rather than silently ignored.
"""

import functools
import operator

import pytest

from repro.exec import (CONTROL, ActorCyclePlan, ActorExecutor, BACKENDS,
                        Executor, MatchActorCore, RunHandle, SimExecutor,
                        SupervisePolicy, build_plans, expected_fires,
                        get_executor, match_signature, run)
from repro.mpc import (TABLE_5_1, FaultModel, RunConfig,
                       TimelineRecorder, simulate_config)
from repro.ops5 import parse_program
from repro.trace.recorder import record_program
from repro.workloads import rubik_match_program, rubik_section, weaver_section

OV8 = next(o for o in TABLE_5_1 if o.total_us == 8)


@pytest.fixture(scope="module")
def rubik():
    return rubik_section()


@pytest.fixture(scope="module")
def weaver():
    return weaver_section()


@pytest.fixture(scope="module")
def rubik_recorded():
    """A section recorded from the rubik match program: busy enough
    that peers' tokens race the cycle broadcast on a shared queue."""
    return record_program(
        parse_program(rubik_match_program(0, n_moves=100)), "rubik")


class TestRegistry:
    def test_all_backends_registered(self):
        assert sorted(BACKENDS) == ["actors", "served", "sim"]
        for name, cls in BACKENDS.items():
            assert cls.name == name

    def test_executors_satisfy_protocol(self):
        assert isinstance(SimExecutor(), Executor)
        assert isinstance(ActorExecutor(), Executor)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend 'gpu'"):
            get_executor("gpu")

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            ActorExecutor(transport="carrier-pigeon")


class TestSimBackend:
    def test_bit_identical_to_simulate_config(self, rubik):
        config = RunConfig(n_procs=8, overheads=OV8)
        outcome = run(rubik, config)
        assert outcome.backend == "sim"
        assert outcome.result == simulate_config(rubik, config)
        assert outcome.total_us == outcome.result.total_us
        assert outcome.wall_s > 0.0

    def test_fires_are_the_planned_conflict_sets(self, rubik):
        config = RunConfig(n_procs=4)
        outcome = run(rubik, config)
        assert outcome.fires == expected_fires(rubik, config)
        assert len(outcome.fires) == len(rubik.cycles)
        for fire_set in outcome.fires:
            assert list(fire_set) == sorted(fire_set)

    def test_default_config_is_one_processor(self, rubik):
        assert run(rubik).result == simulate_config(rubik, RunConfig())

    def test_faulty_configs_supported(self, rubik):
        config = RunConfig(n_procs=8, overheads=OV8,
                           faults=FaultModel(seed=1, loss_prob=0.1))
        outcome = run(rubik, config)
        assert outcome.result == simulate_config(rubik, config)
        assert outcome.result.retransmits > 0


class TestActorsBackend:
    @pytest.mark.parametrize("n_procs", [1, 2, 8])
    def test_counters_match_simulator(self, rubik, weaver, n_procs):
        for trace in (rubik, weaver):
            config = RunConfig(n_procs=n_procs, overheads=OV8)
            live = run(trace, config, backend="actors")
            sim = run(trace, config)
            assert match_signature(live) == match_signature(sim)
            for lc, sc in zip(live.result.cycles, sim.result.cycles):
                assert lc.proc_busy_us == sc.proc_busy_us
                assert lc.n_messages == sc.n_messages
                assert lc.network_busy_us == sc.network_busy_us
                assert lc.control_busy_us == sc.control_busy_us

    def test_rubik_fire_sequence_exact(self, rubik):
        """The issue's acceptance pin: live actors deliver the exact
        conflict-set sequence the simulator predicts on rubik."""
        config = RunConfig(n_procs=8, overheads=OV8)
        live = run(rubik, config, backend="actors")
        assert live.fires == expected_fires(rubik, config)

    def test_process_transport_matches(self, rubik):
        config = RunConfig(n_procs=2, overheads=OV8)
        live = run(rubik, config, backend="actors",
                   transport="process")
        assert live.backend == "actors"
        assert match_signature(live) == \
            match_signature(run(rubik, config))

    def test_process_transport_recorded_program(self, rubik_recorded):
        """The control actor and a peer both write a worker's inbox, so
        a token can arrive before that worker's own cycle plan; the
        core holds it instead of crashing with ``KeyError``."""
        config = RunConfig(n_procs=4)
        expected = match_signature(run(rubik_recorded, config))
        for _ in range(5):
            live = run(rubik_recorded, config, backend="actors",
                       transport="process")
            assert match_signature(live) == expected

    @pytest.mark.parametrize("variant", ["traced", "supervised"])
    def test_process_transport_recorded_variants(self, rubik_recorded,
                                                 variant):
        """Every run is supervised; "supervised" passes an explicit
        policy, "traced" the default one plus live tracing."""
        config = RunConfig(n_procs=4, live_trace=variant == "traced",
                           supervise=(SupervisePolicy()
                                      if variant == "supervised" else None))
        live = run(rubik_recorded, config, backend="actors",
                   transport="process")
        assert match_signature(live) == \
            match_signature(run(rubik_recorded, RunConfig(n_procs=4)))

    def test_rejects_fault_injection(self, rubik):
        executor = ActorExecutor()
        with pytest.raises(ValueError,
                           match="does not support fault injection"):
            executor.submit(rubik, RunConfig(
                n_procs=2, faults=FaultModel(loss_prob=0.5)))

    def test_rejects_recorder(self, rubik):
        with pytest.raises(ValueError,
                           match="does not support timeline recording"):
            ActorExecutor().submit(rubik, RunConfig(
                n_procs=2, recorder=TimelineRecorder()))

    def test_null_fault_model_is_fine(self, rubik):
        config = RunConfig(n_procs=2, faults=FaultModel())
        live = run(rubik, config, backend="actors")
        assert match_signature(live) == match_signature(run(rubik, config))


class TestMatchActorCore:
    PLAN = ActorCyclePlan(
        acts={5: (True, 0.0, ((6, CONTROL, True), (7, 0, False)))},
        roots=(), root_fires=(), checksum=(1, 1, 5, 5))

    def test_token_before_its_cycle_is_held(self):
        config = RunConfig(n_procs=2, overheads=OV8)
        early = MatchActorCore(1, config)
        assert early.on_token(5) == ([], 0)
        out, processed = early.on_cycle(self.PLAN)
        assert processed == 1
        assert out == [(CONTROL, ("fire", 6)), (0, ("token", 7))]

        in_order = MatchActorCore(1, config)
        assert in_order.on_cycle(self.PLAN) == ([], 0)
        assert in_order.on_token(5) == (out, 1)
        assert early.on_sync() == in_order.on_sync()

    def test_unknown_held_token_still_fails_loudly(self):
        core = MatchActorCore(0, RunConfig(n_procs=2))
        core.on_token(99)
        with pytest.raises(KeyError):
            core.on_cycle(self.PLAN)


class TestPlanChecksums:
    def test_plan_walk_checksums_match_their_definition(self,
                                                        rubik_recorded):
        """build_plans accumulates each actor's (count, left, sum, xor)
        during its walk; they must equal the four taken from *acts*."""
        for plan in build_plans(rubik_recorded, RunConfig(n_procs=4)):
            for share in plan.per_actor:
                acts = share.acts
                assert share.checksum == (
                    len(acts), sum(1 for spec in acts.values() if spec[0]),
                    sum(acts), functools.reduce(operator.xor, acts, 0))


class TestRunHandle:
    def test_result_computed_once_and_cached(self):
        calls = []

        def thunk():
            calls.append(1)
            return "outcome"

        handle = RunHandle(thunk)
        assert not handle.done
        assert handle.result() == "outcome"
        assert handle.result() == "outcome"
        assert calls == [1]
        assert handle.done

    def test_errors_cached_and_reraised(self):
        calls = []

        def thunk():
            calls.append(1)
            raise RuntimeError("wedged")

        handle = RunHandle(thunk)
        with pytest.raises(RuntimeError, match="wedged"):
            handle.result()
        with pytest.raises(RuntimeError, match="wedged"):
            handle.result()
        assert calls == [1]
        assert handle.done

    def test_from_future(self):
        import concurrent.futures

        future = concurrent.futures.Future()
        handle = RunHandle.from_future(future, lambda v: v * 2)
        assert not handle.done
        future.set_result(21)
        assert handle.result() == 42
        assert handle.done
