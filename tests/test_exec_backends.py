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
                        CycleTable, Executor, MatchActorCore, RunHandle,
                        SimExecutor, SupervisePolicy, build_plans,
                        expected_fires, get_executor, match_signature, run)
from repro.mpc import (TABLE_5_1, CostModel, FaultModel, RunConfig,
                       TimelineRecorder, simulate_config)
from repro.ops5 import parse_program
from repro.trace.events import (TAG_JOIN, TAG_LEFT, TAG_TERMINAL,
                               materialize)
from repro.trace.recorder import record_program
from repro.workloads import (StreamSpec, SyntheticStream, rubik_match_program,
                             rubik_section, weaver_section)

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
        assert outcome.fires == expected_fires(rubik)
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
        assert live.fires == expected_fires(rubik)

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

    def test_streaming_source_matches_simulator(self):
        """Plans are built per cycle from a stream's IdleRun markers
        too, not only from a materialized section's cycles."""
        stream = SyntheticStream(StreamSpec(
            active_cycles=2, idle_between=2, activations_per_cycle=10))
        config = RunConfig(n_procs=2)
        live = run(stream, config, backend="actors")
        assert match_signature(live) == \
            match_signature(run(stream, config, backend="sim"))
        assert len(live.result.cycles) == stream.n_cycles()

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
    #: Act 5, a left join activation on actor 1, has a terminal
    #: successor 6 and a successor 7 on actor 0.
    TABLE = CycleTable(
        base=5, tags=bytes([TAG_JOIN | TAG_LEFT, TAG_TERMINAL, TAG_JOIN]),
        left=b"\x01\x00\x00", successors=[(6, 7), (), ()],
        dest=[1, CONTROL, 0], extra={})
    PLAN = ActorCyclePlan(table=TABLE, roots=(), root_fires=(),
                          checksum=(1, 1, 5, 5))

    @staticmethod
    def cycle(index=3):
        return ("cycle", TestMatchActorCore.PLAN, index)

    def test_token_before_its_cycle_is_held(self):
        config = RunConfig(n_procs=2, overheads=OV8)
        early = MatchActorCore(1, config)
        assert early.on_token(("token", 5, 3)) == ([], 0)
        out, processed = early.on_cycle(self.cycle())
        assert processed == 1
        assert out == [(CONTROL, ("fire", 6)), (0, ("token", 7, 3))]

        in_order = MatchActorCore(1, config)
        assert in_order.on_cycle(self.cycle()) == ([], 0)
        assert in_order.on_token(("token", 5, 3)) == (out, 1)
        assert early.report(0) == in_order.report(0)

    def test_token_of_the_next_cycle_is_held_across_a_cycle(self):
        """The table stays set between cycles: a token of the next
        cycle that overtakes its broadcast must wait for it, not run on
        the previous cycle's table."""
        config = RunConfig(n_procs=2, overheads=OV8)
        core = MatchActorCore(1, config)
        core.on_cycle(self.cycle(2))
        assert core.on_token(("token", 5, 3)) == ([], 0)
        assert core.report(0)[3:] == (2, (core.busy_us, 0, 0, 0, 0, 0, 0))
        out, processed = core.on_cycle(self.cycle(3))
        assert processed == 1
        assert out == [(CONTROL, ("fire", 6)), (0, ("token", 7, 3))]
        assert core.report(processed)[3] == 3

    def test_next_broadcast_resets_the_counters(self):
        config = RunConfig(n_procs=2, overheads=OV8)
        core = MatchActorCore(1, config)
        core.on_cycle(self.cycle(2))
        core.on_token(("token", 5, 2))
        fresh = MatchActorCore(1, config)
        core.on_cycle(self.cycle(3))
        fresh.on_cycle(self.cycle(3))
        assert core.report(0)[2:] == fresh.report(0)[2:]

    def test_unknown_held_token_still_fails_loudly(self):
        core = MatchActorCore(0, RunConfig(n_procs=2))
        core.on_token(("token", 99, 3))
        with pytest.raises(KeyError):
            core.on_cycle(self.cycle())

    def test_held_token_the_plan_does_not_own_fails_loudly(self):
        """Before the table, owned by actor 1, a terminal, and a token
        of a cycle after the one broadcast."""
        for act_id, cycle in ((4, 3), (5, 3), (6, 3), (7, 4)):
            core = MatchActorCore(0, RunConfig(n_procs=2))
            core.on_token(("token", act_id, cycle))
            with pytest.raises(KeyError):
                core.on_cycle(self.cycle())


class TestPlanChecksums:
    def test_plan_walk_checksums_match_their_definition(self,
                                                        rubik_recorded):
        """build_plans accumulates each actor's (count, left, sum, xor)
        in one pass over the table; they must equal the four taken
        from the nonterminals the table gives that actor."""
        for plan in build_plans(rubik_recorded, RunConfig(n_procs=4)):
            for p, share in enumerate(plan.per_actor):
                table = share.table
                owned = [pos for pos, tag in enumerate(table.tags)
                         if tag and table.dest[pos] == p]
                acts = [table.base + pos for pos in owned]
                assert share.checksum == (
                    len(acts), sum(1 for pos in owned if table.left[pos]),
                    sum(acts), functools.reduce(operator.xor, acts, 0))

    def test_stream_walked_once_with_search_costs(self, monkeypatch):
        """Deletion-search surcharges are charged inside the plan walk,
        so each active cycle of a stream is built once, not twice."""
        stream = SyntheticStream(StreamSpec(
            active_cycles=3, idle_between=2, activations_per_cycle=10))
        config = RunConfig(n_procs=2,
                           costs=CostModel(delete_search_us=1.0))
        built = []
        build_cycle = SyntheticStream._build_cycle

        def counting(self, builder, index, position):
            built.append(index)
            return build_cycle(self, builder, index, position)

        monkeypatch.setattr(SyntheticStream, "_build_cycle", counting)
        plans = build_plans(stream, config)
        assert len(built) == 3
        assert plans == build_plans(materialize(stream), config)


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
