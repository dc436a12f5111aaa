"""Differential tests for the cached cycle key index.

Every routing consumer — the dense, active-set, fault/protocol and
timeline-recorded event loops and the live executors' ``build_plans`` —
resolves destinations through :meth:`CycleTrace.key_index`.  These
tests hold each of them to :mod:`repro.mpc._reference` (which still
calls ``mapping.processor_for`` per activation) and to fingerprints of
the per-cycle results the per-simulation ``key -> processor`` dicts
produced before the index existed, across round robin, random,
explicit and per-cycle greedy mappings, deletion-search surcharges,
per-cycle and section-global act_id numbering, sparse act_ids, pickling
and cache invalidation on :meth:`CycleTrace.add`.
"""

import copy
import dataclasses
import hashlib
import pickle

import pytest

from repro.check import TraceCase, generate_cases, mutated_right_token_cost
from repro.check.oracles import run_oracles
from repro.exec.plan import CONTROL, build_plans
from repro.mpc import (DEFAULT_PROTOCOL, TABLE_5_1, ZERO_OVERHEADS,
                       CostModel, CycleResult, ExplicitMapping, FaultModel,
                       GreedyMappingFactory, RandomMapping,
                       RoundRobinMapping, RunConfig, TimelineRecorder,
                       simulate_config)
from repro.mpc._reference import simulate_cycle_reference
from repro.mpc.faults import simulate_cycle_with_faults
from repro.mpc.simulator import compute_search_costs
from repro.ops5 import parse_program
from repro.rete.hashing import BucketKey, stable_hash
from repro.trace import (CycleTrace, SectionTrace, TraceActivation,
                         record_program)
from repro.trace.validate import validate_trace
from repro.workloads import rubik_section
from repro.workloads.match import tourney_match_program

OV8 = next(o for o in TABLE_5_1 if o.total_us == 8)
PROCS = (1, 3, 16)
COSTS = (CostModel(), CostModel(delete_search_us=1.5))
MAPPINGS = ("round-robin", "random", "explicit", "greedy")
LOSSY = FaultModel(seed=7, loss_prob=0.05, dup_prob=0.02, jitter_us=1.0)

#: Positions in :func:`_canon` of the timing fields compared on the
#: zero-fault protocol loop (its message and ack counters legitimately
#: differ: it counts ack traffic).
TIMING_POS = [i for i, f in enumerate(dataclasses.fields(CycleResult))
              if f.name in ("index", "makespan_us", "proc_busy_us",
                            "proc_activations", "proc_left_activations",
                            "control_busy_us", "network_busy_us")]

#: sha256 of every path's per-cycle output over the whole case matrix,
#: as produced before the key index replaced the per-simulation
#: key -> processor dicts (see :func:`path_fingerprints`).
PARENT_FINGERPRINTS = {
    "dense":
        "3b626c4f8076e927ed9eba87109b47f30175cd3965c57d031b79c41ad38745c5",
    "active":
        "3b626c4f8076e927ed9eba87109b47f30175cd3965c57d031b79c41ad38745c5",
    "recorded":
        "9c555475d2451f4312f60adafee56adcd6fd0436a0463659705676afec0365b4",
    "zero_fault":
        "edb88763edf0e01619a1f9fe530b769deb0a3bc641fc11889275b855bdfe438a",
    "lossy":
        "d1aeefcf87e7a7692d802108db3f0f25de87b3fa2eb1bf2ee3697d86babd76e6",
    "plans":
        "51ff54f8d5bf1888238fd8143d51936b38b99ab805d0ceb64993219775dc32fc",
}


def _sparse(section: SectionTrace) -> SectionTrace:
    """*section* renumbered with large, uneven gaps between act_ids."""
    def new(act_id):
        return 10_000 + 7 * act_id + act_id % 3

    cycles = []
    for cycle in section:
        out = CycleTrace(index=cycle.index)
        for act in cycle:
            out.add(TraceActivation(
                act_id=new(act.act_id),
                parent_id=(None if act.parent_id is None
                           else new(act.parent_id)),
                node_id=act.node_id, kind=act.kind, side=act.side,
                tag=act.tag, key=act.key,
                successors=tuple(new(s) for s in act.successors)))
        cycles.append(out)
    return SectionTrace(name=f"{section.name}-sparse", cycles=cycles)


def _traces():
    """Per-cycle numbering (a generated section), section-global
    numbering (a recorded program) and sparse act_ids."""
    recorded = record_program(
        parse_program(tourney_match_program(0, n_players=6)), "tourney",
        max_cycles=30)
    return [rubik_section().slice(0, 2), recorded, _sparse(recorded)]


def _mapping_kwargs(name: str, n_procs: int, trace) -> dict:
    if name == "round-robin":
        return {"mapping": RoundRobinMapping(n_procs)}
    if name == "random":
        return {"mapping": RandomMapping(n_procs, seed=3)}
    if name == "explicit":
        keys = sorted(trace.bucket_keys())
        # A partial assignment: every other key pinned, the rest fall
        # back to round robin.
        return {"mapping": ExplicitMapping(n_procs, assignment={
            key: (i * 5) % n_procs for i, key in enumerate(keys[::2])})}
    return {"mapping_factory": GreedyMappingFactory(n_procs)}


def _configs(trace):
    for n_procs in PROCS:
        for mapping in MAPPINGS:
            for costs in COSTS:
                yield RunConfig(n_procs=n_procs, costs=costs, overheads=OV8,
                                **_mapping_kwargs(mapping, n_procs, trace))


def _cycle_mapping(config: RunConfig, cycle):
    if config.mapping_factory is not None:
        return config.mapping_factory(cycle)
    return config.mapping


def _canon(result) -> tuple:
    """Every field of a CycleResult, proc arrays as plain lists."""
    return tuple(list(v) if k.startswith("proc_") else v
                 for k, v in dataclasses.asdict(result).items())


def _canon_plan(plan) -> tuple:
    return (plan.index, plan.expected_processed, plan.expected_fires,
            tuple((sorted(a.acts.items()), a.roots, a.root_fires)
                  for a in plan.per_actor))


def _path_outputs(trace, config: RunConfig) -> dict:
    """Per-path outputs of one (trace, config) point."""
    dense = simulate_config(trace, config).cycles
    active = simulate_config(
        trace, config.replace(compress_rounds=True)).expanded().cycles
    recorder = TimelineRecorder()
    recorded = simulate_config(trace, config.replace(recorder=recorder))
    spans = [(c.index, c.spans, c.envelopes)
             for c in recorder.timeline.cycles]
    search = compute_search_costs(trace, config.costs)
    # Acks are free only without overheads: that is where the protocol
    # loop's timing equals the fault-free loop's.
    zero_fault = [simulate_cycle_with_faults(
        cycle, config.n_procs, config.costs, ZERO_OVERHEADS,
        _cycle_mapping(config, cycle), FaultModel(seed=1),
        DEFAULT_PROTOCOL, search.get(cycle.index, {}))
        for cycle in trace]
    lossy = simulate_config(trace, config.replace(faults=LOSSY)).cycles
    return {
        "dense": [_canon(r) for r in dense],
        "active": [_canon(r) for r in active],
        "recorded": ([_canon(r) for r in recorded.cycles],
                     hashlib.sha256(repr(spans).encode()).hexdigest()),
        "zero_fault": [_canon(r) for r in zero_fault],
        "lossy": [_canon(r) for r in lossy],
        "plans": [_canon_plan(p) for p in build_plans(trace, config)],
    }


def _matrix(traces):
    """``(trace, config, outputs)`` over the whole case matrix."""
    return [(trace, config, _path_outputs(trace, config))
            for trace in traces for config in _configs(trace)]


def path_fingerprints(matrix) -> dict:
    """sha256 per path over *matrix*, in its order."""
    hashers = {name: hashlib.sha256() for name in PARENT_FINGERPRINTS}
    for _, _, outputs in matrix:
        for name, value in outputs.items():
            hashers[name].update(repr(value).encode())
    return {name: h.hexdigest() for name, h in hashers.items()}


@pytest.fixture(scope="module")
def traces():
    out = _traces()
    for trace in out:
        validate_trace(trace)
    return out


@pytest.fixture(scope="module")
def matrix(traces):
    return _matrix(traces)


class TestIndexContents:
    def test_indexes_every_activation(self, traces):
        for trace in traces:
            for cycle in trace:
                index = cycle.key_index()
                assert index.base == min(cycle.activations)
                assert list(index.hashes) == [stable_hash(k)
                                              for k in index.keys]
                assert len(set(index.keys)) == len(index.keys)
                for act in cycle:
                    assert index.keys[index.key_of[act.act_id
                                                   - index.base]] \
                        == act.key

    def test_compact_for_section_global_ids(self, traces):
        recorded = traces[1]
        assert min(recorded.cycles[-1].activations) > 100
        for cycle in recorded:
            index = cycle.key_index()
            assert len(index.key_of) == len(cycle)
            assert index.key_of.itemsize == 1

    def test_cached_and_shared(self, traces):
        cycle = traces[0].cycles[0]
        assert cycle.key_index() is cycle.key_index()

    def test_empty_cycle(self):
        cycle = CycleTrace(index=4)
        index = cycle.key_index()
        assert index.keys == () and len(index.key_of) == 0
        assert index.destinations(RoundRobinMapping(3)) == []

    @pytest.mark.parametrize("mapping", MAPPINGS)
    def test_destinations_match_processor_for(self, traces, mapping):
        for trace in traces:
            for cycle in trace:
                config = RunConfig(n_procs=16, **_mapping_kwargs(
                    mapping, 16, trace))
                cycle_mapping = _cycle_mapping(config, cycle)
                index = cycle.key_index()
                dest = index.destinations(cycle_mapping)
                for act in cycle:
                    assert dest[act.act_id - index.base] == \
                        cycle_mapping.processor_for(act.key)


class TestAgainstReference:
    def test_every_path_equals_reference(self, matrix):
        for trace, config, out in matrix:
            search = compute_search_costs(trace, config.costs)

            def reference(overheads):
                return [_canon(simulate_cycle_reference(
                    cycle, config.n_procs, config.costs, overheads,
                    _cycle_mapping(config, cycle),
                    search.get(cycle.index, {}))) for cycle in trace]

            expect = reference(config.overheads)
            assert out["dense"] == expect
            assert out["active"] == expect
            assert out["recorded"][0] == expect
            assert [[r[i] for i in TIMING_POS] for r in out["zero_fault"]] \
                == [[r[i] for i in TIMING_POS]
                    for r in reference(ZERO_OVERHEADS)]

    def test_plans_route_like_processor_for(self, traces):
        for trace in traces:
            for config in _configs(trace):
                for cycle, plan in zip(trace, build_plans(trace, config)):
                    mapping = _cycle_mapping(config, cycle)
                    for p, actor in enumerate(plan.per_actor):
                        for act_id in actor.roots + actor.root_fires:
                            assert mapping.processor_for(
                                cycle.activations[act_id].key) == p
                        for act_id, (_, _, succs) in actor.acts.items():
                            assert mapping.processor_for(
                                cycle.activations[act_id].key) == p
                            for succ_id, dest, terminal in succs:
                                assert dest == (CONTROL if terminal else
                                                mapping.processor_for(
                                                    cycle.activations[
                                                        succ_id].key))

    def test_matches_results_before_the_index(self, matrix):
        assert path_fingerprints(matrix) == PARENT_FINGERPRINTS


class TestCacheLifecycle:
    def test_add_after_simulation_invalidates(self, traces):
        trace = copy.deepcopy(traces[1].slice(0, 2))
        config = RunConfig(n_procs=3, overheads=OV8)
        before = simulate_config(trace, config)
        cycle = trace.cycles[0]
        stale = cycle.key_index()
        new_key = BucketKey(9_999, ("fresh",))
        cycle.add(TraceActivation(
            act_id=max(cycle.activations) + 1, parent_id=None,
            node_id=9_999, kind="join", side="right", tag="+",
            key=new_key))
        index = cycle.key_index()
        assert index is not stale and new_key in index.keys
        after = simulate_config(trace, config)
        reference = simulate_cycle_reference(
            cycle, 3, config.costs, OV8, RoundRobinMapping(3))
        assert _canon(after.cycles[0]) == _canon(reference)
        assert after.cycles[0] != before.cycles[0]
        assert after.cycles[1] == before.cycles[1]

    def test_pickle_drops_caches(self, traces):
        cycle = copy.deepcopy(traces[1].cycles[0])
        bare = pickle.dumps(cycle)
        cycle.key_index()
        cycle.roots()
        assert cycle._key_index is not None and cycle._ordered is not None
        assert pickle.dumps(cycle) == bare
        clone = pickle.loads(pickle.dumps(cycle))
        assert clone == cycle
        assert clone._ordered is None and clone._roots is None
        assert clone._key_index is None
        config = RunConfig(n_procs=4, overheads=OV8)
        trace = SectionTrace(name="one", cycles=[clone])
        got = simulate_config(trace, config).cycles[0]
        assert clone._key_index is not None
        assert clone.key_index().keys == cycle.key_index().keys
        assert got == simulate_config(
            SectionTrace(name="one", cycles=[cycle]), config).cycles[0]


class TestMutationStillCaught:
    def test_mispriced_right_tokens_caught_by_oracles(self):
        case = next(c for c in generate_cases(0, 10)
                    if isinstance(c, TraceCase))
        with mutated_right_token_cost(1.0):
            names = {name for name, _ in run_oracles(case)}
        assert "opt_vs_reference" in names
        assert run_oracles(case) == []
