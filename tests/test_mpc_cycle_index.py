"""Differential tests for the cached cycle key index.

Every routing consumer — the event loop (dense and compressed), the
fault/protocol and timeline-recorded loops and the live executors'
``build_plans`` — resolves destinations through the cycle's
compiled index (:meth:`CycleKeyIndex.route`).  These tests hold each of them to
:mod:`repro.mpc._reference` (which still calls
``mapping.processor_for`` per activation) and to fingerprints of
the per-cycle results the per-simulation ``key -> processor`` dicts
produced before the index existed, across round robin, random,
explicit and per-cycle greedy mappings, deletion-search surcharges,
per-cycle and section-global act_id numbering, sparse act_ids, pickling
and cycles rebuilt from their rows with activations added after a
simulation; the compressed path is also pinned at P=4096.
"""

import dataclasses
import functools
import hashlib
import operator
import pickle

import pytest

from repro.check import TraceCase, generate_cases, mutated_right_token_cost
from repro.check.oracles import run_oracles
from repro.exec import match_signature, run
from repro.exec.plan import CONTROL, build_plans, expected_fires
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
from repro.trace import (CycleKeyIndex, CycleTrace, SectionTrace,
                         TraceActivation, record_program)
from repro.trace.validate import validate_trace
from repro.workloads import rubik_section
from repro.workloads.match import tourney_match_program
from tests.trace_view import acts, view

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
#: key -> processor dicts (see :func:`path_fingerprints`).  The
#: ``zero_fault`` and ``lossy`` digests are those outputs with
#: ``recovery_us`` as a float, which faulty cycles carry since
#: :meth:`~repro.mpc.FaultModel.recovery_in_cycle` sums from ``0.0``.
#: The ``recorded`` digest hashes ``repr`` of the spans: it is the
#: earlier recorder's spans, same values, printed in the shared
#: :class:`~repro.obs.spans.Span` repr (live-only fields at defaults).
PARENT_FINGERPRINTS = {
    "dense":
        "3b626c4f8076e927ed9eba87109b47f30175cd3965c57d031b79c41ad38745c5",
    "active":
        "3b626c4f8076e927ed9eba87109b47f30175cd3965c57d031b79c41ad38745c5",
    "recorded":
        "abe33bb49f39edea4373401e82bbdf867d9048533661b2b5861b4da3c6905fbd",
    "zero_fault":
        "49f6823b0c87bf4f8be95687cc77845ad49465bebc5f135c92d32427b193db12",
    "lossy":
        "30bb593ab0bd429a4a769a6997e64636a0f0385993b23da5e218a06d7dbb0e76",
    "plans":
        "51ff54f8d5bf1888238fd8143d51936b38b99ab805d0ceb64993219775dc32fc",
}


#: Processor count of the large-P compressed fingerprint: far more
#: processors than any cycle touches, so almost every slot is the floor.
LARGE_P = 4096

#: sha256 of the compressed path's per-cycle output at ``LARGE_P`` over
#: every trace x mapping x cost model (see :func:`large_p_fingerprint`),
#: as produced by the dict-state active-set loop before the dense and
#: compressed paths shared one event loop.
LARGE_P_FINGERPRINT = \
    "e458dcd7f80330ff2ce6da700f1ad323609f8a74172beb67b1c0098a96733d71"


def _sparse(section: SectionTrace) -> SectionTrace:
    """*section* renumbered with large, uneven gaps between act_ids."""
    def new(act_id):
        return 10_000 + 7 * act_id + act_id % 3

    cycles = [CycleTrace(cycle.index, {new(act.act_id): TraceActivation(
        act_id=new(act.act_id),
        parent_id=None if act.parent_id is None else new(act.parent_id),
        node_id=act.node_id, kind=act.kind, side=act.side, tag=act.tag,
        key=act.key, successors=tuple(new(s) for s in act.successors))
        for act in acts(cycle)}) for cycle in section]
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


def _owned(table, actor: int) -> list:
    """Positions of the nonterminals *table* gives *actor* (gaps have
    no tag; terminals go to CONTROL)."""
    return [pos for pos, tag in enumerate(table.tags)
            if tag and table.dest[pos] == actor]


def _specs(table, actor: int) -> dict:
    """*actor*'s ``{act_id: (is_left, extra_us, ((succ_id, dest,
    is_terminal), ...))}``: the per-actor form plans held before the
    actors read the shared table, rebuilt from the table."""
    base, dest = table.base, table.dest
    return {base + pos: (bool(table.left[pos]),
                         float(table.extra.get(base + pos, 0.0)),
                         tuple((succ_id, dest[succ_id - base],
                                dest[succ_id - base] == CONTROL)
                               for succ_id in table.successors[pos]))
            for pos in _owned(table, actor)}


def _canon_plan(plan) -> tuple:
    return (plan.index, plan.expected_processed, plan.expected_fires,
            tuple((sorted(_specs(a.table, p).items()), a.roots,
                   a.root_fires)
                  for p, a in enumerate(plan.per_actor)))


def _walk_plans(trace, config: RunConfig) -> list:
    """What each plan held when it was built by walking the activations
    the simulator delivers — roots, then successors of processed
    nonterminals — per cycle ``(index, expected_processed,
    expected_fires, ((roots, root_fires, checksum), ...))``."""
    n_procs = config.n_procs
    plans = []
    for cycle in trace:
        mapping = _cycle_mapping(config, cycle)
        acts = view(cycle)
        roots = [[] for _ in range(n_procs)]
        root_fires = [[] for _ in range(n_procs)]
        owned = [[] for _ in range(n_procs)]
        fires = []
        frontier = []
        for act_id in sorted(acts):
            act = acts[act_id]
            if act.parent_id is None:
                p = mapping.processor_for(act.key)
                if act.kind == "terminal":
                    root_fires[p].append(act_id)
                    fires.append(act_id)
                else:
                    roots[p].append(act_id)
                    frontier.append(act_id)
        while frontier:
            act = acts[frontier.pop()]
            owned[mapping.processor_for(act.key)].append(act)
            for succ_id in act.successors:
                if acts[succ_id].kind == "terminal":
                    fires.append(succ_id)
                else:
                    frontier.append(succ_id)
        plans.append((cycle.index, sum(map(len, owned)),
                      tuple(sorted(fires)),
                      tuple((tuple(roots[p]), tuple(root_fires[p]),
                             (len(owned[p]),
                              sum(a.side == "left" for a in owned[p]),
                              sum(a.act_id for a in owned[p]),
                              functools.reduce(operator.xor,
                                               (a.act_id for a in owned[p]),
                                               0)))
                            for p in range(n_procs))))
    return plans


def _plan_aggregates(plans) -> list:
    """*plans* in the form of :func:`_walk_plans`."""
    return [(plan.index, plan.expected_processed, plan.expected_fires,
             tuple((a.roots, a.root_fires, a.checksum)
                   for a in plan.per_actor))
            for plan in plans]


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


def large_p_fingerprint(traces) -> str:
    """sha256 of every compressed ``LARGE_P`` simulation over *traces*."""
    hasher = hashlib.sha256()
    for trace in traces:
        for mapping in MAPPINGS:
            for costs in COSTS:
                config = RunConfig(
                    n_procs=LARGE_P, costs=costs, overheads=OV8,
                    compress_rounds=True,
                    **_mapping_kwargs(mapping, LARGE_P, trace))
                result = simulate_config(trace, config)
                hasher.update(repr(result.repeats).encode())
                for cycle in result.expanded().cycles:
                    hasher.update(repr(_canon(cycle)).encode())
    return hasher.hexdigest()


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
                assert index.base == min(view(cycle))
                assert list(index.hashes) == [stable_hash(k)
                                              for k in index.keys]
                assert len(set(index.keys)) == len(index.keys)
                for act in acts(cycle):
                    assert index.keys[index.key_of[act.act_id
                                                   - index.base]] \
                        == act.key

    def test_compact_for_section_global_ids(self, traces):
        recorded = traces[1]
        assert min(view(recorded.cycles[-1])) > 100
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
        assert list(index.route(RoundRobinMapping(3)).dest) == []

    @pytest.mark.parametrize("mapping", MAPPINGS)
    def test_destinations_match_processor_for(self, traces, mapping):
        for trace in traces:
            for cycle in trace:
                config = RunConfig(n_procs=16, **_mapping_kwargs(
                    mapping, 16, trace))
                cycle_mapping = _cycle_mapping(config, cycle)
                index = cycle.key_index()
                dest = index.route(cycle_mapping).dest
                terminals = set(index.terminals)
                for act in acts(cycle):
                    pos = act.act_id - index.base
                    assert dest[pos] == (
                        CONTROL if pos in terminals
                        else cycle_mapping.processor_for(act.key))


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
                    acts = view(cycle)
                    for p, actor in enumerate(plan.per_actor):
                        for act_id in actor.roots + actor.root_fires:
                            assert mapping.processor_for(
                                acts[act_id].key) == p
                        for act_id, (_, _, succs) in _specs(
                                actor.table, p).items():
                            assert mapping.processor_for(
                                acts[act_id].key) == p
                            for succ_id, dest, terminal in succs:
                                assert dest == (CONTROL if terminal else
                                                mapping.processor_for(
                                                    acts[succ_id].key))

    def test_plans_equal_the_root_walk(self, traces):
        for trace in traces:
            for config in _configs(trace):
                assert _plan_aggregates(build_plans(trace, config)) == \
                    _walk_plans(trace, config)

    def test_expected_fires_need_no_plans(self, traces):
        for trace in traces:
            fires = expected_fires(trace)
            for config in _configs(trace):
                assert fires == [plan.expected_fires
                                 for plan in build_plans(trace, config)]

    def test_orphan_subtrees_left_out_like_the_root_walk(self, traces):
        """An activation whose parent is outside its cycle is never
        delivered, nor is anything under it: the index leaves its
        subtree out of every count, so plans leave it out of every
        count, fire set and checksum, as the walk did, and the
        simulator counts the same activations the actors process."""
        cycle = max(traces[1], key=len)
        acts = view(cycle)
        orphan = next(
            act for act in acts.values()
            if act.parent_id is not None and act.kind != "terminal"
            and any(acts[s].kind == "terminal" for s in act.successors))
        rows = dict(acts)
        parent = rows[orphan.parent_id]
        rows[parent.act_id] = dataclasses.replace(parent, successors=tuple(
            s for s in parent.successors if s != orphan.act_id))
        rows[orphan.act_id] = dataclasses.replace(orphan, parent_id=-1)
        out = CycleTrace(cycle.index, rows)
        trace = SectionTrace(name="orphaned", cycles=[out])
        index = out.key_index()
        assert index.orphans
        for config in _configs(trace):
            plans = build_plans(trace, config)
            assert _plan_aggregates(plans) == _walk_plans(trace, config)
            assert expected_fires(trace) == [plans[0].expected_fires]
        terminal = [act.kind == "terminal" for act in acts.values()]
        assert len(index.counted) < terminal.count(False)
        assert len(index.terminals) < terminal.count(True)
        assert plans[0].expected_processed == len(index.counted)
        assert plans[0].expected_fires == tuple(
            index.base + pos for pos in index.terminals)
        config = RunConfig(n_procs=4)
        sim = run(trace, config, backend="sim")
        live = run(trace, config, backend="actors")
        assert live.result.cycles[0].proc_activations \
            == sim.result.cycles[0].proc_activations
        assert match_signature(live) == match_signature(sim)

    def test_matches_results_before_the_index(self, matrix):
        assert path_fingerprints(matrix) == PARENT_FINGERPRINTS


class TestLargeP:
    def test_compressed_matches_results_before_one_loop(self, traces):
        assert large_p_fingerprint(traces) == LARGE_P_FINGERPRINT

    def test_compressed_equals_dense(self, traces):
        config = RunConfig(n_procs=LARGE_P, overheads=OV8,
                           costs=COSTS[1])
        dense = simulate_config(traces[1], config)
        compressed = simulate_config(
            traces[1], config.replace(compress_rounds=True))
        assert [_canon(c) for c in compressed.expanded().cycles] \
            == [_canon(c) for c in dense.cycles]


def _fresh(trace: SectionTrace) -> SectionTrace:
    """*trace* through a pickle round trip: no cached order or index."""
    return pickle.loads(pickle.dumps(trace))


def _simulations(trace: SectionTrace) -> list:
    """Dense and compressed results at a few processor counts."""
    out = []
    for n_procs in PROCS:
        for compress in (False, True):
            config = RunConfig(n_procs=n_procs, overheads=OV8,
                               costs=COSTS[1], compress_rounds=compress)
            out.append([_canon(c) for c in
                        simulate_config(trace, config).expanded().cycles])
    return out


class TestCacheLifecycle:
    def test_add_then_rewrite_after_simulation(self, traces):
        """Rows grown in the trace builder's order — a child, then its
        parent's successors — compile into cycles that simulate like
        their pickled copies, after the originals were simulated."""
        trace = traces[0]
        before = _simulations(trace)
        cycles = []
        for cycle in trace:
            rows = dict(view(cycle))
            parent = next(a for a in acts(cycle) if a.kind != "terminal")
            for offset, kind in ((1, "join"), (2, "terminal")):
                act_id = max(rows) + 1
                rows[act_id] = TraceActivation(
                    act_id=act_id, parent_id=parent.act_id,
                    node_id=parent.node_id + offset, kind=kind,
                    side="left", tag="+",
                    key=BucketKey(parent.node_id + offset, (offset,)))
                parent = rows[parent.act_id] = dataclasses.replace(
                    parent, successors=parent.successors + (act_id,))
            cycles.append(CycleTrace(cycle.index, rows))
        trace = SectionTrace(name=trace.name, cycles=cycles)
        validate_trace(trace)
        after = _simulations(trace)
        assert after == _simulations(_fresh(trace))
        assert after != before

    def test_add_after_simulation_invalidates(self, traces):
        trace = traces[1].slice(0, 2)
        config = RunConfig(n_procs=3, overheads=OV8)
        before = simulate_config(trace, config)
        cycle = trace.cycles[0]
        stale = cycle.key_index()
        new_key = BucketKey(9_999, ("fresh",))
        rows = dict(view(cycle))
        act_id = max(rows) + 1
        rows[act_id] = TraceActivation(
            act_id=act_id, parent_id=None, node_id=9_999, kind="join",
            side="right", tag="+", key=new_key)
        cycle = CycleTrace(cycle.index, rows)
        index = cycle.key_index()
        assert index is not stale and new_key in index.keys
        trace = SectionTrace(name=trace.name,
                             cycles=[cycle] + trace.cycles[1:])
        after = simulate_config(trace, config)
        reference = simulate_cycle_reference(
            cycle, 3, config.costs, OV8, RoundRobinMapping(3))
        assert _canon(after.cycles[0]) == _canon(reference)
        assert after.cycles[0] != before.cycles[0]
        assert after.cycles[1] == before.cycles[1]

    def test_pickle_drops_caches(self, traces, monkeypatch):
        """Pickles carry the table, not the view: a round trip gives an
        equal table and builds no view, nor does simulating it."""
        cycle = traces[1].cycles[0]
        bare = pickle.dumps(cycle)
        view(cycle)
        assert pickle.dumps(cycle) == bare

        def refuse(index):
            raise AssertionError("built a TraceActivation view")

        monkeypatch.setattr(CycleKeyIndex, "view", refuse)
        clone = pickle.loads(bare)
        assert clone.key_index() == cycle.key_index()
        assert clone == cycle
        config = RunConfig(n_procs=4, overheads=OV8)
        got = simulate_config(SectionTrace(name="one", cycles=[clone]),
                              config).cycles[0]
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
