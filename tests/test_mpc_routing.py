"""The one routing step: :meth:`CycleKeyIndex.route` and its memo.

Every router — the general loop (dense and compressed), the fault and
recording loop, the machine models and the live plans — reads a cycle's
:class:`~repro.trace.events.CycleRoute`.  These tests hold the route to
the composition the routers made on their own before it existed (map
the distinct keys, expand them to every position, send terminals to
control, count per key), including the owners of single-CE
instantiations, which the paper sections never have; and they hold the
memo to its rules: defined-by-value mappings share one entry per
(cycle, mapping), stored from its second request on, per-cycle and
explicit mappings store nothing, readers get lists of their own, and
nothing routed shows in a pickle, ``==``, ``repr`` or a later result.
"""

import pickle
import random
from collections import Counter

import pytest

from repro.exec import run
from repro.exec.plan import CONTROL, build_plans
from repro.mpc import (TABLE_5_1, ExplicitMapping, FaultModel,
                       GreedyMappingFactory, RandomMapping,
                       RoundRobinMapping, RunConfig, overhead_sweep,
                       simulate, simulate_config, speedup_curve)
from repro.mpc._reference import (simulate_reference,
                                  simulate_with_faults_reference)
from repro.ops5 import parse_program
from repro.trace import (KIND_TERMINAL, LEFT, RIGHT, SectionTrace,
                         TraceBuilder, record_program)
from repro.trace.validate import validate_trace
from repro.workloads import rubik_section, tourney_section, weaver_section
from repro.workloads.match import (rubik_match_program,
                                   tourney_match_program,
                                   weaver_match_program)
from tests.test_trace_orphan_rows import orphaned

OV8 = next(o for o in TABLE_5_1 if o.total_us == 8)
SWEEP_PROCS = (1, 2, 4, 8)


def _copy(trace):
    """A copy of *trace* whose cycles have never been routed."""
    return pickle.loads(pickle.dumps(trace))


def _single_ce(seed: int) -> SectionTrace:
    """Random cycles in which about a third of the roots are single-CE
    instantiations (terminal roots) over a few dozen keys."""
    rng = random.Random(seed)
    builder = TraceBuilder(f"single-ce-{seed}")
    for _ in range(4):
        builder.new_cycle()
        for _ in range(30):
            if rng.random() < 0.35:
                builder.root(900 + rng.randrange(3), LEFT,
                             values=(rng.randrange(40),),
                             kind=KIND_TERMINAL)
                continue
            parent = builder.root(1 + rng.randrange(12),
                                  rng.choice((LEFT, RIGHT)),
                                  values=(rng.randrange(20),))
            for _ in range(rng.randrange(3)):
                child = builder.child(parent, 100 + rng.randrange(8),
                                      values=(rng.randrange(20),))
                if rng.random() < 0.3:
                    builder.terminal(child, 950 + rng.randrange(2))
    return builder.build()


def _sections():
    recorded = [record_program(parse_program(build(0)), name,
                               max_cycles=25)
                for name, build in (("rubik", rubik_match_program),
                                    ("tourney", tourney_match_program),
                                    ("weaver", weaver_match_program))]
    return ([_copy(rubik_section(0)), _copy(tourney_section(0)),
             _copy(weaver_section(0))] + recorded
            + [orphaned(), _single_ce(0), _single_ce(1)])


def _mappings(n_procs: int, cycle):
    yield RoundRobinMapping(n_procs)
    yield RandomMapping(n_procs, seed=5)
    yield GreedyMappingFactory(n_procs)(cycle)
    keys = sorted(cycle.key_index().keys)
    yield ExplicitMapping(n_procs, {key: i % n_procs
                                    for i, key in enumerate(keys[::3])})


def _composed(index, mapping, n_procs: int):
    """Routing as each router did it on its own: the per-key
    processors expanded to every position, the terminal roots' owners
    read before terminals are sent to control, and the per-processor
    counts taken per key."""
    procs = mapping.processors(index.keys, index.hashes)
    dest = [procs[k] for k in index.key_of]
    shippers = [dest[~r] for r in index.roots if r < 0]
    for pos in index.terminals:
        dest[pos] = CONTROL
    key_counts = Counter(index.key_of[pos] for pos in index.counted)
    key_left_counts = Counter(index.key_of[pos]
                              for pos in index.counted_left)
    activations = [0] * n_procs
    left_activations = [0] * n_procs
    for k, p in enumerate(procs):
        activations[p] += key_counts[k]
        left_activations[p] += key_left_counts[k]
    return procs, dest, shippers, (activations, left_activations)


def _columns(index, route) -> tuple:
    """Everything *route* holds, as plain lists, with the owner of each
    terminal root."""
    return (route.dest, [route.procs[index.key_of[~r]]
                         for r in index.roots if r < 0],
            list(route.procs), route.per_processor())


def _stored(index) -> dict:
    """The stored routes of *index*'s memo, as plain lists."""
    return {key: _columns(index, route)
            for key, route in index.routes.items() if route is not None}


@pytest.fixture(scope="module")
def sections():
    out = _sections()
    for section in out:
        if section.name != "orphaned":  # invalid on purpose
            validate_trace(section)
    return out


class TestRouteEqualsTheComposition:
    @pytest.mark.parametrize("n_procs", [1, 2, 3, 16, 200])
    def test_every_mapping(self, sections, n_procs):
        for section in sections:
            for cycle in section:
                index = cycle.key_index()
                for mapping in _mappings(n_procs, cycle):
                    procs, dest, shippers, counts = _composed(
                        index, mapping, n_procs)
                    # fresh, fresh again (stored compact), then stored
                    for _ in range(3):
                        route = index.route(mapping)
                        assert _columns(index, route) == (
                            dest, shippers, procs, counts)
                        # counted once; every call gets fresh lists
                        assert route.per_processor() == counts
                        assert route.per_processor() is not \
                            route.per_processor()

    def test_single_ce_owners_are_bucket_owners(self):
        shipped = 0
        for seed in range(3):
            trace = _single_ce(seed)
            for n_procs in (2, 5, 16):
                mapping = RoundRobinMapping(n_procs)
                plans = build_plans(trace, RunConfig(n_procs=n_procs))
                for cycle, plan in zip(trace, plans):
                    index = cycle.key_index()
                    owners = [mapping.processor_for(index.keys[
                        index.key_of[~r]]) for r in index.roots if r < 0]
                    route = index.route(mapping)
                    assert _columns(index, route)[1] == owners
                    assert all(route.dest[~r] == CONTROL
                               for r in index.roots if r < 0)
                    fires = {act_id: p for p, share in
                             enumerate(plan.per_actor)
                             for act_id in share.root_fires}
                    assert [fires[index.base + ~r] for r in index.roots
                            if r < 0] == owners
                    shipped += len(owners)
                # every loop ships from the owner: the optimised loops
                # (dense, compressed, instrumented) equal the oracle
                want = simulate_reference(trace, n_procs, overheads=OV8)
                assert repr(simulate(trace, n_procs, overheads=OV8)) \
                    == repr(want)
                compressed = simulate_config(trace, RunConfig(
                    n_procs=n_procs, overheads=OV8,
                    compress_rounds=True)).expanded()
                assert [c.makespan_us for c in compressed.cycles] \
                    == [c.makespan_us for c in want.cycles]
                faults = FaultModel(seed=3, loss_prob=0.1)
                assert repr(simulate_config(trace, RunConfig(
                    n_procs=n_procs, overheads=OV8, faults=faults))) \
                    == repr(simulate_with_faults_reference(
                        trace, n_procs, faults, overheads=OV8))
        assert shipped > 50
        # the owners spread: a wrong owner would move a result
        assert len(set(owners)) > 1


class TestMemo:
    def test_sweep_replay_equals_a_fresh_copy(self):
        for build in (tourney_section, weaver_section):
            section = _copy(build(0))
            first = overhead_sweep(section, SWEEP_PROCS)
            again = overhead_sweep(section, SWEEP_PROCS)
            fresh = overhead_sweep(_copy(section), SWEEP_PROCS)
            for curves in (again, fresh):
                assert [repr(r) for c in curves for r in c.results] \
                    == [repr(r) for c in first for r in c.results]
            # one stored entry per (cycle, P >= 2), shared by the rows
            for cycle in section:
                routes = cycle.key_index().routes
                assert len(routes) == sum(p >= 2 for p in SWEEP_PROCS)
                assert None not in routes.values()

    def test_stored_from_the_second_request(self):
        index = _copy(tourney_section(0)).cycles[0].key_index()
        key = RoundRobinMapping(4).route_key
        first = index.route(RoundRobinMapping(4))
        assert index.routes == {key: None}  # a one-pass run stores none
        second = index.route(RoundRobinMapping(4))
        assert second is not first and index.routes[key] is not None
        assert index.route(RoundRobinMapping(4)).dest == first.dest

    def test_entries_are_keyed_by_value(self):
        index = _copy(tourney_section(0)).cycles[0].key_index()

        def stored(mapping):
            for _ in range(2):
                index.route(mapping)
            return index.routes[mapping.route_key]

        a = stored(RoundRobinMapping(4))
        assert stored(RoundRobinMapping(4)) is a and len(index.routes) == 1
        c = stored(RandomMapping(4))
        assert c is not a and len(index.routes) == 2
        assert stored(RandomMapping(4, seed=1)) is not c
        assert stored(RoundRobinMapping(4, n_buckets=512)) is not a
        assert len(index.routes) == 4

    def test_greedy_and_explicit_store_nothing(self):
        section = _copy(tourney_section(0))
        speedup_curve(section, (1, 2, 16), overheads=OV8,
                      mapping_factory_for=GreedyMappingFactory)
        keys = sorted(section.bucket_keys())
        simulate_config(section, RunConfig(n_procs=4, mapping=ExplicitMapping(
            4, {key: i % 4 for i, key in enumerate(keys[::2])})))
        assert all(not cycle.key_index().routes for cycle in section)

    def test_routed_cycles_pickle_compare_and_print_as_unrouted(self):
        routed, plain = _copy(rubik_section(0)), _copy(rubik_section(0))
        for n_procs in (2, 16):
            for _ in range(2):
                simulate(routed, n_procs, overheads=OV8)
                simulate_config(routed, RunConfig(
                    n_procs=n_procs, mapping=RandomMapping(n_procs)))
        for a, b in zip(routed, plain):
            assert _stored(a.key_index()) and not b.key_index().routes
            assert pickle.dumps(a) == pickle.dumps(b)
            assert a == b and a.key_index() == b.key_index()
            assert repr(a) == repr(b)
            assert repr(a.key_index()) == repr(b.key_index())
        assert not pickle.loads(pickle.dumps(routed)).cycles[0] \
            .key_index().routes

    def test_readers_cannot_write_the_memo(self):
        section = _copy(weaver_section(0))
        config = RunConfig(n_procs=4, overheads=OV8)
        for _ in range(2):
            simulate_config(section, config)
        memo = [_stored(cycle.key_index()) for cycle in section]
        assert all(memo)
        run(section, config, backend="actors")
        plans = build_plans(section, config)
        for cycle, plan in zip(section, plans):
            index = cycle.key_index()
            route = index.route(RoundRobinMapping(4))
            assert plan.per_actor[0].table.dest == route.dest
            # every reader gets its own list
            route.dest[:] = [0] * len(route.dest)
            plan.per_actor[0].table.dest[:] = [0] * len(route.dest)
        assert [_stored(cycle.key_index()) for cycle in section] == memo


class TestReferenceOnOrphans:
    """The object oracle counts token messages over the activations its
    loop delivers, as the table loops do, so it runs on orphans."""

    @pytest.mark.parametrize("n_procs", [1, 2, 4])
    def test_fault_free(self, n_procs):
        trace = orphaned()
        for overheads in (TABLE_5_1[0], OV8):
            assert repr(simulate_reference(trace, n_procs,
                                           overheads=overheads)) \
                == repr(simulate(trace, n_procs, overheads=overheads))

    @pytest.mark.parametrize("n_procs", [1, 2, 4])
    def test_faulty(self, n_procs):
        trace = orphaned()
        faults = FaultModel(seed=7, loss_prob=0.05, dup_prob=0.02,
                            jitter_us=1.0)
        assert repr(simulate_with_faults_reference(
            trace, n_procs, faults, overheads=OV8)) \
            == repr(simulate_config(trace, RunConfig(
                n_procs=n_procs, overheads=OV8, faults=faults)))
