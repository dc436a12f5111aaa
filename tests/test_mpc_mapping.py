"""Unit tests for bucket-to-processor distribution strategies."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpc import (ExplicitMapping, RandomMapping, RoundRobinMapping,
                       greedy_assignment, greedy_mapping)
from repro.rete.hashing import BucketKey


def keys(n, node=1):
    return [BucketKey(node, (i,)) for i in range(n)]


class TestRoundRobin:
    def test_in_range(self):
        m = RoundRobinMapping(n_procs=7)
        assert all(0 <= m.processor_for(k) < 7 for k in keys(100))

    def test_deterministic(self):
        a = RoundRobinMapping(n_procs=8)
        b = RoundRobinMapping(n_procs=8)
        assert [a.processor_for(k) for k in keys(50)] == \
            [b.processor_for(k) for k in keys(50)]

    def test_same_key_both_sides_same_processor(self):
        """Left and right buckets of one index share a processor
        (Section 3.1): identical keys must map identically."""
        m = RoundRobinMapping(n_procs=8)
        k = BucketKey(5, ("v", 3))
        assert m.processor_for(k) == m.processor_for(BucketKey(5, ("v", 3)))

    def test_single_processor(self):
        m = RoundRobinMapping(n_procs=1)
        assert all(m.processor_for(k) == 0 for k in keys(20))

    def test_spreads_buckets(self):
        m = RoundRobinMapping(n_procs=4)
        procs = {m.processor_for(k) for k in keys(200)}
        assert procs == {0, 1, 2, 3}


class TestRandom:
    def test_seeded_determinism(self):
        a = RandomMapping(n_procs=8, seed=42)
        b = RandomMapping(n_procs=8, seed=42)
        assert [a.processor_for(k) for k in keys(50)] == \
            [b.processor_for(k) for k in keys(50)]

    def test_different_seeds_differ(self):
        a = RandomMapping(n_procs=8, seed=1)
        b = RandomMapping(n_procs=8, seed=2)
        assert [a.processor_for(k) for k in keys(50)] != \
            [b.processor_for(k) for k in keys(50)]

    def test_in_range(self):
        m = RandomMapping(n_procs=5, seed=3)
        assert all(0 <= m.processor_for(k) < 5 for k in keys(100))


class TestExplicit:
    def test_explicit_assignment_honoured(self):
        k = BucketKey(1, ("hot",))
        m = ExplicitMapping(n_procs=4, assignment={k: 3})
        assert m.processor_for(k) == 3

    def test_fallback_to_round_robin(self):
        m = ExplicitMapping(n_procs=4, assignment={})
        rr = RoundRobinMapping(n_procs=4)
        for k in keys(20):
            assert m.processor_for(k) == rr.processor_for(k)

    def test_out_of_range_assignment_rejected(self):
        k = BucketKey(1, ())
        m = ExplicitMapping(n_procs=2, assignment={k: 5})
        with pytest.raises(ValueError):
            m.processor_for(k)


class TestGreedy:
    def test_heaviest_buckets_separated(self):
        work = {BucketKey(1, (i,)): float(w)
                for i, w in enumerate([100, 90, 1, 1])}
        assignment = greedy_assignment(work, n_procs=2)
        heavy = [k for k, w in work.items() if w >= 90]
        assert assignment[heavy[0]] != assignment[heavy[1]]

    def test_balance_quality(self):
        """LPT is within 4/3 of optimum; for many small items it should
        be nearly perfect."""
        work = {BucketKey(1, (i,)): 10.0 for i in range(100)}
        assignment = greedy_assignment(work, n_procs=4)
        loads = [0.0] * 4
        for k, p in assignment.items():
            loads[p] += work[k]
        assert max(loads) - min(loads) <= 10.0

    def test_deterministic(self):
        work = {BucketKey(1, (i,)): float(i % 7) for i in range(30)}
        assert greedy_assignment(work, 3) == greedy_assignment(work, 3)

    def test_greedy_mapping_wraps_assignment(self):
        work = {BucketKey(1, (0,)): 50.0}
        m = greedy_mapping(work, n_procs=4)
        assert m.processor_for(BucketKey(1, (0,))) == \
            greedy_assignment(work, 4)[BucketKey(1, (0,))]

    def test_empty_work(self):
        assert greedy_assignment({}, 4) == {}


@given(n_procs=st.integers(min_value=1, max_value=32),
       weights=st.lists(st.floats(min_value=0.1, max_value=1000),
                        min_size=1, max_size=60))
def test_greedy_respects_lpt_bound(n_procs, weights):
    """Greedy list scheduling guarantees makespan <= total/m + max item.

    (Graham's 4/3 factor bounds LPT against the true OPT, which we do
    not know; applying it to the OPT *lower bound* max(total/m, max)
    is invalid — e.g. two unit items on three processors have makespan
    1.0 but lower bound 2/3.  The bound below is the one every greedy
    schedule provably satisfies, and is within 2x of the lower bound.)"""
    work = {BucketKey(1, (i,)): w for i, w in enumerate(weights)}
    assignment = greedy_assignment(work, n_procs)
    loads = [0.0] * n_procs
    for k, p in assignment.items():
        loads[p] += work[k]
    assert max(loads) <= sum(weights) / n_procs + max(weights) + 1e-9


def _greedy_by_scan(bucket_work, n_procs):
    """The linear-scan LPT greedy the heap version replaced."""
    loads = [0.0] * n_procs
    assignment = {}
    for key, work in sorted(bucket_work.items(),
                            key=lambda kv: (-kv[1], kv[0])):
        target = min(range(n_procs), key=lambda p: loads[p])
        assignment[key] = target
        loads[target] += work
    return assignment


@given(n_procs=st.sampled_from([1, 2, 3, 16, 32, 64]),
       items=st.lists(
           st.tuples(st.integers(min_value=0, max_value=3),
                     st.integers(min_value=0, max_value=30),
                     st.sampled_from([0.0, 16.0, 32.0, 48.0, 0.5])),
           max_size=80))
def test_greedy_heap_matches_linear_scan(n_procs, items):
    """Few distinct work values force tied loads and tied keys: the
    heap must break every tie on the lowest processor id, as the scan's
    ``min`` does, and order equal-work keys by the key itself (symbol
    values on odd nodes, integers on even ones)."""
    work = {BucketKey(node, (f"v{value}" if node % 2 else value,)): w
            for node, value, w in items}
    got = greedy_assignment(work, n_procs)
    assert got == _greedy_by_scan(work, n_procs)
    assert list(got) == list(_greedy_by_scan(work, n_procs))
