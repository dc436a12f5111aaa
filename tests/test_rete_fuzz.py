"""Differential fuzzing of the flattened match kernel.

Three independently-written matchers — the from-scratch naive matcher,
the preserved object-dispatch Rete (:class:`ReferenceReteNetwork`) and
the flattened kernel (logged, writing activation rows from its one
walk, and unlogged, writing none) — are driven through random rule
subsets and random working-memory churn (adds, removes, negated CEs,
multiple-modify bursts).  All four must agree on the conflict set after
every single delta; the kernel variants must also agree on memory
totals and on their left memories bucket by bucket (stored wme-id
tuples in store order, and alias copies), which the reference's left
memories must match too.

The ``ci`` hypothesis profile runs on every PR; the ``fuzz``-marked
deep sweeps run nightly at the ``nightly`` profile budget.
"""

from typing import List

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ops5 import NaiveMatcher, parse_production
from repro.ops5.wme import WME
from repro.rete import ReteNetwork
from repro.rete._reference import ReferenceReteNetwork
from tests.rete_memory_image import left_buckets, left_state

CLASSES = ["a", "b", "c"]
VALUES = [1, 2, 3, "x", "y"]

wme_payloads = st.builds(
    dict,
    p=st.sampled_from(VALUES),
    q=st.sampled_from(VALUES),
)

#: Structurally diverse rules: joins, chains, negation in every
#: position, relational and intra-CE tests, disjunctions, self-joins.
PRODUCTION_SOURCES = [
    "(p join2 (a ^p <x>) (b ^p <x>) --> (remove 1))",
    "(p chain3 (a ^p <x>) (b ^p <x> ^q <y>) (c ^q <y>) --> (remove 1))",
    "(p cross (a) (b) --> (remove 1))",
    "(p neg (a) -(c) --> (remove 1))",
    "(p negjoin (a ^p <x>) -(b ^p <x>) --> (remove 1))",
    "(p negmid (a ^p <x>) -(c ^p <x>) (b) --> (remove 1))",
    "(p negrel (a ^p <x>) -(b ^q > <x>) --> (remove 1))",
    "(p rel (a ^p <x>) (b ^p > <x>) --> (remove 1))",
    "(p intra (a ^p <x> ^q <x>) --> (remove 1))",
    "(p selfjoin (a ^p <x>) (a ^q <x>) --> (remove 1))",
    "(p disj (a ^p << 1 x >>) --> (remove 1))",
    "(p doubleneg (a ^p <x>) -(b ^p <x>) -(c ^q <x>) --> (remove 1))",
]

#: A wide battery of EQ-constant patterns on one class: many alpha
#: patterns tested against every wme of the class.
CONST_BATTERY = [
    f"(p const{v} (a ^p {v} ^q <y>) (b ^q <y>) --> (remove 1))"
    for v in range(10)
]


def conflict_signature(matcher):
    return sorted((inst.production.name,
                   tuple(w.wme_id for w in inst.wmes))
                  for inst in matcher.conflict_set())


@st.composite
def churn_scripts(draw, max_ops=30):
    """Adds, removes, and multiple-modify bursts over a shared pool.

    A burst removes several live wmes and adds fresh-id replacements in
    one step — the working-memory shape of an OPS5 RHS with several
    ``modify`` actions (the paper's multiple-modify effect).
    """
    n_ops = draw(st.integers(min_value=1, max_value=max_ops))
    ops = []
    live: List[int] = []
    next_id = 1
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["add", "add", "remove", "burst"]))
        if kind == "add" or not live:
            cls = draw(st.sampled_from(CLASSES))
            payload = draw(wme_payloads)
            ops.append(("add", next_id, cls, payload))
            live.append(next_id)
            next_id += 1
        elif kind == "remove":
            victim = draw(st.sampled_from(live))
            live.remove(victim)
            ops.append(("remove", victim))
        else:
            size = draw(st.integers(min_value=1,
                                    max_value=min(4, len(live))))
            victims = draw(st.lists(st.sampled_from(live),
                                    min_size=size, max_size=size,
                                    unique=True))
            burst = []
            for victim in victims:
                live.remove(victim)
                payload = draw(wme_payloads)
                cls = draw(st.sampled_from(CLASSES))
                burst.append((victim, next_id, cls, payload))
                live.append(next_id)
                next_id += 1
            ops.append(("burst", burst))
    return ops


@st.composite
def rule_subsets(draw, battery=False):
    indices = draw(st.lists(
        st.integers(min_value=0, max_value=len(PRODUCTION_SOURCES) - 1),
        min_size=1, max_size=5, unique=True))
    rules = [PRODUCTION_SOURCES[i] for i in indices]
    if battery or draw(st.booleans()):
        rules = rules + CONST_BATTERY
    return rules


def _apply(op, engines, wmes, timestamp):
    """Apply one script op to every engine; return the new timestamp."""
    if op[0] == "add":
        _, wid, cls, payload = op
        timestamp += 1
        wme = WME(wid, cls, dict(payload), timestamp=timestamp)
        wmes[wid] = wme
        for engine in engines:
            engine.add_wme(wme)
    elif op[0] == "remove":
        wme = wmes.pop(op[1])
        for engine in engines:
            engine.remove_wme(wme)
    else:
        for old_id, new_id, cls, payload in op[1]:
            old = wmes.pop(old_id)
            for engine in engines:
                engine.remove_wme(old)
            timestamp += 1
            wme = WME(new_id, cls, dict(payload), timestamp=timestamp)
            wmes[new_id] = wme
            for engine in engines:
                engine.add_wme(wme)
    return timestamp


def _run_differential(rules, script):
    naive = NaiveMatcher()
    reference = ReferenceReteNetwork()
    fast = ReteNetwork()
    fast.keep_log(fast)  # the logged walk, for the network's life
    plain = ReteNetwork()
    engines = (naive, reference, fast, plain)
    for source in rules:
        production = parse_production(source)
        for engine in engines:
            engine.add_production(production)
    wmes = {}
    timestamp = 0
    for op in script:
        timestamp = _apply(op, engines, wmes, timestamp)
        want = conflict_signature(naive)
        assert conflict_signature(reference) == want
        assert conflict_signature(fast) == want
        assert conflict_signature(plain) == want
    assert fast.memories.counts() == plain.memories.counts()
    assert left_state(fast) == left_state(plain)
    assert left_buckets(plain) == left_buckets(reference)


@given(rules=rule_subsets(), script=churn_scripts())
def test_fast_matches_reference_and_naive_under_churn(rules, script):
    _run_differential(rules, script)


@given(rules=rule_subsets(battery=True), script=churn_scripts())
def test_const_battery_vectorized_parity(rules, script):
    """The wide EQ-constant battery always rides along, so the
    class-indexed alpha loop is fuzzed over many patterns per class."""
    _run_differential(rules, script)


@given(rules=rule_subsets(), script=churn_scripts())
def test_traced_equals_untraced_final_state(rules, script):
    """A log reader must not change what the kernel computes — only
    whether rows are written.  The logged and the unlogged kernel must
    land in identical final states."""
    traced = ReteNetwork()
    untraced = ReteNetwork()
    traced.keep_log(traced)
    engines = (traced, untraced)
    for source in rules:
        production = parse_production(source)
        for engine in engines:
            engine.add_production(production)
    wmes = {}
    timestamp = 0
    for op in script:
        timestamp = _apply(op, engines, wmes, timestamp)
        assert conflict_signature(traced) == conflict_signature(untraced)
    assert traced.memories.counts() == untraced.memories.counts()
    assert left_state(traced) == left_state(untraced)


@pytest.mark.fuzz
@given(rules=rule_subsets(), script=churn_scripts(max_ops=120))
def test_deep_churn_differential(rules, script):
    """Nightly: long scripts reach deeper negative-count transitions
    and longer token churn than the PR-gate tier."""
    _run_differential(rules, script)


@pytest.mark.fuzz
@given(rules=rule_subsets(battery=True), script=churn_scripts(max_ops=120))
def test_deep_vectorized_differential(rules, script):
    _run_differential(rules, script)
