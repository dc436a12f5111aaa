"""Relational negated CEs and left-bucket copies in the match kernel.

A negative node whose one residual test is relational counts its right
bucket through a sorted range index (:class:`repro.rete.memory
.RangeIndex`) instead of testing every stored wme.  These tests drive
that path with a wide value alphabet — ints and floats that compare
equal (``1``/``1.0``, ``0``/``-0.0``), NaN, infinities, ``bool`` and
symbols, each drawn repeatedly — through four engines: the kernel
logged and unlogged, the object-dispatch reference and the naive
matcher.  They must agree on the conflict set after every delta, the
kernels and the reference on memory totals, and every memory must be
empty once the churn is undone.

Left buckets map wme-id tuples to token slots; the same wme added twice
stores a second copy, and removal must take the first-stored one, as
the reference's lists do.
"""

import math
from typing import List

from hypothesis import given
from hypothesis import strategies as st

from repro.check.oracles import log_events
from repro.ops5 import NaiveMatcher, parse_production
from repro.ops5.ast import Predicate
from repro.ops5.wme import WME
from repro.rete import ReteNetwork
from repro.rete._reference import ReferenceReteNetwork
from repro.rete.memory import BISECT_COUNTS, RangeIndex
from repro.rete.predicates import compile_predicate
from tests.rete_memory_image import left_buckets, left_state

NAN = float("nan")
INF = float("inf")

#: Every value class the relational predicates distinguish, with
#: numerically equal ints and floats side by side.
WIDE = [1, 1.0, 2, 2.5, -0.0, 0, NAN, INF, -INF, True, "x", "nil"]

#: Values for the equality key.  ``True`` and NaN are left out: the
#: hashed bucket key equates ``True`` with ``1`` and a NaN object with
#: itself, where OPS5 equality (and so the naive matcher) does not.
KEYS = [v for v in WIDE if v is not True and v is not NAN]

OPS = ["<", "<=", ">", ">="]

#: The empty-key form (every token and wme share one bucket) and a
#: keyed form, for each relational predicate.
RULES = ([f"(p open{i} (a ^p <x>) -(b ^q {op} <x>) --> (remove 1))"
          for i, op in enumerate(OPS)]
         + [f"(p keyed{i} (a ^p <k> ^q <x>) -(b ^p <k> ^q {op} <x>)"
            " --> (remove 1))" for i, op in enumerate(OPS)])


def _signature(engine):
    return sorted((inst.production.name,
                   tuple(w.wme_id for w in inst.wmes))
                  for inst in engine.conflict_set())


def _engines(rules):
    naive = NaiveMatcher()
    reference = ReferenceReteNetwork()
    observed = ReteNetwork()
    observed.keep_log(observed)  # the logged walk, for the network's life
    plain = ReteNetwork()
    engines = (naive, reference, observed, plain)
    for source in rules:
        production = parse_production(source)
        for engine in engines:
            engine.add_production(production)
    return engines


def _check(engines):
    naive, reference, observed, plain = engines
    want = _signature(naive)
    for engine in (reference, observed, plain):
        assert _signature(engine) == want
    counts = reference.memories.counts()
    assert observed.memories.counts() == counts
    assert plain.memories.counts() == counts
    assert left_state(observed) == left_state(plain)
    assert left_buckets(plain) == left_buckets(reference)


def _drive(rules, ops):
    """Apply add/remove *ops* to all four engines, checking after each,
    then remove what is left and check every memory is empty."""
    engines = _engines(rules)
    live = {}
    for step, (kind, wid, cls, p, q) in enumerate(ops):
        if kind == "add":
            wme = WME(wid, cls, {"p": p, "q": q}, timestamp=step + 1)
            live[wid] = wme
            for engine in engines:
                engine.add_wme(wme)
        elif wid in live:
            wme = live.pop(wid)
            for engine in engines:
                engine.remove_wme(wme)
        _check(engines)
    for wme in list(live.values()):
        for engine in engines:
            engine.remove_wme(wme)
        _check(engines)
    for engine in engines[1:]:
        assert engine.memories.is_empty()
    for kernel in engines[2:]:
        assert not any(kernel.memories.ranges) and not kernel.memories.copies


@st.composite
def wide_scripts(draw, max_ops=40):
    n_ops = draw(st.integers(min_value=1, max_value=max_ops))
    ops = []
    live: List[int] = []
    for wid in range(1, n_ops + 1):
        if live and draw(st.integers(0, 3)) == 0:
            victim = draw(st.sampled_from(live))
            live.remove(victim)
            ops.append(("remove", victim, None, None, None))
            continue
        ops.append(("add", wid, draw(st.sampled_from(["a", "b"])),
                    draw(st.sampled_from(KEYS)),
                    draw(st.sampled_from(WIDE))))
        live.append(wid)
    return ops


@given(rules=st.lists(st.sampled_from(RULES), min_size=1, max_size=4,
                      unique=True),
       ops=wide_scripts())
def test_wide_alphabet_differential(rules, ops):
    _drive(rules, ops)


def test_every_value_against_every_value():
    """Each value as a token against a bucket holding every value twice,
    then the bucket drained one wme at a time."""
    ops = []
    wid = 0
    for q in WIDE + WIDE:
        wid += 1
        ops.append(("add", wid, "b", 1, q))
    for x in WIDE:
        wid += 1
        ops.append(("add", wid, "a", 1, x))
    for victim in range(1, 2 * len(WIDE) + 1):
        ops.append(("remove", victim, None, None, None))
    _drive(RULES, ops)


def test_removing_an_absent_wme_is_a_no_op():
    engines = _engines(RULES)[1:]
    stored = WME(1, "b", {"p": 1, "q": 2}, timestamp=1)
    token = WME(2, "a", {"p": 1, "q": 1}, timestamp=2)
    ghost = WME(3, "b", {"p": 1, "q": 2}, timestamp=3)
    for engine in engines:
        engine.add_wme(stored)
        engine.add_wme(token)
        engine.remove_wme(ghost)
    signatures = [_signature(engine) for engine in engines]
    assert signatures[0] == signatures[1] == signatures[2]
    counts = {engine.memories.counts() for engine in engines}
    assert counts == {(8, 8)}


# ---------------------------------------------------------------------------
# RangeIndex against the compiled predicate
# ---------------------------------------------------------------------------

@given(values=st.lists(st.sampled_from(WIDE), max_size=12),
       t=st.sampled_from(WIDE + [3, "y"]),
       op=st.sampled_from([Predicate.LT, Predicate.LE, Predicate.GT,
                           Predicate.GE]))
def test_range_count_equals_scan(values, t, op):
    pred = compile_predicate(op)
    index = RangeIndex()
    for value in values:
        index.add(value)
    want = sum(1 for value in values if pred(value, t))
    assert index.count(pred, BISECT_COUNTS[op], t) == want
    for value in values:
        index.remove(value)
    assert index.numbers == [] and index.others == []


def test_range_index_orders_only_plain_numbers():
    index = RangeIndex()
    for value in (2, True, NAN, "x", -0.0, 1.0, INF):
        index.add(value)
    assert index.numbers == [-0.0, 1.0, 2, INF]
    assert index.others[0] is True and math.isnan(index.others[1])
    assert index.others[2] == "x"


# ---------------------------------------------------------------------------
# Left buckets: the same wme twice keeps list semantics
# ---------------------------------------------------------------------------

def _log(engine):
    """The engine's activation log, kept for the engine's life."""
    return engine.keep_log(engine)


def _in_order(engine):
    """Conflict-set wme ids in the engine's own (insertion) order."""
    return [tuple(w.wme_id for w in inst.wmes)
            for inst in engine.conflict_set()]


def test_duplicate_wme_removes_first_stored_copy():
    """Copies of one token interleaved with another: after each minus,
    the bucket must iterate as the reference's list does, which fixes
    the order the join emits extensions in, and so the conflict set's
    order."""
    rule = parse_production("(p j (a ^p <x>) (b ^p <x>) --> (remove 1))")
    kernel, reference = ReteNetwork(), ReferenceReteNetwork()
    for engine in (kernel, reference):
        engine.add_production(rule)
    logs = [_log(kernel), _log(reference)]
    twice = WME(1, "a", {"p": 1}, timestamp=1)
    other = WME(2, "a", {"p": 1}, timestamp=2)
    probe = WME(3, "b", {"p": 1}, timestamp=3)
    add, remove = "add_wme", "remove_wme"
    script = [
        (add, twice), (add, twice), (add, other), (add, twice),
        (remove, twice),  # [twice, other, twice]
        (remove, twice),  # [other, twice]
        (remove, probe),  # absent: right bucket unchanged
        (add, probe), (remove, probe),
        (add, twice),  # [other, twice, twice]
        (remove, twice),  # [other, twice]
        (add, probe), (remove, twice), (remove, other), (remove, probe),
    ]
    for method, wme in script:
        for engine in (kernel, reference):
            getattr(engine, method)(wme)
        assert _in_order(kernel) == _in_order(reference)
        assert kernel.memories.counts() == reference.memories.counts()
    assert log_events(logs[0]) == log_events(logs[1])
    assert kernel.memories.is_empty() and reference.memories.is_empty()
    assert not kernel.memories.copies
