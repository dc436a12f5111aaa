"""Mutation testing of the trace validator: random structural
corruptions of valid traces must be detected.

The simulators trust validated traces; a validator hole would let a
corrupt trace skew timing results silently.  Each mutator below breaks
one structural rule in a cycle's activation rows before the cycle is
built; the property test applies random mutators to random valid traces
and requires an objection: either the rows entry point refuses rows no
table holds as written, or the validator reports the built cycle.
"""

import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rete.hashing import BucketKey
from repro.trace import (CycleTrace, SectionTrace, TraceValidationError,
                         validate_trace)
from repro.workloads import SectionSpec, generate_section
from tests.trace_view import view


def small_trace(seed):
    return generate_section(SectionSpec(
        name="mut", cycles=2, right_activations=20, left_activations=30,
        terminals_per_cycle=2, seed=seed))


def small_rows(seed):
    """``(index, rows by act_id)`` of each cycle of a small trace."""
    return [(c.index, dict(view(c))) for c in small_trace(seed)]


def objections(cycles):
    """What building and validating the rows of *cycles* reports."""
    try:
        trace = SectionTrace(name="mut", cycles=[
            CycleTrace(index, rows) for index, rows in cycles])
    except TraceValidationError as err:
        return [str(err)]
    return validate_trace(trace, raise_on_error=False)


def pick_act(cycles, rng, predicate=lambda a: True):
    candidates = [(rows, a) for _, rows in cycles for a in rows.values()
                  if predicate(a)]
    if not candidates:
        return None, None
    return candidates[rng.randrange(len(candidates))]


def replace(rows, act, **changes):
    rows[act.act_id] = dataclasses.replace(act, **changes)


# --- mutators: each returns True if it could apply a corruption --------

def mutate_dangling_parent(cycles, rng):
    rows, act = pick_act(cycles, rng, lambda a: a.parent_id is not None)
    if act is None:
        return False
    replace(rows, act, parent_id=max(rows) + 1000)
    return True


def mutate_orphan_successor(cycles, rng):
    rows, act = pick_act(cycles, rng, lambda a: a.successors)
    if act is None:
        return False
    replace(rows, act, successors=act.successors + (max(rows) + 999,))
    return True


def mutate_steal_successor(cycles, rng):
    rows, act = pick_act(cycles, rng, lambda a: a.parent_id is not None)
    if act is None:
        return False
    # Re-point the child's parent without fixing the old parent's list
    # (the current parent is excluded — keeping it would be a no-op).
    others = [a for a in rows.values() if a.act_id != act.act_id
              and a.act_id != act.parent_id
              and a.kind != "terminal"
              and a.act_id < act.act_id]
    if not others:
        return False
    replace(rows, act, parent_id=others[rng.randrange(len(others))].act_id)
    return True


def mutate_bad_side(cycles, rng):
    rows, act = pick_act(cycles, rng)
    if act is None:
        return False
    replace(rows, act, side="sideways")
    return True


def mutate_bad_tag(cycles, rng):
    rows, act = pick_act(cycles, rng)
    if act is None:
        return False
    replace(rows, act, tag="?")
    return True


def mutate_key_node_mismatch(cycles, rng):
    rows, act = pick_act(cycles, rng)
    if act is None:
        return False
    replace(rows, act, key=BucketKey(act.node_id + 17, act.key.values))
    return True


def mutate_terminal_with_successors(cycles, rng):
    rows, act = pick_act(cycles, rng, lambda a: a.kind == "terminal")
    if act is None:
        return False
    replace(rows, act, successors=(1,))
    return True


def mutate_generated_right_side(cycles, rng):
    rows, act = pick_act(cycles, rng,
                         lambda a: a.parent_id is not None
                         and a.kind != "terminal")
    if act is None:
        return False
    replace(rows, act, side="right")
    return True


MUTATORS = [mutate_dangling_parent, mutate_orphan_successor,
            mutate_steal_successor, mutate_bad_side, mutate_bad_tag,
            mutate_key_node_mismatch, mutate_terminal_with_successors,
            mutate_generated_right_side]


@pytest.mark.parametrize("mutator", MUTATORS,
                         ids=lambda m: m.__name__)
def test_each_mutator_detected(mutator):
    rng = random.Random(7)
    cycles = small_rows(seed=1)
    assert objections(cycles) == []
    applied = mutator(cycles, rng)
    assert applied, "mutator found nothing to corrupt"
    problems = objections(cycles)
    assert problems, f"{mutator.__name__} slipped past the validator"


@given(seed=st.integers(min_value=0, max_value=50),
       mutator_index=st.integers(min_value=0,
                                 max_value=len(MUTATORS) - 1),
       rng_seed=st.integers(min_value=0, max_value=1000))
def test_random_mutations_detected(seed, mutator_index, rng_seed):
    rng = random.Random(rng_seed)
    cycles = small_rows(seed=seed)
    mutator = MUTATORS[mutator_index]
    if not mutator(cycles, rng):
        return  # nothing to corrupt in this layout
    assert objections(cycles)


def test_unmutated_traces_stay_valid():
    for seed in range(5):
        assert validate_trace(small_trace(seed)) == []
