"""Greedy minimization of failing inputs to minimal repros.

A fuzz failure on a 2000-activation trace is unreadable; the shrinker
reduces it while preserving the failure, in the spirit of delta
debugging: repeat greedy passes until a fixpoint (or an evaluation
budget) is reached.  For traces the passes are, in order:

1. **drop cycles** — remove whole cycles, largest first;
2. **drop root subtrees** — remove a root activation and every
   descendant;
3. **drop leaf activations** — remove childless activations (terminals
   included) one at a time;
4. **shrink key values** — replace hash-key value tuples with ``()``.

Every candidate must still be a valid trace
(:func:`repro.trace.validate_trace`) and must still fail the caller's
predicate, so the result is always a true repro.  Program cases get the
analogous treatment: drop rules, then drop script operations (removing
an ``add`` also removes the matching ``remove`` so the script stays
well-formed).

The predicate is called at most *max_evals* times — shrinking is a
debugging aid, not a search, and oracle evaluations dominate its cost.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple

from ..obs import get_registry
from ..trace.events import CycleTrace, SectionTrace, TraceBuilder
from ..trace.transform import _renumber, _rows
from ..trace.validate import validate_trace

TracePredicate = Callable[[SectionTrace], bool]
ScriptPredicate = Callable[[Tuple[str, ...], Tuple[Tuple, ...]], bool]

DEFAULT_MAX_EVALS = 400


class _Budget:
    def __init__(self, max_evals: int) -> None:
        self.left = max_evals
        self.used = 0

    def spend(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        self.used += 1
        get_registry().counter("check.shrink_evals").inc()
        return True


def _without_acts(cycle: CycleTrace, doomed: Set[int]) -> CycleTrace:
    """The cycle minus *doomed* and everything they generate."""
    rows = _rows(cycle.key_index())
    # Close over descendants (children of dropped activations must go).
    while True:
        grown = {act_id for act_id, row in rows.items()
                 if row[0] in doomed} - doomed
        if not grown:
            break
        doomed |= grown
    builder = TraceBuilder("")
    _renumber(builder, cycle.index,
              {act_id: row for act_id, row in rows.items()
               if act_id not in doomed})
    return builder.end_cycle()


def _replace_cycle(trace: SectionTrace, position: int,
                   cycle: Optional[CycleTrace]) -> SectionTrace:
    cycles = [c for i, c in enumerate(trace.cycles)
              if i != position or cycle is not None]
    if cycle is not None:
        cycles = list(trace.cycles)
        cycles[position] = cycle
    return SectionTrace(name=trace.name, cycles=cycles)


def _is_valid(trace: SectionTrace) -> bool:
    if not trace.cycles:
        return False
    return not validate_trace(trace, raise_on_error=False)


def _try(candidate: SectionTrace, fails: TracePredicate,
         budget: _Budget) -> bool:
    return (_is_valid(candidate) and budget.spend()
            and fails(candidate))


def _pass_drop_cycles(trace: SectionTrace, fails: TracePredicate,
                      budget: _Budget) -> Tuple[SectionTrace, bool]:
    any_progress = False
    progressed = True
    while progressed and len(trace.cycles) > 1 and budget.left > 0:
        progressed = False
        # Largest first: dropping a big cycle simplifies the most.
        order = sorted(range(len(trace.cycles)),
                       key=lambda i: -len(trace.cycles[i]))
        for position in order:
            candidate = SectionTrace(
                name=trace.name,
                cycles=[c for i, c in enumerate(trace.cycles)
                        if i != position])
            if _try(candidate, fails, budget):
                trace = candidate
                progressed = any_progress = True
                break
    return trace, any_progress


def _pass_drop_subtrees(trace: SectionTrace, fails: TracePredicate,
                        budget: _Budget) -> Tuple[SectionTrace, bool]:
    progressed = True
    any_progress = False
    while progressed and budget.left > 0:
        progressed = False
        for position, cycle in enumerate(trace.cycles):
            roots = [act_id for act_id, parent, *_
                     in cycle.key_index().rows() if parent is None]
            if len(roots) <= 1:
                continue
            for root in roots:
                shrunk = _without_acts(cycle, {root})
                candidate = _replace_cycle(trace, position, shrunk)
                if _try(candidate, fails, budget):
                    trace = candidate
                    progressed = any_progress = True
                    break
            if progressed:
                break
    return trace, any_progress


def _pass_drop_leaves(trace: SectionTrace, fails: TracePredicate,
                      budget: _Budget) -> Tuple[SectionTrace, bool]:
    progressed = True
    any_progress = False
    while progressed and budget.left > 0:
        progressed = False
        for position, cycle in enumerate(trace.cycles):
            leaves = [act_id for act_id, *_, kids
                      in cycle.key_index().rows() if not kids]
            if len(cycle) <= 1:
                continue
            for leaf in leaves:
                shrunk = _without_acts(cycle, {leaf})
                if not len(shrunk):
                    continue
                candidate = _replace_cycle(trace, position, shrunk)
                if _try(candidate, fails, budget):
                    trace = candidate
                    progressed = any_progress = True
                    break
            if progressed:
                break
    return trace, any_progress


def _pass_shrink_values(trace: SectionTrace, fails: TracePredicate,
                        budget: _Budget) -> Tuple[SectionTrace, bool]:
    any_progress = False
    for position, cycle in enumerate(trace.cycles):
        for act_id, *_, key, _ in list(cycle.key_index().rows()):
            if not key.values:
                continue
            builder = TraceBuilder("")
            builder.new_cycle(cycle.index)
            for other, parent, code, other_key, kids in \
                    cycle.key_index().rows():
                builder.add(parent, code, other_key.node_id,
                            () if other == act_id else other_key.values,
                            other, kids)
            candidate = _replace_cycle(trace, position, builder.end_cycle())
            if _try(candidate, fails, budget):
                trace = candidate
                cycle = trace.cycles[position]
                any_progress = True
    return trace, any_progress


_TRACE_PASSES = (_pass_drop_cycles, _pass_drop_subtrees,
                 _pass_drop_leaves, _pass_shrink_values)


def shrink_trace(trace: SectionTrace, fails: TracePredicate,
                 max_evals: int = DEFAULT_MAX_EVALS) -> SectionTrace:
    """Smallest trace the passes can reach that still satisfies *fails*.

    *fails* must be true for *trace* itself (the caller observed the
    failure); if it is not, the input comes back unchanged.
    """
    budget = _Budget(max_evals)
    current = trace
    progressed = True
    while progressed and budget.left > 0:
        progressed = False
        for shrink_pass in _TRACE_PASSES:
            current, moved = shrink_pass(current, fails, budget)
            progressed = progressed or moved
    return current


# ---------------------------------------------------------------------------
# Program cases
# ---------------------------------------------------------------------------

def _drop_op(script: Sequence[Tuple], position: int) -> Tuple[Tuple, ...]:
    """Drop one op; dropping an add drops its remove too."""
    op = script[position]
    out = [o for i, o in enumerate(script) if i != position]
    if op[0] == "add":
        wid = op[1]
        out = [o for o in out if not (o[0] == "remove" and o[1] == wid)]
    return tuple(out)


def shrink_program(rules: Tuple[str, ...], script: Tuple[Tuple, ...],
                   fails: ScriptPredicate,
                   max_evals: int = DEFAULT_MAX_EVALS
                   ) -> Tuple[Tuple[str, ...], Tuple[Tuple, ...]]:
    """Minimal (rules, script) still satisfying *fails*."""
    budget = _Budget(max_evals)
    progressed = True
    while progressed and budget.left > 0:
        progressed = False
        for i in range(len(rules) - 1, -1, -1):
            if len(rules) <= 1:
                break
            candidate = rules[:i] + rules[i + 1:]
            if budget.spend() and fails(candidate, script):
                rules, progressed = candidate, True
        for i in range(len(script) - 1, -1, -1):
            if len(script) <= 1 or i >= len(script):
                continue
            candidate = _drop_op(script, i)
            if candidate and budget.spend() and fails(rules, candidate):
                script, progressed = candidate, True
    return rules, script
