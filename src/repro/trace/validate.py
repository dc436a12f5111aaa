"""Structural validation of section traces.

The MPC simulator replays traces blindly, so malformed causality (a
successor claimed by two parents, a parent that never generated the
child, dangling ids) would silently corrupt timing results.  These
checks run on every synthetic generator's output in the test suite and
are cheap enough to call before long simulations.
"""

from __future__ import annotations

from typing import Dict, List

from .events import (KIND_TERMINAL, LEFT, VALID_KINDS, VALID_SIDES,
                     VALID_TAGS, CycleTrace, SectionTrace, TraceActivation)


class TraceValidationError(Exception):
    """Raised (or collected) when a trace breaks a structural rule."""


def validate_cycle(cycle: CycleTrace) -> List[str]:
    """Return a list of problems in *cycle* (empty = valid)."""
    return validate_rows(cycle.index, cycle.activations)


def validate_rows(index: int, acts: Dict[int, TraceActivation]
                  ) -> List[str]:
    """The problems of cycle *index* written as activation rows *acts*
    (by act_id): what :func:`validate_cycle` reports, and what
    ``CycleTrace(index, acts)`` raises for rows no table can hold."""
    problems: List[str] = []
    claimed = {}
    for act in acts.values():
        where = f"cycle {index} act {act.act_id}"
        if act.kind not in VALID_KINDS:
            problems.append(f"{where}: bad kind {act.kind!r}")
        if act.side not in VALID_SIDES:
            problems.append(f"{where}: bad side {act.side!r}")
        if act.tag not in VALID_TAGS:
            problems.append(f"{where}: bad tag {act.tag!r}")
        if act.key.node_id != act.node_id:
            problems.append(f"{where}: bucket key node "
                            f"{act.key.node_id} != node {act.node_id}")
        if act.kind == KIND_TERMINAL and act.successors:
            problems.append(f"{where}: terminal with successors")
        if act.parent_id is not None:
            parent = acts.get(act.parent_id)
            if parent is None:
                problems.append(f"{where}: parent {act.parent_id} missing")
            else:
                if parent.act_id >= act.act_id:
                    problems.append(
                        f"{where}: parent id {parent.act_id} not smaller")
                if act.act_id not in parent.successors:
                    problems.append(
                        f"{where}: not listed in parent's successors")
        for succ_id in act.successors:
            child = acts.get(succ_id)
            if child is None:
                problems.append(f"{where}: successor {succ_id} missing")
                continue
            if child.parent_id != act.act_id:
                problems.append(
                    f"{where}: successor {succ_id} claims parent "
                    f"{child.parent_id}")
            if succ_id in claimed:
                problems.append(
                    f"{where}: successor {succ_id} also claimed by "
                    f"{claimed[succ_id]}")
            claimed[succ_id] = act.act_id
        # Generated (non-root) two-input activations must be left
        # activations: paper Section 2.2/3.2 — tokens generated at
        # two-input nodes result only in left activations.
        if (act.parent_id is not None and act.kind != KIND_TERMINAL
                and act.side != LEFT):
            problems.append(f"{where}: generated activation on the "
                            f"right side")
    return problems


def validate_trace(trace: SectionTrace,
                   raise_on_error: bool = True) -> List[str]:
    """Validate every cycle; optionally raise on the first problem set."""
    problems: List[str] = []
    seen_indices = set()
    for cycle in trace:
        if cycle.index in seen_indices:
            problems.append(f"duplicate cycle index {cycle.index}")
        seen_indices.add(cycle.index)
        problems.extend(validate_cycle(cycle))
    if problems and raise_on_error:
        preview = "; ".join(problems[:5])
        raise TraceValidationError(
            f"{len(problems)} problem(s) in trace {trace.name!r}: "
            f"{preview}")
    return problems
