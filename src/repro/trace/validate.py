"""Structural validation of section traces.

The MPC simulator replays traces blindly, so malformed causality (a
successor claimed by two parents, a parent that never generated the
child, dangling ids) would silently corrupt timing results.  These
checks run on every synthetic generator's output in the test suite and
are cheap enough to call before long simulations.
"""

from __future__ import annotations

from typing import Dict, List

from .events import (KIND_TERMINAL, LEFT, TAG_LEFT, TAG_TERMINAL,
                     VALID_KINDS, VALID_SIDES, VALID_TAGS, CycleTrace,
                     SectionTrace, TraceActivation)


class TraceValidationError(Exception):
    """Raised (or collected) when a trace breaks a structural rule."""


def validate_cycle(cycle: CycleTrace) -> List[str]:
    """Return a list of problems in *cycle* (empty = valid), read off
    its table's rows, orphan subtrees included."""
    return link_problems(cycle.index, {
        act_id: (parent, code >= TAG_TERMINAL, code & TAG_LEFT > 0, kids)
        for act_id, parent, code, _, kids in cycle.key_index().rows()})


def validate_rows(index: int, acts: Dict[int, TraceActivation]
                  ) -> List[str]:
    """The problems of cycle *index* written as activation rows *acts*
    (by act_id): what ``CycleTrace(index, acts)`` raises for rows no
    table can hold, such as a bad kind, side or tag."""
    def fields(act_id: int, where: str) -> List[str]:
        act = acts[act_id]
        problems = []
        if act.kind not in VALID_KINDS:
            problems.append(f"{where}: bad kind {act.kind!r}")
        if act.side not in VALID_SIDES:
            problems.append(f"{where}: bad side {act.side!r}")
        if act.tag not in VALID_TAGS:
            problems.append(f"{where}: bad tag {act.tag!r}")
        if act.key.node_id != act.node_id:
            problems.append(f"{where}: bucket key node "
                            f"{act.key.node_id} != node {act.node_id}")
        return problems
    return link_problems(index, {
        act.act_id: (act.parent_id, act.kind == KIND_TERMINAL,
                     act.side == LEFT, act.successors)
        for act in acts.values()}, fields)


def link_problems(index: int, links: Dict[int, tuple],
                  fields=None) -> List[str]:
    """The problems of cycle *index*'s rows *links* (act_id -> parent
    act_id, is terminal, is left, successor act_ids), in act_id order;
    ``fields(act_id, where)`` puts each row's own problems first."""
    problems: List[str] = []
    claimed = {}
    for act_id, (parent_id, terminal, left, successors) in links.items():
        where = f"cycle {index} act {act_id}"
        if fields is not None:
            problems += fields(act_id, where)
        if terminal and successors:
            problems.append(f"{where}: terminal with successors")
        if parent_id is not None:
            parent = links.get(parent_id)
            if parent is None:
                problems.append(f"{where}: parent {parent_id} missing")
            else:
                if parent_id >= act_id:
                    problems.append(
                        f"{where}: parent id {parent_id} not smaller")
                if act_id not in parent[3]:
                    problems.append(
                        f"{where}: not listed in parent's successors")
        for succ_id in successors:
            child = links.get(succ_id)
            if child is None:
                problems.append(f"{where}: successor {succ_id} missing")
                continue
            if child[0] != act_id:
                problems.append(
                    f"{where}: successor {succ_id} claims parent "
                    f"{child[0]}")
            if succ_id in claimed:
                problems.append(
                    f"{where}: successor {succ_id} also claimed by "
                    f"{claimed[succ_id]}")
            claimed[succ_id] = act_id
        # Generated (non-root) two-input activations must be left
        # activations: paper Section 2.2/3.2 — tokens generated at
        # two-input nodes result only in left activations.
        if parent_id is not None and not terminal and not left:
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
