"""Trace-level versions of the paper's Section 5.2 transformations.

The paper's simulator consumes traces, so its remedies are evaluated by
rewriting the trace the way the transformed network would have produced
it:

* :func:`unshare_trace` — Figure 5-3: activations at a shared node are
  replicated, one copy per output branch, each copy generating only its
  branch's successors (and the generating parent pays for one token per
  copy: "some work is duplicated").
* :func:`copy_and_constraint_trace` — Section 5.2.2: activations at a
  node are partitioned across k replica nodes, giving the hash function
  the extra discrimination the split productions would provide.
* :func:`insert_dummy_nodes` — Section 5.2.1 option 2: a node generating
  many successors hands them to 2–4 dummy nodes which generate them in
  parallel.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..rete.hashing import BucketKey
from .events import (KIND_JOIN, KIND_TERMINAL, CycleTrace, SectionTrace,
                     TraceActivation)


def _max_node_id(trace: SectionTrace) -> int:
    return max((c.max_node_id() for c in trace.cycles), default=0)


def _renumber_cycle(cycle: CycleTrace) -> CycleTrace:
    """Reassign act ids in topological (DFS-from-roots) order.

    Transforms that insert activations mid-forest can leave parents with
    larger ids than children; this restores the id invariant without
    changing the structure.
    """
    children: Dict[int, List[int]] = {}
    roots: List[int] = []
    for act in cycle:
        if act.parent_id is None:
            roots.append(act.act_id)
        else:
            children.setdefault(act.parent_id, []).append(act.act_id)

    mapping: Dict[int, int] = {}
    order: List[int] = []
    stack = list(reversed(roots))
    while stack:
        old_id = stack.pop()
        mapping[old_id] = len(mapping) + 1
        order.append(old_id)
        stack.extend(reversed(sorted(children.get(old_id, ()))))

    renumbered = CycleTrace(index=cycle.index)
    for old_id in order:
        act = cycle.activations[old_id]
        renumbered.add(TraceActivation(
            act_id=mapping[old_id],
            parent_id=(None if act.parent_id is None
                       else mapping[act.parent_id]),
            node_id=act.node_id, kind=act.kind, side=act.side,
            tag=act.tag, key=act.key,
            successors=tuple(sorted(mapping[s] for s in act.successors))))
    return renumbered


def _rebuild_successors(cycle: CycleTrace) -> None:
    """Recompute successor tuples from parent links, in-place."""
    children: Dict[int, List[int]] = {}
    for act in cycle.activations.values():
        if act.parent_id is not None:
            children.setdefault(act.parent_id, []).append(act.act_id)
    for act in cycle.activations.values():
        act.successors = tuple(sorted(children.get(act.act_id, ())))
    cycle.invalidate()


# ---------------------------------------------------------------------------
# Unsharing (Figure 5-3)
# ---------------------------------------------------------------------------

def unshare_trace(trace: SectionTrace,
                  node_ids: Optional[Sequence[int]] = None) -> SectionTrace:
    """Unshare the given nodes (default: every node with >1 output branch).

    A node's *branches* are the distinct destination nodes its
    activations feed, observed over the whole section.  Each activation
    at an unshared node becomes one copy per branch; the copy for branch
    *d* keeps exactly the successors headed for *d*.  Parents are
    re-pointed so that the copy count shows up as extra generated tokens
    at the generating site — the duplicated work of the transformation.
    """
    branches: Dict[int, Set[int]] = {}
    for cycle in trace:
        for act in cycle:
            if act.kind == KIND_TERMINAL:
                continue
            for succ_id in act.successors:
                succ = cycle.activations[succ_id]
                branches.setdefault(act.node_id, set()).add(succ.node_id)

    if node_ids is None:
        targets = {n for n, b in branches.items() if len(b) > 1}
    else:
        targets = {n for n in node_ids if len(branches.get(n, ())) > 1}

    node_alloc = _max_node_id(trace)
    branch_node: Dict[Tuple[int, int], int] = {}
    for node in sorted(targets):
        for dest in sorted(branches[node]):
            node_alloc += 1
            branch_node[(node, dest)] = node_alloc

    out = SectionTrace(name=f"{trace.name}+unshare")
    for cycle in trace:
        new_cycle = CycleTrace(index=cycle.index)
        next_id = 1
        # (old_act_id, branch_dest) -> new act id of the copy owning it;
        # unsplit activations map every dest to their single new id.
        copy_for_branch: Dict[Tuple[int, int], int] = {}
        single_copy: Dict[int, int] = {}

        for act in cycle:  # ascending act_id: parents before children
            if act.parent_id is None:
                new_parent = None
            else:
                # Which copy of my parent generated me?  The one owning
                # the branch toward my (original) node.
                new_parent = copy_for_branch.get(
                    (act.parent_id, act.node_id),
                    single_copy.get(act.parent_id))

            if act.node_id in targets:
                # One copy per output branch; each copy's successors are
                # re-derived from the children's parent links below, so
                # the copy for branch d automatically owns exactly the
                # successors headed for d.
                for dest in sorted(branches[act.node_id]):
                    new_node = branch_node[(act.node_id, dest)]
                    new_act = TraceActivation(
                        act_id=next_id, parent_id=new_parent,
                        node_id=new_node, kind=act.kind, side=act.side,
                        tag=act.tag,
                        key=BucketKey(new_node, act.key.values),
                        successors=())
                    copy_for_branch[(act.act_id, dest)] = next_id
                    new_cycle.add(new_act)
                    next_id += 1
            else:
                new_act = TraceActivation(
                    act_id=next_id, parent_id=new_parent,
                    node_id=act.node_id, kind=act.kind, side=act.side,
                    tag=act.tag, key=act.key, successors=())
                single_copy[act.act_id] = next_id
                new_cycle.add(new_act)
                next_id += 1

        _rebuild_successors(new_cycle)
        out.cycles.append(new_cycle)
    return out


# ---------------------------------------------------------------------------
# Copy and constraint (Section 5.2.2)
# ---------------------------------------------------------------------------

def copy_and_constraint_trace(
        trace: SectionTrace, node_id: int, k: int,
        assignment: Optional[Callable[[TraceActivation], int]] = None,
) -> SectionTrace:
    """Partition the activations of *node_id* across *k* replica nodes.

    Models splitting the culprit production into *k* copies: each token
    matches exactly one copy, so no work is duplicated — but the replica
    node-ids give the hash function the discrimination it lacked, so the
    tokens spread over *k* buckets instead of one.

    *assignment* maps an activation to its replica in ``range(k)``;
    the default deals them round-robin in arrival order per cycle, the
    best case the source transformation could achieve.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    base = _max_node_id(trace)
    replica_ids = [base + 1 + i for i in range(k)]

    out = SectionTrace(name=f"{trace.name}+cc{k}")
    for cycle in trace:
        new_cycle = CycleTrace(index=cycle.index)
        counter = 0
        for act in cycle:
            if act.node_id == node_id and act.kind != KIND_TERMINAL:
                if assignment is not None:
                    part = assignment(act) % k
                else:
                    part = counter % k
                    counter += 1
                new_node = replica_ids[part]
                new_cycle.add(TraceActivation(
                    act_id=act.act_id, parent_id=act.parent_id,
                    node_id=new_node, kind=act.kind, side=act.side,
                    tag=act.tag,
                    key=BucketKey(new_node, act.key.values),
                    successors=act.successors))
            else:
                new_cycle.add(TraceActivation(
                    act_id=act.act_id, parent_id=act.parent_id,
                    node_id=act.node_id, kind=act.kind, side=act.side,
                    tag=act.tag, key=act.key, successors=act.successors))
        out.cycles.append(new_cycle)
    return out


# ---------------------------------------------------------------------------
# Dummy nodes (Section 5.2.1, option 2) -- see _renumber_cycle above
# ---------------------------------------------------------------------------

def insert_dummy_nodes(trace: SectionTrace, node_id: int,
                       parts: int = 2) -> SectionTrace:
    """Split successor generation at *node_id* across *parts* dummy nodes.

    Every activation at *node_id* with more than one successor hands its
    successors, in *parts* contiguous groups, to dummy activations at
    fresh node ids; each dummy then generates its group.  The dummies
    cost one (left) activation each but let the generation proceed in
    parallel on up to *parts* processors — the paper suggests 2–4.
    """
    if parts < 2:
        raise ValueError("parts must be >= 2 (1 would be a no-op)")
    base = _max_node_id(trace)
    dummy_ids = [base + 1 + i for i in range(parts)]

    out = SectionTrace(name=f"{trace.name}+dummy{parts}")
    for cycle in trace:
        new_cycle = CycleTrace(index=cycle.index)
        next_extra = cycle.max_act_id() + 1
        # Plan first, emit second: an activation can be both a split
        # site and the child of one (chained activations at node_id),
        # so the re-parenting map must be complete before any copy is
        # written out.
        reparent: Dict[int, int] = {}
        dummies_of: Dict[int, List[TraceActivation]] = {}
        for act in cycle:
            if not (act.node_id == node_id and act.kind != KIND_TERMINAL
                    and act.n_successors > 1):
                continue
            groups: List[List[int]] = [[] for _ in range(parts)]
            for i, succ_id in enumerate(act.successors):
                groups[i * parts // len(act.successors)].append(succ_id)
            dummies: List[TraceActivation] = []
            for part, group in enumerate(groups):
                if not group:
                    continue
                dummy_node = dummy_ids[part]
                dummy = TraceActivation(
                    act_id=next_extra, parent_id=act.act_id,
                    node_id=dummy_node, kind=KIND_JOIN, side="left",
                    tag=act.tag,
                    key=BucketKey(dummy_node, act.key.values),
                    successors=tuple(group))
                next_extra += 1
                dummies.append(dummy)
                for succ_id in group:
                    reparent[succ_id] = dummy.act_id
            dummies_of[act.act_id] = dummies
        for act in cycle:
            dummies = dummies_of.get(act.act_id)
            new_cycle.add(TraceActivation(
                act_id=act.act_id,
                parent_id=reparent.get(act.act_id, act.parent_id),
                node_id=act.node_id, kind=act.kind, side=act.side,
                tag=act.tag, key=act.key,
                successors=(tuple(d.act_id for d in dummies)
                            if dummies is not None else act.successors)))
            for dummy in dummies or ():
                new_cycle.add(dummy)
        # (ids are repaired by _renumber_cycle below: the dummies were
        # given ids larger than the successors they adopt)
        out.cycles.append(_renumber_cycle(new_cycle))
    return out
