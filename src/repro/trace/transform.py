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

Each reads its input cycles' table rows
(:meth:`~repro.trace.events.CycleKeyIndex.rows`) and writes its output
through one :class:`~repro.trace.events.TraceBuilder`; no activation
view is built.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .events import (TAG_JOIN, TAG_LEFT, TAG_MINUS, TAG_TERMINAL,
                     CycleKeyIndex, SectionTrace, TraceBuilder)

#: One row of a cycle being rewritten, by act id: ``[parent act id,
#: tag byte, node id, key values]``.
Rows = Dict[int, list]


def _max_node_id(trace: SectionTrace) -> int:
    return max((c.max_node_id() for c in trace.cycles), default=0)


def _rows(table: CycleKeyIndex) -> Rows:
    """The rows of a compiled cycle, in ascending act id order."""
    return {act_id: [parent, code, key.node_id, key.values]
            for act_id, parent, code, key, _ in table.rows()}


def _renumber(builder: TraceBuilder, index: int, rows: Rows) -> None:
    """Write *rows* as cycle *index*, act ids reassigned in topological
    (DFS-from-roots) order.

    Transforms that insert activations mid-forest can leave parents with
    larger ids than children; this restores the id invariant without
    changing the structure.  Roots and each activation's children are
    visited in ascending old act id order, and successors are re-derived
    from the parent links; a row whose parent is not in *rows* is
    unreachable and dropped.
    """
    children: Dict[Optional[int], List[int]] = {}
    for act_id in sorted(rows):
        children.setdefault(rows[act_id][0], []).append(act_id)
    builder.new_cycle(index)
    new_id: Dict[int, int] = {}
    stack = children.get(None, [])[::-1]
    while stack:
        old_id = stack.pop()
        parent, code, node, values = rows[old_id]
        new_id[old_id] = builder.add(
            None if parent is None else new_id[parent], code, node, values)
        stack.extend(reversed(children.get(old_id, ())))


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
    tables = [cycle.key_index() for cycle in trace]
    branches: Dict[int, Set[int]] = {}
    for table in tables:
        keys, key_of, base = table.keys, table.key_of, table.base
        for code, k, kids in zip(table.tags, key_of, table.successors):
            if not code or code >= TAG_TERMINAL:
                continue
            for succ_id in kids:
                branches.setdefault(keys[k].node_id, set()).add(
                    keys[key_of[succ_id - base]].node_id)

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

    builder = TraceBuilder(f"{trace.name}+unshare")
    for cycle, table in zip(trace, tables):
        builder.new_cycle(cycle.index)
        # (old_act_id, branch_dest) -> new act id of the copy owning it;
        # unsplit activations map every dest to their single new id.
        copy_for_branch: Dict[Tuple[int, int], int] = {}
        single_copy: Dict[int, int] = {}

        for act_id, parent, code, key, _ in table.rows():
            # ascending act_id: parents before children
            node = key.node_id
            if parent is not None:
                # Which copy of my parent generated me?  The one owning
                # the branch toward my (original) node.
                parent = copy_for_branch.get((parent, node),
                                             single_copy.get(parent))
            if node in targets:
                # One copy per output branch; each copy's successors are
                # gathered from the children's parent links, so the copy
                # for branch d owns exactly the successors headed for d.
                for dest in sorted(branches[node]):
                    copy_for_branch[(act_id, dest)] = builder.add(
                        parent, code, branch_node[(node, dest)],
                        key.values)
            else:
                single_copy[act_id] = builder.add(parent, code, node,
                                                  key.values)
    return builder.build()


# ---------------------------------------------------------------------------
# Copy and constraint (Section 5.2.2)
# ---------------------------------------------------------------------------

def copy_and_constraint_trace(
        trace: SectionTrace, node_id: int, k: int,
        assignment: Optional[Callable[[tuple], int]] = None,
) -> SectionTrace:
    """Partition the activations of *node_id* across *k* replica nodes.

    Models splitting the culprit production into *k* copies: each token
    matches exactly one copy, so no work is duplicated — but the replica
    node-ids give the hash function the discrimination it lacked, so the
    tokens spread over *k* buckets instead of one.

    *assignment* maps an activation, given as its table row ``(act_id,
    parent_id, tag byte, key, successors)``
    (:meth:`~repro.trace.events.CycleKeyIndex.rows`), to its replica in
    ``range(k)``; the default deals them round-robin in arrival order
    per cycle, the best case the source transformation could achieve.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    base = _max_node_id(trace)
    replica_ids = [base + 1 + i for i in range(k)]

    builder = TraceBuilder(f"{trace.name}+cc{k}")
    for cycle in trace:
        builder.new_cycle(cycle.index)
        counter = 0
        for row in cycle.key_index().rows():
            act_id, parent, code, key, kids = row
            node = key.node_id
            if node == node_id and code < TAG_TERMINAL:
                if assignment is not None:
                    part = assignment(row) % k
                else:
                    part = counter % k
                    counter += 1
                node = replica_ids[part]
            builder.add(parent, code, node, key.values, act_id, kids)
    return builder.build()


# ---------------------------------------------------------------------------
# Dummy nodes (Section 5.2.1, option 2) -- see _renumber above
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

    builder = TraceBuilder(f"{trace.name}+dummy{parts}")
    for cycle in trace:
        table = cycle.key_index()
        rows = _rows(table)
        next_extra = cycle.max_act_id() + 1
        for act_id, _, code, key, kids in table.rows():
            if not (key.node_id == node_id and code < TAG_TERMINAL
                    and len(kids) > 1):
                continue
            groups: List[List[int]] = [[] for _ in range(parts)]
            for i, succ_id in enumerate(kids):
                groups[i * parts // len(kids)].append(succ_id)
            for part, group in enumerate(groups):
                if not group:
                    continue
                rows[next_extra] = [act_id,
                                    TAG_JOIN | TAG_LEFT | code & TAG_MINUS,
                                    dummy_ids[part], key.values]
                for succ_id in group:
                    rows[succ_id][0] = next_extra
                next_extra += 1
        # the dummies were given ids larger than the successors they
        # adopt: renumbering restores the id invariant
        _renumber(builder, cycle.index, rows)
    return builder.build()
