"""The flattened Rete match kernel (ROADMAP item 2).

The reference engine (:mod:`repro.rete._reference`) dispatches every
working-memory delta through a graph of node *objects*: each activation
is a Python method call, each token an immutable :class:`Token`
allocation, and each alpha test a scan over every pattern in the
network.  This module compiles the same network — built by the ordinary
:class:`~repro.rete.builder.NetworkBuilder` — into flat parallel arrays
and executes waves with an explicit stack machine:

* **Alpha dispatch** is indexed by wme class: only the patterns that
  could possibly match are tested, as tuple-compare loops over the
  pattern's constant tests.
* **Beta nodes** become rows of parallel arrays (kind, bucket-key
  positions, residual tests, binding-merge plans, children), indexed by
  a compact integer.  Bucket state lives in
  :class:`~repro.rete.memory.FlatMemories`, keyed by bare value tuples.
* **Tokens** are integer slots in a :class:`~repro.rete.tokens.TokenPool`
  — three parallel lists (ids, wmes, binding values) with free-list
  reuse — instead of per-match ``Token`` objects.  Binding *names* are
  static per node (the node's sorted variable layout), so a token
  carries only a value tuple and variable lookups are index reads.

The executor replicates the reference engine's observable behaviour bit
for bit: activation events get their ``act_id`` in the reference's
pre-order (assigned when an activation *starts*) and are delivered to
observers in its post-order (when the activation's subtree finishes),
conflict sets preserve terminal/insertion order, and memory buckets are
deleted when they empty.  The ``rete_fast_vs_reference`` conformance
oracle and the differential fuzz suite pin this equivalence.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..ops5.conflict import Instantiation
from ..ops5.values import NIL
from ..ops5.wme import WME
from .hashing import BucketKey, interned_key, intern_value
from .memory import FlatMemories
from .nodes import JoinNode, NegativeNode, ProductionNode
from .predicates import compile_constant_test, compile_predicate
from .stats import ActivationEvent
from .tokens import MINUS, PLUS, TokenPool

#: Compiled node kinds (values of ``ReteKernel.kind``).
KIND_JOIN = 0
KIND_NEGATIVE = 1
KIND_TERMINAL = 2


class _AlphaSlot:
    """One alpha pattern's compiled tests and delivery list."""

    __slots__ = ("const_tests", "intra_tests", "subs")

    def __init__(self, pattern) -> None:
        #: (attr, fn, operand): passes when fn(wme value, operand)
        self.const_tests = tuple(compile_constant_test(test)
                                 for test in pattern.const_tests)
        #: (first_attr, fn, attr): passes when fn(value, first value)
        self.intra_tests = tuple(
            (first_attr, compile_predicate(predicate), attr)
            for first_attr, predicate, attr in pattern.intra_tests)
        #: (compact node index, unit_attrs or None) — None means the
        #: subscription feeds the node's *right* input with the raw wme;
        #: a tuple of attributes means unit tokens on the left input.
        self.subs: List[Tuple[int, Optional[Tuple[str, ...]]]] = []


class ReteKernel:
    """A compiled, array-of-struct execution engine for one network.

    Built from a :class:`~repro.rete.network.ReteNetwork`'s registration
    state (alpha patterns, subscriptions, beta-node topology) after all
    productions are added.  The network delegates ``add_wme`` /
    ``remove_wme`` / ``conflict_set`` here; structural introspection
    stays on the network's node objects.
    """

    #: Always False: the alpha match is pure Python.  Kept only because
    #: the end-to-end benchmark still reports it.
    numpy_engaged = False

    def __init__(self, network) -> None:
        self.net = network
        self.pool = TokenPool()

        # -- beta nodes: one row of parallel arrays per node ----------------
        node_objs = sorted(network._beta_nodes.values(),
                           key=lambda n: n.node_id)
        n = len(node_objs)
        ci_of: Dict[int, int] = {node.node_id: ci
                                 for ci, node in enumerate(node_objs)}
        self.kind: List[int] = [0] * n
        self.node_id: List[int] = [0] * n
        self.label: List[str] = [""] * n
        self.kind_str: List[str] = [""] * n
        self.children: List[Tuple[int, ...]] = [()] * n
        self.left_key_pos: List[Tuple[int, ...]] = [()] * n
        self.right_key_attrs: List[Tuple[str, ...]] = [()] * n
        #: residual tests as (value index, compiled predicate, wme
        #: attr): pass when ``fn(wme value, token value)``
        self.residuals: List[Tuple] = [()] * n
        #: join output plans: (from_wme, index-or-attr) per output slot
        self.merge_plan: List[Tuple] = [()] * n
        #: joins whose CE binds no new variables: the output value tuple
        #: is the parent's, shared, with no per-extension rebuild
        self.copy_values: List[bool] = [False] * n
        self.neg_counts: List[Optional[Dict]] = [None] * n
        self.term_prod: List[Any] = [None] * n
        self.term_names: List[Tuple[str, ...]] = [()] * n
        self.term_insts: List[Optional[Dict]] = [None] * n
        self._terminal_cis: List[int] = [
            ci_of[t.node_id] for t in network._terminals]

        # Left-input variable layouts.  A node's input is either unit
        # tokens from an alpha subscription (layout = the sorted unit
        # binding variables) or its parent's output; parents always have
        # smaller node ids, so one ascending pass resolves everything.
        in_layout: List[Tuple[str, ...]] = [()] * n
        for subs in network._subscriptions.values():
            for sub in subs:
                if sub.side == "left":
                    in_layout[ci_of[sub.node.node_id]] = tuple(
                        var for var, _ in sub.unit_bindings)

        for ci, node in enumerate(node_objs):
            self.node_id[ci] = node.node_id
            self.label[ci] = node.label
            self.kind_str[ci] = node.kind
            layout = in_layout[ci]
            if isinstance(node, ProductionNode):
                self.kind[ci] = KIND_TERMINAL
                self.term_prod[ci] = node.production
                self.term_names[ci] = layout
                self.term_insts[ci] = {}
                continue
            self.left_key_pos[ci] = tuple(
                layout.index(var) for var, _ in node.eq_tests)
            self.right_key_attrs[ci] = tuple(
                attr for _, attr in node.eq_tests)
            self.residuals[ci] = tuple(
                (layout.index(var), compile_predicate(pred), attr)
                for var, pred, attr in node.residual_tests)
            if isinstance(node, NegativeNode):
                self.kind[ci] = KIND_NEGATIVE
                self.neg_counts[ci] = {}
                out_layout = layout
            else:
                assert isinstance(node, JoinNode)
                self.kind[ci] = KIND_JOIN
                new_by_var = dict(node.new_bindings)
                out_layout = tuple(sorted(set(layout) | set(new_by_var)))
                self.merge_plan[ci] = tuple(
                    (True, new_by_var[var]) if var in new_by_var
                    else (False, layout.index(var))
                    for var in out_layout)
                self.copy_values[ci] = not new_by_var
            self.children[ci] = tuple(
                ci_of[child.node_id] for child in node.children)
            for child in node.children:
                in_layout[ci_of[child.node_id]] = out_layout

        # Children split by kind (kinds are known once every row is
        # compiled — children always have larger node ids than parents).
        # The untraced walk delivers join outputs to terminal children
        # inline, without allocating a pool slot for tokens that exist
        # only to become a conflict-set entry.
        self.term_children: List[Tuple[int, ...]] = [
            tuple(c for c in self.children[ci]
                  if self.kind[c] == KIND_TERMINAL) for ci in range(n)]
        self.beta_children: List[Tuple[int, ...]] = [
            tuple(c for c in self.children[ci]
                  if self.kind[c] != KIND_TERMINAL) for ci in range(n)]

        self.memories = FlatMemories(n)
        #: each node's key-less bucket (every terminal activation and
        #: every activation of a join without equality tests), shared
        #: by all events that report it
        self.empty_key: List[BucketKey] = [
            BucketKey(node_id, ()) for node_id in self.node_id]

        # -- alpha network: class-indexed pattern groups --------------------
        self._alpha: Dict[str, List[_AlphaSlot]] = {}
        slot_of: Dict[int, _AlphaSlot] = {}
        for pattern in network._alpha_patterns:
            if pattern.always_false:
                continue  # can never match; no observable effect
            slot = _AlphaSlot(pattern)
            self._alpha.setdefault(pattern.cls, []).append(slot)
            slot_of[pattern.pattern_id] = slot
        for pattern_id, subs in network._subscriptions.items():
            slot = slot_of.get(pattern_id)
            if slot is None:
                continue
            for sub in subs:
                unit_attrs = (tuple(attr for _, attr in sub.unit_bindings)
                              if sub.side == "left" else None)
                slot.subs.append((ci_of[sub.node.node_id], unit_attrs))

    # -- wave execution -----------------------------------------------------

    def dispatch(self, wme: WME, tag: str) -> None:
        """Run one +/- wave: alpha match, then beta propagation."""
        slots = self._alpha.get(wme.cls)
        if slots is None:
            return
        pool = self.pool
        allocs: List[int] = []
        traced = bool(self.net.observers)
        alpha_match = self._alpha_match
        matched = [s for s in slots if alpha_match(s, wme)]
        for slot in matched:
            for ci, unit_attrs in slot.subs:
                if unit_attrs is None:
                    if traced:
                        self._run_right(ci, wme, tag, allocs)
                    else:
                        self._fast_right(ci, wme, tag, allocs)
                else:
                    tok = pool.alloc(
                        (wme.wme_id,), (wme,),
                        tuple(intern_value(wme.get(a))
                              for a in unit_attrs))
                    allocs.append(tok)
                    if traced:
                        self._run_left(ci, tok, tag, allocs)
                    else:
                        self._walk_fast([(ci, tok, tag)], allocs)
        release = pool.release_if_unused
        for idx in allocs:
            release(idx)

    @staticmethod
    def _alpha_match(slot: _AlphaSlot, wme: WME) -> bool:
        get = wme.attrs.get
        for attr, test, operand in slot.const_tests:
            if not test(get(attr, NIL), operand):
                return False
        for first_attr, test, attr in slot.intra_tests:
            if not test(get(attr, NIL), get(first_attr, NIL)):
                return False
        return True

    def _run_left(self, ci: int, tok: int, tag: str,
                  allocs: List[int]) -> None:
        if self.kind[ci] == KIND_TERMINAL:
            self._finish(self._enter_terminal(ci, tok, tag, None), 0)
        else:
            self._drain(self._enter_left(ci, tok, tag, None, allocs),
                        allocs)

    def _run_right(self, ci: int, wme: WME, tag: str,
                   allocs: List[int]) -> None:
        self._drain(self._enter_right(ci, wme, tag, allocs), allocs)

    def _drain(self, root_frame, allocs: List[int]) -> None:
        """The stack machine replacing recursive node dispatch.

        Each frame is ``[event, items, pos]``: the activation's (already
        emitted) event and its precomputed successor list.  Pushing a
        child frame performs the child's entry actions — memory update
        plus event-id assignment, the reference engine's pre-order — and
        popping delivers the event to observers, its post-order.  A
        terminal child has no successors, so it is entered and finished
        in place, without a frame.
        Precomputing ``items`` at entry is safe because the network is a
        DAG: a node's buckets are only mutated by its *own* activations,
        and the descent below an item only reaches strict descendants.
        """
        enter = self._enter_left
        enter_terminal = self._enter_terminal
        finish = self._finish
        kinds = self.kind
        stack = [root_frame]
        push = stack.append
        pop = stack.pop
        while stack:
            frame = stack[-1]
            items = frame[1]
            pos = frame[2]
            if pos < len(items):
                frame[2] = pos + 1
                cci, ctok, ctag = items[pos]
                if kinds[cci] == KIND_TERMINAL:
                    finish(enter_terminal(cci, ctok, ctag, frame[0]), 0)
                else:
                    push(enter(cci, ctok, ctag, frame[0], allocs))
            else:
                finish(frame[0], len(items))
                pop()

    def _enter_terminal(self, ci: int, tok, tag: str, parent_ev):
        """A terminal activation: add/remove one instantiation.

        *tok* is a pool index, or — for join outputs that feed only
        terminals and so never need a slot — the ``(ids, wmes, values)``
        triple itself.
        """
        ev = self._emit(ci, "left", tag, (), parent_ev)
        if type(tok) is tuple:
            ids, wmes, values = tok
        else:
            pool = self.pool
            ids = pool.ids[tok]
            wmes = pool.wmes[tok]
            values = pool.values[tok]
        if tag == PLUS:
            self.term_insts[ci][ids] = Instantiation(
                self.term_prod[ci], wmes,
                dict(zip(self.term_names[ci], values)))
        else:
            self.term_insts[ci].pop(ids, None)
        return ev

    def _join_items(self, ci: int, tok: int, tag: str,
                    matches, allocs: List[int]) -> list:
        """Successor items of join *ci* extending token *tok* by each
        wme of *matches*, in child order per match.

        Terminal children receive the output as an inline triple; a pool
        slot is allocated only when some child is a beta node.
        """
        pool = self.pool
        values = pool.values[tok]
        ids_tok = pool.ids[tok]
        wmes_tok = pool.wmes[tok]
        copy_vals = self.copy_values[ci]
        plan = self.merge_plan[ci]
        children = self.children[ci]
        terminal_only = not self.beta_children[ci]
        kinds = self.kind
        items: List[Tuple[int, Any, str]] = []
        append = items.append
        for wme in matches:
            if copy_vals:
                nvalues = values  # no new bindings: share the parent's
            else:
                get = wme.attrs.get
                nvalues = tuple([
                    intern_value(get(src, NIL)) if from_wme
                    else values[src] for from_wme, src in plan])
            nids = ids_tok + (wme.wme_id,)
            nwmes = wmes_tok + (wme,)
            inline = (nids, nwmes, nvalues)
            if terminal_only:
                for cci in children:
                    append((cci, inline, tag))
                continue
            ntok = pool.alloc(nids, nwmes, nvalues)
            allocs.append(ntok)
            for cci in children:
                append((cci, inline if kinds[cci] == KIND_TERMINAL
                        else ntok, tag))
        return items

    def _right_matches(self, ci: int, right, values) -> list:
        """The wmes of *right* passing node *ci*'s residual tests
        against token *values*."""
        residuals = self.residuals[ci]
        if not residuals:
            return right
        if len(residuals) == 1:
            (pos, pred, attr), = residuals
            value = values[pos]
            return [wme for wme in right
                    if pred(wme.attrs.get(attr, NIL), value)]
        out = []
        for wme in right:
            get = wme.attrs.get
            for pos, pred, attr in residuals:
                if not pred(get(attr, NIL), values[pos]):
                    break
            else:
                out.append(wme)
        return out

    def _enter_left(self, ci: int, tok: int, tag: str,
                    parent_ev, allocs: List[int]):
        """Entry actions of one join/negative left activation; returns
        its frame."""
        pool = self.pool
        values = pool.values[tok]
        key = tuple([values[p] for p in self.left_key_pos[ci]])
        buckets = self.memories.left[ci]
        if self.kind[ci] == KIND_JOIN:
            if tag == PLUS:
                buckets.setdefault(key, []).append(tok)
                pool.retain(tok)
            else:
                self._remove_left(ci, key, pool.ids[tok])
            ev = self._emit(ci, "left", tag, key, parent_ev)
            right = self.memories.right[ci].get(key)
            if right and self.children[ci]:
                return [ev, self._join_items(
                    ci, tok, tag, self._right_matches(ci, right, values),
                    allocs), 0]
            return [ev, (), 0]

        # negative node
        ev = self._emit(ci, "left", tag, key, parent_ev)
        counts = self.neg_counts[ci]
        ids = pool.ids[tok]
        items: List[Tuple[int, int, str]] = []
        if tag == PLUS:
            buckets.setdefault(key, []).append(tok)
            pool.retain(tok)
            right = self.memories.right[ci].get(key)
            count = len(self._right_matches(ci, right, values)) \
                if right else 0
            counts[ids] = count
            if count == 0:
                items = [(cci, tok, PLUS) for cci in self.children[ci]]
        else:
            self._remove_left(ci, key, ids)
            if counts.pop(ids, 0) == 0:
                items = [(cci, tok, MINUS) for cci in self.children[ci]]
        return [ev, items, 0]

    def _enter_right(self, ci: int, wme: WME, tag: str,
                     allocs: List[int]):
        """Entry actions of one right (wme) activation at its node."""
        get = wme.attrs.get
        # Interned here, once, so the event's bucket key can skip the
        # BucketKey re-interning pass (left keys come from token values,
        # which are interned when they enter the pool).
        key = tuple([intern_value(get(a, NIL))
                     for a in self.right_key_attrs[ci]])
        rbuckets = self.memories.right[ci]
        if tag == PLUS:
            rbuckets.setdefault(key, []).append(wme)
        else:
            bucket = rbuckets.get(key)
            if bucket:
                try:
                    bucket.remove(wme)
                except ValueError:
                    pass
                else:
                    if not bucket:
                        del rbuckets[key]
        ev = self._emit(ci, "right", tag, key, None)
        items: list = []
        children = self.children[ci]
        left = self.memories.left[ci].get(key)
        if not left:
            return [ev, items, 0]
        residuals = self.residuals[ci]
        values_arr = self.pool.values
        if self.kind[ci] == KIND_JOIN:
            if not children:
                return [ev, items, 0]
            join_items = self._join_items
            for tok in left:
                values = values_arr[tok]
                for pos, pred, attr in residuals:
                    if not pred(get(attr, NIL), values[pos]):
                        break
                else:
                    items += join_items(ci, tok, tag, (wme,), allocs)
            return [ev, items, 0]
        counts = self.neg_counts[ci]
        ids_arr = self.pool.ids
        for tok in left:
            values = values_arr[tok]
            for pos, pred, attr in residuals:
                if not pred(get(attr, NIL), values[pos]):
                    break
            else:
                ids = ids_arr[tok]
                if tag == PLUS:
                    count = counts.get(ids, 0) + 1
                    counts[ids] = count
                    if count == 1:
                        # Was propagated; retract downstream.
                        for cci in children:
                            items.append((cci, tok, MINUS))
                else:
                    count = counts.get(ids, 1) - 1
                    counts[ids] = count
                    if count == 0:
                        for cci in children:
                            items.append((cci, tok, PLUS))
        return [ev, items, 0]

    # -- untraced fast path ---------------------------------------------------

    def _fast_right(self, ci: int, wme: WME, tag: str,
                    allocs: List[int]) -> None:
        """Right activation with no observers: no events, lean walk."""
        get = wme.get
        key = tuple(get(a) for a in self.right_key_attrs[ci])
        rbuckets = self.memories.right[ci]
        if tag == PLUS:
            bucket = rbuckets.get(key)
            if bucket is None:
                rbuckets[key] = [wme]
            else:
                bucket.append(wme)
        else:
            bucket = rbuckets.get(key)
            if bucket:
                try:
                    bucket.remove(wme)
                except ValueError:
                    pass
                else:
                    if not bucket:
                        del rbuckets[key]
        left = self.memories.left[ci].get(key)
        if not left:
            return
        pool = self.pool
        stack: List[Tuple[int, int, str]] = []
        children = self.children[ci]
        residuals = self.residuals[ci]
        values_arr = pool.values
        if self.kind[ci] == KIND_JOIN:
            if children:
                tchildren = self.term_children[ci]
                bchildren = self.beta_children[ci]
                copy_vals = self.copy_values[ci]
                plan = self.merge_plan[ci]
                ids_arr = pool.ids
                wmes_arr = pool.wmes
                alloc = pool.alloc
                term_insts = self.term_insts
                term_prod = self.term_prod
                term_names = self.term_names
                wid = (wme.wme_id,)
                wtup = (wme,)
                plus = tag == PLUS
                for tok in left:
                    values = values_arr[tok]
                    for pos, pred, attr in residuals:
                        if not pred(get(attr), values[pos]):
                            break
                    else:
                        nvalues = values if copy_vals else tuple(
                            intern_value(get(src)) if from_wme
                            else values[src]
                            for from_wme, src in plan)
                        nids = ids_arr[tok] + wid
                        nwmes = wmes_arr[tok] + wtup
                        for tci in tchildren:
                            insts = term_insts[tci]
                            if plus:
                                insts[nids] = Instantiation(
                                    term_prod[tci], nwmes,
                                    dict(zip(term_names[tci], nvalues)))
                            else:
                                insts.pop(nids, None)
                        if bchildren:
                            ntok = alloc(nids, nwmes, nvalues)
                            allocs.append(ntok)
                            for cci in bchildren:
                                stack.append((cci, ntok, tag))
        else:
            counts = self.neg_counts[ci]
            ids_arr = pool.ids
            for tok in left:
                values = values_arr[tok]
                for pos, pred, attr in residuals:
                    if not pred(get(attr), values[pos]):
                        break
                else:
                    ids = ids_arr[tok]
                    if tag == PLUS:
                        count = counts.get(ids, 0) + 1
                        counts[ids] = count
                        if count == 1:
                            for cci in children:
                                stack.append((cci, tok, MINUS))
                    else:
                        count = counts.get(ids, 1) - 1
                        counts[ids] = count
                        if count == 0:
                            for cci in children:
                                stack.append((cci, tok, PLUS))
        if stack:
            self._walk_fast(stack, allocs)

    def _walk_fast(self, stack: List[Tuple[int, int, str]],
                   allocs: List[int]) -> None:
        """Propagate left activations with no observers attached.

        With nobody listening there are no events to order, and within
        one root activation the final memory/count/conflict-set state
        is independent of sibling processing order: every node has a
        unique left-input path from the root, and right buckets are
        only mutated at roots.  A bare LIFO work stack therefore
        replaces the event-ordered frame machine of :meth:`_drain` —
        this is the match hot path the benchmarks measure.
        """
        pool = self.pool
        pop = stack.pop
        push = stack.append
        kinds = self.kind
        key_pos_arr = self.left_key_pos
        left_mem = self.memories.left
        right_mem = self.memories.right
        residuals_arr = self.residuals
        children_arr = self.children
        tchildren_arr = self.term_children
        bchildren_arr = self.beta_children
        copy_values_arr = self.copy_values
        merge_plan_arr = self.merge_plan
        term_insts_arr = self.term_insts
        term_prod_arr = self.term_prod
        term_names_arr = self.term_names
        values_arr = pool.values
        ids_arr = pool.ids
        wmes_arr = pool.wmes
        alloc = pool.alloc
        allocs_append = allocs.append
        retain = pool.retain
        while stack:
            ci, tok, tag = pop()
            kind = kinds[ci]
            if kind == KIND_TERMINAL:
                insts = self.term_insts[ci]
                ids = ids_arr[tok]
                if tag == PLUS:
                    insts[ids] = Instantiation(
                        production=self.term_prod[ci],
                        wmes=pool.wmes[tok],
                        bindings=dict(zip(self.term_names[ci],
                                          values_arr[tok])))
                else:
                    insts.pop(ids, None)
                continue
            values = values_arr[tok]
            key = tuple([values[p] for p in key_pos_arr[ci]])
            children = children_arr[ci]
            buckets = left_mem[ci]
            if kind == KIND_JOIN:
                if tag == PLUS:
                    bucket = buckets.get(key)
                    if bucket is None:
                        buckets[key] = [tok]
                    else:
                        bucket.append(tok)
                    retain(tok)
                else:
                    self._remove_left(ci, key, ids_arr[tok])
                right = right_mem[ci].get(key)
                if right and children:
                    residuals = residuals_arr[ci]
                    tchildren = tchildren_arr[ci]
                    bchildren = bchildren_arr[ci]
                    copy_vals = copy_values_arr[ci]
                    plan = merge_plan_arr[ci]
                    ids_tok = ids_arr[tok]
                    wmes_tok = wmes_arr[tok]
                    plus = tag == PLUS
                    for wme in right:
                        get = wme.get
                        if residuals:
                            matched = True
                            for pos, pred, attr in residuals:
                                if not pred(get(attr), values[pos]):
                                    matched = False
                                    break
                            if not matched:
                                continue
                        nvalues = values if copy_vals else tuple(
                            intern_value(get(src)) if from_wme
                            else values[src]
                            for from_wme, src in plan)
                        nids = ids_tok + (wme.wme_id,)
                        nwmes = wmes_tok + (wme,)
                        for tci in tchildren:
                            insts = term_insts_arr[tci]
                            if plus:
                                insts[nids] = Instantiation(
                                    term_prod_arr[tci], nwmes,
                                    dict(zip(term_names_arr[tci],
                                             nvalues)))
                            else:
                                insts.pop(nids, None)
                        if bchildren:
                            ntok = alloc(nids, nwmes, nvalues)
                            allocs_append(ntok)
                            for cci in bchildren:
                                push((cci, ntok, tag))
                continue
            # negative node
            counts = self.neg_counts[ci]
            ids = ids_arr[tok]
            if tag == PLUS:
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [tok]
                else:
                    bucket.append(tok)
                retain(tok)
                count = 0
                right = right_mem[ci].get(key)
                if right:
                    residuals = residuals_arr[ci]
                    if residuals:
                        for wme in right:
                            get = wme.get
                            for pos, pred, attr in residuals:
                                if not pred(get(attr), values[pos]):
                                    break
                            else:
                                count += 1
                    else:
                        count = len(right)
                counts[ids] = count
                if count == 0:
                    for cci in children:
                        push((cci, tok, PLUS))
            else:
                self._remove_left(ci, key, ids)
                if counts.pop(ids, 0) == 0:
                    for cci in children:
                        push((cci, tok, MINUS))

    def _remove_left(self, ci: int, key: tuple,
                     ids: Tuple[int, ...]) -> None:
        """Delete one stored token equal (by wme ids) to a minus token.

        Silently tolerates absence, like the reference memories.
        """
        buckets = self.memories.left[ci]
        bucket = buckets.get(key)
        if not bucket:
            return
        pool = self.pool
        pool_ids = pool.ids
        for i, idx in enumerate(bucket):
            if pool_ids[idx] == ids:
                del bucket[i]
                if not bucket:
                    del buckets[key]
                pool.release(idx)
                return

    # -- activation reporting ------------------------------------------------

    def _emit(self, ci: int, side: str, tag: str, key: tuple,
              parent_ev) -> Optional[ActivationEvent]:
        """Open an activation event; *key*'s strings are interned."""
        net = self.net
        if not net.observers:
            return None
        node_id = self.node_id[ci]
        act_id = net._next_act_id
        net._next_act_id = act_id + 1
        return ActivationEvent(
            act_id, parent_ev.act_id if parent_ev is not None else None,
            node_id, self.label[ci], self.kind_str[ci], side, tag,
            interned_key(node_id, key) if key else self.empty_key[ci])

    def _finish(self, ev: Optional[ActivationEvent],
                n_successors: int) -> None:
        if ev is None:
            return
        ev.n_successors = n_successors
        for observer in self.net.observers:
            observer(ev)

    # -- results --------------------------------------------------------------

    def conflict_set(self) -> List[Instantiation]:
        """Live instantiations, in terminal-creation/insertion order."""
        out: List[Instantiation] = []
        for ci in self._terminal_cis:
            out.extend(self.term_insts[ci].values())
        return out
