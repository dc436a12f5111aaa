"""The flattened Rete match kernel (DESIGN §4.5).

The reference engine (:mod:`repro.rete._reference`) dispatches every
working-memory delta through a graph of node *objects*: each activation
is a Python method call, each token an immutable
:class:`~repro.rete._reference.Token` allocation, and each alpha test a
scan over every pattern in the network.  This module lowers the same
structure — the node descriptors a
:class:`~repro.rete.builder.NetworkBuilder` owns — into flat parallel
arrays and executes waves with one explicit depth-first work stack,
logged or not:

* **Alpha dispatch** is hashed: within a wme class, one lookup on the
  attribute the patterns share an EQ constant on picks the patterns
  that could possibly match, and only those run their compiled tests.
* **Beta nodes** become rows of parallel arrays (kind, bucket-key
  positions, residual tests, binding-merge plans, children), indexed by
  a compact integer.  Bucket state lives in
  :class:`~repro.rete.memory.FlatMemories`, keyed by bare value tuples.
* **Tokens** are plain ``(ids, wmes, values)`` tuples — the wme-id
  tuple that is the token's identity, its wmes and its binding values
  — instead of per-match ``Token`` objects.  Left buckets and walk
  entries hold the tuple itself, and CPython's reference counting is
  its whole lifecycle.  Binding *names* are static per node (the
  node's sorted variable layout), so a token carries only a value
  tuple and variable lookups are index reads.

While a reader keeps the network's
:class:`~repro.rete.stats.ActivationLog` (``log.readers``), the walk
appends one row per activation to it at the moment it numbers the
activation: the reference engine's pre-order, so the rows are already
in act-id order and nothing is sorted, queued or built per activation.
A node whose children are all terminals numbers its instantiations in
place, where the pops would have.  The executor replicates the reference
engine's observable behaviour bit for bit: the same act ids, parents,
keys and successor counts, the same conflict sets, and memory buckets
deleted when they empty.  The ``rete_fast_vs_reference`` conformance
oracle and the differential fuzz suite pin this equivalence.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..ops5.ast import Constant, Predicate
from ..ops5.conflict import Instantiation
from ..ops5.values import NIL
from ..ops5.wme import WME
from .builder import NetworkBuilder
from .memory import BISECT_COUNTS, FlatMemories, RangeIndex
from .nodes import JoinNode, NegativeNode, ProductionNode
from .predicates import compile_constant_test, compile_predicate
from .stats import (TAG_JOIN, TAG_LEFT, TAG_NEGATIVE, TAG_TERMINAL,
                    ActivationLog)
from .tokens import MINUS, PLUS

#: Compiled node kinds (values of ``ReteKernel.kind``).
KIND_JOIN = 0
KIND_NEGATIVE = 1
KIND_TERMINAL = 2

#: tag byte of a terminal activation (a minus one adds ``TAG_MINUS``)
TERMINAL_CODE = TAG_TERMINAL | TAG_LEFT

#: Exact value types an alpha constant is hashed on: their ``==`` and
#: ``hash`` are OPS5 equality (``1 == 1.0``, ``"1" != 1``), and ``bool``
#: is deliberately absent.
_HASHED_TYPES = frozenset((int, float, str))


class _AlphaSlot:
    """One alpha pattern's compiled tests and delivery list."""

    __slots__ = ("const_tests", "intra_tests", "subs", "eq_constants")

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
        #: attr -> the constant of the pattern's first hashable EQ test
        #: on it (exactly int, float or str, and not NaN)
        self.eq_constants: Dict[str, Any] = {}
        for test in pattern.const_tests:
            operand = test.operand
            if (test.predicate is Predicate.EQ
                    and isinstance(operand, Constant)
                    and type(operand.value) in _HASHED_TYPES
                    and operand.value == operand.value):
                self.eq_constants.setdefault(test.attr, operand.value)


class _AlphaClass:
    """One wme class's alpha patterns, dispatched through a hash table.

    The constant-test step of paper Section 3.2 as a hashed alpha
    network (Doorenbos, CMU-CS-95-113): the attribute that the most
    slots (at least two) test for equality with a constant is the
    *hash attribute*, and each of its constants maps to the slots that
    could match a wme carrying it — the slots testing that constant
    plus every slot without an EQ-constant test on the attribute, in
    slot order.  A wme whose value there is not exactly ``int``,
    ``float`` or ``str`` is offered every slot.  Candidates still run
    all their compiled tests, so the matched slots and their order are
    exactly a full scan's.
    """

    __slots__ = ("slots", "attr", "table", "unkeyed")

    def __init__(self, slots: List[_AlphaSlot]) -> None:
        self.slots = tuple(slots)
        self.attr: Optional[str] = None
        self.table: Dict[Any, Tuple[_AlphaSlot, ...]] = {}
        self.unkeyed = self.slots
        tested: Dict[str, int] = {}
        for slot in slots:
            for attr in slot.eq_constants:
                tested[attr] = tested.get(attr, 0) + 1
        if not tested or max(tested.values()) < 2:
            return
        attr = self.attr = max(tested, key=tested.get)
        groups: Dict[Any, List[_AlphaSlot]] = {}
        for slot in slots:
            if attr in slot.eq_constants:
                groups.setdefault(slot.eq_constants[attr], []).append(slot)
        self.unkeyed = tuple(s for s in slots if attr not in s.eq_constants)
        for constant, members in groups.items():
            self.table[constant] = tuple(
                s for s in slots
                if attr not in s.eq_constants or s in members)

    def candidates(self, wme: WME) -> Tuple[_AlphaSlot, ...]:
        """The slots that could match *wme*, in slot order."""
        attr = self.attr
        if attr is None:
            return self.slots
        value = wme.attrs.get(attr, NIL)
        if type(value) in _HASHED_TYPES:
            return self.table.get(value, self.unkeyed)
        return self.slots


def _passing(wmes: list, residuals: tuple, values: tuple) -> list:
    """The wmes passing every residual test against token *values*."""
    if len(residuals) == 1:
        (pos, pred, attr), = residuals
        value = values[pos]
        return [wme for wme in wmes if pred(wme.attrs.get(attr, NIL), value)]
    out = []
    for wme in wmes:
        get = wme.attrs.get
        for pos, pred, attr in residuals:
            if not pred(get(attr, NIL), values[pos]):
                break
        else:
            out.append(wme)
    return out


def _passes(tests: list, values: tuple) -> bool:
    """Whether token *values* passes residual *tests*, given as
    ``(value index, predicate, the wme's value)``."""
    for pos, pred, wme_value in tests:
        if not pred(wme_value, values[pos]):
            return False
    return True


class ReteKernel:
    """A compiled, array-of-struct execution engine for one network.

    Lowered from a :class:`~repro.rete.builder.NetworkBuilder`'s
    structure (alpha patterns, subscriptions, beta-node topology) after
    all productions are added.  The network delegates ``add_wme`` /
    ``remove_wme`` / ``conflict_set`` here and shares its activation
    log; structural introspection stays on the builder.
    """

    #: Always False: the alpha match is pure Python.  Kept only because
    #: the end-to-end benchmark still reports it.
    numpy_engaged = False

    def __init__(self, builder: NetworkBuilder, log: ActivationLog) -> None:
        #: written while a reader keeps it; it numbers the activations
        self.log = log

        # -- beta nodes: one row of parallel arrays per node ----------------
        node_objs = list(builder.beta_nodes.values())
        n = len(node_objs)
        ci_of: Dict[int, int] = {node.node_id: ci
                                 for ci, node in enumerate(node_objs)}
        self.kind: List[int] = [0] * n
        self.node_id: List[int] = [0] * n
        #: tag byte of a + left / right activation (``TAG_*`` bits)
        self.left_code: List[int] = [0] * n
        self.right_code: List[int] = [0] * n
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
        #: negative nodes whose one residual test is relational count
        #: their right bucket through its range index with this (see
        #: :meth:`RangeIndex.count`); None elsewhere
        self.range_count: List[Optional[Callable]] = [None] * n
        self.term_prod: List[Any] = [None] * n
        self.term_names: List[Tuple[str, ...]] = [()] * n
        self.term_insts: List[Optional[Dict]] = [None] * n
        self._terminal_cis: List[int] = [
            ci_of[t.node_id] for t in builder.terminals]

        # Left-input variable layouts.  A node's input is either unit
        # tokens from an alpha subscription (layout = the sorted unit
        # binding variables) or its parent's output; parents always have
        # smaller node ids, so one ascending pass resolves everything.
        in_layout: List[Tuple[str, ...]] = [()] * n
        for subs in builder.subscriptions.values():
            for sub in subs:
                if sub.side == "left":
                    in_layout[ci_of[sub.node.node_id]] = tuple(
                        var for var, _ in sub.unit_bindings)

        for ci, node in enumerate(node_objs):
            self.node_id[ci] = node.node_id
            layout = in_layout[ci]
            if isinstance(node, ProductionNode):
                self.kind[ci] = KIND_TERMINAL
                self.left_code[ci] = TAG_TERMINAL | TAG_LEFT
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
                self.right_code[ci] = TAG_NEGATIVE
                self.neg_counts[ci] = {}
                if len(node.residual_tests) == 1:
                    self.range_count[ci] = BISECT_COUNTS.get(
                        node.residual_tests[0][1])
                out_layout = layout
            else:
                assert isinstance(node, JoinNode)
                self.kind[ci] = KIND_JOIN
                self.right_code[ci] = TAG_JOIN
                new_by_var = dict(node.new_bindings)
                out_layout = tuple(sorted(set(layout) | set(new_by_var)))
                self.merge_plan[ci] = tuple(
                    (True, new_by_var[var]) if var in new_by_var
                    else (False, layout.index(var))
                    for var in out_layout)
                self.copy_values[ci] = not new_by_var
            self.left_code[ci] = self.right_code[ci] | TAG_LEFT
            self.children[ci] = tuple(
                ci_of[child.node_id] for child in node.children)
            for child in node.children:
                in_layout[ci_of[child.node_id]] = out_layout

        # Terminal children as (instantiations, production, variable
        # names, node id), and how each node hands its outputs on: a
        # plan ``(terminals handled in place, children pushed, whether
        # outputs go in forward order)``.  Kinds are known once every
        # row is compiled (children have larger node ids than parents);
        # the walk pushes successors in reverse, so the pushed tuples
        # are reversed here.  Unlogged, every terminal child is handled
        # in place; logged, only a node whose children are all
        # terminals does that, in the order the pops would have taken.
        self.logged_plan: List[Tuple] = [()] * n
        self.plain_plan: List[Tuple] = [()] * n
        for ci in range(n):
            terms = tuple(
                (self.term_insts[c], self.term_prod[c], self.term_names[c],
                 self.node_id[c])
                for c in self.children[ci] if self.kind[c] == KIND_TERMINAL)
            rchildren = self.children[ci][::-1]
            rbeta = tuple(c for c in rchildren
                          if self.kind[c] != KIND_TERMINAL)
            self.logged_plan[ci] = ((terms, (), True) if terms and not rbeta
                                    else ((), rchildren, False))
            self.plain_plan[ci] = (terms, rbeta, False)
        self.memories = FlatMemories(
            n, [ci for ci in range(n) if self.range_count[ci]])

        # -- alpha network: hashed per-class pattern groups -----------------
        by_class: Dict[str, List[_AlphaSlot]] = {}
        slot_of: Dict[int, _AlphaSlot] = {}
        for pattern in builder.alpha_patterns:
            if pattern.always_false:
                continue  # can never match; no observable effect
            slot = _AlphaSlot(pattern)
            by_class.setdefault(pattern.cls, []).append(slot)
            slot_of[pattern.pattern_id] = slot
        self._alpha: Dict[str, _AlphaClass] = {
            cls: _AlphaClass(slots) for cls, slots in by_class.items()}
        for pattern_id, subs in builder.subscriptions.items():
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
        alpha = self._alpha.get(wme.cls)
        if alpha is None:
            return
        log = self.log
        rows = None
        next_id = 0
        if log.readers:
            next_id = log.end
            rows = (log.parents.append, log.tags.append, log.nodes.append,
                    log.keys.append)
        elif log.tags:
            log.drop()  # rows of readers that are gone
        alpha_match = self._alpha_match
        matched = [s for s in alpha.candidates(wme) if alpha_match(s, wme)]
        get = wme.attrs.get
        for slot in matched:
            for ci, unit_attrs in slot.subs:
                if unit_attrs is None:
                    next_id = self._right(ci, wme, tag, rows, next_id)
                else:
                    tok = ((wme.wme_id,), (wme,),
                           tuple([get(a, NIL) for a in unit_attrs]))
                    next_id = self._walk([(ci, tok, tag, None)], rows,
                                         next_id)

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

    def _right(self, ci: int, wme: WME, tag: str, rows: Optional[tuple],
               next_id: int) -> int:
        """One right (wme) activation at node *ci*: the root of a walk.

        Returns the next act id.  :meth:`_walk` describes *rows*, what
        writing them changes and which successors are handled in place;
        the rest are pushed in reverse so the walk pops them in the
        reference engine's order.
        """
        get = wme.attrs.get
        key = tuple([get(a, NIL) for a in self.right_key_attrs[ci]])
        memories = self.memories
        rbuckets = memories.right[ci]
        ranges = memories.ranges[ci]
        if tag == PLUS:
            bucket = rbuckets.get(key)
            if bucket is None:
                rbuckets[key] = [wme]
            else:
                bucket.append(wme)
            if ranges is not None:
                index = ranges.get(key)
                if index is None:
                    index = ranges[key] = RangeIndex()
                index.add(get(self.residuals[ci][0][2], NIL))
        else:
            bucket = rbuckets.get(key)
            if bucket:
                # By identity first: ``index`` would call the wme's
                # dataclass ``__eq__`` on every wme it scans past.
                for i, stored in enumerate(bucket):
                    if stored is wme:
                        break
                else:
                    try:
                        i = bucket.index(wme)
                    except ValueError:
                        i = -1
                if i >= 0:
                    stored = bucket.pop(i)
                    if ranges is not None:
                        ranges[key].remove(stored.attrs.get(
                            self.residuals[ci][0][2], NIL))
                    if not bucket:
                        del rbuckets[key]
                        if ranges is not None:
                            del ranges[key]
        act_id = None
        logged = rows is not None
        if logged:
            act_id = next_id
            next_id += 1
            log_parent, log_tag, log_node, log_key = rows
            log_parent(None)
            log_tag(self.right_code[ci] | (tag == MINUS))
            log_node(self.node_id[ci])
            log_key(key)
        left = memories.left[ci].get(key)
        if not (left and self.children[ci]):
            return next_id
        residuals = self.residuals[ci]
        if len(residuals) == 1:
            (pos, pred, attr), = residuals
            value = get(attr, NIL)
            left = [tok for tok in left.values() if pred(value, tok[2][pos])]
        elif residuals:
            tests = [(pos, pred, get(attr, NIL))
                     for pos, pred, attr in residuals]
            left = [tok for tok in left.values() if _passes(tests, tok[2])]
        else:
            left = left.values()
        stack: List[tuple] = []
        push = stack.append
        plus = tag == PLUS
        if self.kind[ci] == KIND_JOIN:
            inline, pushes, forward = (self.logged_plan if logged
                                       else self.plain_plan)[ci]
            copy_vals = self.copy_values[ci]
            plan = self.merge_plan[ci]
            wid = (wme.wme_id,)
            wtup = (wme,)
            for ids, wmes, values in (left if forward else reversed(left)):
                nvalues = values if copy_vals else tuple([
                    get(src, NIL) if from_wme else values[src]
                    for from_wme, src in plan])
                nids = ids + wid
                for insts, prod, names, node_id in inline:
                    if plus:
                        insts[nids] = Instantiation(
                            prod, wmes + wtup, dict(zip(names, nvalues)))
                    else:
                        insts.pop(nids, None)
                    if logged:
                        next_id += 1
                        log_parent(act_id)
                        log_tag(TERMINAL_CODE | (not plus))
                        log_node(node_id)
                        log_key(())
                if pushes:
                    ntok = (nids, wmes + wtup, nvalues)
                    for cci in pushes:
                        push((cci, ntok, tag, act_id))
        else:
            counts = self.neg_counts[ci]
            # The logged plan traced or not: a token's terminal children
            # are handled in place only when they are all it has, and
            # then in the order the pops would take.
            inline, pushes, forward = self.logged_plan[ci]
            for tok in (left if forward else reversed(left)):
                ids = tok[0]
                if plus:
                    count = counts.get(ids, 0) + 1
                    counts[ids] = count
                    if count != 1:
                        continue
                else:
                    count = counts.get(ids, 1) - 1
                    counts[ids] = count
                    if count:
                        continue
                # A token blocked (plus) or freed (minus) here: retract
                # or propagate it downstream.
                for insts, prod, names, node_id in inline:
                    if plus:
                        insts.pop(ids, None)
                    else:
                        insts[ids] = Instantiation(
                            prod, tok[1], dict(zip(names, tok[2])))
                    if logged:
                        next_id += 1
                        log_parent(act_id)
                        log_tag(TERMINAL_CODE | plus)
                        log_node(node_id)
                        log_key(())
                for cci in pushes:
                    push((cci, tok, MINUS if plus else PLUS, act_id))
        if stack:
            next_id = self._walk(stack, rows, next_id)
        return next_id

    def _walk(self, stack: List[tuple], rows: Optional[tuple],
              next_id: int) -> int:
        """Propagate the left activations on *stack* depth first; return
        the next act id.

        Entries are ``(node, token, tag, parent act_id)``, and a token
        is the tuple ``(ids, wmes, values)``: its wme-id tuple (its
        identity, paper Section 2.2), its wmes and its binding values in
        the node's static variable layout.  Each activation pushes its
        successors in reverse order, so pops follow the reference
        engine's pre-order.  A node's buckets are only mutated by its
        own activations and a descent only reaches strict descendants
        (the network is a DAG), so computing successors at entry is
        exact.

        With *rows* — the log's four column appends — every activation
        takes act id *next_id* and appends its row (parent, tag byte,
        node, key values) there and then, in that pre-order.  A node
        whose children are all terminals numbers its instantiations in
        place: they would be popped right after it, so their ids and
        rows are the same.  Mixed children are all pushed, terminals
        included, and numbered in their turn.  Without rows nothing is
        numbered, and the walk handles every terminal child of its
        nodes in place (a terminal entry comes only from :meth:`_right`).
        """
        pop = stack.pop
        push = stack.append
        kinds = self.kind
        key_pos_arr = self.left_key_pos
        memories = self.memories
        left_mem = memories.left
        right_mem = memories.right
        ranges_arr = memories.ranges
        copies = memories.copies
        range_count_arr = self.range_count
        residuals_arr = self.residuals
        copy_values_arr = self.copy_values
        merge_plan_arr = self.merge_plan
        term_insts_arr = self.term_insts
        term_prod_arr = self.term_prod
        term_names_arr = self.term_names
        logged = rows is not None
        plans = self.logged_plan if logged else self.plain_plan
        if logged:
            log_parent, log_tag, log_node, log_key = rows
            node_id_arr = self.node_id
            left_code_arr = self.left_code
        act_id = None
        while stack:
            ci, tok, tag, parent = pop()
            ids, wmes, values = tok
            kind = kinds[ci]
            plus = tag == PLUS
            if kind == KIND_TERMINAL:
                insts = term_insts_arr[ci]
                if plus:
                    insts[ids] = Instantiation(
                        term_prod_arr[ci], wmes,
                        dict(zip(term_names_arr[ci], values)))
                else:
                    insts.pop(ids, None)
                if logged:
                    next_id += 1
                    log_parent(parent)
                    log_tag(TERMINAL_CODE | (not plus))
                    log_node(node_id_arr[ci])
                    log_key(())
                continue
            key = tuple([values[p] for p in key_pos_arr[ci]])
            buckets = left_mem[ci]
            if plus:
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = {ids: tok}
                elif ids in bucket or copies:
                    self._store_copy(ci, key, ids, tok)
                else:
                    bucket[ids] = tok
            else:
                # The stored twin keyed by ids is the first-stored copy.
                bucket = buckets.get(key)
                if bucket:
                    if bucket.pop(ids, None) is None:
                        if copies:
                            self._remove_copy(ci, key, ids)
                    elif not bucket:
                        del buckets[key]
            if logged:
                act_id = next_id
                next_id += 1
                log_parent(parent)
                log_tag(left_code_arr[ci] | (not plus))
                log_node(node_id_arr[ci])
                log_key(key)
            inline, pushes, forward = plans[ci]
            if kind == KIND_JOIN:
                right = right_mem[ci].get(key)
                if not right or not (inline or pushes):
                    continue
                residuals = residuals_arr[ci]
                if residuals:
                    right = _passing(right, residuals, values)
                copy_vals = copy_values_arr[ci]
                plan = merge_plan_arr[ci]
                for wme in (right if forward else reversed(right)):
                    if copy_vals:
                        nvalues = values
                    else:
                        get = wme.attrs.get
                        nvalues = tuple([
                            get(src, NIL) if from_wme else values[src]
                            for from_wme, src in plan])
                    nids = ids + (wme.wme_id,)
                    for insts, prod, names, node_id in inline:
                        if plus:
                            insts[nids] = Instantiation(
                                prod, wmes + (wme,), dict(zip(names, nvalues)))
                        else:
                            insts.pop(nids, None)
                        if logged:
                            next_id += 1
                            log_parent(act_id)
                            log_tag(TERMINAL_CODE | (not plus))
                            log_node(node_id)
                            log_key(())
                    if pushes:
                        ntok = (nids, wmes + (wme,), nvalues)
                        for cci in pushes:
                            push((cci, ntok, tag, act_id))
                continue
            # negative node: a token passes while nothing blocks it
            counts = self.neg_counts[ci]
            if plus:
                count = 0
                right = right_mem[ci].get(key)
                if right:
                    residuals = residuals_arr[ci]
                    counter = range_count_arr[ci]
                    if counter is not None:
                        (pos, pred, _), = residuals
                        count = ranges_arr[ci][key].count(
                            pred, counter, values[pos])
                    else:
                        count = len(_passing(right, residuals, values)
                                    if residuals else right)
                counts[ids] = count
                if count:
                    continue
            elif counts.pop(ids, 0):
                continue
            for insts, prod, names, node_id in inline:
                if plus:
                    insts[ids] = Instantiation(
                        prod, wmes, dict(zip(names, values)))
                else:
                    insts.pop(ids, None)
                if logged:
                    next_id += 1
                    log_parent(act_id)
                    log_tag(TERMINAL_CODE | (not plus))
                    log_node(node_id)
                    log_key(())
            for cci in pushes:
                push((cci, tok, tag, act_id))
        return next_id

    def _store_copy(self, ci: int, key: tuple, ids: Tuple[int, ...],
                    tok: tuple) -> None:
        """Store *tok* in a left bucket that may already hold its ids.

        A later copy of a stored token goes under a fresh alias key,
        queued in ``memories.copies`` behind its elders, so that minus
        tokens take copies first-stored first, as a list would.
        """
        bucket = self.memories.left[ci][key]
        copies = self.memories.copies
        slot = (ci, key, ids)
        aliases = copies.get(slot)
        if aliases is None and ids not in bucket:
            bucket[ids] = tok
            return
        alias = object()
        bucket[alias] = tok
        if aliases is None:
            copies[slot] = [alias]
        else:
            aliases.append(alias)

    def _remove_copy(self, ci: int, key: tuple,
                     ids: Tuple[int, ...]) -> None:
        """Delete the oldest aliased copy of a token whose ids key is no
        longer in its left bucket (see :meth:`_store_copy`).

        Silently tolerates absence, like the reference memories.
        """
        copies = self.memories.copies
        slot = (ci, key, ids)
        aliases = copies.get(slot)
        if aliases is None:
            return
        buckets = self.memories.left[ci]
        bucket = buckets[key]
        del bucket[aliases.pop(0)]
        if not aliases:
            del copies[slot]
        if not bucket:
            del buckets[key]

    # -- results --------------------------------------------------------------

    def conflict_set(self) -> List[Instantiation]:
        """Live instantiations, in terminal-creation/insertion order."""
        out: List[Instantiation] = []
        for ci in self._terminal_cis:
            out.extend(self.term_insts[ci].values())
        return out
