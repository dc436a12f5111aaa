"""The original object-dispatch Rete engine, preserved verbatim.

This module mirrors :mod:`repro.mpc._reference`: when the match hot
path was rewritten as a flattened kernel (:mod:`repro.rete.kernel`),
the engine it replaced moved here, unchanged, so that every future
optimization can be checked against the original behaviour bit for bit.
Production code never imports it; only the oracles, tests and
benchmarks do.

:class:`ReferenceReteNetwork` is the pre-kernel network.  It compiles
productions with the same :class:`~repro.rete.builder.NetworkBuilder`
as :class:`~repro.rete.network.ReteNetwork`, wraps the builder's node
descriptors in executing node types, and propagates working-memory
deltas by recursive ``left_activate`` / ``right_activate`` dispatch.
The executing nodes share the network's memories and activation
reporting (:class:`_Run`), never the network itself, so no reference
cycle keeps a dropped network alive.  Memory state lives in
:class:`HashedMemories`, and tokens are immutable :class:`Token`
values.  It implements the same
:class:`~repro.ops5.matcher.Matcher` protocol and, once a reader keeps
its :class:`~repro.rete.stats.ActivationLog`, writes the kernel's rows
where it numbers an activation.  Its recursion also delivers every
activation to its ``observers`` as an :class:`ActivationEvent`, in
post-order: an event stream the kernel has no counterpart of, so the
oracle holds the kernel's rows to a record the log did not produce.

The equivalence chain is pinned end to end by the conformance harness:
``rete_vs_naive`` proves the reference engine against the from-scratch
naive matcher, and ``rete_fast_vs_reference`` proves the flattened
kernel against this engine — identical conflict sets after every
working-memory change, and identical log rows that agree with this
engine's events.

Do not "improve" this module.  Its value is that it does not change.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Tuple)

from ..ops5.ast import Production
from ..ops5.conflict import Instantiation
from ..ops5.values import Value
from ..ops5.wme import WME
from .builder import NetworkBuilder, Subscription
from .hashing import BucketKey, intern_value
from .nodes import BetaNode, JoinNode, NegativeNode, ProductionNode
from .stats import TAG_CODES, ActivationLog
from .tokens import MINUS, PLUS

# -- activation events --------------------------------------------------------


@dataclass(slots=True)
class ActivationEvent:
    """One token/wme arrival at a two-input or terminal node.

    Attributes
    ----------
    act_id:
        Serial number within the network's lifetime; children always have
        larger ids than their parent.
    parent_id:
        The activation whose matching produced this one, or None for root
        activations generated directly by a wme change (the constant-test
        outputs of paper Section 3.2 step 2).
    node_kind:
        ``"join"``, ``"negative"`` or ``"terminal"``.
    side:
        ``"left"`` or ``"right"`` — which memory the arriving item is
        stored into.  Terminal arrivals are ``"left"`` by convention.
    tag:
        ``"+"`` or ``"-"``.
    key:
        The hash-bucket key (node id + equality-test values).
    n_successors:
        Number of successor activations this one generated (16 µs each in
        the paper's cost model).
    """

    act_id: int
    parent_id: Optional[int]
    node_id: int
    node_label: str
    node_kind: str
    side: str
    tag: str
    key: BucketKey
    n_successors: int = 0


# -- tokens ---------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    """An immutable partial instantiation.

    Tokens are value objects: two tokens are equal iff they hold the
    same wme sequence (bindings are derived from the wmes, so they are
    excluded from equality).

    Attributes
    ----------
    wmes:
        The wmes matching the positive CEs processed so far, in CE order.
    bindings:
        Variable bindings established so far, as a sorted tuple of
        ``(name, value)`` pairs (tuples keep the token hashable).
    """

    wmes: Tuple[WME, ...]
    bindings: Tuple[Tuple[str, Value], ...] = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return self.ids() == other.ids()

    def __hash__(self) -> int:
        return hash(self.ids())

    def ids(self) -> Tuple[int, ...]:
        """The wme-id list — the token's identity (paper Section 2.2)."""
        return tuple(w.wme_id for w in self.wmes)

    def binding(self, name: str) -> Value:
        """Value bound to variable *name* (raises KeyError when unbound)."""
        for var, value in self.bindings:
            if var == name:
                return value
        raise KeyError(name)

    def bindings_dict(self) -> Dict[str, Value]:
        """The bindings as a plain dict (for instantiation construction)."""
        return dict(self.bindings)

    def extend(self, wme: WME,
               new_bindings: Mapping[str, Value]) -> "Token":
        """Return this token extended by *wme* and its fresh bindings.

        Binding names and string values are interned (see
        :func:`repro.rete.hashing.intern_value`): every join compares
        binding tuples, and a long run binds the same few symbols over
        and over.
        """
        if not new_bindings:
            merged = self.bindings
        else:
            merged = tuple(sorted(
                (sys.intern(name), intern_value(value))
                for name, value in
                {**dict(self.bindings), **new_bindings}.items()))
        return Token(wmes=self.wmes + (wme,), bindings=merged)

    def __len__(self) -> int:
        return len(self.wmes)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        ids = ",".join(str(i) for i in self.ids())
        return f"<tok [{ids}]>"


#: The empty token seeding the top of the beta network.
EMPTY_TOKEN = Token(wmes=(), bindings=())


def make_unit_token(wme: WME,
                    new_bindings: Mapping[str, Value]) -> Token:
    """A length-1 token for a wme entering the first CE's position."""
    return EMPTY_TOKEN.extend(wme, new_bindings)


# -- memories ---------------------------------------------------------------------


class HashedMemories:
    """The pair of global hash tables holding all Rete memory state
    (paper Section 3.1), with a list per bucket."""

    def __init__(self) -> None:
        self._left: Dict[BucketKey, List[Token]] = {}
        self._right: Dict[BucketKey, List[WME]] = {}

    # -- left (token) table -------------------------------------------------

    def add_left(self, key: BucketKey, token: Token) -> None:
        """Store *token* in left bucket *key*."""
        self._left.setdefault(key, []).append(token)

    def remove_left(self, key: BucketKey, token: Token) -> bool:
        """Delete one copy of *token* from left bucket *key*.

        Returns False when the token is absent (a minus token whose plus
        twin never arrived — networks after transformation can produce
        these; callers decide whether that is an error).
        """
        bucket = self._left.get(key)
        if not bucket:
            return False
        try:
            bucket.remove(token)
        except ValueError:
            return False
        if not bucket:
            del self._left[key]
        return True

    def left_bucket(self, key: BucketKey) -> List[Token]:
        """Contents of left bucket *key* (empty list when unused)."""
        return self._left.get(key, [])

    # -- right (wme) table ---------------------------------------------------

    def add_right(self, key: BucketKey, wme: WME) -> None:
        """Store *wme* in right bucket *key*."""
        self._right.setdefault(key, []).append(wme)

    def remove_right(self, key: BucketKey, wme: WME) -> bool:
        """Delete one copy of *wme* from right bucket *key*."""
        bucket = self._right.get(key)
        if not bucket:
            return False
        try:
            bucket.remove(wme)
        except ValueError:
            return False
        if not bucket:
            del self._right[key]
        return True

    def right_bucket(self, key: BucketKey) -> List[WME]:
        """Contents of right bucket *key* (empty list when unused)."""
        return self._right.get(key, [])

    # -- inspection -----------------------------------------------------------

    def left_keys(self) -> Iterator[BucketKey]:
        return iter(self._left)

    def right_keys(self) -> Iterator[BucketKey]:
        return iter(self._right)

    def counts(self) -> Tuple[int, int]:
        """(total left tokens, total right wmes) across all buckets."""
        left = sum(len(b) for b in self._left.values())
        right = sum(len(b) for b in self._right.values())
        return left, right

    def is_empty(self) -> bool:
        """True when no state is stored — e.g. after symmetric add/delete."""
        return not self._left and not self._right

    def clear(self) -> None:
        self._left.clear()
        self._right.clear()


# -- executing nodes ---------------------------------------------------------------
#
# Each wraps one of the builder's descriptors (it is constructed from it
# and keeps its fields) and adds the network's shared run state, its own
# run state and the recursive dispatch bodies.  ``children`` are the
# executing nodes.


class _Run:
    """A network's memories and activation reporting, shared by its
    executing nodes.

    The nodes hold this rather than the network, so nothing points back
    at the network: a dropped network, with every event its observers
    kept, is freed at once rather than at the next full collection.
    """

    def __init__(self) -> None:
        self.memories = HashedMemories()
        self.observers: List[Callable[[ActivationEvent], None]] = []
        self.log = ActivationLog()
        self._next_act_id = 1

    def emit_activation(self, node: BetaNode, side: str, tag: str,
                        key: BucketKey, parent_act: Optional[int]) -> \
            Optional[ActivationEvent]:
        """Open an activation event, and write its log row once a
        recorder keeps the log.  Returns None when nobody listens."""
        log = self.log
        if not self.observers and not log.readers:
            return None
        event = ActivationEvent(
            act_id=self._next_act_id, parent_id=(
                parent_act.act_id if isinstance(parent_act, ActivationEvent)
                else parent_act),
            node_id=node.node_id, node_label=node.label,
            node_kind=node.kind, side=side, tag=tag, key=key)
        self._next_act_id += 1
        if log.readers:
            log.add(event.parent_id, TAG_CODES[node.kind, side, tag],
                    node.node_id, key.values)
        return event

    def finish_activation(self, event: Optional[ActivationEvent],
                          n_successors: int) -> None:
        """Close an activation event and deliver it to observers."""
        if event is None:
            return
        event.n_successors = n_successors
        for observer in self.observers:
            observer(event)


class _Keyed:
    """Bucket keys and residual tests shared by join and negative nodes."""

    node_id: int
    eq_tests: tuple
    residual_tests: tuple

    def left_key(self, token: Token) -> BucketKey:
        """Bucket key for an incoming token, from its bindings."""
        return BucketKey(self.node_id,
                         tuple(token.binding(var)
                               for var, _ in self.eq_tests))

    def right_key(self, wme: WME) -> BucketKey:
        """Bucket key for an incoming wme, from its attribute values."""
        return BucketKey(self.node_id,
                         tuple(wme.get(attr) for _, attr in self.eq_tests))

    def _residual_ok(self, token: Token, wme: WME) -> bool:
        for var, predicate, attr in self.residual_tests:
            if not predicate.apply(wme.get(attr), token.binding(var)):
                return False
        return True


class _Join(_Keyed, JoinNode):
    """A join node that stores, matches and propagates tokens."""

    def __init__(self, node: JoinNode, run: _Run) -> None:
        super().__init__(node.node_id, node.label, node.eq_tests,
                         node.residual_tests, node.new_bindings)
        self.run = run

    def _extend(self, token: Token, wme: WME) -> Token:
        fresh: Dict[str, Value] = {var: wme.get(attr)
                                   for var, attr in self.new_bindings}
        return token.extend(wme, fresh)

    def left_activate(self, token: Token, tag: str,
                      parent_act: Optional[int]) -> None:
        """Store the token, match the opposite (right) bucket, propagate."""
        key = self.left_key(token)
        mem = self.run.memories
        if tag == PLUS:
            mem.add_left(key, token)
        else:
            mem.remove_left(key, token)
        act = self.run.emit_activation(self, "left", tag, key,
                                       parent_act)
        n_successors = 0
        for wme in list(mem.right_bucket(key)):
            if self._residual_ok(token, wme):
                new_token = self._extend(token, wme)
                for child in self.children:
                    child.left_activate(new_token, tag, act)
                    n_successors += 1
        self.run.finish_activation(act, n_successors)

    def right_activate(self, wme: WME, tag: str,
                       parent_act: Optional[int]) -> None:
        """Store the wme, match the opposite (left) bucket, propagate."""
        key = self.right_key(wme)
        mem = self.run.memories
        if tag == PLUS:
            mem.add_right(key, wme)
        else:
            mem.remove_right(key, wme)
        act = self.run.emit_activation(self, "right", tag, key,
                                       parent_act)
        n_successors = 0
        for token in list(mem.left_bucket(key)):
            if self._residual_ok(token, wme):
                new_token = self._extend(token, wme)
                for child in self.children:
                    child.left_activate(new_token, tag, act)
                    n_successors += 1
        self.run.finish_activation(act, n_successors)


class _Negative(_Keyed, NegativeNode):
    """A negative node with a join count per stored token."""

    def __init__(self, node: NegativeNode, run: _Run) -> None:
        super().__init__(node.node_id, node.label, node.eq_tests,
                         node.residual_tests)
        self.run = run
        #: join counts keyed by token identity (wme-id tuple)
        self._counts: Dict[Tuple[int, ...], int] = {}

    def left_activate(self, token: Token, tag: str,
                      parent_act: Optional[int]) -> None:
        key = self.left_key(token)
        mem = self.run.memories
        act = self.run.emit_activation(self, "left", tag, key,
                                       parent_act)
        n_successors = 0
        if tag == PLUS:
            mem.add_left(key, token)
            count = sum(1 for wme in mem.right_bucket(key)
                        if self._residual_ok(token, wme))
            self._counts[token.ids()] = count
            if count == 0:
                for child in self.children:
                    child.left_activate(token, PLUS, act)
                    n_successors += 1
        else:
            mem.remove_left(key, token)
            count = self._counts.pop(token.ids(), 0)
            if count == 0:
                for child in self.children:
                    child.left_activate(token, MINUS, act)
                    n_successors += 1
        self.run.finish_activation(act, n_successors)

    def right_activate(self, wme: WME, tag: str,
                       parent_act: Optional[int]) -> None:
        key = self.right_key(wme)
        mem = self.run.memories
        if tag == PLUS:
            mem.add_right(key, wme)
        else:
            mem.remove_right(key, wme)
        act = self.run.emit_activation(self, "right", tag, key,
                                       parent_act)
        n_successors = 0
        for token in list(mem.left_bucket(key)):
            if not self._residual_ok(token, wme):
                continue
            ids = token.ids()
            if tag == PLUS:
                self._counts[ids] = self._counts.get(ids, 0) + 1
                if self._counts[ids] == 1:
                    # Token had been propagated; retract it downstream.
                    for child in self.children:
                        child.left_activate(token, MINUS, act)
                        n_successors += 1
            else:
                self._counts[ids] = self._counts.get(ids, 1) - 1
                if self._counts[ids] == 0:
                    for child in self.children:
                        child.left_activate(token, PLUS, act)
                        n_successors += 1
        self.run.finish_activation(act, n_successors)


class _Production(ProductionNode):
    """A terminal node holding its production's live instantiations."""

    def __init__(self, node: ProductionNode, run: _Run) -> None:
        super().__init__(node.node_id, node.label, node.production)
        self.run = run
        self._instantiations: Dict[Tuple[int, ...], Instantiation] = {}

    def left_activate(self, token: Token, tag: str,
                      parent_act: Optional[int]) -> None:
        key = BucketKey(self.node_id, ())
        act = self.run.emit_activation(self, "left", tag, key,
                                       parent_act)
        if tag == PLUS:
            self._instantiations[token.ids()] = Instantiation(
                production=self.production, wmes=token.wmes,
                bindings=token.bindings_dict())
        else:
            self._instantiations.pop(token.ids(), None)
        self.run.finish_activation(act, 0)

    def instantiations(self) -> List[Instantiation]:
        """Current live instantiations of this production."""
        return list(self._instantiations.values())


_EXECUTING = {JoinNode: _Join, NegativeNode: _Negative,
              ProductionNode: _Production}


# -- the network -----------------------------------------------------------------------


class ReferenceReteNetwork:
    """The original Rete match engine with hashed memories."""

    def __init__(self, share: bool = True) -> None:
        self.builder = NetworkBuilder(share)
        self._run = _Run()
        #: subscriptions to executing nodes per alpha pattern id, and the
        #: executing terminals; built on first use
        self._subscriptions: Optional[Dict[int, List[Subscription]]] = None
        self._terminals: List[_Production] = []

    # -- Matcher protocol -----------------------------------------------------

    def add_production(self, production: Production) -> None:
        """Compile *production* into the network (before any wme)."""
        self.builder.add_production(production)
        self._subscriptions = None

    def add_wme(self, wme: WME) -> None:
        """Propagate a wme addition (a + token wave) through the network."""
        self.builder.sealed = True
        self._dispatch(wme, PLUS)

    def remove_wme(self, wme: WME) -> None:
        """Propagate a wme deletion (a - token wave) through the network."""
        self.builder.sealed = True
        self._dispatch(wme, MINUS)

    def conflict_set(self) -> List[Instantiation]:
        """All live instantiations across the terminal nodes."""
        self._lower()
        out: List[Instantiation] = []
        for terminal in self._terminals:
            out.extend(terminal.instantiations())
        return out

    # -- alpha dispatch -----------------------------------------------------------

    def _lower(self) -> Dict[int, List[Subscription]]:
        """Wrap the builder's descriptors in executing nodes (once per
        rule set)."""
        if self._subscriptions is not None:
            return self._subscriptions
        builder = self.builder
        nodes: Dict[int, BetaNode] = {
            node_id: _EXECUTING[type(node)](node, self._run)
            for node_id, node in builder.beta_nodes.items()}
        for node_id, node in builder.beta_nodes.items():
            nodes[node_id].children = [nodes[child.node_id]
                                       for child in node.children]
        self._terminals = [nodes[t.node_id] for t in builder.terminals]
        self._subscriptions = {
            pattern_id: [Subscription(nodes[sub.node.node_id], sub.side,
                                      sub.unit_bindings) for sub in subs]
            for pattern_id, subs in builder.subscriptions.items()}
        return self._subscriptions

    def _dispatch(self, wme: WME, tag: str) -> None:
        subscriptions = self._lower()
        log = self._run.log
        if not log.readers and log.tags:
            log.drop()  # rows of readers that are gone
        for pattern in self.builder.alpha_patterns:
            if not pattern.matches(wme):
                continue
            for sub in subscriptions.get(pattern.pattern_id, []):
                if sub.side == "right":
                    sub.node.right_activate(wme, tag, parent_act=None)  # type: ignore[union-attr]
                else:
                    bindings = {var: wme.get(attr)
                                for var, attr in sub.unit_bindings}
                    token = make_unit_token(wme, bindings)
                    sub.node.left_activate(token, tag, parent_act=None)

    # -- run state ------------------------------------------------------------------

    @property
    def memories(self) -> HashedMemories:
        return self._run.memories

    @property
    def observers(self) -> List[Callable[[ActivationEvent], None]]:
        """Call-backs receiving every :class:`ActivationEvent` (change
        the list in place)."""
        return self._run.observers

    def keep_log(self, reader: object) -> ActivationLog:
        """The network's activation log, with every row written from
        now on kept (its first row is the next activation) for as long
        as *reader* (or another reader) lives."""
        run = self._run
        log = run.log
        if not log.readers:
            log.drop()
            log.start = run._next_act_id
        log.keep(reader)
        return log
