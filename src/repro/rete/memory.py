"""The two global hashed memories (paper Section 3.1).

Instead of a linear list per memory node, all left memories live in one
global hash table and all right memories in another.  Buckets are keyed
by :class:`~repro.rete.hashing.BucketKey` — destination node id plus the
values of the equality-tested variables — so a left token only ever needs
to search the right bucket with its own index, and vice versa.

This module holds the flat kernel's data structures; the node
descriptors in :mod:`repro.rete.nodes` decide which keys to use.  The
reference engine's list-bucket tables live in
:mod:`repro.rete._reference`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..ops5.ast import Predicate
from ..ops5.values import Value
from ..ops5.wme import WME


class FlatMemories:
    """The flattened kernel's view of the two global memories.

    Same hashed-memory semantics as the reference engine's tables — one
    conceptual left table and one right table, bucketed by destination
    node and equality-test values — but laid out for the hot path:

    * one plain dict per compiled node (node identity is the list
      index, so bucket keys are bare value tuples — no
      :class:`~repro.rete.hashing.BucketKey` object per lookup);
    * left buckets are insertion-ordered dicts from a token's wme-id
      tuple to the **token tuple** ``(ids, wmes, values)`` itself, so
      a minus token finds its stored twin with one ``pop`` and
      iteration follows store order, as a list would.  A second copy
      of a stored token (the same wme added twice) goes under a fresh
      alias key, listed in :attr:`copies`; removal always takes the
      first-stored copy;
    * right buckets are lists of wmes, in arrival order;
    * a negative node whose one residual test is relational also keeps
      a range index per right bucket in :attr:`ranges` (see
      :class:`RangeIndex`);
    * keys are the wmes' own values, not interned: a probe compares
      equal symbols by identity when they are the same object and by
      value otherwise.

    Buckets are deleted when they empty, preserving the reference
    engine's "no state after symmetric add/delete" invariant that
    :meth:`is_empty` reports.  A range index lives exactly as long as
    its right bucket, and an alias only while its left bucket holds it.
    """

    __slots__ = ("left", "right", "ranges", "copies")

    def __init__(self, n_nodes: int, ranged: Iterable[int] = ()) -> None:
        #: per-node dict: value-tuple -> {wme-id tuple or alias: token
        #: tuple}
        self.left: List[Dict[tuple, Dict[object, tuple]]] = [
            {} for _ in range(n_nodes)]
        #: per-node dict: value-tuple -> list of wmes
        self.right: List[Dict[tuple, List[WME]]] = [
            {} for _ in range(n_nodes)]
        #: per-node dict: value-tuple -> the right bucket's range index,
        #: for the nodes in *ranged*; None elsewhere
        self.ranges: List[Optional[Dict[tuple, RangeIndex]]] = [
            None] * n_nodes
        for ci in ranged:
            self.ranges[ci] = {}
        #: (node, value-tuple, wme ids) -> alias keys of the later copies
        #: of a token stored more than once, oldest first
        self.copies: Dict[tuple, List[object]] = {}

    # The introspection surface shared with the reference tables --------

    def counts(self) -> Tuple[int, int]:
        """(total left tokens, total right wmes) across all buckets."""
        left = sum(len(b) for node in self.left for b in node.values())
        right = sum(len(b) for node in self.right for b in node.values())
        return left, right

    def is_empty(self) -> bool:
        """True when no state is stored — e.g. after symmetric add/delete."""
        return (all(not node for node in self.left)
                and all(not node for node in self.right))

    def clear(self) -> None:
        for node in self.left:
            node.clear()
        for node in self.right:
            node.clear()
        for node in self.ranges:
            if node is not None:
                node.clear()
        self.copies.clear()


#: Exact value types a range index orders (``bool`` deliberately absent:
#: OPS5 relational tests on it fail).
_ORDERED = (int, float)


def _count_above(numbers: list, t: Value) -> int:
    return len(numbers) - bisect_right(numbers, t)


def _count_at_or_above(numbers: list, t: Value) -> int:
    return len(numbers) - bisect_left(numbers, t)


#: relational predicate -> how many values ``v`` of a sorted number list
#: pass ``v <pred> t``, by bisection
BISECT_COUNTS: Dict[Predicate, Callable[[list, Value], int]] = {
    Predicate.LT: bisect_left,
    Predicate.LE: bisect_right,
    Predicate.GT: _count_above,
    Predicate.GE: _count_at_or_above,
}


class RangeIndex:
    """One right bucket's values of the attribute a relational test reads.

    ``numbers`` holds, sorted, every value of exact type ``int`` or
    ``float`` that is not NaN: Python compares those exactly and in a
    total order, so the count of them passing ``value <op> t`` for such
    a *t* is one bisection.  ``others`` holds every other value (symbols,
    NaN, ``bool``, ...) in arrival order; :meth:`count` tests those one
    by one with the compiled predicate.  Which copy of equal values is
    removed is unobservable: equal numbers compare alike against every
    *t*, and ``others`` removes the very object it is handed.
    """

    __slots__ = ("numbers", "others")

    def __init__(self) -> None:
        self.numbers: List[Value] = []
        self.others: List[Value] = []

    def add(self, value: Value) -> None:
        if type(value) in _ORDERED and value == value:
            insort(self.numbers, value)
        else:
            self.others.append(value)

    def count(self, pred: Callable[[Value, Value], bool],
              count_numbers: Callable[[list, Value], int],
              t: Value) -> int:
        """How many stored values ``v`` pass ``pred(v, t)``.

        *count_numbers* is *pred* over the sorted numbers by bisection.
        A symbol or NaN *t* orders against no number, so only
        ``others`` can pass; any other type of *t* scans the numbers.
        """
        kind = type(t)
        if kind is int or (kind is float and t == t):
            n = count_numbers(self.numbers, t)
        elif kind is str or kind is float:
            n = 0
        else:
            n = sum(1 for v in self.numbers if pred(v, t))
        for v in self.others:
            if pred(v, t):
                n += 1
        return n

    def remove(self, value: Value) -> None:
        """Drop one stored *value*; it must have been added."""
        if type(value) in _ORDERED and value == value:
            numbers = self.numbers
            del numbers[bisect_left(numbers, value)]
            return
        others = self.others
        for i, other in enumerate(others):
            if other is value:
                del others[i]
                return
        raise ValueError(f"{value!r} is not in the range index")
