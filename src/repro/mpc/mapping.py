"""Bucket-to-processor distribution strategies (paper Sections 5.1/5.2.2).

The range of hash indices is partitioned among the match processors;
both the left and right bucket with a given index live on the same
processor (Section 3.1).  The paper evaluates:

* **round robin** over bucket indices (the default of Section 5.1),
* **random** distribution (tried, "failed to provide a significant
  improvement"),
* an offline **greedy** distribution fed the per-bucket activity of each
  cycle (an upper bound: ≈1.4× over round robin).

All strategies implement :class:`BucketMapping`: the batch form
``processors(keys, hashes) -> list[int]`` maps a cycle's distinct keys
(with their precomputed ``stable_hash`` values, see
:class:`~repro.trace.events.CycleKeyIndex`) in one call, and
``processor_for(key) -> int`` is the one-key wrapper around it.
Every result is in ``range(n_procs)``.

A mapping defined by value — round robin and random, whose routing is
a function of their type and fields — names itself with a hashable
``route_key``, under which :meth:`~repro.trace.events.CycleKeyIndex
.route` memoises each cycle's routing; equal mappings share it.  The
per-cycle and explicit mappings have ``route_key = None`` and are
routed on each call.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Protocol, Sequence

from ..rete.hashing import BucketKey, stable_hash

#: Size of the global hash-index range that is partitioned across
#: processors.  Large enough that distinct keys rarely collide on an
#: index, small enough to keep the paper's "buckets per processor"
#: granularity meaningful.
DEFAULT_N_BUCKETS = 1024


class BucketMapping(Protocol):
    """Strategy assigning hash buckets to match processors."""

    n_procs: int

    def processors(self, keys: Sequence[BucketKey],
                   hashes: Sequence[int]) -> List[int]:
        """The match processor owning each of *keys*, whose
        ``stable_hash`` values are *hashes*."""
        ...

    def processor_for(self, key: BucketKey) -> int:
        """The match processor (0-based) owning *key*'s bucket."""
        ...


@dataclass
class RoundRobinMapping:
    """Bucket index *i* goes to processor ``i % n_procs`` (paper default)."""

    n_procs: int
    n_buckets: int = DEFAULT_N_BUCKETS

    @property
    def route_key(self) -> tuple:
        return (type(self), self.n_procs, self.n_buckets)

    def processors(self, keys: Sequence[BucketKey],
                   hashes: Sequence[int]) -> List[int]:
        n_buckets = self.n_buckets
        n_procs = self.n_procs
        return [h % n_buckets % n_procs for h in hashes]

    def processor_for(self, key: BucketKey) -> int:
        return self.processors((key,), (stable_hash(key),))[0]


@dataclass
class RandomMapping:
    """Each bucket index is assigned to a uniformly random processor.

    The assignment is a fixed function of (seed, n_buckets): the same
    bucket always lands on the same processor, as in a static
    distribution decided before the run.
    """

    n_procs: int
    seed: int = 0
    n_buckets: int = DEFAULT_N_BUCKETS
    _table: List[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rng = random.Random(self.seed)
        self._table = [rng.randrange(self.n_procs)
                       for _ in range(self.n_buckets)]

    @property
    def route_key(self) -> tuple:
        return (type(self), self.n_procs, self.seed, self.n_buckets)

    def processors(self, keys: Sequence[BucketKey],
                   hashes: Sequence[int]) -> List[int]:
        table = self._table
        n_buckets = self.n_buckets
        return [table[h % n_buckets] for h in hashes]

    def processor_for(self, key: BucketKey) -> int:
        return self.processors((key,), (stable_hash(key),))[0]


@dataclass
class ExplicitMapping:
    """A hand- or algorithm-built assignment of specific keys.

    Keys not present fall back to round robin, so a partial greedy
    assignment still covers the long tail of cold buckets.
    """

    n_procs: int
    assignment: Mapping[BucketKey, int] = field(default_factory=dict)
    n_buckets: int = DEFAULT_N_BUCKETS
    route_key = None  # an assignment is routed on each call

    def processors(self, keys: Sequence[BucketKey],
                   hashes: Sequence[int]) -> List[int]:
        get = self.assignment.get
        n_buckets = self.n_buckets
        n_procs = self.n_procs
        procs = []
        for key, h in zip(keys, hashes):
            proc = get(key)
            if proc is None:
                proc = h % n_buckets % n_procs
            elif not 0 <= proc < n_procs:
                raise ValueError(
                    f"assignment maps {key} to processor {proc}, outside "
                    f"range({n_procs})")
            procs.append(proc)
        return procs

    def processor_for(self, key: BucketKey) -> int:
        return self.processors((key,), (stable_hash(key),))[0]


def _lpt(works: Sequence[float], n_procs: int) -> List[int]:
    """LPT placement of *works*, given heaviest first: each goes to the
    least-loaded processor so far, ties to the lowest id."""
    # A (load, proc) min-heap: the top is the least-loaded processor,
    # ties going to the lowest id — exactly what a linear ``min`` scan
    # over ``range(n_procs)`` picks, in O(log P) instead of O(P).
    loads = [(0.0, p) for p in range(n_procs)]
    procs = []
    place = procs.append
    for work in works:
        load, target = loads[0]
        place(target)
        heapq.heapreplace(loads, (load + work, target))
    return procs


def _greedy_order(key: BucketKey, work: float) -> tuple:
    """Sort key of the greedy order: heaviest first, ties broken by the
    key's own (node_id, values) order — spelled out so that tuple
    comparison never calls back into BucketKey's Python-level
    ``__eq__``/``__lt__``."""
    return (-work, key.node_id, key.values)


def greedy_assignment(bucket_work: Mapping[BucketKey, float],
                      n_procs: int) -> Dict[BucketKey, int]:
    """Offline LPT greedy: heaviest bucket to the least-loaded processor.

    *bucket_work* is the measured activity (µs of processing) per bucket
    — information "not available to the actual distribution algorithm",
    as the paper notes; the result is an upper bound on what a static
    distribution could achieve.  Determining the optimum is
    multiprocessor scheduling (NP-complete), and LPT's low variance makes
    it "close to the optimal distribution".
    """
    items = sorted(bucket_work.items(),
                   key=lambda kv: _greedy_order(*kv))
    return dict(zip([key for key, _ in items],
                    _lpt([work for _, work in items], n_procs)))


def greedy_mapping(bucket_work: Mapping[BucketKey, float],
                   n_procs: int,
                   n_buckets: int = DEFAULT_N_BUCKETS) -> ExplicitMapping:
    """Convenience wrapper: LPT assignment as an :class:`ExplicitMapping`."""
    return ExplicitMapping(n_procs=n_procs,
                           assignment=greedy_assignment(bucket_work,
                                                        n_procs),
                           n_buckets=n_buckets)


class IndexedMapping:
    """A mapping precomputed for one cycle's distinct keys.

    ``procs[k]`` owns ``keys[k]`` — the :attr:`~repro.trace.events
    .CycleKeyIndex.keys` of one cycle's index — so routing that cycle
    (which asks :meth:`processors` for exactly that tuple) is a lookup
    with no key hashed.  Any other key is resolved through a key dict
    built on first use, falling back to round robin like
    :class:`ExplicitMapping`.
    """

    route_key = None  # one cycle's mapping: routed on each call

    def __init__(self, n_procs: int, keys: Sequence[BucketKey],
                 procs: List[int]) -> None:
        self.n_procs = n_procs
        self.keys = keys
        self.procs = procs
        self._explicit: Optional[ExplicitMapping] = None

    def processors(self, keys: Sequence[BucketKey],
                   hashes: Sequence[int]) -> List[int]:
        if keys is self.keys:
            return self.procs
        if self._explicit is None:
            self._explicit = ExplicitMapping(
                self.n_procs, dict(zip(self.keys, self.procs)))
        return self._explicit.processors(keys, hashes)

    def processor_for(self, key: BucketKey) -> int:
        return self.processors((key,), (stable_hash(key),))[0]
