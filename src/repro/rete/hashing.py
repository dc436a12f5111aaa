"""Deterministic hashing of memory-bucket keys.

The paper's mapping hashes each token on (a) the node-id of its
destination two-input node and (b) the values bound to the variables
tested for equality at that node (Section 3.1).  Everything downstream —
bucket→processor distribution, the load-balance phenomena of Section 5.2
— depends on this hash, so it must be stable across processes and runs.
Python's builtin ``hash`` is salted per process; we use FNV-1a over a
canonical byte encoding instead.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from ..ops5.values import Value

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def intern_value(value: Value) -> Value:
    """Intern string values; pass everything else through.

    Symbols recur massively across a trace — a million-activation
    section mentions a few hundred distinct attribute values — so
    interning makes every repeated symbol one shared object: equality
    short-circuits on identity and the per-copy memory goes away.
    Only exact ``str`` is interned (subclasses keep their type).
    """
    return sys.intern(value) if type(value) is str else value


@dataclass(frozen=True, order=True)
class BucketKey:
    """Identity of one hash bucket in the global left/right tables.

    Two tokens with the same destination node and the same equality-test
    values share a bucket — that is precisely the paper's "tokens flowing
    into a two-input node with the same values bound to the variables
    hash to the same index".

    String values are interned on construction (see
    :func:`intern_value`): bucket keys are compared and hashed on every
    routing decision, and interned symbols make those comparisons
    pointer checks.
    """

    node_id: int
    values: Tuple[Value, ...] = ()

    def __post_init__(self) -> None:
        if any(type(v) is str for v in self.values):
            object.__setattr__(
                self, "values",
                tuple(intern_value(v) for v in self.values))

    def __str__(self) -> str:
        vals = ",".join(_canonical(v) for v in self.values)
        return f"n{self.node_id}[{vals}]"


_new_key = object.__new__
_set_field = object.__setattr__


def interned_key(node_id: int, values: Tuple[Value, ...]) -> BucketKey:
    """A :class:`BucketKey` over *values* whose strings the caller has
    already interned — the match kernel's case, which interns every
    value once when it enters a token or a key.  Skips the re-interning
    pass of ``__post_init__``; equal to ``BucketKey(node_id, values)``.
    """
    key = _new_key(BucketKey)
    _set_field(key, "node_id", node_id)
    _set_field(key, "values", values)
    return key


def _canonical(value: Value) -> str:
    """Type-tagged canonical text for a value (1 and '1' must differ)."""
    if isinstance(value, bool):  # defensive; OPS5 has no booleans
        return f"s:{value}"
    if isinstance(value, int):
        return f"n:{value}"
    if isinstance(value, float):
        # Integral floats normalise to the int spelling so that 1.0 and 1
        # (which OPS5 treats as equal) land in the same bucket.
        if value.is_integer():
            return f"n:{int(value)}"
        return f"n:{value!r}"
    return f"s:{value}"


def fnv1a(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


@lru_cache(maxsize=1 << 16)
def stable_hash(key: BucketKey) -> int:
    """Deterministic 64-bit hash of a bucket key.

    The node id participates in the hash (paper: the hash function uses
    the node-id as a parameter), so buckets of different nodes spread
    independently even when their test values coincide.  Memoized: the
    simulators hash the same keys once per routing decision, and a
    section touches far fewer distinct keys than activations (profiling
    showed the uncached hash at ~50% of simulation time).
    """
    text = f"{key.node_id}|" + "|".join(_canonical(v) for v in key.values)
    return fnv1a(text.encode("utf-8"))


def bucket_index(key: BucketKey, n_buckets: int) -> int:
    """Map *key* into a table with *n_buckets* slots."""
    if n_buckets <= 0:
        raise ValueError("n_buckets must be positive")
    return stable_hash(key) % n_buckets
