"""Building blocks for synthetic section traces.

The original Rubik/Tourney/Weaver OPS5 programs and their execution
traces were CMU-internal and never released, so the characteristic
sections of paper Section 5 are synthesized to match every published
statistic (see DESIGN.md "Substitutions").  The generators write their
cycles through :class:`~repro.trace.events.TraceBuilder` (re-exported
here), whose ``root``/``child``/``terminal`` calls express the causal
structure of a cycle — roots, successor chains, terminals — while the
builder numbers activations and appends their table columns, so the
generators read like descriptions of the workload shape.

For workloads past what fits in memory, :class:`SyntheticStream` is the
streaming counterpart: a picklable, re-iterable trace source that
generates each cycle on demand from a :class:`StreamSpec` (one
deterministic RNG per cycle, keyed by ``(seed, cycle position)``)
straight into the same builder's columns, and represents idle stretches
as :class:`~repro.trace.events.IdleRun` markers — a 10⁶-activation
section flows through the simulator without ever being materialized.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence

from ..trace.events import (TAG_JOIN, TAG_LEFT, TAG_TERMINAL, CycleTrace,
                            IdleRun, TraceBuilder, TraceEntry)

#: Tag bytes of the stream's rows: every activation is an addition.
_RIGHT_JOIN = TAG_JOIN
_LEFT_JOIN = TAG_JOIN | TAG_LEFT
_LEFT_TERMINAL = TAG_TERMINAL | TAG_LEFT


@dataclass(frozen=True)
class StreamSpec:
    """Shape parameters for a :class:`SyntheticStream`.

    The stream alternates *active* cycles (each with exactly
    ``activations_per_cycle`` activations) with runs of
    ``idle_between`` fully-idle cycles — the mostly-idle regime the
    paper's saturation analysis is about, dialed up to arbitrary
    scale.
    """

    name: str = "stream"
    #: number of active (non-empty) cycles
    active_cycles: int = 100
    #: activations per active cycle (terminals included)
    activations_per_cycle: int = 100
    #: fully-idle cycles inserted after every active cycle
    idle_between: int = 0
    #: probability that a non-terminal activation is generated by an
    #: earlier one (left side) rather than being a broadcast root
    left_fraction: float = 0.4
    #: cap on successors per generating activation
    fanout: int = 4
    #: distinct two-input node ids
    nodes: int = 16
    #: value-space size for bucket hashing (bigger = more spread)
    value_space: int = 64
    #: instantiations sent to the control processor, per active cycle
    terminals_per_cycle: int = 2
    #: RNG seed; each cycle derives its own generator from (seed, pos)
    seed: int = 0

    def validate(self) -> None:
        if self.active_cycles < 1:
            raise ValueError("need at least one active cycle")
        if self.activations_per_cycle < 1:
            raise ValueError("need at least one activation per cycle")
        if self.idle_between < 0:
            raise ValueError("idle_between cannot be negative")
        if not 0.0 <= self.left_fraction <= 1.0:
            raise ValueError("left_fraction must be in [0, 1]")
        if self.fanout < 1 or self.nodes < 1 or self.value_space < 1:
            raise ValueError("fanout, nodes and value_space must be >= 1")
        if self.terminals_per_cycle < 0:
            raise ValueError("terminals_per_cycle cannot be negative")
        if self.terminals_per_cycle >= self.activations_per_cycle:
            raise ValueError("terminals need a non-terminal parent: "
                             "terminals_per_cycle must be < "
                             "activations_per_cycle")

    @property
    def n_cycles(self) -> int:
        """Total cycle count, idle cycles included."""
        return self.active_cycles * (1 + self.idle_between)

    @property
    def total_activations(self) -> int:
        return self.active_cycles * self.activations_per_cycle


class SyntheticStream:
    """A re-iterable, picklable streaming trace source.

    Satisfies the streaming-trace contract of
    :mod:`repro.trace.events`: ``name``, ``total_activations()`` and an
    ``__iter__`` that starts a fresh deterministic pass, yielding
    :class:`~repro.trace.events.CycleTrace` entries for active cycles
    and :class:`~repro.trace.events.IdleRun` markers for the idle
    stretches between them.  Each active cycle is built from its own
    ``random.Random((seed << 32) ^ position)``, so iteration order,
    pickling and process boundaries cannot change the workload.
    """

    def __init__(self, spec: StreamSpec) -> None:
        spec.validate()
        self.spec = spec

    @property
    def name(self) -> str:
        return self.spec.name

    def total_activations(self) -> int:
        return self.spec.total_activations

    def n_cycles(self) -> int:
        return self.spec.n_cycles

    def __iter__(self) -> Iterator[TraceEntry]:
        spec = self.spec
        builder = TraceBuilder(spec.name)
        index = 1
        for position in range(spec.active_cycles):
            yield self._build_cycle(builder, index, position)
            index += 1
            if spec.idle_between:
                yield IdleRun(start_index=index, count=spec.idle_between)
                index += spec.idle_between

    def _build_cycle(self, builder: TraceBuilder, index: int,
                     position: int) -> CycleTrace:
        spec = self.spec
        rng = random.Random((spec.seed << 32) ^ position)
        builder.new_cycle(index)
        add = builder.add
        n_non_terminal = spec.activations_per_cycle \
            - spec.terminals_per_cycle
        #: per act id: its bucket key's node and values, and how many
        #: successors it has generated so far
        keys: List[tuple] = [()]
        fanout = [0] * (n_non_terminal + 1)
        #: generating activations with spare successor capacity
        open_parents: List[int] = []

        def close_parent(slot: int) -> None:
            open_parents[slot] = open_parents[-1]
            open_parents.pop()

        for act_id in range(1, n_non_terminal + 1):
            node = rng.randrange(spec.nodes) + 1
            values = (rng.randrange(spec.value_space),)
            if open_parents and rng.random() < spec.left_fraction:
                slot = rng.randrange(len(open_parents))
                parent = open_parents[slot]
                if fanout[parent] + 1 >= spec.fanout:
                    close_parent(slot)
                fanout[parent] += 1
                add(parent, _LEFT_JOIN, node, values)
            else:
                add(None, _RIGHT_JOIN, node, values)
            keys.append((node, values))
            open_parents.append(act_id)
        for _ in range(spec.terminals_per_cycle):
            slot = rng.randrange(len(open_parents))
            parent = open_parents[slot]
            # Keep the last open parent available even past its fanout
            # cap — every terminal needs one, and the cap is a shape
            # knob, not a validity rule.
            if fanout[parent] + 1 >= spec.fanout \
                    and len(open_parents) > 1:
                close_parent(slot)
            fanout[parent] += 1
            add(parent, _LEFT_TERMINAL, *keys[parent])
        return builder.end_cycle()


def zipf_weights(n: int, skew: float) -> List[float]:
    """Zipf-like weights 1/k^skew for k = 1..n, normalised to sum 1.

    Used to model the paper's observation that a few buckets absorb most
    of the activity while many stay cold.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    raw = [1.0 / (k ** skew) for k in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def partition_counts(total: int, weights: Sequence[float]) -> List[int]:
    """Split *total* items into integer counts proportional to *weights*.

    Largest-remainder rounding: the counts sum to *total* exactly, which
    the generators rely on to hit the Table 5-2 numbers precisely.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if not weights:
        raise ValueError("need at least one weight")
    scaled = [w * total for w in weights]
    counts = [int(s) for s in scaled]
    remainder = total - sum(counts)
    by_frac = sorted(range(len(weights)),
                     key=lambda i: (scaled[i] - counts[i], -i),
                     reverse=True)
    for i in by_frac[:remainder]:
        counts[i] += 1
    return counts


def spread_values(rng: random.Random, n: int, space: int) -> List[int]:
    """n hash-key values drawn from range(space) without replacement when
    possible (distinct buckets), with replacement otherwise."""
    if n <= space:
        return rng.sample(range(space), n)
    return [rng.randrange(space) for _ in range(n)]
