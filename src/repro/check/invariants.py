"""Metamorphic invariants: cross-run properties of the simulator.

Where an oracle (:mod:`repro.check.oracles`) compares two code paths
that claim *identity*, an invariant states a property any correct
pricing of the Section 3.2 mapping must satisfy, whatever the input:

``work_conservation``
    Activation counts are a property of the trace, and at
    :data:`~repro.mpc.ZERO_OVERHEADS` the total processor busy time is
    the constant-test replication plus the activation work — neither
    can depend on *where* buckets land, so round-robin, random and
    per-cycle greedy mappings must agree exactly.
``speedup_bound``
    Speedup over the one-processor base can never exceed P: constant
    tests are replicated on every processor and activation work is
    conserved, so the makespan is at least ``base / P``.
``overhead_monotone``
    Walking up the Table 5-1 rows (and starting from the zero-latency
    base) can only slow a run down: every row adds per-message cost and
    none removes work.
``attribution_partition``
    The idle-time attribution categories partition the measured idle
    time of every cycle, to the bit
    (:meth:`~repro.mpc.attribution.CycleAttribution.check_sums`).
``transform_instantiations``
    The Section-S3 restructuring transforms — unsharing, dummy-node
    insertion, copy-and-constraint — reshape *match* work but must not
    invent or lose conflict-set deliveries: per-cycle terminal counts
    are preserved, and the transformed trace still validates.
``serialization_round_trip``
    ``loads(dumps(trace))`` is a fixed point: the reload serializes to
    the same bytes and reports the same Table 5-2 stats.

Each invariant returns ``None`` or a one-line failure detail; the
runner attaches the falsifying ``(seed, index)``.  All were probed over
hundreds of generated cases before being pinned exact — in particular
``overhead_monotone`` holds with no tolerance because every Table 5-1
row dominates the previous one component-wise.
"""

from __future__ import annotations

import collections
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..mpc import (TABLE_5_1, ZERO_OVERHEADS, RunConfig, simulate,
                   simulate_base, simulate_config)
from ..mpc.attribution import attribute_timeline
from ..mpc.mapping import RandomMapping
from ..mpc.simulator import GreedyMappingFactory
from ..mpc.timeline import TimelineRecorder
from ..obs import get_registry
from ..trace.events import TAG_TERMINAL, SectionTrace
from ..trace.format import dumps_trace, loads_trace
from ..trace.transform import (copy_and_constraint_trace,
                               insert_dummy_nodes, unshare_trace)
from ..trace.validate import validate_trace
from .generate import TraceCase

_PROC_CHOICES = (1, 2, 3, 4, 8, 16, 32)


@dataclass(frozen=True)
class Invariant:
    """One named metamorphic property over a generated trace case."""

    name: str
    fn: Callable[[TraceCase], Optional[str]]


def _rng(case: TraceCase, name: str) -> random.Random:
    import zlib
    return random.Random((case.seed << 24) ^ (case.index << 4)
                         ^ zlib.crc32(name.encode()))


def _busy(result) -> float:
    return sum(sum(c.proc_busy_us) for c in result.cycles)


def _activations(result) -> Tuple[int, int]:
    return (sum(sum(c.proc_activations) for c in result.cycles),
            sum(sum(c.proc_left_activations) for c in result.cycles))


def work_conservation(case: TraceCase) -> Optional[str]:
    rng = _rng(case, "work_conservation")
    n_procs = rng.choice(_PROC_CHOICES)
    runs = {
        "round_robin": simulate(case.trace, n_procs,
                                overheads=ZERO_OVERHEADS),
        "random": simulate_config(case.trace, RunConfig(
            n_procs=n_procs, overheads=ZERO_OVERHEADS,
            mapping=RandomMapping(n_procs, seed=case.index))),
        "greedy": simulate_config(case.trace, RunConfig(
            n_procs=n_procs, overheads=ZERO_OVERHEADS,
            mapping_factory=GreedyMappingFactory(n_procs))),
    }
    base_name, base = next(iter(runs.items()))
    for name, run in runs.items():
        if _activations(run) != _activations(base):
            return (f"activation counts differ between {base_name} and "
                    f"{name} mappings at P={n_procs}")
        if _busy(run) != _busy(base):
            return (f"total busy time differs between {base_name} and "
                    f"{name} mappings at P={n_procs}: "
                    f"{_busy(base)!r} vs {_busy(run)!r}")
    return None


def speedup_bound(case: TraceCase) -> Optional[str]:
    base = simulate_base(case.trace)
    for n_procs in (1, 2, 8, 32):
        run = simulate(case.trace, n_procs, overheads=ZERO_OVERHEADS)
        s = base.total_us / run.total_us
        if s > n_procs + 1e-9:
            return f"speedup {s:.6f} exceeds P={n_procs}"
    return None


def overhead_monotone(case: TraceCase) -> Optional[str]:
    rng = _rng(case, "overhead_monotone")
    n_procs = rng.choice(_PROC_CHOICES)
    ladder = (ZERO_OVERHEADS,) + TABLE_5_1
    prev_label, prev = None, None
    for overheads in ladder:
        total = simulate(case.trace, n_procs, overheads=overheads).total_us
        if prev is not None and total < prev:
            return (f"raising overheads {prev_label} -> "
                    f"{overheads.label()} sped the run up at "
                    f"P={n_procs}: {prev!r} -> {total!r}")
        prev_label, prev = overheads.label(), total
    return None


def attribution_partition(case: TraceCase) -> Optional[str]:
    rng = _rng(case, "attribution_partition")
    n_procs = rng.choice(_PROC_CHOICES)
    overheads = rng.choice((ZERO_OVERHEADS,) + TABLE_5_1)
    recorder = TimelineRecorder()
    simulate_config(case.trace, RunConfig(
        n_procs=n_procs, overheads=overheads, recorder=recorder))
    attribution = attribute_timeline(recorder.timeline)
    try:
        for cycle in attribution.cycles:
            cycle.check_sums(exact=True)
    except ValueError as err:
        return (f"idle categories do not partition idle time at "
                f"P={n_procs}, overheads={overheads.label()}: {err}")
    return None


def _terminals_per_cycle(trace: SectionTrace) -> List[int]:
    """Each cycle's terminal rows, orphan subtrees included."""
    return [sum(code >= TAG_TERMINAL for code in cycle.key_index().tags)
            for cycle in trace]


def transform_instantiations(case: TraceCase) -> Optional[str]:
    rng = _rng(case, "transform_instantiations")
    want = _terminals_per_cycle(case.trace)
    # A busy non-terminal node to restructure (transforms of untouched
    # nodes are no-ops, which would make the invariant vacuous).
    counts = collections.Counter(
        key.node_id for cycle in case.trace
        for key, _, _ in cycle.key_index().two_input_rows())
    node = counts.most_common(1)[0][0] if counts else None
    variants = [("unshare", unshare_trace(case.trace))]
    if node is not None:
        variants.append(
            ("insert_dummy_nodes",
             insert_dummy_nodes(case.trace, node,
                                parts=rng.choice((2, 3)))))
        variants.append(
            ("copy_and_constraint",
             copy_and_constraint_trace(case.trace, node,
                                       k=rng.choice((2, 4)))))
    for name, variant in variants:
        problems = validate_trace(variant, raise_on_error=False)
        if problems:
            return f"{name} produced an invalid trace: {problems[0]}"
        got = _terminals_per_cycle(variant)
        if got != want:
            return (f"{name} changed per-cycle instantiation counts: "
                    f"{want} -> {got}")
    return None


def serialization_round_trip(case: TraceCase) -> Optional[str]:
    blob = dumps_trace(case.trace)
    reloaded = loads_trace(blob)
    if dumps_trace(reloaded) != blob:
        return "dumps(loads(dumps(trace))) != dumps(trace)"
    if reloaded.stats() != case.trace.stats():
        return "reloaded trace reports different activation stats"
    return None


#: The registry, in execution order.  To add an invariant, write a
#: ``fn(case) -> Optional[str]`` above and list it here; the runner,
#: the CLI and the nightly job pick it up automatically.
INVARIANTS: Tuple[Invariant, ...] = (
    Invariant("work_conservation", work_conservation),
    Invariant("speedup_bound", speedup_bound),
    Invariant("overhead_monotone", overhead_monotone),
    Invariant("attribution_partition", attribution_partition),
    Invariant("transform_instantiations", transform_instantiations),
    Invariant("serialization_round_trip", serialization_round_trip),
)


def run_invariants(case: TraceCase) -> List[Tuple[str, str]]:
    """All invariant failures for *case* as ``(name, detail)``."""
    failures: List[Tuple[str, str]] = []
    registry = get_registry()
    for invariant in INVARIANTS:
        registry.counter("check.invariant_runs").inc()
        detail = invariant.fn(case)
        if detail is not None:
            failures.append((invariant.name, detail))
    return failures
