"""Parameter sweeps: the experiment harness behind Figures 5-1/5-2/5-4/5-6.

Every speedup is computed the paper's way — against the run with a
single match processor and zero communication overheads on the *same*
trace (Section 5.1).

Every point runs in-process through
:func:`~repro.mpc.simulator.simulate_config` on one
:class:`~repro.mpc.config.RunConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..trace.events import SectionTrace
from .costmodel import (DEFAULT_COSTS, TABLE_5_1, ZERO_OVERHEADS, CostModel,
                        OverheadModel)
from .faults import FaultModel, ProtocolModel
from .mapping import BucketMapping
from .config import MappingFactory, RunConfig
from .metrics import SimResult, speedup
from .simulator import iter_cycle_results, simulate_config

#: The loss rates of the canonical degradation curve (the fault-sweep
#: analogue of the paper's Table 5-1 overhead rows).
DEFAULT_LOSS_RATES: Tuple[float, ...] = (0.0, 1e-4, 1e-3, 1e-2)

#: The processor counts swept in the paper's figures (Nectar scale: up
#: to 32 processors).
DEFAULT_PROC_COUNTS: Tuple[int, ...] = (1, 2, 4, 8, 16, 24, 32)

#: Processor counts for the what-if extrapolation past Nectar scale
#: (DESIGN §4.4) — use with ``compress_rounds=True`` and
#: ``keep_results=False`` to stay memory-bounded.
SCALE_PROC_COUNTS: Tuple[int, ...] = (64, 256, 1024, 4096)


def total_time_us(trace, config: RunConfig) -> float:
    """End-to-end match time of one run, without materializing results.

    Streams :func:`~repro.mpc.simulator.iter_cycle_results` and
    accumulates makespans in yield order — bit-identical to
    ``simulate_config(trace, config).total_us`` (same additions in the
    same order), at O(1) memory per point.  This is what lets sweeps
    visit thousands of processors on million-activation traces.
    """
    total = 0.0
    for result, repeat in iter_cycle_results(trace, config):
        total += result.makespan_us if repeat == 1 \
            else result.makespan_us * repeat
    return total


def _speedup_from_totals(base_total_us: float, total_us: float) -> float:
    """Paper-style speedup from two streamed totals."""
    if total_us <= 0:
        raise ValueError("degenerate run with zero total time")
    return base_total_us / total_us


@dataclass
class SpeedupCurve:
    """One speedup-vs-processors series (one line of a paper figure)."""

    label: str
    proc_counts: List[int]
    speedups: List[float]
    results: List[SimResult] = field(repr=False, default_factory=list)

    def peak(self) -> Tuple[int, float]:
        """(processor count, speedup) at the best point of the curve."""
        best = max(range(len(self.speedups)),
                   key=lambda i: self.speedups[i])
        return self.proc_counts[best], self.speedups[best]

    def at(self, n_procs: int) -> float:
        """Speedup at a specific processor count."""
        return self.speedups[self.proc_counts.index(n_procs)]

    def rows(self) -> List[str]:
        return [f"  {p:>3} procs: {s:6.2f}x"
                for p, s in zip(self.proc_counts, self.speedups)]


def _check_workers(workers: Optional[int]) -> None:
    """Sweeps run in-process; ``workers`` only accepts that (``None``/1)."""
    if workers not in (None, 1):
        raise ValueError(f"workers={workers!r}: sweeps run serially "
                         "in-process; pass None or 1")


def speedup_curve(trace: SectionTrace,
                  proc_counts: Sequence[int] = DEFAULT_PROC_COUNTS,
                  overheads: OverheadModel = ZERO_OVERHEADS,
                  costs: CostModel = DEFAULT_COSTS,
                  mapping_for: Optional[Callable[[int], BucketMapping]]
                  = None,
                  mapping_factory_for: Optional[
                      Callable[[int], MappingFactory]] = None,
                  label: Optional[str] = None,
                  workers: Optional[int] = None,
                  compress_rounds: bool = False,
                  keep_results: bool = True) -> SpeedupCurve:
    """Speedups of *trace* across processor counts at one overhead setting.

    *mapping_for* builds the bucket distribution for each processor
    count (default: round robin); *mapping_factory_for* instead builds a
    per-cycle mapping factory (for the idealized greedy distribution).
    *compress_rounds* runs every point (and the base) through the
    O(active-work) loop — numerically identical speedups.
    ``keep_results=False`` streams each point to its total via
    :func:`total_time_us` instead of materializing per-cycle results
    (``curve.results`` stays empty) — the memory-bounded mode for
    :data:`SCALE_PROC_COUNTS`-sized grids on million-activation traces;
    speedups are bit-identical either way.  *workers* accepts only
    ``None`` or ``1``.
    """
    _check_workers(workers)
    base_total = total_time_us(trace, RunConfig(
        n_procs=1, costs=costs, overheads=ZERO_OVERHEADS,
        compress_rounds=compress_rounds))
    speedups: List[float] = []
    results: List[SimResult] = []
    for n_procs in proc_counts:
        kwargs = {}
        if mapping_factory_for is not None:
            kwargs["mapping_factory"] = mapping_factory_for(n_procs)
        elif mapping_for is not None:
            kwargs["mapping"] = mapping_for(n_procs)
        config = RunConfig(n_procs=n_procs, costs=costs, overheads=overheads,
                           compress_rounds=compress_rounds, **kwargs)
        if keep_results:
            result = simulate_config(trace, config)
            results.append(result)
            total = result.total_us
        else:
            total = total_time_us(trace, config)
        speedups.append(_speedup_from_totals(base_total, total))
    return SpeedupCurve(label=label or f"{trace.name}@{overheads.label()}",
                        proc_counts=list(proc_counts), speedups=speedups,
                        results=results)


def overhead_sweep(trace: SectionTrace,
                   proc_counts: Sequence[int] = DEFAULT_PROC_COUNTS,
                   overhead_settings: Sequence[OverheadModel] = TABLE_5_1,
                   costs: CostModel = DEFAULT_COSTS,
                   workers: Optional[int] = None,
                   compress_rounds: bool = False,
                   keep_results: bool = True) -> List[SpeedupCurve]:
    """The Figure 5-2 experiment: one curve per Table 5-1 setting.

    ``workers`` / ``compress_rounds`` / ``keep_results`` behave as in
    :func:`speedup_curve`.
    """
    return [speedup_curve(trace, proc_counts, overheads=overheads,
                          costs=costs, workers=workers,
                          compress_rounds=compress_rounds,
                          keep_results=keep_results)
            for overheads in overhead_settings]


@dataclass
class DegradationCurve:
    """Speedup vs message-loss rate at a fixed processor count.

    The fault-injection analogue of a :class:`SpeedupCurve`: the x axis
    is the per-message loss probability instead of the processor count.
    """

    label: str
    n_procs: int
    loss_rates: List[float]
    speedups: List[float]
    results: List[SimResult] = field(repr=False, default_factory=list)

    def degradation(self, i: int) -> float:
        """Fractional speedup lost at point *i* relative to loss 0."""
        if not self.speedups or self.speedups[0] <= 0:
            return 0.0
        return 1.0 - self.speedups[i] / self.speedups[0]

    def is_monotone(self, tol: float = 1e-9) -> bool:
        """Whether speedup never increases as the loss rate grows."""
        return all(b <= a + tol for a, b in
                   zip(self.speedups, self.speedups[1:]))

    def rows(self) -> List[str]:
        return [f"  loss {rate:<8g} {s:6.2f}x  "
                f"(-{100 * self.degradation(i):.1f}%)"
                for i, (rate, s) in enumerate(zip(self.loss_rates,
                                                  self.speedups))]


def fault_sweep(trace: SectionTrace,
                n_procs: int = 16,
                loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
                overheads: OverheadModel = ZERO_OVERHEADS,
                costs: CostModel = DEFAULT_COSTS,
                seed: int = 0,
                dup_prob: float = 0.0,
                jitter_us: float = 0.0,
                protocol: Optional[ProtocolModel] = None,
                label: Optional[str] = None,
                workers: Optional[int] = None) -> DegradationCurve:
    """Speedup degradation of *trace* across message-loss rates.

    Every point simulates the same machine under a
    :class:`~repro.mpc.faults.FaultModel` seeded with *seed* at one
    loss rate; speedups are paper-style, against the fault-free
    1-processor zero-overhead base.  A loss rate of exactly 0 (with
    ``dup_prob`` and ``jitter_us`` 0) runs the fault-free simulator —
    the curve's anchor is bit-identical to :func:`simulate` without
    faults.  *workers* accepts only ``None`` or ``1``.
    """
    _check_workers(workers)
    configs = [RunConfig(n_procs=1, costs=costs)]
    for rate in loss_rates:
        faults = FaultModel(seed=seed, loss_prob=rate, dup_prob=dup_prob,
                            jitter_us=jitter_us)
        configs.append(RunConfig(
            n_procs=n_procs, costs=costs, overheads=overheads,
            faults=None if faults.is_null else faults, protocol=protocol))
    results = [simulate_config(trace, config) for config in configs]
    base, rest = results[0], results[1:]
    return DegradationCurve(
        label=label or f"{trace.name}@{n_procs}procs",
        n_procs=n_procs,
        loss_rates=list(loss_rates),
        speedups=[speedup(base, result) for result in rest],
        results=rest)


def format_degradation(curve: DegradationCurve, title: str = "") -> str:
    """ASCII table of a degradation curve, with protocol counters."""
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"{'loss':>10} {'speedup':>9} {'degraded':>9} "
                 f"{'retransmits':>12} {'dup drops':>10} "
                 f"{'timeout (ms)':>13}")
    for i, (rate, s) in enumerate(zip(curve.loss_rates, curve.speedups)):
        r = curve.results[i]
        lines.append(f"{rate:>10g} {s:>8.2f}x {curve.degradation(i):>8.1%} "
                     f"{r.retransmits:>12} {r.duplicate_drops:>10} "
                     f"{r.timeout_wait_us / 1000:>13.2f}")
    return "\n".join(lines)


def speedup_loss(zero_curve: SpeedupCurve,
                 loaded_curve: SpeedupCurve) -> float:
    """Fractional loss of *peak* speedup due to overheads.

    The paper quotes losses of ~30% (Rubik), ~45% (Tourney) and up to
    ~50% (Weaver) at the heaviest (32 µs total) setting.
    """
    _, zero_peak = zero_curve.peak()
    _, loaded_peak = loaded_curve.peak()
    if zero_peak <= 0:
        return 0.0
    return 1.0 - loaded_peak / zero_peak


def format_curves(curves: Sequence[SpeedupCurve],
                  title: str = "") -> str:
    """ASCII table: processors down the side, one column per curve."""
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "procs " + " ".join(f"{c.label:>22}" for c in curves)
    lines.append(header)
    proc_counts = curves[0].proc_counts
    for i, n_procs in enumerate(proc_counts):
        row = f"{n_procs:>5} " + " ".join(
            f"{c.speedups[i]:>21.2f}x" for c in curves)
        lines.append(row)
    return "\n".join(lines)
