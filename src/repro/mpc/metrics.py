"""Simulation results and derived metrics.

A :class:`SimResult` holds one :class:`CycleResult` per MRA cycle; the
speedup, idle-time and network-utilization numbers the paper reports are
all derived here.

Two representation tricks keep results memory-bounded at thousands of
processors and millions of cycles (DESIGN §4.4):

* :class:`SparseProcArray` — a per-processor array stored as (length,
  default, overrides).  A compressed simulation packages only the
  processors that did any cycle-specific work, so a 4096-processor
  cycle result costs O(touched) memory instead of O(P).  It compares
  equal to the plain list the dense loop produces.
* Run-length encoding on :class:`SimResult` — with round compression a
  stretch of *k* identical fully-idle cycles is stored once with a
  repeat count in :attr:`SimResult.repeats`.  All aggregates account
  for the repeats; :meth:`SimResult.expanded` materializes the
  per-cycle view for bitwise comparison against the exact loop.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence


class SparseProcArray:
    """A length-``n`` per-processor sequence with few non-default slots.

    Behaves like the list the dense event loop builds — ``len``,
    indexing, iteration and (symmetric) equality against any sequence —
    while storing only the overridden slots.  Instances are treated as
    immutable by convention: the simulator shares one default-only
    instance across every cycle of a compressed idle stretch.
    """

    __slots__ = ("length", "default", "overrides")

    def __init__(self, length: int, default,
                 overrides: Optional[Dict[int, object]] = None) -> None:
        self.length = length
        self.default = default
        self.overrides = dict(overrides) if overrides else {}

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        i = index + self.length if index < 0 else index
        if not 0 <= i < self.length:
            raise IndexError(index)
        return self.overrides.get(i, self.default)

    def __iter__(self) -> Iterator:
        get = self.overrides.get
        default = self.default
        return (get(i, default) for i in range(self.length))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SparseProcArray):
            if self.length != other.length:
                return False
            if self.default == other.default:
                a = {i: v for i, v in self.overrides.items()
                     if v != self.default}
                b = {i: v for i, v in other.overrides.items()
                     if v != other.default}
                return a == b
            return all(x == y for x, y in zip(self, other))
        if isinstance(other, (list, tuple)):
            return self.length == len(other) \
                and all(x == y for x, y in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return (f"SparseProcArray({self.length}, {self.default!r}, "
                f"{self.overrides!r})")

    def to_list(self) -> List:
        return list(self)

    def fast_sum(self):
        """Sum without iterating the default slots (aggregate helper)."""
        return self.default * (self.length - len(self.overrides)) \
            + sum(self.overrides.values())


def _proc_sum(values) -> float:
    """Sum of a per-processor array, sparse-aware.

    Uses :meth:`SparseProcArray.fast_sum` when available — O(touched)
    instead of O(P).  Note the summation order differs from ``sum(list)``
    there; with the paper's 0.5 µs-granular cost models both are exact.
    """
    fast = getattr(values, "fast_sum", None)
    return fast() if fast is not None else sum(values)


@dataclass
class CycleResult:
    """Timing of one simulated MRA cycle.

    All times in microseconds, measured from the start of the cycle's
    broadcast.  ``proc_*`` lists are indexed by match-processor number.
    """

    index: int
    makespan_us: float
    proc_busy_us: List[float]
    proc_activations: List[int]
    proc_left_activations: List[int]
    n_messages: int
    network_busy_us: float
    control_busy_us: float
    #: Reliable-delivery protocol counters (:mod:`repro.mpc.faults`).
    #: All zero on the fault-free path, which keeps fault-free results
    #: (and their equality comparisons) identical to before the fault
    #: subsystem existed.
    retransmits: int = 0
    duplicate_drops: int = 0
    acks: int = 0
    timeout_wait_us: float = 0.0
    stall_us: float = 0.0
    recovery_us: float = 0.0

    @property
    def n_procs(self) -> int:
        return len(self.proc_busy_us)

    def idle_fractions(self) -> List[float]:
        """Per-processor idle fraction over the cycle."""
        if self.makespan_us <= 0:
            return [0.0] * self.n_procs
        return [max(0.0, 1.0 - busy / self.makespan_us)
                for busy in self.proc_busy_us]


@dataclass
class SimResult:
    """A full section simulation: one entry per cycle, plus config echo.

    With round compression (``RunConfig(compress_rounds=True)``) the
    ``cycles`` list is run-length encoded: ``repeats[i]`` says how many
    consecutive identical cycles ``cycles[i]`` stands for.  ``repeats``
    is ``None`` on the exact path, which keeps legacy equality
    comparisons between uncompressed results unchanged.
    """

    trace_name: str
    n_procs: int
    cycles: List[CycleResult] = field(default_factory=list)
    #: Run-length counts parallel to ``cycles`` (``None`` = one each).
    repeats: Optional[List[int]] = None

    def _counted(self) -> Iterator:
        """(cycle, repeat) pairs, RLE-aware."""
        if self.repeats is None:
            return ((c, 1) for c in self.cycles)
        return zip(self.cycles, self.repeats)

    @property
    def n_cycles(self) -> int:
        """Number of simulated cycles (RLE runs counted in full)."""
        if self.repeats is None:
            return len(self.cycles)
        return sum(self.repeats)

    def cycle_at(self, pos: int) -> CycleResult:
        """The cycle result at expanded position *pos* (RLE-aware)."""
        if self.repeats is None:
            return self.cycles[pos]
        if pos < 0:
            pos += self.n_cycles
        for cycle, repeat in zip(self.cycles, self.repeats):
            if pos < repeat:
                return cycle
            pos -= repeat
        raise IndexError(pos)

    def expand_cycles(self) -> Iterator[CycleResult]:
        """Per-cycle results with RLE runs unrolled and indices fixed."""
        if self.repeats is None:
            yield from self.cycles
            return
        for cycle, repeat in zip(self.cycles, self.repeats):
            if repeat == 1:
                yield cycle
            else:
                for j in range(repeat):
                    yield dataclasses.replace(cycle,
                                              index=cycle.index + j)

    def expanded(self) -> "SimResult":
        """An uncompressed (``repeats=None``) view of this result."""
        if self.repeats is None:
            return self
        return SimResult(trace_name=self.trace_name, n_procs=self.n_procs,
                         cycles=list(self.expand_cycles()))

    @property
    def total_us(self) -> float:
        """End-to-end match time: cycles are serialized by the control
        processor's barrier, so the section time is the sum.

        Exact under RLE too: every makespan is a multiple of 0.5 µs
        under the paper's cost models, so ``makespan * k`` equals the
        k-fold sum bit for bit.
        """
        if self.repeats is None:
            return sum((c.makespan_us for c in self.cycles), 0.0)
        return sum((c.makespan_us * r for c, r in self._counted()), 0.0)

    @property
    def n_messages(self) -> int:
        return sum(c.n_messages * r for c, r in self._counted())

    # -- fault/protocol aggregates (zero on the fault-free path) ------------

    @property
    def retransmits(self) -> int:
        return sum(c.retransmits * r for c, r in self._counted())

    @property
    def duplicate_drops(self) -> int:
        return sum(c.duplicate_drops * r for c, r in self._counted())

    @property
    def acks(self) -> int:
        return sum(c.acks * r for c, r in self._counted())

    @property
    def timeout_wait_us(self) -> float:
        return sum((c.timeout_wait_us * r for c, r in self._counted()),
                   0.0)

    @property
    def stall_us(self) -> float:
        return sum((c.stall_us * r for c, r in self._counted()), 0.0)

    @property
    def recovery_us(self) -> float:
        return sum((c.recovery_us * r for c, r in self._counted()), 0.0)

    def fault_summary(self) -> str:
        """One line of protocol-layer accounting for reports."""
        return (f"{self.retransmits} retransmits, "
                f"{self.duplicate_drops} duplicate drops, "
                f"{self.acks} acks, "
                f"{self.timeout_wait_us / 1000:.2f} ms timeout wait, "
                f"{(self.stall_us + self.recovery_us) / 1000:.2f} ms "
                f"stalled/recovering")

    def average_idle_fraction(self) -> float:
        """Mean idle fraction across processors and cycles, time-weighted."""
        busy = sum((_proc_sum(c.proc_busy_us) * r
                    for c, r in self._counted()), 0.0)
        capacity = self.n_procs * self.total_us
        if capacity <= 0:
            return 0.0
        return max(0.0, 1.0 - busy / capacity)

    def network_utilization(self) -> float:
        """Fraction of time the interconnect is carrying a message.

        Modelled as a single shared medium: total transit time over
        total time.  This is the *most pessimistic* accounting (a
        link-level model would show even more idleness), so the paper's
        "97-98% idle" claim is tested against its hardest version.
        """
        if self.total_us <= 0:
            return 0.0
        transit = sum((c.network_busy_us * r for c, r in self._counted()),
                      0.0)
        return min(1.0, transit / self.total_us)

    def network_idle_fraction(self) -> float:
        return 1.0 - self.network_utilization()

    def left_token_distribution(self, cycle_pos: int) -> List[int]:
        """Left activations per processor in one cycle (Figure 5-5)."""
        return list(self.cycle_at(cycle_pos).proc_left_activations)


def speedup(base: SimResult, result: SimResult) -> float:
    """Paper-style speedup: T(1 processor, zero overheads) / T(run)."""
    if result.total_us <= 0:
        raise ValueError("degenerate run with zero total time")
    return base.total_us / result.total_us


def speedup_series(base: SimResult,
                   results: Sequence[SimResult]) -> List[float]:
    """Speedups of several runs against one base."""
    return [speedup(base, r) for r in results]
