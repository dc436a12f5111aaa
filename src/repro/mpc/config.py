"""One frozen configuration object for every way of running a section.

Historically :func:`repro.mpc.simulator.simulate` grew a keyword for
each subsystem (mapping, per-cycle mapping factories, fault injection,
the reliable-delivery protocol, the timeline recorder) until the
signature sprawled to nine parameters that every caller — the CLI, the
sweep engines, the oracles — had to thread through separately.

:class:`RunConfig` replaces the sprawl: it is the single value that
names a complete machine configuration, shared by the discrete
simulator (:func:`repro.mpc.simulator.simulate_config`) and by every
executor backend in :mod:`repro.exec`.  ``simulate(trace, n_procs,
costs=..., overheads=...)`` survives as the short spelling of a
round-robin, fault-free run; the sprawl keywords are gone.

``RunConfig.from_args`` absorbs the CLI's flag validation (overhead
row lookup, fault-model and protocol construction), raising
``ValueError`` with the same one-line messages the CLI prints.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..trace.events import CycleTrace
from .costmodel import (DEFAULT_COSTS, TABLE_5_1, ZERO_OVERHEADS, CostModel,
                        OverheadModel)
from .faults import FaultModel, ProtocolModel
from .mapping import BucketMapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (timeline
    from .timeline import TimelineRecorder  # imports costmodel/mapping)

#: Signature for per-cycle mapping construction (used by the idealized
#: greedy distribution, which the paper recomputed every cycle).
MappingFactory = Callable[[CycleTrace], BucketMapping]

#: The Table 5-1 overhead rows keyed by total per-message cost in µs —
#: what the CLI's ``--overhead`` flag selects from.
OVERHEADS: Dict[int, OverheadModel] = {int(m.total_us): m
                                       for m in TABLE_5_1}


@dataclass(frozen=True)
class SupervisePolicy:
    """Supervision knobs for the live executor backends.

    Plain numbers with no behavior of their own (the machinery lives in
    :mod:`repro.exec.supervise`); defined here so :class:`RunConfig`
    can carry them without an import cycle.

    Attributes
    ----------
    heartbeat_s:
        Process transport: how often the control actor checks worker
        liveness while waiting for cycle progress.  Every wait on the
        control queue is chopped into heartbeats, so a dead worker is
        noticed within one interval instead of one full deadline.  On
        asyncio a dead actor task reports itself and no heartbeat is
        needed.
    cycle_timeout_s:
        Per-phase deadline: the longest one recognize-act cycle may go
        without quiescing before the attempt is declared wedged.
        ``None`` resolves through :func:`repro.exec.errors
        .exec_timeout_s` (the ``REPRO_EXEC_TIMEOUT_S`` environment
        override, default 300 s).
    max_restarts:
        Worker-restart budget per cycle.  A crashed or wedged attempt
        respawns every partition worker and replays the cycle from its
        :class:`~repro.exec.plan.CyclePlan` checkpoint; after this many
        failed replays the run raises
        :class:`~repro.exec.errors.RestartsExhausted`.
    backoff / restart_delay_s:
        Exponential-backoff pause before each replay: attempt *k* waits
        ``restart_delay_s * backoff**k`` seconds (bounded by
        ``max_delay_s``), giving a transiently-sick host room to
        recover without stalling tests.
    """

    heartbeat_s: float = 0.05
    cycle_timeout_s: Optional[float] = None
    max_restarts: int = 3
    backoff: float = 2.0
    restart_delay_s: float = 0.01
    max_delay_s: float = 1.0

    def __post_init__(self) -> None:
        if self.heartbeat_s <= 0.0:
            raise ValueError("heartbeat_s must be > 0")
        if self.cycle_timeout_s is not None and self.cycle_timeout_s <= 0:
            raise ValueError("cycle_timeout_s must be > 0")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.restart_delay_s < 0.0:
            raise ValueError("restart_delay_s must be >= 0")
        if self.max_delay_s < 0.0:
            raise ValueError("max_delay_s must be >= 0")

    def delay_s(self, attempt: int) -> float:
        """Backoff pause before replay *attempt* (0-based)."""
        return min(self.restart_delay_s * self.backoff ** attempt,
                   self.max_delay_s)


@dataclass(frozen=True)
class RunConfig:
    """A complete machine/run configuration for one section execution.

    The same object drives the discrete simulator
    (:func:`~repro.mpc.simulator.simulate_config`) and the live
    executor backends (:mod:`repro.exec`); backends ignore the fields
    they cannot honor (documented per backend).
    """

    n_procs: int = 1
    costs: CostModel = DEFAULT_COSTS
    overheads: OverheadModel = ZERO_OVERHEADS
    #: Bucket distribution; ``None`` means the paper's round robin.
    mapping: Optional[BucketMapping] = None
    #: When given, overrides *mapping* with a fresh mapping per cycle.
    mapping_factory: Optional[MappingFactory] = None
    #: Deterministic fault injection; ``None`` (or a null model) keeps
    #: the exact fault-free code path.
    faults: Optional[FaultModel] = None
    #: Reliable-delivery parameters; ignored unless *faults* is active.
    protocol: Optional[ProtocolModel] = None
    #: Optional timeline recorder (simulator backend only).
    recorder: Optional["TimelineRecorder"] = None
    #: Select the O(active-work) event loop and collapse runs of
    #: fully-idle cycles analytically (bit-identical results, run-length
    #: encoded; see :mod:`repro.mpc.simulator`).  Off by default so
    #: existing comparisons see byte-for-byte identical result shapes.
    #: Composes with fault injection: every fault draw is keyed to the
    #: absolute cycle index, so draws survive collapsed idle stretches,
    #: and idle cycles touched by a stall window or fail-stop are
    #: simulated exactly instead of collapsed.
    compress_rounds: bool = False
    #: Supervision policy for the live executor backends (liveness
    #: checks, per-cycle deadlines, checkpoint-replay restarts; see
    #: :mod:`repro.exec.supervise`).  Every live run is supervised;
    #: ``None`` means the default :class:`SupervisePolicy`.  The
    #: discrete simulator ignores it.
    supervise: Optional[SupervisePolicy] = None
    #: Record distributed spans on the live ``actors`` backend into
    #: per-actor flight recorders, merged into a
    #: :class:`~repro.obs.trace.LiveTimeline` on
    #: :attr:`~repro.exec.base.RunResult.live` (see
    #: :mod:`repro.obs.trace`).  Off by default; when off the untraced
    #: code paths run unchanged, so match signatures and every counter
    #: are bit-identical — pinned by the ``live_trace_invisible``
    #: oracle.  The discrete simulator and the served backend refuse
    #: it.
    live_trace: bool = False

    def __post_init__(self) -> None:
        if self.n_procs < 1:
            raise ValueError("need at least one match processor")
        if self.mapping is not None \
                and self.mapping.n_procs != self.n_procs:
            raise ValueError(
                f"mapping built for {self.mapping.n_procs} processors, "
                f"simulating {self.n_procs}")

    @property
    def faulty(self) -> bool:
        """Whether the run takes the fault/protocol code path."""
        return self.faults is not None and not self.faults.is_null

    def replace(self, **changes) -> "RunConfig":
        """A copy with *changes* applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_args(cls, args, *, n_procs: Optional[int] = None,
                  loss: Optional[float] = None,
                  recorder: Optional["TimelineRecorder"] = None
                  ) -> "RunConfig":
        """Build a config from CLI-style argparse flags.

        Reads ``overhead``, ``loss``, ``dup``, ``jitter``,
        ``fault_seed``, ``timeout``, ``retries`` and
        ``compress_rounds`` off *args* (each
        optional — missing attributes take the flag defaults), raising
        ``ValueError`` with the CLI's one-line messages on bad values.
        *n_procs* defaults to ``args.procs`` when that is a single
        integer; *loss* overrides ``args.loss`` (used by sweeps that
        build one config per loss rate).
        """
        overhead = getattr(args, "overhead", 0)
        overheads = OVERHEADS.get(overhead)
        if overheads is None:
            raise ValueError(
                f"--overhead must be one of {sorted(OVERHEADS)}")
        rate = getattr(args, "loss", 0.0) if loss is None else loss
        if not isinstance(rate, (int, float)):
            raise ValueError(
                f"--loss must be a single rate here, got {rate!r}")
        dup = getattr(args, "dup", 0.0)
        jitter = getattr(args, "jitter", 0.0)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"--loss must be in [0, 1], got {rate:g}")
        if not 0.0 <= dup <= 1.0:
            raise ValueError(f"--dup must be in [0, 1], got {dup:g}")
        if jitter < 0.0:
            raise ValueError(f"--jitter must be >= 0, got {jitter:g}")
        faults = FaultModel(seed=getattr(args, "fault_seed", 0),
                            loss_prob=rate, dup_prob=dup,
                            jitter_us=jitter)
        timeout = getattr(args, "timeout", 500.0)
        retries = getattr(args, "retries", 8)
        if timeout <= 0.0:
            raise ValueError(f"--timeout must be > 0, got {timeout:g}")
        if retries < 0:
            raise ValueError(f"--retries must be >= 0, got {retries}")
        if n_procs is None:
            procs = getattr(args, "procs", 1)
            n_procs = procs if isinstance(procs, int) else 1
        if n_procs < 1:
            raise ValueError(f"--procs must be >= 1, got {n_procs}")
        return cls(n_procs=n_procs, overheads=overheads,
                   faults=None if faults.is_null else faults,
                   protocol=ProtocolModel(timeout_us=timeout,
                                          max_retries=retries),
                   recorder=recorder,
                   compress_rounds=getattr(args, "compress_rounds",
                                           False),
                   live_trace=getattr(args, "trace_live", False))
