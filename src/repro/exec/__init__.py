"""Pluggable executor backends behind one ``run()`` API.

The paper's experiments run the Section 3.2 match protocol three ways
in this codebase, all behind the same :class:`~repro.exec.base.Executor`
protocol:

>>> from repro.exec import run
>>> from repro.mpc import RunConfig
>>> outcome = run(trace, RunConfig(n_procs=8), backend="actors")
>>> outcome.result.n_messages == run(trace, RunConfig(n_procs=8)).result.n_messages
True

See :mod:`repro.exec.base` for the protocol, and the backend modules
(:mod:`repro.exec.sim`, :mod:`repro.exec.actors`,
:mod:`repro.exec.served`) for what each one executes.
"""

from __future__ import annotations

from typing import Optional

from ..mpc.config import RunConfig, SupervisePolicy
from ..trace.events import SectionTrace
from .actors import ActorExecutor, run_section_async
from .base import (Executor, RunHandle, RunResult, match_signature)
from .chaos import NULL_CHAOS, ChaosPolicy
from .errors import (ENV_TIMEOUT, ExecutorCrashed, ExecutorError,
                     ExecutorWedged, ProtocolViolation,
                     RestartsExhausted, SessionOverloaded,
                     exec_timeout_s)
from .loadtest import arrival_offsets, run_loadtest
from .plan import (CONTROL, ActorCyclePlan, CyclePlan, CycleTable,
                   MatchActorCore, build_plans, expected_fires)
from .served import SessionServer, ServedExecutor
from .sim import SimExecutor

#: Backend registry: name -> executor class.  ``get_executor`` builds a
#: fresh instance per call; backend-specific options (``transport`` for
#: actors, ``max_sessions`` for served) pass through as keywords.
BACKENDS = {
    SimExecutor.name: SimExecutor,
    ActorExecutor.name: ActorExecutor,
    ServedExecutor.name: ServedExecutor,
}


def get_executor(backend: str = "sim", **options) -> Executor:
    """Instantiate a backend by registry name."""
    cls = BACKENDS.get(backend)
    if cls is None:
        raise ValueError(f"unknown backend {backend!r}; "
                         f"choose from {sorted(BACKENDS)}")
    return cls(**options)


def run(trace: SectionTrace, config: Optional[RunConfig] = None,
        backend: str = "sim", **options) -> RunResult:
    """Run *trace* under *config* on a backend, synchronously.

    The one front door: ``submit`` + ``result`` on a fresh executor.
    ``options`` go to the backend constructor (for example
    ``transport="process"`` with ``backend="actors"``).
    """
    executor = get_executor(backend, **options)
    try:
        return executor.submit(trace, config or RunConfig()).result()
    finally:
        close = getattr(executor, "close", None)
        if close is not None:
            close()


__all__ = [
    "ActorExecutor",
    "ActorCyclePlan",
    "BACKENDS",
    "CONTROL",
    "ChaosPolicy",
    "CyclePlan",
    "CycleTable",
    "ENV_TIMEOUT",
    "Executor",
    "ExecutorCrashed",
    "ExecutorError",
    "ExecutorWedged",
    "MatchActorCore",
    "NULL_CHAOS",
    "ProtocolViolation",
    "RestartsExhausted",
    "RunConfig",
    "RunHandle",
    "RunResult",
    "ServedExecutor",
    "SessionOverloaded",
    "SessionServer",
    "SimExecutor",
    "SupervisePolicy",
    "arrival_offsets",
    "build_plans",
    "exec_timeout_s",
    "expected_fires",
    "get_executor",
    "match_signature",
    "run",
    "run_loadtest",
    "run_section_async",
]
