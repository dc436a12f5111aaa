"""Typed failures of the live executor stack, and the timeout knob.

The live backends (:mod:`repro.exec.actors`, :mod:`repro.exec.mp`,
:mod:`repro.exec.served`) promise a hard contract to their callers and
to the ``live_recovery`` oracle in :mod:`repro.check`: a run either
produces the simulator-identical result or raises one of the typed
errors below — it never wedges silently and never returns
silently-wrong counters.  Every error subclasses :class:`ExecutorError`
(itself a ``RuntimeError``, so pre-existing ``except RuntimeError``
call sites keep working) and carries enough context to act on.

Timeouts are configurable rather than hard-coded: every wedge deadline
in the stack resolves through :func:`exec_timeout_s`, which honors the
``REPRO_EXEC_TIMEOUT_S`` environment variable — tests exercise wedge
paths in milliseconds by setting it, production deployments raise it.
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment override for every live-executor deadline, in seconds.
ENV_TIMEOUT = "REPRO_EXEC_TIMEOUT_S"

#: Default per-cycle wedge deadline (seconds) when neither the
#: environment nor a :class:`~repro.mpc.config.SupervisePolicy` says
#: otherwise.  Generous on purpose: a run with the default policy
#: should only give up when something is genuinely stuck.
DEFAULT_TIMEOUT_S = 300.0


def exec_timeout_s(default: float = DEFAULT_TIMEOUT_S) -> float:
    """The live-executor deadline: ``$REPRO_EXEC_TIMEOUT_S`` or *default*.

    An unparsable or non-positive override is ignored (fail open to the
    default rather than wedging forever or spinning).
    """
    raw = os.environ.get(ENV_TIMEOUT)
    if raw:
        try:
            value = float(raw)
        except ValueError:
            return default
        if value > 0.0:
            return value
    return default


class ExecutorError(RuntimeError):
    """Base of every typed live-executor failure."""


class ExecutorWedged(ExecutorError):
    """No control-bound progress within the deadline.

    Raised when every worker still looks alive but the cycle's
    quiescence counters stopped advancing — a lost message, a stalled
    event loop, or a deadlocked worker.  ``cycle`` is the recognize-act
    cycle that stalled (``None`` when unknown).
    """

    def __init__(self, detail: str, *, cycle: Optional[int] = None,
                 waited_s: Optional[float] = None) -> None:
        super().__init__(detail)
        self.cycle = cycle
        self.waited_s = waited_s


class ExecutorCrashed(ExecutorError):
    """A partition worker died or reported an internal error.

    ``actor`` is the match-actor index when known; ``cycle`` the cycle
    in flight when the crash surfaced.
    """

    def __init__(self, detail: str, *, actor: Optional[int] = None,
                 cycle: Optional[int] = None) -> None:
        super().__init__(detail)
        self.actor = actor
        self.cycle = cycle


class ProtocolViolation(ExecutorError):
    """The cycle closed with counters that contradict its plan.

    Delivered instantiations or processed-counts disagreed with the
    :class:`~repro.exec.plan.CyclePlan` — a duplicated or misrouted
    message.  The supervisor treats this as a detected (never silent)
    divergence and replays the cycle from its checkpoint.
    """

    def __init__(self, detail: str, *, cycle: Optional[int] = None) -> None:
        super().__init__(detail)
        self.cycle = cycle


class RestartsExhausted(ExecutorError):
    """Supervision gave up: the same cycle failed on every attempt.

    ``last`` is the failure of the final attempt — always itself a
    typed :class:`ExecutorError`.
    """

    def __init__(self, detail: str, *, cycle: Optional[int] = None,
                 attempts: int = 0,
                 last: Optional[ExecutorError] = None) -> None:
        super().__init__(detail)
        self.cycle = cycle
        self.attempts = attempts
        self.last = last


class SessionOverloaded(ExecutorError):
    """The session server shed this request (load past the high-water
    mark, or a draining shutdown in progress).  ``code`` is the
    machine-readable reason used in TCP replies: ``"overloaded"`` or
    ``"draining"``."""

    def __init__(self, detail: str, *, code: str = "overloaded") -> None:
        super().__init__(detail)
        self.code = code
