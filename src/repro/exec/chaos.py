"""Deterministic chaos injection for the live executor backends.

Where :mod:`repro.mpc.faults` *prices* network and processor faults
inside the discrete simulator, this module *inflicts* them on the live
actor stack so the supervision layer (:mod:`repro.exec.supervise`) can
be tested against real failure modes: a partition worker killed at
cycle *k*, a token or instantiation message dropped, duplicated or
delayed in flight, an event loop stalled mid-cycle.

Determinism follows the same counter-based splitmix64 discipline as
:func:`repro.mpc.faults.counter_u01`: every draw hashes ``(seed,
stream, cycle, identity, generation)``, so a message's fate depends
only on what it is — never on scheduling order.  The *generation*
counter increments on every supervised restart, which is what makes
recovery possible: a replayed cycle rolls fresh draws, so a
probabilistic kill or drop does not recur deterministically on every
attempt.  Use :attr:`ChaosPolicy.kills` for a one-shot deterministic
kill (the cycle's first attempt only — the replay succeeds) and
:attr:`ChaosPolicy.persistent_kills` for a kill that survives every
restart (drives :class:`~repro.exec.errors.RestartsExhausted`).

Mirroring the simulator's fault model, chaos applies only to *data*
messages — cross-partition tokens and instantiation (fire) deliveries.
The cycle broadcast and the bookkeeping traffic stay reliable, so
every injected fault is *detectable* by counting: a drop starves
quiescence (wedge), a duplicate breaks the cycle's processed/fires
validation (protocol violation), and a duplicate that arrives after
its cycle closed fails on its cycle index (a token crashes the actor
it reaches, a report is a protocol violation).  Detected is the
point — the supervised contract is "bit-identical result or typed
error, never silently wrong".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..mpc.faults import counter_u01

#: Independent draw streams (disjoint from the simulator's fault
#: streams only by convention — the seeds live in different models).
_STREAM_KILL = 11
_STREAM_DROP = 12
_STREAM_DUP = 13
_STREAM_DELAY = 14
_STREAM_STALL = 15

#: Message-kind codes folded into data-message draw counters.
MSG_TOKEN = 0
MSG_FIRE = 1


@dataclass(frozen=True)
class ChaosPolicy:
    """A seeded, fully deterministic schedule of live-run faults.

    All probabilities are per-draw in ``[0, 1]``; a policy with every
    knob at zero (``is_null``) injects nothing.  Instances are plain
    frozen data and picklable, so the multiprocessing transport ships
    the policy to its worker processes.
    """

    seed: int = 0
    #: Probability a worker is killed at a cycle start, per
    #: ``(cycle, actor, attempt)``.
    kill_prob: float = 0.0
    #: Per-data-message probabilities and delay magnitude.
    drop_prob: float = 0.0
    dup_prob: float = 0.0
    delay_prob: float = 0.0
    delay_s: float = 0.01
    #: Probability an actor's event loop stalls for ``stall_s`` on
    #: receiving a cycle broadcast.
    stall_prob: float = 0.0
    stall_s: float = 0.05
    #: Deterministic one-shot kills: ``(cycle, actor)`` pairs applied
    #: on that cycle's first attempt only — the supervised replay then
    #: succeeds.
    kills: Tuple[Tuple[int, int], ...] = ()
    #: Kills applied on *every* attempt — the cycle can never complete
    #: and supervision must give up with ``RestartsExhausted``.
    persistent_kills: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for name in ("kill_prob", "drop_prob", "dup_prob", "delay_prob",
                     "stall_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], "
                                 f"got {value!r}")
        if self.delay_s < 0.0:
            raise ValueError("delay_s must be >= 0")
        if self.stall_s < 0.0:
            raise ValueError("stall_s must be >= 0")

    @property
    def is_null(self) -> bool:
        """Whether this policy can never inject anything."""
        return (self.kill_prob == 0.0 and self.drop_prob == 0.0
                and self.dup_prob == 0.0 and self.delay_prob == 0.0
                and self.stall_prob == 0.0 and not self.kills
                and not self.persistent_kills)

    # -- draws (all counter-based: order-independent) -----------------------

    def should_kill(self, cycle: int, actor: int,
                    attempt: int) -> bool:
        """Kill *actor* at the start of *cycle*'s replay *attempt*
        (0-based per cycle)?"""
        if (cycle, actor) in self.persistent_kills:
            return True
        if attempt == 0 and (cycle, actor) in self.kills:
            return True
        return (self.kill_prob > 0.0
                and counter_u01(self.seed, _STREAM_KILL, cycle, actor,
                                attempt) < self.kill_prob)

    def should_drop(self, cycle: int, kind: int, act_id: int,
                    generation: int) -> bool:
        """Drop this data message in flight?"""
        return (self.drop_prob > 0.0
                and counter_u01(self.seed, _STREAM_DROP, cycle, kind,
                                act_id, generation) < self.drop_prob)

    def should_duplicate(self, cycle: int, kind: int, act_id: int,
                         generation: int) -> bool:
        """Deliver this data message twice?"""
        return (self.dup_prob > 0.0
                and counter_u01(self.seed, _STREAM_DUP, cycle, kind,
                                act_id, generation) < self.dup_prob)

    def delay_for(self, cycle: int, kind: int, act_id: int,
                  generation: int) -> float:
        """Seconds to hold this data message (0.0 = deliver now)."""
        if self.delay_prob <= 0.0 or self.delay_s <= 0.0:
            return 0.0
        if counter_u01(self.seed, _STREAM_DELAY, cycle, kind, act_id,
                       generation) < self.delay_prob:
            return self.delay_s
        return 0.0

    def stall_for(self, cycle: int, actor: int,
                  generation: int) -> float:
        """Seconds *actor*'s event loop stalls on this cycle's
        broadcast (0.0 = no stall)."""
        if self.stall_prob <= 0.0 or self.stall_s <= 0.0:
            return 0.0
        if counter_u01(self.seed, _STREAM_STALL, cycle, actor,
                       generation) < self.stall_prob:
            return self.stall_s
        return 0.0


#: A null policy for call sites that want "no chaos" as a value.
NULL_CHAOS = ChaosPolicy()
