"""The Section 3.2 message protocol as transport-agnostic state machines.

The live executors (:mod:`repro.exec.actors`, :mod:`repro.exec.mp`,
:mod:`repro.exec.served`) all speak the same per-cycle protocol the
paper's mapping describes and the discrete simulator prices:

1. the control actor *broadcasts* the cycle's wme changes — here, the
   cycle's compiled table (one :class:`CycleTable`, shared by every
   actor) with each match actor's root activations and checksum;
2. match actors evaluate constant tests, process the activations whose
   hash bucket they own, exchange cross-partition successor tokens as
   point-to-point messages, and ship instantiations (terminal
   activations) back to the control actor as *changes to the conflict
   set*;
3. the control actor detects quiescence by counting (every reachable
   nonterminal is processed exactly once, every reachable terminal
   fires exactly once) and closes the cycle with a *sync barrier*
   before opening the next — one barrier per recognize-act cycle.

This module holds everything transport-independent: plan construction
(where each activation lives, priced with the same footnote-6
deletion-search surcharges as the simulator) and the pure per-actor
state machine (:class:`MatchActorCore`).  Transports only move the
emitted messages; because the cores never look at a clock or a
scheduler, the *counters* (activations per processor, message counts,
fires) are deterministic and equal to the discrete simulator's for any
interleaving — only wall time varies.  Bookkeeping traffic (processed-counts, sync, stats) is
not counted in ``n_messages``: termination detection is idealized and
free, exactly as in the paper and the simulator.

Messages (plain tuples, picklable for the multiprocessing transport):

====================  =============================  ==============
message               direction                      counted?
====================  =============================  ==============
``("cycle", plan)``   control → every match actor    1 per cycle
``("token", act)``    match actor → match actor      yes
``("fire", act)``     match actor → control          yes
``("processed", k)``  match actor → control          no (bookkeeping)
``("sync",)``         control → every match actor    no (barrier)
``("stats", i, s)``   match actor → control          no (barrier)
``("shutdown",)``     control → every match actor    no
====================  =============================  ==============

``k`` in ``("processed", k)`` sums the activations of every delivery an
actor handled since its last report: asyncio actors drain their whole
:class:`~repro.exec.mailbox.Mailbox` per wakeup and report once per
drained batch, process actors once per delivery.  Either way an actor
reports its pending count before it answers ``sync`` with ``stats``.

When a run is live-traced (``RunConfig(live_trace=True)``, see
:mod:`repro.obs.trace`), every *data* message additionally carries a
span context ``(sender_id, send_perf_ts)`` appended as one trailing
element: the cycle broadcast becomes ``("cycle", plan, index, ctx)``
and token/fire messages become ``("token", act, ctx)`` / ``("fire",
act, ctx)``.  One extra message flows per actor per barrier: a
``("spans", ...)`` flight-recorder drain, sent *before* the ``stats``
reply so FIFO ordering guarantees the coordinator holds a cycle's
spans before it closes the cycle.  None of this changes what is
counted: contexts ride on already-counted messages, ``spans`` is
bookkeeping like ``stats``, and the cores never see either
(:meth:`CycleAccumulator.note` tolerates the trailing context on
``fire``; control loops intercept ``spans`` before calling it).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..mpc.config import RunConfig
from ..mpc.mapping import RoundRobinMapping
from ..mpc.metrics import CycleResult
from ..mpc.simulator import _SearchCostTracker
from ..obs.spans import CONTROL  # the control actor's id in (dst, msg)
from ..trace.events import CycleKeyIndex, SectionTrace, iter_cycles
from .errors import ProtocolViolation


class CycleTable(NamedTuple):
    """One cycle's compiled table, read whole by every match actor as
    every processor of Section 3.2 holds the whole network.  Positions
    are ``act_id - base``; *tags*, *left* and *successors* are the
    cycle's :class:`~repro.trace.events.CycleKeyIndex` fields."""

    base: int
    tags: bytes
    left: bytes
    successors: List[Tuple[int, ...]]
    #: Each position's actor under the cycle's mapping; :data:`CONTROL`
    #: for a terminal, whose instantiation goes to the control actor.
    dest: List[int]
    #: Footnote-6 deletion-search surcharges, ``{act_id: extra_us}``.
    extra: Dict[int, float]


class ActorCyclePlan(NamedTuple):
    """One match actor's share of a cycle broadcast."""

    #: The cycle's table, the same object in every actor's share.
    table: CycleTable
    #: Root activations owned by this actor, in causal order.
    roots: Tuple[int, ...]
    #: Root *terminal* activations owned by this actor — single-CE
    #: instantiations it ships straight to control.
    root_fires: Tuple[int, ...]
    #: ``(count, left count, sum, xor)`` over the act ids of the
    #: reachable nonterminals this actor owns — what its barrier stats
    #: must report.
    checksum: Tuple[int, int, int, int]


class CyclePlan(NamedTuple):
    """A full cycle: every actor's share plus the control's expectations."""

    index: int
    per_actor: Tuple[ActorCyclePlan, ...]
    #: Total reachable nonterminal activations (the processed-count
    #: target for termination detection).
    expected_processed: int
    #: Every terminal activation that will be delivered to control,
    #: sorted — the cycle's canonical fire set.
    expected_fires: Tuple[int, ...]


def _reached(index: CycleKeyIndex, positions: Sequence[int]
             ) -> Sequence[int]:
    """*positions* less the subtrees of orphans (activations whose parent
    is outside the cycle; a validated trace has none): what the
    simulator delivers."""
    cut = set()
    stack = list(index.orphans)
    while stack:
        pos = stack.pop()
        if pos not in cut:
            cut.add(pos)
            stack += [s - index.base for s in index.successors[pos]]
    return [pos for pos in positions if pos not in cut] if cut else positions


def build_plans(trace: SectionTrace, config: RunConfig) -> List[CyclePlan]:
    """Partition *trace* into per-cycle, per-actor plans under *config*.

    Uses the same bucket-to-processor resolution as the simulator (the
    cycle's cached :meth:`~repro.trace.events.CycleTrace.key_index`,
    optional per-cycle mapping factory) and the same footnote-6
    deletion-search surcharges, so an actor run prices activations
    identically to a simulated one.  Surcharges are charged as the
    build reaches each cycle, so a streaming trace is built once.
    """
    n_procs = config.n_procs
    mapping = config.mapping or RoundRobinMapping(n_procs)
    searches = _SearchCostTracker(config.costs.delete_search_us)
    plans: List[CyclePlan] = []
    for cycle in iter_cycles(trace):
        cycle_mapping = (config.mapping_factory(cycle)
                         if config.mapping_factory else mapping)
        if cycle_mapping.n_procs != n_procs:
            raise ValueError("mapping_factory produced a mapping for "
                             f"{cycle_mapping.n_procs} processors")
        index = cycle.key_index()
        dest = index.destinations(cycle_mapping)
        base = index.base
        left = index.left
        roots = [[] for _ in range(n_procs)]
        root_fires = [[] for _ in range(n_procs)]
        for r in index.roots:
            if r < 0:
                root_fires[dest[~r]].append(base + ~r)
            else:
                roots[dest[r]].append(base + r)
        for pos in index.terminals:
            dest[pos] = CONTROL

        counted = _reached(index, index.counted)
        count, left_count, act_sum, act_xor = (
            [0] * n_procs for _ in range(4))
        for pos in counted:
            p = dest[pos]
            act_id = base + pos
            count[p] += 1
            left_count[p] += left[pos]
            act_sum[p] += act_id
            act_xor[p] ^= act_id

        table = CycleTable(base, index.tags, left, index.successors, dest,
                           searches.charge(cycle))
        plans.append(CyclePlan(
            index=cycle.index,
            per_actor=tuple(
                ActorCyclePlan(table, tuple(roots[p]),
                               tuple(root_fires[p]),
                               (count[p], left_count[p], act_sum[p],
                                act_xor[p]))
                for p in range(n_procs)),
            expected_processed=len(counted),
            expected_fires=_fires(index)))
    return plans


def _fires(index: CycleKeyIndex) -> Tuple[int, ...]:
    """The act ids of the reachable terminals of *index*, ascending."""
    base = index.base
    return tuple(base + pos for pos in _reached(index, index.terminals))


def expected_fires(trace: SectionTrace) -> List[Tuple[int, ...]]:
    """Per-cycle canonical fire sets of *trace* (sorted act ids), the
    same under every mapping."""
    return [_fires(cycle.key_index()) for cycle in iter_cycles(trace)]


class CycleAccumulator:
    """Control-actor bookkeeping for one cycle, shared by transports.

    Tracks delivered instantiations and processed-counts until the
    cycle quiesces, then assembles a
    :class:`~repro.mpc.metrics.CycleResult` from the barrier stats.
    The counter fields are computed with the simulator's formulas
    (``n_messages`` = broadcast + cross-partition tokens + conflict-set
    deliveries; network busy = latency per counted message; control
    busy = the broadcast send plus one receive per instantiation), so a
    live run and a simulated run of the same cycle agree on every
    counter.  ``makespan_us`` is the *measured* wall time of the cycle
    — the one field where the live backends report reality instead of
    the model.
    """

    def __init__(self, plan: CyclePlan, config: RunConfig) -> None:
        self._plan = plan
        self._send_us = config.overheads.send_us
        self._recv_us = config.overheads.recv_us
        self._latency_us = config.overheads.latency_us
        self.fires: List[int] = []
        self.processed = 0

    def note(self, message: Tuple) -> bool:
        """Feed one control-bound message; whether it was cycle
        accounting (``fire`` or ``processed``)."""
        if message[0] == "fire":
            self.fires.append(message[1])
        elif message[0] == "processed":
            self.processed += message[1]
        else:
            return False
        return True

    @property
    def done(self) -> bool:
        return (self.processed >= self._plan.expected_processed
                and len(self.fires) >= len(self._plan.expected_fires))

    def finish(self,
               stats: List[Tuple[float, int, int, int, int, int, int]],
               wall_s: float):
        """Close the cycle: ``(CycleResult, sorted fire tuple)``.

        Validates the delivered fires and processed counts against the
        plan — globally *and* per actor, with an act-id checksum — and
        raises :class:`~repro.exec.errors.ProtocolViolation` on any
        mismatch, so a corrupted cycle is always detected rather than
        silently folded into the result.
        """
        plan = self._plan
        fired = tuple(sorted(self.fires))
        if fired != plan.expected_fires:
            raise ProtocolViolation(
                f"cycle {plan.index}: delivered instantiations "
                f"{fired} != expected {plan.expected_fires}",
                cycle=plan.index)
        if self.processed != plan.expected_processed:
            raise ProtocolViolation(
                f"cycle {plan.index}: processed {self.processed} "
                f"activations, expected {plan.expected_processed}",
                cycle=plan.index)
        for i, s in enumerate(stats):
            expect = plan.per_actor[i].checksum
            if (s[1], s[2], s[5], s[6]) != expect:
                raise ProtocolViolation(
                    f"cycle {plan.index}: actor {i} processed "
                    f"{s[1]} activations (checksum {s[5]}/{s[6]}), "
                    f"plan expects {expect[0]} "
                    f"(checksum {expect[2]}/{expect[3]})",
                    cycle=plan.index)
        token_sends = sum(s[3] for s in stats)
        control_sends = sum(s[4] for s in stats)
        n_messages = 1 + token_sends + control_sends
        return CycleResult(
            index=plan.index,
            makespan_us=wall_s * 1e6,
            proc_busy_us=[s[0] for s in stats],
            proc_activations=[s[1] for s in stats],
            proc_left_activations=[s[2] for s in stats],
            n_messages=n_messages,
            network_busy_us=self._latency_us * n_messages,
            control_busy_us=self._send_us
            + self._recv_us * control_sends), fired


class MatchActorCore:
    """Pure state machine of one match actor (one bucket partition).

    Consumes protocol messages, returns ``(outbox, processed)`` where
    *outbox* is a list of ``(dst, message)`` pairs (``dst`` is an actor
    index or :data:`CONTROL`) and *processed* is the number of
    nonterminal activations handled.  Busy time is charged with the
    simulator's per-activation arithmetic (receive overhead for tokens
    that arrived as messages, token add/delete cost, deletion-search
    surcharge, per-successor cost, send overhead per emitted message),
    so at any overhead setting the accumulated ``busy_us`` equals the
    simulator's ``proc_busy_us`` for the same partition.

    A peer's token can overtake this actor's own cycle broadcast — on
    the multiprocessing transport the control actor and the peer are
    two producers writing one inbox queue — so a token that arrives
    while the core holds no cycle table is held and processed right
    after :meth:`on_cycle`.  Tokens never cross a barrier (every token
    of a cycle is processed before its ``sync`` is sent), so a held
    token always belongs to the next plan; one that plan does not give
    this actor raises :class:`KeyError`.
    """

    def __init__(self, actor_id: int, config: RunConfig) -> None:
        self.actor_id = actor_id
        costs = config.costs
        self._constant_tests_us = costs.constant_tests_us
        self._left_us = costs.left_token_us
        self._right_us = costs.right_token_us
        self._successor_us = costs.successor_us
        self._send_us = config.overheads.send_us
        self._recv_us = config.overheads.recv_us
        #: the current cycle's table; None between a sync and the next
        #: cycle broadcast
        self._table: Optional[CycleTable] = None
        #: tokens that arrived before this cycle's plan
        self._early: List[int] = []
        self._reset_counters()

    def _reset_counters(self) -> None:
        self.busy_us = 0.0
        self.activations = 0
        self.left_activations = 0
        self.token_sends = 0
        self.control_sends = 0
        self.acts_sum = 0
        self.acts_xor = 0

    def on_cycle(self, plan: ActorCyclePlan):
        """Handle the cycle broadcast: constant tests, owned roots."""
        table = self._table = plan.table
        self.busy_us += self._recv_us + self._constant_tests_us
        out: List[Tuple[int, Tuple]] = []
        for act_id in plan.root_fires:
            self.busy_us += self._send_us
            self.control_sends += 1
            out.append((CONTROL, ("fire", act_id)))
        processed = 0
        for act_id in plan.roots:
            processed += self._process(act_id, False, out)
        early, self._early = self._early, []
        for act_id in early:
            pos = act_id - table.base
            if not (0 <= pos < len(table.tags) and table.tags[pos]
                    and table.dest[pos] == self.actor_id):
                raise KeyError(act_id)  # not this actor's, this cycle
            processed += self._process(act_id, True, out)
        return out, processed

    def on_token(self, act_id: int):
        """Handle a cross-partition successor token message."""
        if self._table is None:
            self._early.append(act_id)  # overtook the cycle broadcast
            return [], 0
        out: List[Tuple[int, Tuple]] = []
        return out, self._process(act_id, True, out)

    def on_sync(self) -> Tuple[float, int, int, int, int, int, int]:
        """Barrier: report and reset this cycle's counters.

        The trailing ``(acts_sum, acts_xor)`` pair is a checksum over
        the act ids this actor actually processed;
        :meth:`CycleAccumulator.finish` compares it against the plan,
        so a duplicated delivery cannot silently compensate for a
        dropped one (totals would match, the checksum cannot).
        """
        stats = (self.busy_us, self.activations, self.left_activations,
                 self.token_sends, self.control_sends,
                 self.acts_sum, self.acts_xor)
        self._table = None
        self._reset_counters()
        return stats

    def _process(self, act_id: int, via_message: bool,
                 out: List[Tuple[int, Tuple]]) -> int:
        """Process *act_id* and, iteratively, its local successors (1.2
        activations per call on average: nothing more is hoisted)."""
        base, _, left, successors, dest, extra = self._table
        actor_id = self.actor_id
        processed = 0
        pending = [act_id]
        busy = self._recv_us if via_message else 0.0
        while pending:
            current = pending.pop()
            pos = current - base
            if left[pos]:
                self.left_activations += 1
                cost = self._left_us
            else:
                cost = self._right_us
            busy += cost + extra[current] if current in extra else cost
            self.acts_sum += current
            self.acts_xor ^= current
            for succ_id in successors[pos]:
                busy += self._successor_us
                dest_id = dest[succ_id - base]
                if dest_id == actor_id:
                    pending.append(succ_id)
                    continue
                busy += self._send_us
                if dest_id == CONTROL:
                    self.control_sends += 1
                    out.append((CONTROL, ("fire", succ_id)))
                else:
                    self.token_sends += 1
                    out.append((dest_id, ("token", succ_id)))
            self.busy_us += busy
            busy = 0.0
            processed += 1
        self.activations += processed
        return processed
