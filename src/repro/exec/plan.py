"""The Section 3.2 message protocol as transport-agnostic state machines.

The live executors (:mod:`repro.exec.actors`, :mod:`repro.exec.mp`,
:mod:`repro.exec.served`) all speak the same per-cycle protocol the
paper's mapping describes and the discrete simulator prices:

1. the control actor *broadcasts* the cycle's wme changes — here, each
   match actor's share of the cycle plan (its bucket partition's root
   activations and activation specs);
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
(which activations live where, priced with the same
:func:`~repro.mpc.simulator.compute_search_costs` surcharges as the
simulator) and the pure per-actor state machine
(:class:`MatchActorCore`).  Transports only move the emitted messages;
because the cores never look at a clock or a scheduler, the *counters*
(activations per processor, message counts, fires) are deterministic
and equal to the discrete simulator's for any interleaving — only wall
time varies.  Bookkeeping traffic (processed-counts, sync, stats) is
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

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..mpc.config import RunConfig
from ..mpc.mapping import RoundRobinMapping
from ..mpc.metrics import CycleResult
from ..mpc.simulator import compute_search_costs
from ..trace.events import TAG_TERMINAL, SectionTrace
from .errors import ProtocolViolation

#: Destination id of the control actor in emitted ``(dst, msg)`` pairs.
CONTROL = -1

#: Activation spec inside an actor's plan:
#: ``(is_left, extra_us, ((succ_id, dest, is_terminal), ...))``.
ActSpec = Tuple[bool, float, Tuple[Tuple[int, int, bool], ...]]


@dataclass(frozen=True)
class ActorCyclePlan:
    """One match actor's share of a cycle broadcast."""

    #: Specs of the nonterminal activations this actor will process.
    acts: Dict[int, ActSpec]
    #: Root activations owned by this actor, in causal order.
    roots: Tuple[int, ...]
    #: Root *terminal* activations owned by this actor — single-CE
    #: instantiations it ships straight to control.
    root_fires: Tuple[int, ...]
    #: ``(count, left count, sum, xor)`` over the act ids in *acts* —
    #: what this actor's barrier stats must report, accumulated once by
    #: :func:`build_plans` so no cycle close re-walks *acts*.
    checksum: Tuple[int, int, int, int]


@dataclass(frozen=True)
class CyclePlan:
    """A full cycle: every actor's share plus the control's expectations."""

    index: int
    per_actor: Tuple[ActorCyclePlan, ...]
    #: Total reachable nonterminal activations (the processed-count
    #: target for termination detection).
    expected_processed: int
    #: Every terminal activation that will be delivered to control,
    #: sorted — the cycle's canonical fire set.
    expected_fires: Tuple[int, ...]


def build_plans(trace: SectionTrace, config: RunConfig) -> List[CyclePlan]:
    """Partition *trace* into per-cycle, per-actor plans under *config*.

    Uses the same bucket-to-processor resolution as the simulator (the
    cycle's cached :meth:`~repro.trace.events.CycleTrace.key_index`,
    optional per-cycle mapping factory) and the same footnote-6
    deletion-search surcharges, so an actor run prices activations
    identically to a simulated one.
    """
    n_procs = config.n_procs
    mapping = config.mapping or RoundRobinMapping(n_procs)
    search_costs = compute_search_costs(trace, config.costs)
    plans: List[CyclePlan] = []
    for cycle in trace:
        cycle_mapping = (config.mapping_factory(cycle)
                         if config.mapping_factory else mapping)
        if cycle_mapping.n_procs != n_procs:
            raise ValueError("mapping_factory produced a mapping for "
                             f"{cycle_mapping.n_procs} processors")
        index = cycle.key_index()
        dest_of = index.destinations(cycle_mapping)
        base = index.base
        tags = index.tags
        left_of = index.left
        successors_of = index.successors

        get_extra = search_costs.get(cycle.index, {}).get
        per_actor_acts: List[Dict[int, ActSpec]] = \
            [{} for _ in range(n_procs)]
        per_actor_roots: List[List[int]] = [[] for _ in range(n_procs)]
        per_actor_fires: List[List[int]] = [[] for _ in range(n_procs)]
        left = [0] * n_procs
        act_sum = [0] * n_procs
        act_xor = [0] * n_procs
        fires: List[int] = []
        processed = 0

        # Walk exactly the activations the simulator delivers: roots,
        # then successors of processed nonterminals (successors of
        # terminals are never generated).  The walk reads the cycle's
        # compiled table, never its activation objects.
        frontier: List[int] = []
        for r in index.roots:
            if r < 0:
                act_id = base + ~r
                per_actor_fires[dest_of[~r]].append(act_id)
                fires.append(act_id)
            else:
                act_id = base + r
                per_actor_roots[dest_of[r]].append(act_id)
                frontier.append(act_id)
        while frontier:
            act_id = frontier.pop()
            pos = act_id - base
            owner = dest_of[pos]
            successors = []
            for succ_id in successors_of[pos]:
                succ = succ_id - base
                if tags[succ] >= TAG_TERMINAL:
                    successors.append((succ_id, CONTROL, True))
                    fires.append(succ_id)
                else:
                    successors.append((succ_id, dest_of[succ], False))
                    frontier.append(succ_id)
            is_left = left_of[pos] == 1
            per_actor_acts[owner][act_id] = (
                is_left, get_extra(act_id, 0.0), tuple(successors))
            if is_left:
                left[owner] += 1
            act_sum[owner] += act_id
            act_xor[owner] ^= act_id
            processed += 1

        plans.append(CyclePlan(
            index=cycle.index,
            per_actor=tuple(
                ActorCyclePlan(acts=per_actor_acts[p],
                               roots=tuple(per_actor_roots[p]),
                               root_fires=tuple(per_actor_fires[p]),
                               checksum=(len(per_actor_acts[p]), left[p],
                                         act_sum[p], act_xor[p]))
                for p in range(n_procs)),
            expected_processed=processed,
            expected_fires=tuple(sorted(fires))))
    return plans


def expected_fires(trace: SectionTrace,
                   config: RunConfig) -> List[Tuple[int, ...]]:
    """Per-cycle canonical fire sets of *trace* (sorted act ids)."""
    return [plan.expected_fires for plan in build_plans(trace, config)]


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
    two producers writing one inbox queue — so a token for an act not
    yet in the plan is held and processed right after :meth:`on_cycle`.
    Tokens never cross a barrier (every token of a cycle is processed
    before its ``sync`` is sent), so a held token always belongs to the
    next plan.
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
        self._acts: Dict[int, ActSpec] = {}
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
        self._acts = plan.acts
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
            processed += self._process(act_id, True, out)
        return out, processed

    def on_token(self, act_id: int):
        """Handle a cross-partition successor token message."""
        out: List[Tuple[int, Tuple]] = []
        if act_id not in self._acts:
            self._early.append(act_id)  # overtook the cycle broadcast
            return out, 0
        processed = self._process(act_id, True, out)
        return out, processed

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
        self._acts = {}
        self._reset_counters()
        return stats

    def _process(self, act_id: int, via_message: bool,
                 out: List[Tuple[int, Tuple]]) -> int:
        """Process *act_id* and, iteratively, its local successors."""
        processed = 0
        pending = [act_id]
        first_via_message = via_message
        while pending:
            current = pending.pop()
            is_left, extra_us, successors = self._acts[current]
            busy = self._recv_us if first_via_message else 0.0
            first_via_message = False
            busy += (self._left_us if is_left else self._right_us) \
                + extra_us
            self.activations += 1
            self.acts_sum += current
            self.acts_xor ^= current
            if is_left:
                self.left_activations += 1
            for succ_id, dest, is_terminal in successors:
                busy += self._successor_us
                if is_terminal:
                    busy += self._send_us
                    self.control_sends += 1
                    out.append((CONTROL, ("fire", succ_id)))
                elif dest == self.actor_id:
                    pending.append(succ_id)
                else:
                    busy += self._send_us
                    self.token_sends += 1
                    out.append((dest, ("token", succ_id)))
            self.busy_us += busy
            processed += 1
        return processed
