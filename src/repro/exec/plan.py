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
3. the control actor detects quiescence by counting (every actor has
   reported on the cycle, every reachable nonterminal is processed
   exactly once, every reachable terminal fires exactly once) and opens
   the next cycle: the next broadcast is the cycle's one barrier.

This module holds everything transport-independent: plan construction
(where each activation lives, priced with the same footnote-6
deletion-search surcharges as the simulator) and the pure per-actor
state machine (:class:`MatchActorCore`).  Transports only move the
emitted messages; because the cores never look at a clock or a
scheduler, the *counters* (activations per processor, message counts,
fires) are deterministic and equal to the discrete simulator's for any
interleaving — only wall time varies.  Bookkeeping traffic (the
``processed`` reports) is not counted in ``n_messages``: termination
detection is idealized and free, exactly as in the paper and the
simulator.

Messages (plain tuples, picklable for the multiprocessing transport):

==============================  ===========================  ==========
message                         direction                    counted?
==============================  ===========================  ==========
``("cycle", plan, c)``          control → every match actor  1 per cycle
``("token", act, c)``           match actor → match actor    yes
``("fire", act)``               match actor → control        yes
``("processed", k, i, c, s)``   match actor → control        no
``("shutdown",)``               control → every match actor  no
==============================  ===========================  ==========

*c* is the cycle index.  After every batch that processed *k*
activations or opened a cycle, actor *i* reports its counters *s* for
cycle *c* so far (:meth:`MatchActorCore.report`): asyncio actors
drain their whole :class:`~repro.exec.mailbox.Mailbox` per batch,
process actors handle one delivery.  A token that overtook its
cycle's broadcast is held until it arrives; a token or report of a
closed cycle fails the run.

When a run is live-traced (``RunConfig(live_trace=True)``, see
:mod:`repro.obs.trace`), every *data* message additionally carries a
span context ``(sender_id, send_perf_ts)`` appended as one trailing
element: the cycle broadcast becomes ``("cycle", plan, c, ctx)`` and
token/fire messages become ``("token", act, c, ctx)`` / ``("fire",
act, ctx)``.  Each actor also sends a ``("spans", ...)``
flight-recorder drain just *before* each ``processed`` report, so
FIFO ordering guarantees the coordinator holds a cycle's spans before
it closes the cycle.  None of this changes what is counted: contexts
ride on already-counted messages, ``spans`` is bookkeeping like
``processed``, and the cores ignore both (control loops intercept
``spans`` before :meth:`CycleAccumulator.note`).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

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
    #: reachable nonterminals this actor owns — what its last report
    #: of the cycle must carry.
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


def build_plans(trace: SectionTrace, config: RunConfig) -> List[CyclePlan]:
    """Partition *trace* into per-cycle, per-actor plans under *config*.

    Uses the same bucket-to-processor resolution as the simulator (the
    cycle's :meth:`~repro.trace.events.CycleKeyIndex.route`; optional
    per-cycle mapping factory) and the same footnote-6
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
        route = index.route(cycle_mapping)
        dest = route.dest
        base = index.base
        roots = [[] for _ in range(n_procs)]
        root_fires = [[] for _ in range(n_procs)]
        for r in index.roots:
            if r < 0:
                root_fires[route.procs[index.key_of[~r]]].append(base + ~r)
            else:
                roots[dest[r]].append(base + r)

        count, left_count = route.per_processor()
        act_sum, act_xor = [0] * n_procs, [0] * n_procs
        for pos in index.counted:
            p = dest[pos]
            act_id = base + pos
            act_sum[p] += act_id
            act_xor[p] ^= act_id

        table = CycleTable(base, index.tags, index.left, index.successors,
                           dest, searches.charge(cycle))
        plans.append(CyclePlan(
            index=cycle.index,
            per_actor=tuple([
                ActorCyclePlan(table, tuple(roots[p]),
                               tuple(root_fires[p]),
                               (count[p], left_count[p], act_sum[p],
                                act_xor[p]))
                for p in range(n_procs)]),
            expected_processed=len(index.counted),
            expected_fires=_fires(index)))
    return plans


def _fires(index: CycleKeyIndex) -> Tuple[int, ...]:
    """The act ids of the reachable terminals of *index*, ascending."""
    base = index.base
    return tuple([base + pos for pos in index.terminals])


def expected_fires(trace: SectionTrace) -> List[Tuple[int, ...]]:
    """Per-cycle canonical fire sets of *trace* (sorted act ids), the
    same under every mapping."""
    return [_fires(cycle.key_index()) for cycle in iter_cycles(trace)]


class CycleAccumulator:
    """Control-actor bookkeeping for one cycle, shared by transports.

    Tracks delivered instantiations, processed-counts and each actor's
    latest report until the cycle quiesces, then assembles a
    :class:`~repro.mpc.metrics.CycleResult` from the actors' final
    snapshots.  The counter fields are computed with the simulator's
    formulas (``n_messages`` = broadcast + cross-partition tokens +
    conflict-set deliveries; network busy = latency per counted
    message; control busy = the broadcast send plus one receive per
    instantiation), so a live run and a simulated run of the same cycle
    agree on every counter.  ``makespan_us`` is the *measured* wall
    time of the cycle — the one field where the live backends report
    reality instead of the model.
    """

    def __init__(self, plan: CyclePlan, config: RunConfig) -> None:
        self._plan = plan
        self._send_us = config.overheads.send_us
        self._recv_us = config.overheads.recv_us
        self._latency_us = config.overheads.latency_us
        self.fires: List[int] = []
        self.processed = 0
        #: Each actor's latest ``(busy, activations, left, token_sends,
        #: control_sends, sum, xor)``; ``None`` until it reports.
        self.snapshots: List[Optional[Tuple]] = [None] * len(plan.per_actor)
        self._silent = len(plan.per_actor)

    def note(self, message: Tuple) -> bool:
        """Feed one control-bound message; whether it was cycle
        accounting (``fire`` or ``processed``).  A report of a closed
        cycle raises :class:`~repro.exec.errors.ProtocolViolation`."""
        if message[0] == "fire":
            self.fires.append(message[1])
        elif message[0] == "processed":
            _, count, actor, cycle, snapshot = message
            if cycle != self._plan.index:
                raise ProtocolViolation(
                    f"cycle {self._plan.index}: actor {actor} reported "
                    f"{count} activation(s) of closed cycle {cycle}",
                    cycle=self._plan.index)
            self.processed += count
            if self.snapshots[actor] is None:
                self._silent -= 1
            self.snapshots[actor] = snapshot
        else:
            return False
        return True

    @property
    def done(self) -> bool:
        return (not self._silent
                and self.processed >= self._plan.expected_processed
                and len(self.fires) >= len(self._plan.expected_fires))

    def finish(self, wall_s: float):
        """Close the cycle: ``(CycleResult, sorted fire tuple)``.

        Validates the delivered fires and processed counts against the
        plan — globally *and* per actor, with an act-id checksum over
        each actor's final snapshot — and raises
        :class:`~repro.exec.errors.ProtocolViolation` on any mismatch,
        so a corrupted cycle is always detected rather than silently
        folded into the result.
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
        busy, acts, lefts, token_sends, control_sends, sums, xors = zip(
            *self.snapshots)
        for i, share in enumerate(plan.per_actor):
            expect = share.checksum
            if (acts[i], lefts[i], sums[i], xors[i]) != expect:
                raise ProtocolViolation(
                    f"cycle {plan.index}: actor {i} processed "
                    f"{acts[i]} activations (checksum {sums[i]}/{xors[i]}), "
                    f"plan expects {expect[0]} "
                    f"(checksum {expect[2]}/{expect[3]})",
                    cycle=plan.index)
        control_sends = sum(control_sends)
        n_messages = 1 + sum(token_sends) + control_sends
        return CycleResult(
            index=plan.index,
            makespan_us=wall_s * 1e6,
            proc_busy_us=list(busy),
            proc_activations=list(acts),
            proc_left_activations=list(lefts),
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

    Each cycle broadcast resets the counters and replaces the table.
    A peer's token can overtake this actor's own broadcast — on the
    multiprocessing transport the control actor and the peer are two
    producers writing one inbox queue — so a token of a later cycle is
    held and processed right after :meth:`on_cycle`.  Only the very next
    cycle can be early (no cycle closes before every actor has reported
    on it), so a held token that broadcast does not give this actor
    raises :class:`KeyError`; a token of a closed cycle raises
    :class:`~repro.exec.errors.ProtocolViolation`.
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
        #: The index of the cycle whose table the core holds; -1 before
        #: the first broadcast.
        self.cycle = -1
        self._table: Optional[CycleTable] = None
        #: ``(cycle, act_id)`` of tokens that overtook their broadcast
        self._early: List[Tuple[int, int]] = []
        self._reset_counters()

    def _reset_counters(self) -> None:
        self.busy_us = 0.0
        self.activations = 0
        self.left_activations = 0
        self.token_sends = 0
        self.control_sends = 0
        self.acts_sum = 0
        self.acts_xor = 0

    def on_cycle(self, message: Tuple):
        """Handle the broadcast ``("cycle", plan, c, ...)``: reset, then
        constant tests, owned roots and tokens held for cycle *c*."""
        plan = message[1]
        cycle = self.cycle = message[2]
        table = self._table = plan.table
        self._reset_counters()
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
        for token_cycle, act_id in early:
            pos = act_id - table.base
            if not (token_cycle == cycle and 0 <= pos < len(table.tags)
                    and table.tags[pos]
                    and table.dest[pos] == self.actor_id):
                raise KeyError(act_id)  # not this actor's, this cycle
            processed += self._process(act_id, True, out)
        return out, processed

    def on_token(self, message: Tuple):
        """Handle a cross-partition token ``("token", act, c, ...)``."""
        act_id, cycle = message[1], message[2]
        if cycle != self.cycle:
            if cycle < self.cycle:
                raise ProtocolViolation(
                    f"actor {self.actor_id}: token {act_id} of closed "
                    f"cycle {cycle} arrived in cycle {self.cycle}",
                    cycle=cycle)
            self._early.append((cycle, act_id))  # overtook the broadcast
            return [], 0
        out: List[Tuple[int, Tuple]] = []
        return out, self._process(act_id, True, out)

    def report(self, processed: int) -> Tuple:
        """The ``processed`` report of a batch that handled *processed*
        activations, carrying this cycle's counters so far.

        The trailing ``(acts_sum, acts_xor)`` pair is a checksum over
        the act ids this actor actually processed;
        :meth:`CycleAccumulator.finish` compares it against the plan,
        so a duplicated delivery cannot silently compensate for a
        dropped one (totals would match, the checksum cannot).
        """
        return ("processed", processed, self.actor_id, self.cycle,
                (self.busy_us, self.activations, self.left_activations,
                 self.token_sends, self.control_sends,
                 self.acts_sum, self.acts_xor))

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
                    out.append((dest_id, ("token", succ_id, self.cycle)))
            self.busy_us += busy
            busy = 0.0
            processed += 1
        self.activations += processed
        return processed
