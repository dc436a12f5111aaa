"""The oracle matrix: every equivalence pair the codebase claims.

Each oracle takes one generated case and checks a pair of execution
paths that are documented to produce *identical* results.  The pairs:

``opt_vs_reference``
    The optimized event loop (:func:`repro.mpc.simulate`) against the
    preserved original loop (:mod:`repro.mpc._reference`), field for
    field on every cycle.
``compressed_vs_exact``
    ``RunConfig(compress_rounds=True)`` — the O(active-work) loop with
    analytic idle-round compression — expanded back to per-cycle form
    against the reference loop: every counter bitwise identical, every
    makespan bit-identical (far inside the documented 1e-12 budget).
``compressed_vs_exact_faults``
    The compressed loop with a per-case drawn :class:`FaultModel`
    (loss, duplicates, jitter, stall windows, fail-stops) against the
    exact faulty loop: fault draws are keyed to absolute cycle
    indices, so idle-round compression may not move a single fault.
``faults_vs_reference``
    The fault/protocol loop on the compiled cycle table against the
    preserved object-based fault loop
    (:func:`repro.mpc._reference.simulate_cycle_with_faults_reference`)
    under a per-case drawn :class:`FaultModel` (loss, duplicates,
    jitter, stall windows — one on a processor outside the machine —
    and fail-stops), :class:`~repro.mpc.ProtocolModel`, mapping and
    deletion-search cost: every field of every cycle bitwise identical.
``fault_null_dispatch``
    ``RunConfig(faults=<null FaultModel>)`` must dispatch onto the exact
    fault-free path: bit-identical results, fault counters included.
``protocol_zero_fault``
    The raw fault/protocol loop run with a null fault model prices acks
    (they are part of the reliable-delivery protocol, not of a fault),
    so at :data:`~repro.mpc.ZERO_OVERHEADS` — where acks are free — its
    timing fields must equal the fault-free loop's exactly.  Message
    and ack counters are excluded by design.
``recorder_invisible``
    Passing a :class:`~repro.mpc.timeline.TimelineRecorder` must not
    change any result field (a recorded run goes through the
    instrumented loop, an unrecorded fault-free one through the
    hook-free loop).
``actors_vs_sim``
    The live actor backend (:mod:`repro.exec.actors`) against the
    discrete simulator: identical match signatures — per-processor
    activation counts, message counts, conflict-set deliveries — for
    the same ``(trace, config)``.  Timing fields are wall time on the
    live run and model time on the simulated one, so they are reported
    but never compared.  Declares ``every=5`` (an event loop per case
    is not free).
``live_trace_invisible``
    ``RunConfig(live_trace=True)`` — flight recorders on every actor,
    span contexts on every data message — must be bit-invisible to
    the actors backend: identical match signature and identical
    per-cycle counters (wall-measured makespans excluded), and the
    merged timeline must reconcile exactly against the run's own
    counters.  Declares ``every=5``.
``live_recovery``
    Supervised actors under a per-case drawn
    :class:`~repro.exec.chaos.ChaosPolicy` (kills, message drops,
    duplicates, delays, stalls): the run must either recover to a
    match signature bit-identical to the simulator's or raise a typed
    :class:`~repro.exec.errors.ExecutorError` — never wedge, never
    return silently-wrong counters.  The zero-chaos run must equal
    the simulator's.  Declares ``every=10``.
``format_round_trip``
    A trace written with :func:`~repro.trace.format.save_trace` to a
    file and read back with :func:`~repro.trace.format.read_trace`
    serializes identically to the original.
``rete_vs_naive``
    Incremental Rete match against the from-scratch naive matcher:
    identical conflict sets after every working-memory change.
``rete_fast_vs_reference``
    The flattened match kernel (:mod:`repro.rete.kernel`) against the
    preserved object-dispatch engine
    (:class:`~repro.rete._reference.ReferenceReteNetwork`): identical
    conflict sets after every change (observed and unobserved), a
    bit-identical activation-event stream on the traced path, and
    equal memory totals at the end.  Together with
    ``rete_vs_naive`` this pins naive → reference Rete → fast Rete.

Each oracle returns ``None`` on success or a one-line failure detail.
All the per-oracle parameter draws (processor counts, overhead rows)
come from a CRC-keyed per-case stream, so a failure reproduces from
``(seed, index)`` alone.
"""

from __future__ import annotations

import dataclasses
import random
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from ..mpc import (DEFAULT_COSTS, TABLE_5_1, ZERO_OVERHEADS, CostModel,
                   FaultModel, ProtocolModel, RunConfig, SimResult,
                   SupervisePolicy, simulate, simulate_config)
from ..mpc._reference import (simulate_reference,
                              simulate_with_faults_reference)
from ..mpc.faults import (DEFAULT_PROTOCOL, FailStop, StallWindow,
                          simulate_cycle_with_faults)
from ..mpc.mapping import RandomMapping, RoundRobinMapping
from ..mpc.simulator import compute_search_costs
from ..mpc.timeline import TimelineRecorder
from ..obs import get_registry
from ..ops5 import NaiveMatcher, parse_production
from ..ops5.wme import WME
from ..rete import ReteNetwork
from ..rete._reference import ReferenceReteNetwork
from ..trace.events import SectionTrace
from ..trace.format import dumps_trace, read_trace, save_trace
from .generate import CheckCase, ProgramCase, TraceCase

#: Timing fields compared by ``protocol_zero_fault`` (counter fields —
#: n_messages, acks — legitimately differ: the protocol loop counts its
#: ack traffic even when acks cost nothing).
_TIMING_FIELDS = ("index", "makespan_us", "proc_busy_us",
                  "proc_activations", "proc_left_activations",
                  "control_busy_us", "network_busy_us")

_PROC_CHOICES = (1, 2, 3, 4, 8, 16, 32)


@dataclass(frozen=True)
class Oracle:
    """One equivalence pair: a named check over one case kind."""

    name: str
    kind: str  # "trace" or "program"
    fn: Callable[[CheckCase], Optional[str]]
    #: Run on every n-th eligible case (1 = always); lets expensive
    #: oracles (live event loops) stay in the matrix without dominating
    #: it.
    every: int = 1


def _draws(case: CheckCase, oracle: str) -> random.Random:
    # CRC rather than hash(): the builtin is salted per process and
    # would make the parameter draws unreproducible.
    key = (case.seed << 24) ^ (case.index << 4) ^ zlib.crc32(
        oracle.encode())
    return random.Random(key)


def _pick_config(case: CheckCase, oracle: str):
    rng = _draws(case, oracle)
    n_procs = rng.choice(_PROC_CHOICES)
    overheads = rng.choice((ZERO_OVERHEADS,) + TABLE_5_1)
    return n_procs, overheads


def _diff_results(a, b, fields: Optional[Tuple[str, ...]] = None
                  ) -> Optional[str]:
    """First differing cycle/field between two SimResults, or None.

    A scalar field also differs when its type does (``0`` vs ``0.0``):
    ``repr``-based digests and ``--json`` payloads tell them apart.
    ``proc_*`` arrays compare by value, since a sparse and a dense
    array of the same values are equal by design.
    """
    if len(a.cycles) != len(b.cycles):
        return f"cycle counts differ: {len(a.cycles)} vs {len(b.cycles)}"
    for ca, cb in zip(a.cycles, b.cycles):
        da, db = dataclasses.asdict(ca), dataclasses.asdict(cb)
        names = fields if fields is not None else tuple(da)
        for name in names:
            va, vb = da[name], db[name]
            if va != vb or (not name.startswith("proc_")
                            and type(va) is not type(vb)):
                return (f"cycle {ca.index}: {name} "
                        f"{va!r} ({type(va).__name__}) != "
                        f"{vb!r} ({type(vb).__name__})")
    return None


# ---------------------------------------------------------------------------
# Trace oracles
# ---------------------------------------------------------------------------

def opt_vs_reference(case: TraceCase) -> Optional[str]:
    n_procs, overheads = _pick_config(case, "opt_vs_reference")
    opt = simulate(case.trace, n_procs, overheads=overheads)
    ref = simulate_reference(case.trace, n_procs, overheads=overheads)
    diff = _diff_results(opt, ref)
    if diff:
        return f"optimized != reference at P={n_procs}, " \
               f"overheads={overheads.label()}: {diff}"
    return None


def compressed_vs_exact(case: TraceCase) -> Optional[str]:
    n_procs, overheads = _pick_config(case, "compressed_vs_exact")
    exact = simulate_reference(case.trace, n_procs, overheads=overheads)
    compressed = simulate_config(case.trace, RunConfig(
        n_procs=n_procs, overheads=overheads, compress_rounds=True))
    diff = _diff_results(compressed.expanded(), exact)
    if diff:
        return f"compressed != reference at P={n_procs}, " \
               f"overheads={overheads.label()}: {diff}"
    if compressed.total_us != exact.total_us:
        return (f"compressed total_us {compressed.total_us!r} != "
                f"reference {exact.total_us!r} at P={n_procs}")
    if compressed.n_messages != exact.n_messages:
        return (f"compressed n_messages {compressed.n_messages} != "
                f"reference {exact.n_messages} at P={n_procs}")
    return None


def compressed_vs_exact_faults(case: TraceCase) -> Optional[str]:
    """Round compression composes with fault injection bitwise.

    Fault draws are keyed to absolute cycle indices, so collapsing a
    fully-idle stretch analytically must not shift any fault onto a
    different cycle: the compressed faulty run, expanded back to
    per-cycle form, is bit-identical to the exact faulty loop.
    """
    rng = _draws(case, "compressed_vs_exact_faults")
    n_procs = rng.choice(_PROC_CHOICES)
    overheads = rng.choice((ZERO_OVERHEADS,) + TABLE_5_1)
    indices = [c.index for c in case.trace.cycles]
    stalls: Tuple = ()
    failures: Tuple = ()
    if indices and rng.random() < 0.5:
        start = rng.uniform(0.0, 50.0)
        stalls = (StallWindow(
            proc=rng.randrange(n_procs), start_us=start,
            end_us=start + rng.uniform(0.0, 200.0),
            cycle=rng.choice(indices + [None])),)
    if indices and rng.random() < 0.3:
        failures = (FailStop(proc=rng.randrange(n_procs),
                             cycle=rng.choice(indices),
                             recovery_us=rng.uniform(100.0, 5000.0)),)
    model = FaultModel(seed=case.seed ^ case.index,
                       loss_prob=rng.choice((0.0, 0.01, 0.05)),
                       dup_prob=rng.choice((0.0, 0.01, 0.05)),
                       jitter_us=rng.choice((0.0, 25.0, 100.0)),
                       stalls=stalls, failures=failures)
    exact = simulate_config(case.trace, RunConfig(
        n_procs=n_procs, overheads=overheads, faults=model))
    compressed = simulate_config(case.trace, RunConfig(
        n_procs=n_procs, overheads=overheads, faults=model,
        compress_rounds=True))
    diff = _diff_results(compressed.expanded(), exact)
    if diff:
        return f"compressed faulty run != exact at P={n_procs}, " \
               f"overheads={overheads.label()}: {diff}"
    if compressed.total_us != exact.total_us:
        return (f"compressed faulty total_us {compressed.total_us!r} "
                f"!= exact {exact.total_us!r} at P={n_procs}")
    if compressed.n_messages != exact.n_messages:
        return (f"compressed faulty n_messages "
                f"{compressed.n_messages} != exact "
                f"{exact.n_messages} at P={n_procs}")
    return None


def faults_vs_reference(case: TraceCase) -> Optional[str]:
    """The table-driven fault loop equals the object-based one bitwise."""
    rng = _draws(case, "faults_vs_reference")
    n_procs = rng.choice(_PROC_CHOICES)
    overheads = rng.choice((ZERO_OVERHEADS,) + TABLE_5_1)
    indices = [c.index for c in case.trace.cycles]
    stalls = []
    failures = []
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            start = rng.uniform(0.0, 80.0)
            stalls.append(StallWindow(
                proc=rng.randrange(n_procs + 1), start_us=start,
                end_us=start + rng.uniform(0.0, 300.0),
                cycle=rng.choice(indices + [None])))
    if indices and rng.random() < 0.3:
        failures.append(FailStop(proc=rng.randrange(n_procs),
                                 cycle=rng.choice(indices),
                                 recovery_us=rng.uniform(100.0, 5000.0)))
    model = FaultModel(seed=case.seed ^ (case.index << 8),
                       loss_prob=rng.choice((0.0, 0.01, 0.1, 0.5)),
                       dup_prob=rng.choice((0.0, 0.05, 0.3)),
                       jitter_us=rng.choice((0.0, 2.5, 40.0)),
                       stalls=tuple(stalls), failures=tuple(failures))
    protocol = rng.choice((DEFAULT_PROTOCOL, ProtocolModel(
        timeout_us=rng.uniform(10.0, 300.0),
        backoff=rng.choice((1.0, 1.5, 3.0)),
        max_retries=rng.randrange(4))))
    costs = rng.choice((DEFAULT_COSTS, CostModel(delete_search_us=1.5)))
    mapping = rng.choice((RoundRobinMapping(n_procs),
                          RandomMapping(n_procs, seed=case.index)))
    # The loop itself, not the dispatch: a null draw must still run it.
    search = compute_search_costs(case.trace, costs)
    got = SimResult(trace_name=case.trace.name, n_procs=n_procs, cycles=[
        simulate_cycle_with_faults(cycle, n_procs, costs, overheads,
                                   mapping, model, protocol,
                                   search.get(cycle.index, {}))
        for cycle in case.trace])
    want = simulate_with_faults_reference(
        case.trace, n_procs, model, costs=costs, overheads=overheads,
        mapping=mapping, protocol=protocol)
    diff = _diff_results(got, want)
    if diff:
        return (f"fault loop != reference at P={n_procs}, "
                f"overheads={overheads.label()}: {diff}")
    return None


def fault_null_dispatch(case: TraceCase) -> Optional[str]:
    n_procs, overheads = _pick_config(case, "fault_null_dispatch")
    null = FaultModel(seed=case.seed)
    assert null.is_null
    plain = simulate(case.trace, n_procs, overheads=overheads)
    dispatched = simulate_config(case.trace, RunConfig(
        n_procs=n_procs, overheads=overheads, faults=null))
    diff = _diff_results(plain, dispatched)
    if diff:
        return f"null FaultModel changed the run at P={n_procs}, " \
               f"overheads={overheads.label()}: {diff}"
    return None


def protocol_zero_fault(case: TraceCase) -> Optional[str]:
    rng = _draws(case, "protocol_zero_fault")
    n_procs = rng.choice(_PROC_CHOICES)
    null = FaultModel(seed=case.seed)
    mapping = RoundRobinMapping(n_procs)
    search = compute_search_costs(case.trace, DEFAULT_COSTS)
    plain = simulate(case.trace, n_procs, overheads=ZERO_OVERHEADS)
    for cycle, expect in zip(case.trace, plain.cycles):
        got = simulate_cycle_with_faults(
            cycle, n_procs, DEFAULT_COSTS, ZERO_OVERHEADS, mapping,
            null, DEFAULT_PROTOCOL, search_costs=search)
        de, dg = dataclasses.asdict(expect), dataclasses.asdict(got)
        for name in _TIMING_FIELDS:
            if de[name] != dg[name]:
                return (f"zero-fault protocol loop != fault-free at "
                        f"P={n_procs}, cycle {cycle.index}: {name} "
                        f"{de[name]!r} != {dg[name]!r}")
    return None


def recorder_invisible(case: TraceCase) -> Optional[str]:
    n_procs, overheads = _pick_config(case, "recorder_invisible")
    plain = simulate(case.trace, n_procs, overheads=overheads)
    recorder = TimelineRecorder()
    recorded = simulate_config(case.trace, RunConfig(
        n_procs=n_procs, overheads=overheads, recorder=recorder))
    diff = _diff_results(plain, recorded)
    if diff:
        return f"recorder changed the run at P={n_procs}, " \
               f"overheads={overheads.label()}: {diff}"
    return None


def actors_vs_sim(case: TraceCase) -> Optional[str]:
    from ..exec import match_signature, run
    n_procs, overheads = _pick_config(case, "actors_vs_sim")
    config = RunConfig(n_procs=n_procs, overheads=overheads)
    sim = run(case.trace, config, backend="sim")
    live = run(case.trace, config, backend="actors")
    sim_sig, live_sig = match_signature(sim), match_signature(live)
    if sim_sig != live_sig:
        for i, (a, b) in enumerate(zip(sim_sig, live_sig)):
            if a != b:
                return (f"actor run diverged from simulator at "
                        f"P={n_procs}, overheads={overheads.label()}, "
                        f"cycle {i}: {a!r} != {b!r}")
        return (f"actor run diverged from simulator at P={n_procs}: "
                f"cycle counts {len(sim_sig)} vs {len(live_sig)}")
    return None


def live_trace_invisible(case: TraceCase) -> Optional[str]:
    """Live tracing must not change what the actors backend computes.

    Runs the asyncio actors backend twice — untraced, then with
    ``live_trace=True`` — and requires the match signatures and every
    per-cycle result field to be identical, except ``makespan_us``
    (measured wall time on a live run, legitimately different run to
    run).  The traced run must return a merged timeline that passes
    :func:`repro.obs.trace.reconcile_live` — span counts summing
    exactly to the protocol's own activation and message counters.
    """
    from ..exec import match_signature, run
    from ..obs.trace import reconcile_live
    n_procs, overheads = _pick_config(case, "live_trace_invisible")
    config = RunConfig(n_procs=n_procs, overheads=overheads)
    plain = run(case.trace, config, backend="actors")
    traced = run(case.trace, config.replace(live_trace=True),
                 backend="actors")
    if match_signature(plain) != match_signature(traced):
        return (f"live tracing changed the match signature at "
                f"P={n_procs}, overheads={overheads.label()}")
    if plain.result.cycles:
        fields = tuple(
            name for name
            in dataclasses.asdict(plain.result.cycles[0])
            if name != "makespan_us")
        diff = _diff_results(plain.result, traced.result,
                             fields=fields)
        if diff:
            return (f"live tracing changed results at P={n_procs}, "
                    f"overheads={overheads.label()}: {diff}")
    if traced.live is None:
        return "traced run returned no merged timeline"
    try:
        reconcile_live(traced.live, traced.result)
    except ValueError as err:
        return (f"live trace failed reconciliation at P={n_procs}, "
                f"overheads={overheads.label()}: {err}")
    return None


def live_recovery(case: TraceCase) -> Optional[str]:
    """Supervised actors under seeded chaos: recover or fail loudly.

    Draws a chaos policy per case (kill / drop / duplicate / delay /
    stall, or a mix), runs the asyncio actors under supervision, and
    requires one of exactly two outcomes: a match signature
    bit-identical to the simulator's, or a typed
    :class:`~repro.exec.errors.ExecutorError`.  A hang is converted to
    :class:`~repro.exec.errors.ExecutorWedged` by the per-cycle
    deadline, so every failure mode is observable.  Also proves the
    zero-chaos run is signature-identical to the simulator's
    (supervision must be invisible when nothing fails).
    """
    from ..exec import (ChaosPolicy, ExecutorError, match_signature,
                        run)
    rng = _draws(case, "live_recovery")
    n_procs = rng.choice((2, 3, 4, 8))
    overheads = rng.choice((ZERO_OVERHEADS,) + TABLE_5_1)
    policy = SupervisePolicy(heartbeat_s=0.02, cycle_timeout_s=5.0,
                             max_restarts=3, restart_delay_s=0.0)
    config = RunConfig(n_procs=n_procs, overheads=overheads,
                       supervise=policy)
    sim_sig = match_signature(run(case.trace, config, backend="sim"))

    quiet = run(case.trace, config, backend="actors")
    if match_signature(quiet) != sim_sig:
        return (f"zero-chaos run diverged from the "
                f"simulator at P={n_procs}, "
                f"overheads={overheads.label()}")

    indices = [c.index for c in case.trace.cycles]
    kills = ()
    if indices and rng.random() < 0.5:
        kills = ((rng.choice(indices), rng.randrange(n_procs)),)
    kind = rng.choice(("drop", "dup", "delay", "stall", "mix"))
    prob = rng.choice((0.005, 0.01, 0.02))
    chaos = ChaosPolicy(
        seed=(case.seed << 16) ^ case.index,
        kills=kills,
        drop_prob=prob if kind in ("drop", "mix") else 0.0,
        dup_prob=prob if kind in ("dup", "mix") else 0.0,
        delay_prob=prob if kind in ("delay", "mix") else 0.0,
        delay_s=0.002,
        stall_prob=prob if kind in ("stall", "mix") else 0.0,
        stall_s=0.01)
    try:
        chaotic = run(case.trace, config, backend="actors",
                      chaos=chaos)
    except ExecutorError:
        return None  # typed and actionable — the conforming failure
    if match_signature(chaotic) != sim_sig:
        return (f"SILENT DIVERGENCE under chaos ({kind}, p={prob}, "
                f"kills={kills}) at P={n_procs}, "
                f"overheads={overheads.label()}: run succeeded with "
                f"wrong counters")
    return None


def format_round_trip(case: TraceCase) -> Optional[str]:
    want = dumps_trace(case.trace)
    with tempfile.TemporaryDirectory(prefix="repro-check-") as tmp:
        path = Path(tmp) / "case.trace"
        save_trace(case.trace, path)
        got = dumps_trace(read_trace(path))
    if want != got:
        return "trace file round-trip changed the serialized trace"
    return None


# ---------------------------------------------------------------------------
# Program oracle
# ---------------------------------------------------------------------------

def _conflict_signature(matcher):
    return sorted((inst.production.name,
                   tuple(w.wme_id for w in inst.wmes))
                  for inst in matcher.conflict_set())


def rete_vs_naive(case: ProgramCase) -> Optional[str]:
    rete, naive = ReteNetwork(), NaiveMatcher()
    for source in case.rules:
        production = parse_production(source)
        rete.add_production(production)
        naive.add_production(production)
    wmes = {}
    timestamp = 0
    for step, op in enumerate(case.script):
        if op[0] == "add":
            _, wid, cls, payload = op
            timestamp += 1
            wme = WME(wid, cls, dict(payload), timestamp=timestamp)
            wmes[wid] = wme
            rete.add_wme(wme)
            naive.add_wme(wme)
        else:
            wme = wmes.pop(op[1])
            rete.remove_wme(wme)
            naive.remove_wme(wme)
        if _conflict_signature(rete) != _conflict_signature(naive):
            return (f"conflict sets diverged after step {step} "
                    f"({op[0]} wme {op[1]})")
    return None


def _event_tuple(event):
    return (event.act_id, event.parent_id, event.node_id,
            event.node_label, event.node_kind, event.side, event.tag,
            event.key, event.n_successors)


def rete_fast_vs_reference(case: ProgramCase) -> Optional[str]:
    """Pin the flattened kernel to the preserved object-dispatch engine.

    Three engines run the same churn script: the reference network and
    the kernel with an observer attached (exercising the traced stack
    machine, which must reproduce the reference's activation-event
    stream *bit for bit* — ids, parents, keys, successor counts), and
    an unobserved kernel (exercising the untraced fast walk).
    Conflict sets are compared after every delta; memory totals and the
    event streams are compared at the end.
    """
    reference = ReferenceReteNetwork()
    fast = ReteNetwork()
    plain = ReteNetwork()
    ref_events: List = []
    fast_events: List = []
    reference.observers.append(ref_events.append)
    fast.observers.append(fast_events.append)
    engines = (reference, fast, plain)
    for source in case.rules:
        production = parse_production(source)
        for engine in engines:
            engine.add_production(production)
    wmes = {}
    timestamp = 0
    for step, op in enumerate(case.script):
        if op[0] == "add":
            _, wid, cls, payload = op
            timestamp += 1
            wme = WME(wid, cls, dict(payload), timestamp=timestamp)
            wmes[wid] = wme
            for engine in engines:
                engine.add_wme(wme)
        else:
            wme = wmes.pop(op[1])
            for engine in engines:
                engine.remove_wme(wme)
        want = _conflict_signature(reference)
        if _conflict_signature(fast) != want:
            return (f"fast kernel conflict set diverged after step "
                    f"{step} ({op[0]} wme {op[1]})")
        if _conflict_signature(plain) != want:
            return (f"unobserved kernel conflict set diverged after step "
                    f"{step} ({op[0]} wme {op[1]})")
    if len(ref_events) != len(fast_events):
        return (f"event stream lengths diverged: reference "
                f"{len(ref_events)}, fast {len(fast_events)}")
    for i, (ref_ev, fast_ev) in enumerate(zip(ref_events, fast_events)):
        if _event_tuple(ref_ev) != _event_tuple(fast_ev):
            return (f"activation event {i} diverged: reference "
                    f"{_event_tuple(ref_ev)}, fast {_event_tuple(fast_ev)}")
    ref_counts = reference.memories.counts()
    for name, engine in (("fast", fast), ("unobserved", plain)):
        if engine.memories.counts() != ref_counts:
            return (f"{name} memory totals {engine.memories.counts()} "
                    f"!= reference {ref_counts}")
    return None


#: The full matrix, in execution order.
ORACLES: Tuple[Oracle, ...] = (
    Oracle("opt_vs_reference", "trace", opt_vs_reference),
    Oracle("compressed_vs_exact", "trace", compressed_vs_exact),
    Oracle("compressed_vs_exact_faults", "trace",
           compressed_vs_exact_faults),
    Oracle("faults_vs_reference", "trace", faults_vs_reference),
    Oracle("fault_null_dispatch", "trace", fault_null_dispatch),
    Oracle("protocol_zero_fault", "trace", protocol_zero_fault),
    Oracle("recorder_invisible", "trace", recorder_invisible),
    Oracle("actors_vs_sim", "trace", actors_vs_sim, every=5),
    Oracle("live_trace_invisible", "trace", live_trace_invisible,
           every=5),
    Oracle("live_recovery", "trace", live_recovery, every=10),
    Oracle("format_round_trip", "trace", format_round_trip),
    Oracle("rete_vs_naive", "program", rete_vs_naive),
    Oracle("rete_fast_vs_reference", "program", rete_fast_vs_reference),
)


def run_oracles(case: CheckCase, *, sample: bool = True,
                only: Optional[Tuple[str, ...]] = None
                ) -> List[Tuple[str, str]]:
    """All oracle failures for *case* as ``(oracle_name, detail)``.

    With ``sample=False`` the ``every`` throttles are ignored — the
    shrinker uses that to re-check a sampled oracle on every candidate.
    *only* restricts the run to the named oracles; an explicitly named
    oracle runs on every eligible case, ``every`` notwithstanding.
    """
    kind = "program" if isinstance(case, ProgramCase) else "trace"
    failures: List[Tuple[str, str]] = []
    registry = get_registry()
    for oracle in ORACLES:
        if oracle.kind != kind:
            continue
        if only is not None:
            if oracle.name not in only:
                continue
        elif sample and oracle.every > 1 \
                and case.index % oracle.every != 0:
            continue
        registry.counter("check.oracle_runs").inc()
        detail = oracle.fn(case)
        if detail is not None:
            failures.append((oracle.name, detail))
    return failures
