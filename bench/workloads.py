"""The benchmark's workloads: inputs from the seed, one timed op each,
and the checks that the outputs are correct.

Each workload pairs with another that bypasses its dominant layer:

* ``ops5-rubik`` / ``ops5-tourney`` run one OPS5 program through every
  layer.  Rubik is alpha-heavy (24 ``^pos`` patterns engage the numpy
  constant-test block, 5-wme modify bursts); tourney is dominated by
  beta joins (within-club cross-products, an empty-key negated CE) and
  never engages numpy.  A join-ordering change shows on tourney only.
* ``sim-paper`` regenerates the Fig 5-1/5-2/5-5 sweeps plus a fault
  arm on the three paper sections: the dense exact loop on short,
  busy sections.  ``sim-scale`` runs the compressed active-set loop on
  a mostly-idle stream at P up to 4096.  A loop merge that helps one
  and hurts the other shows on both.
* ``served-open`` sends many short sessions through the session server
  and the live executor, where the ops5 workloads make one long live
  run each.

Only what is generated from the seed reaches the program.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import itertools
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import repro.exec.actors
import repro.exec.served
from repro.exec import SessionServer, match_signature, run
from repro.mpc import (DEFAULT_PROC_COUNTS, TABLE_5_1, BucketWorkCache,
                       GreedyMappingFactory, RunConfig, fault_sweep,
                       iter_cycle_results, simulate_config, speedup_curve,
                       speedup_loss)
from repro.obs import reset_registry
from repro.ops5 import parse_program
from repro.ops5.interpreter import Interpreter
from repro.rete import PLUS, ReteNetwork
from repro.rete._reference import ReferenceReteNetwork
from repro.trace.events import SectionTrace, iter_cycles
from repro.trace.recorder import TraceRecorder, record_program
from repro.workloads import (MATCH_PROGRAMS, StreamSpec, SyntheticStream,
                             record_match_deltas, rubik_match_program,
                             rubik_section, tourney_match_program,
                             tourney_section, weaver_section)

from load import (Rung, max_rate, quantile, run_burst, run_rung,
                    run_series)
from spans import (TimedMatcher, Tracer, no_span, patched, timed_coroutine,
                   timed_function)
from yardstick import REF_MS, yardstick_ms

_perf = time.perf_counter

#: Every window times at least this many ops, however short.
MIN_OPS = 3

#: A window whose yardstick IQR exceeds this share of its median is
#: marked noisy and measured once more.
NOISY_IQR = 0.25

#: The Table 5-1 row with 8 us total message overhead.
OVERHEAD_8US = TABLE_5_1[1]

#: The live run of the ops5 pipeline: P=4 asyncio actors.
LIVE_CONFIG = RunConfig(n_procs=4)

#: Paper-quoted Fig 5-2 peak-speedup losses at 32 us (percent).
PAPER_LOSS32_PCT = {"rubik": 30.0, "tourney": 45.0, "weaver": 50.0}


def iqr_share(values: List[float]) -> float:
    """(q3 - q1) / median, quartiles as ``statistics.quantiles`` gives."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


@dataclass
class Outcome:
    """What one op produced: its value for the checks, the work units
    it did per layer (for per-layer rates) and deterministic counts."""

    value: object
    #: Work units of the whole op (programs, simulated activations).
    work: float = 1.0
    layer_work: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)


@dataclass
class Window:
    """One timed stretch of ops."""

    wall_s: List[float] = field(default_factory=list)
    norm_s: List[float] = field(default_factory=list)
    work: List[float] = field(default_factory=list)
    yardstick_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    errors: List[str] = field(default_factory=list)
    #: Per-layer work units summed over the window's successful ops.
    layer_work: Dict[str, float] = field(default_factory=dict)
    #: Per-layer counts of the window's first round.
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def noisy(self) -> bool:
        return iqr_share(self.yardstick_ms) > NOISY_IQR

    def rates(self) -> List[float]:
        return [w / t for w, t in zip(self.work, self.norm_s)]


@dataclass
class Report:
    """What a workload measured in one run, before units are attached.

    ``values`` maps metric name to a number, or to a summary dict with
    ``value``, ``q1``, ``q3`` and ``n``.
    """

    values: Dict[str, object]
    attempted: int
    failed: int
    #: Why ops failed (the first few).
    errors: List[str]
    #: Per-layer work units of the traced ops (for per-layer rates).
    layer_work: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)


def summary(values: List[float], q: float) -> dict:
    """The *q*-quantile of *values* with quartiles and sample count."""
    if not values:
        return {"value": None, "n": 0}
    return {"value": quantile(values, q), "q1": quantile(values, 0.25),
            "q3": quantile(values, 0.75), "n": len(values)}


def yardstick_details(samples: List[float]) -> dict:
    return {"yardstick_ms": statistics.median(samples),
            "yardstick_iqr_frac": iqr_share(samples),
            "yardstick_n": len(samples)}


#: Share of a traced run spent on the untraced comparison window.
PLAIN_SHARE = 0.4

#: Failure messages kept per run.
MAX_ERRORS = 5


class BatchWorkload:
    """A workload timed as back-to-back ops, each normalised by the
    yardstick samples taken around it."""

    name = ""
    #: Consecutive ops reported as one: each is timed and normalised on
    #: its own, so the yardstick tracks the host closely, and the round
    #: is the unit of the metrics.
    ROUND = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    # -- what a workload defines -------------------------------------------

    def make_input(self, index: int):
        """The op's input (generated untimed)."""
        return index

    def op(self, item, tracer: Optional[Tracer]) -> Outcome:
        raise NotImplementedError

    def check(self, index: int, item, outcome: Outcome) -> Optional[str]:
        """Why the op's output is wrong, or None."""
        return None

    def check_once(self) -> Optional[str]:
        """A once-per-run check of the layers against their oracles."""
        return None

    def patches(self, tracer: Tracer) -> List:
        """Context managers installing traced-mode wrappers."""
        return []

    def round_counts(self, counts: List[Dict[str, float]]) -> dict:
        """The per-layer counts of a round, from its ops' counts."""
        return dict(counts[0])

    def close(self) -> None:
        pass

    # -- the timing loop ----------------------------------------------------

    def warm(self, seconds: float) -> None:
        end = _perf() + seconds
        index = 0
        while index < 1 or _perf() < end:
            self.op(self.make_input(index), None)
            gc.collect()
            index += 1

    def window(self, seconds: float,
               tracer: Optional[Tracer] = None) -> Window:
        """Run whole rounds for *seconds* (at least :data:`MIN_OPS`),
        starting from input 0 so every window sees the same inputs."""
        win = Window()
        samples = [yardstick_ms()]
        done = []
        end = _perf() + seconds
        index = 0
        while (index < MIN_OPS * self.ROUND or _perf() < end
               or index % self.ROUND):
            item = self.make_input(index)
            span = no_span
            if tracer is not None:
                tracer.op = index
                span = tracer.span
            win.attempted += 1
            start = _perf()
            try:
                with span("bench"):
                    outcome = self.op(item, tracer)
                error = None
            except Exception as err:  # a failed op is counted, not fatal
                outcome, error = None, f"{type(err).__name__}: {err}"
            wall = _perf() - start
            # Each op starts from a collected heap, so cyclic garbage of
            # one op is neither timed in the next nor piled into the peak
            # RSS by however long the collector happened to wait.
            gc.collect()
            samples.append(yardstick_ms())
            if error is None:
                error = self.check(index, item, outcome)
            if error is not None:
                win.errors.append(f"op {index}: {error}")
            else:
                # Keep the numbers, not the op's outputs: holding every
                # op's traces would grow the heap with the op count.
                outcome.value = None
                done.append((index, wall, outcome))
            index += 1
        win.yardstick_ms = samples
        rounds: Dict[int, list] = {}
        for index, wall, outcome in done:
            # samples[i] precedes op i and samples[i + 1] follows it: the
            # op is normalised by the two samples on either side of it.
            near = samples[max(0, index - 1):index + 3]
            norm = wall * REF_MS / statistics.median(near)
            rounds.setdefault(index // self.ROUND, []).append(
                (wall, norm, outcome))
            for layer, units in outcome.layer_work.items():
                win.layer_work[layer] = win.layer_work.get(layer, 0.0) + units
        for number, parts in sorted(rounds.items()):
            if len(parts) < self.ROUND:
                continue  # a failed op leaves its round incomplete
            win.wall_s.append(sum(wall for wall, _, _ in parts))
            win.norm_s.append(sum(norm for _, norm, _ in parts))
            win.work.append(sum(outcome.work for _, _, outcome in parts))
            if number == 0:
                win.counts = self.round_counts(
                    [outcome.counts for _, _, outcome in parts])
        return win

    def measure(self, seconds: float, deadline: float) -> Report:
        """The untraced run behind the end-to-end metrics.  A noisy
        window is measured once more if that fits before *deadline*."""
        win = self.window(seconds)
        noisy_first = win.noisy
        if noisy_first and _perf() + seconds < deadline:
            win = self.window(seconds)
        ms = [t * 1e3 for t in win.norm_s]
        return Report(
            values={"throughput_per_s": summary(win.rates(), 0.5),
                    "latency_p50_ms": summary(ms, 0.5)},
            attempted=win.attempted, failed=len(win.errors),
            errors=win.errors[:MAX_ERRORS],
            details={**yardstick_details(win.yardstick_ms),
                     **win.counts,
                     "noisy_rerun": noisy_first,
                     "noisy": win.noisy,
                     "latency_p90_ms": summary(ms, 0.9),
                     "raw_latency_p50_ms": summary(
                         [t * 1e3 for t in win.wall_s], 0.5)})

    def measure_traced(self, seconds: float, tracer: Tracer) -> Report:
        """An untraced then a traced window; the traced one's spans
        give the per-layer metrics, the pair the tracing overhead."""
        plain = self.window(seconds * PLAIN_SHARE)
        with contextlib.ExitStack() as stack:
            for patch in self.patches(tracer):
                stack.enter_context(patch)
            traced = self.window(seconds * (1.0 - PLAIN_SHARE), tracer)
        values = dict(traced.counts)
        if plain.norm_s and traced.norm_s:
            values["bench.trace_overhead_frac"] = (
                statistics.median(plain.rates())
                / statistics.median(traced.rates()) - 1.0)
        values["bench.yardstick_ms"] = statistics.median(
            traced.yardstick_ms)
        values["bench.yardstick_iqr_frac"] = iqr_share(traced.yardstick_ms)
        errors = plain.errors + traced.errors
        return Report(values=values,
                      attempted=plain.attempted + traced.attempted,
                      failed=len(errors), errors=errors[:MAX_ERRORS],
                      layer_work=traced.layer_work)


# ---------------------------------------------------------------------------
# ops5-*: one OPS5 program through every layer
# ---------------------------------------------------------------------------

#: Processor counts of the ops5 pipeline's simulated sweep.
OPS5_PROCS = (1, 4, 16, 64)


@dataclass
class Ops5Result:
    halted: bool
    section: SectionTrace
    live: object


class Ops5Pipeline(BatchWorkload):
    """parse -> compile -> interpret + record -> simulate -> live actors."""

    def __init__(self, name: str, seed: int,
                 generator: Callable[[int], str]) -> None:
        super().__init__(seed)
        self.name = name
        self.generator = generator

    def make_input(self, index: int) -> str:
        return self.generator(self.seed + index)

    def op(self, source: str, tracer: Optional[Tracer]) -> Outcome:
        span = tracer.span if tracer is not None else no_span
        with span("ops5.parse"):
            program = parse_program(source)
        with span("rete.compile"):
            network = ReteNetwork()
            for production in program.productions:
                network.add_production(production)
            network.kernel
        recorder = TraceRecorder(network)
        matcher = TimedMatcher(network, tracer) if tracer else network
        interpreter = Interpreter(matcher=matcher)
        recorder.attach(interpreter)
        with span("ops5.interpret") as interpret:
            if tracer is not None:
                matcher.attach(interpreter, interpret)
            for cls, pairs in program.initial_wmes:
                interpreter.add_wme(cls, dict(pairs))
            result = interpreter.run(max_cycles=5000)
            if tracer is not None:
                matcher.flush()
        with span("trace.record"):
            section = recorder.section(self.name, drop_setup_cycle=True)
        with span("mpc.dense"):
            speedup_curve(section, OPS5_PROCS, overheads=OVERHEAD_8US,
                          workers=1)
        with span("exec.actors"):
            live = run(section, LIVE_CONFIG, backend="actors")
        outcome = Outcome(
            Ops5Result(result.halted, section, live),
            counts={"rete.match.numpy_engaged":
                    int(network.kernel.numpy_engaged)})
        if tracer is not None:
            acts = section.total_activations()
            outcome.layer_work = {
                "rete.match": matcher.total_waves,
                "trace.record": acts,
                "mpc.dense": acts * (len(OPS5_PROCS) + 1),
                "exec.actors": live.result.n_messages,
            }
            outcome.counts.update({
                "ops5.interpret.cycles": result.cycles,
                "rete.compile.nodes": network.node_count(),
                "rete.match.waves": matcher.total_waves,
                "rete.match.terminal_frac": (matcher.total_terminals
                                             / max(1, matcher.total_events)),
                "rete.conflict_set.calls": matcher.total_cs_calls,
                "trace.record.activations": acts,
                "trace.record.cycles": len(section.cycles),
                "exec.actors.messages": live.result.n_messages,
            })
        return outcome

    def check(self, index: int, source: str,
              outcome: Outcome) -> Optional[str]:
        value = outcome.value
        if not value.halted:
            return "program did not halt"
        sim = run(value.section, LIVE_CONFIG, backend="sim")
        if match_signature(value.live) != match_signature(sim):
            return "live actors' match signature differs from the simulator"
        return None

    def check_once(self) -> Optional[str]:
        """Replay program 0's recorded delta stream into the fast kernel
        and the reference network; conflict sets must agree after every
        delta."""
        script = record_match_deltas(self.make_input(0))
        if not script.halted:
            return "recorded program did not halt"
        fast, reference = ReteNetwork(), ReferenceReteNetwork()
        for production in script.program.productions:
            fast.add_production(production)
            reference.add_production(production)
        for step, (tag, wme) in enumerate(script.deltas):
            for engine in (fast, reference):
                (engine.add_wme if tag == PLUS else engine.remove_wme)(wme)
            if _conflict_signature(fast) != _conflict_signature(reference):
                return f"fast kernel diverged from reference at delta {step}"
        return None

    def patches(self, tracer: Tracer) -> List:
        return [_timed_build_plans(tracer)]


def _timed_build_plans(tracer: Tracer):
    """``build_plans`` as the live executor calls it, as ``exec.plan``."""
    return patched(repro.exec.actors, "build_plans", timed_function(
        tracer, "exec.plan", repro.exec.actors.build_plans))


def _conflict_signature(matcher) -> List:
    return sorted((inst.production.name, tuple(w.wme_id for w in inst.wmes))
                  for inst in matcher.conflict_set())


# ---------------------------------------------------------------------------
# sim-paper: Fig 5-1 / 5-2 / 5-5 regeneration plus a fault arm
# ---------------------------------------------------------------------------

#: Simulations per section and op: 4 curves x (7 points + base), a
#: greedy curve (3 points + base) and a fault sweep (2 rates + base).
_DENSE_SIMS = len(TABLE_5_1) * (len(DEFAULT_PROC_COUNTS) + 1)
_GREEDY_PROCS = (1, 16, 32)
_LOSS_RATES = (0.0, 0.01)

#: sha256 of every modelled number of each section at seed 0.
SIM_PAPER_DIGESTS_SEED0 = {
    "rubik":
        "713bd94e1c34bdc513f18c84632bdf9bdb25c03786d98f4f97d97657a1ce6a72",
    "tourney":
        "4931c7ad93ea3be73e72c216438e0940c622ca44d72a7490a797150982c2a2a9",
    "weaver":
        "50cfafccf378ce55d483bdf12bec227b4bb89ecae3ccf82536c89d1ce56e25ae",
}


class SimPaper(BatchWorkload):
    """One op per section, one round per regeneration of all three."""

    name = "sim-paper"
    ROUND = 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.sections = [rubik_section(seed), tourney_section(seed),
                         weaver_section(seed)]
        #: Section name -> its first op's modelled numbers.
        self.first: Dict[str, dict] = {}

    def make_input(self, index: int) -> SectionTrace:
        return self.sections[index % len(self.sections)]

    def op(self, section: SectionTrace,
           tracer: Optional[Tracer]) -> Outcome:
        span = tracer.span if tracer is not None else no_span
        curves = []
        for overheads in TABLE_5_1:
            with span("mpc.dense"):
                curves.append(speedup_curve(
                    section, DEFAULT_PROC_COUNTS, overheads=overheads,
                    workers=1))
        work_cache = BucketWorkCache()
        with span("mpc.greedy"):
            greedy = speedup_curve(
                section, _GREEDY_PROCS, overheads=OVERHEAD_8US,
                mapping_factory_for=lambda p: GreedyMappingFactory(
                    p, work_cache=work_cache),
                workers=1)
        with span("mpc.faulty"):
            faults = fault_sweep(section, 16, _LOSS_RATES,
                                 overheads=OVERHEAD_8US, workers=1)
        acts = section.total_activations()
        layer_work = {"mpc.dense": acts * _DENSE_SIMS,
                      "mpc.greedy": acts * (len(_GREEDY_PROCS) + 1),
                      "mpc.faulty": acts * (len(_LOSS_RATES) + 1)}
        model = {"curves": [c.speedups for c in curves],
                 "greedy": greedy.speedups, "faults": faults.speedups,
                 "retransmits": [r.retransmits for r in faults.results]}
        name = section.name
        counts = {
            "mpc.faulty.retransmits": sum(model["retransmits"]),
            f"mpc.model.peak_speedup.{name}": curves[0].peak()[1],
            f"mpc.model.loss32_pct.{name}":
                100.0 * speedup_loss(curves[0], curves[3]),
        }
        return Outcome((name, model, _digest(model)),
                       work=sum(layer_work.values()),
                       layer_work=layer_work, counts=counts)

    def round_counts(self, counts: List[Dict[str, float]]) -> dict:
        merged = {key: value for part in counts
                  for key, value in part.items()}
        merged["mpc.faulty.retransmits"] = sum(
            part["mpc.faulty.retransmits"] for part in counts)
        merged["mpc.model.err_pts"] = statistics.fmean(
            abs(merged[f"mpc.model.loss32_pct.{name}"] - paper)
            for name, paper in PAPER_LOSS32_PCT.items())
        return merged

    def check(self, index: int, item, outcome: Outcome) -> Optional[str]:
        name, model, digest = outcome.value
        first = self.first.setdefault(name, {"model": model,
                                             "digest": digest})
        if self.seed == 0 and digest != SIM_PAPER_DIGESTS_SEED0[name]:
            return (f"{name}: modelled statistics digest {digest} is not "
                    "the pinned one")
        if digest != first["digest"]:
            return f"{name}: modelled statistics changed between ops"
        return None

    def check_once(self) -> Optional[str]:
        """Off seed 0, the compressed loop must equal the dense loop."""
        if self.seed == 0:
            return None
        for section in self.sections:
            if section.name not in self.first:
                continue
            dense = self.first[section.name]["model"]["curves"]
            compressed = [speedup_curve(
                section, DEFAULT_PROC_COUNTS, overheads=overheads,
                workers=1, compress_rounds=True).speedups
                for overheads in TABLE_5_1]
            if compressed != dense:
                return f"{section.name}: compressed loop != dense loop"
        return None


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


# ---------------------------------------------------------------------------
# sim-scale: the compressed active-set loop on a mostly-idle stream
# ---------------------------------------------------------------------------

SCALE_SPEC = dict(active_cycles=40, activations_per_cycle=1000,
                  idle_between=2800, terminals_per_cycle=4)
SCALE_PROCS = (16, 256, 4096)

#: (total_us, n_messages) per processor count at seed 0.
SCALE_TOTALS_SEED0: Dict[int, tuple] = {16: (3452464.0, 127233),
                                         256: (3380320.0, 128120),
                                         4096: (3376352.0, 128166)}


class SimScale(BatchWorkload):
    """One op per processor count, one round per pass at all three."""

    name = "sim-scale"
    ROUND = len(SCALE_PROCS)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.spec = StreamSpec(seed=seed, **SCALE_SPEC)
        # Generating the stream costs more than simulating it, so it is
        # materialised once, idle stretches kept as IdleRun markers.
        self.entries = list(SyntheticStream(self.spec))
        self.first: Dict[int, tuple] = {}

    def op(self, index: int, tracer: Optional[Tracer]) -> Outcome:
        span = tracer.span if tracer is not None else no_span
        n_procs = SCALE_PROCS[index % len(SCALE_PROCS)]
        config = RunConfig(n_procs=n_procs, compress_rounds=True)
        total_us = 0.0
        messages = cycles = collapsed = 0
        with span("mpc.compressed"):
            for result, repeat in iter_cycle_results(self.entries, config):
                total_us += result.makespan_us * repeat
                messages += result.n_messages * repeat
                cycles += repeat
                if repeat > 1:
                    collapsed += repeat
        acts = self.spec.total_activations
        return Outcome((n_procs, total_us, messages), work=acts,
                       layer_work={"mpc.compressed": acts},
                       counts={"mpc.compressed.collapsed_frac":
                               collapsed / cycles})

    def check(self, index: int, item, outcome: Outcome) -> Optional[str]:
        n_procs, total_us, messages = outcome.value
        got = (total_us, messages)
        want = (SCALE_TOTALS_SEED0.get(n_procs) if self.seed == 0
                else self.first.setdefault(n_procs, got))
        if got != want:
            return (f"P={n_procs}: totals {got} differ from "
                    f"{'the pinned' if self.seed == 0 else 'the first'} "
                    f"{want}")
        return None

    def check_once(self) -> Optional[str]:
        """The dense loop agrees with the compressed one on a prefix of
        five active cycles (and the idle stretches after them)."""
        prefix = SectionTrace("prefix", list(iter_cycles(self.entries[:10])))
        for n_procs in SCALE_PROCS[:2]:
            dense = simulate_config(prefix, RunConfig(n_procs=n_procs))
            compressed = simulate_config(prefix, RunConfig(
                n_procs=n_procs, compress_rounds=True)).expanded()
            if ([c.makespan_us for c in dense.cycles]
                    != [c.makespan_us for c in compressed.cycles]
                    or dense.n_messages != compressed.n_messages):
                return f"P={n_procs}: dense and compressed loops disagree"
        return None


# ---------------------------------------------------------------------------
# served-open: open-loop sessions through the live executor
# ---------------------------------------------------------------------------

#: Cycles per served session, cut from a recorded program.
WINDOW_CYCLES = 5

#: Shares of the run's seconds: closed-loop bursts (capacity), a
#: closed-loop series (service latency) and the open-loop ladder.
BURST_SHARE, SERIES_SHARE, LADDER_SHARE = 0.3, 0.3, 0.4

#: Sessions per series group; a yardstick sample follows each group.
SERIES_GROUP = 10

#: The open-loop ladder climbs until a rung misses p90 <= 25 ms.  On the
#: reference machine its latencies and interpolated maximum rate varied
#: by 17-40% from run to run (the closed-loop measures: 2-9%), so the
#: ladder is reported beside the metrics, not bounded.
LIMIT_Q, LIMIT_MS = 0.9, 25.0
LADDER = (100, 200, 300, 400, 500, 600, 800)

#: The traced run's open-loop rate (sessions/s).
TRACE_RATE = 100


class ServedOpen:
    """Sessions to an in-process ``SessionServer(32)``.

    Each session runs one 5-cycle window of the recorded rubik, tourney
    or weaver program on P=4 asyncio actors; its counters and fires must
    equal the simulator's for that window.  Sessions take the windows
    in a seeded cyclic order, so every stretch of load offers the same
    mix of session sizes.
    """

    name = "served-open"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.windows = []
        for name, generator in MATCH_PROGRAMS.items():
            section = record_program(parse_program(generator(seed)), name)
            for start in range(0, len(section) - WINDOW_CYCLES + 1,
                               WINDOW_CYCLES):
                window = section.slice(start, start + WINDOW_CYCLES)
                expected = match_signature(run(window, LIVE_CONFIG))
                self.windows.append((window, expected))
        self._order = list(self.windows)
        random.Random(seed).shuffle(self._order)
        self._restart()
        self.server = SessionServer(32).start()

    def _restart(self) -> None:
        """Start the session order and the arrival seeds afresh, so a
        measurement sees the same sessions however long warm-up ran."""
        self._cycle = itertools.cycle(self._order)
        #: Open-loop stretches so far (each gets its own arrival seed).
        self._stretch = 0

    def close(self) -> None:
        self.server.stop()

    def check_once(self) -> Optional[str]:
        """Every session is checked against the simulator as it ends."""
        return None

    def _next(self, count: int) -> list:
        """The next *count* sessions of the seeded cyclic order."""
        return list(itertools.islice(self._cycle, max(1, count)))

    def _rung(self, rate: int, seconds: float,
              tracer: Optional[Tracer] = None) -> Rung:
        self._stretch += 1
        reset_registry()  # server-side quantiles cover this stretch only
        return run_rung(self.server, self._next(round(rate * seconds)),
                        LIVE_CONFIG, rate, self.seed * 10_000 + self._stretch,
                        tracer)

    def warm(self, seconds: float) -> None:
        end = _perf() + seconds
        while _perf() < end:
            run_burst(self.server, self._next(len(self.windows)),
                      LIVE_CONFIG)
            run_series(self.server, self._next(SERIES_GROUP), LIVE_CONFIG)

    def measure(self, seconds: float, deadline: float) -> Report:
        result = self._measure_once(seconds)
        noisy_first = result["noisy"]
        if noisy_first and _perf() + seconds < deadline:
            result = self._measure_once(seconds)
        ladder = result["ladder"]
        max_rate_per_s = max_rate(ladder, LIMIT_Q, LIMIT_MS)
        outcomes = result["bursts"] + result["series"] + ladder
        failed = sum(o.failed + o.shed for o in outcomes)
        for rung in ladder:
            # Shedding above the ladder's maximum rate is what the
            # ladder measures; at or below it, a shed session failed.
            if rung.rate > max_rate_per_s:
                failed -= rung.shed
        errors = [e for o in outcomes for e in o.errors]
        latencies = result["latencies_ms"]
        return Report(
            values={"throughput_per_s": summary(result["rates"], 0.5),
                    "latency_p50_ms": summary(latencies, 0.5)},
            attempted=sum(o.offered for o in outcomes),
            failed=failed, errors=errors[:MAX_ERRORS],
            details={**yardstick_details(result["samples"]),
                     "noisy_rerun": noisy_first, "noisy": result["noisy"],
                     "latency_p90_ms": summary(latencies, 0.9),
                     "open_loop_max_rate_per_s": max_rate_per_s,
                     "rungs": [rung.summary() for rung in ladder]})

    def _measure_once(self, seconds: float) -> dict:
        """Bursts, then a series, then the ladder.  Burst and series
        times are normalised by the yardstick samples around them, as
        ops are in :meth:`BatchWorkload.window`."""
        self._restart()
        samples = [yardstick_ms()]
        bursts = []
        end = _perf() + BURST_SHARE * seconds
        while len(bursts) < MIN_OPS or _perf() < end:
            bursts.append(run_burst(self.server, self._next(
                len(self.windows)), LIVE_CONFIG))
            samples.append(yardstick_ms())
        scale = [REF_MS / statistics.median(samples[max(0, i - 1):i + 3])
                 for i in range(len(bursts))]
        rates = [b.offered / (b.wall_s * k) for b, k in zip(bursts, scale)]
        first = len(samples) - 1
        series = []
        end = _perf() + SERIES_SHARE * seconds
        while len(series) < MIN_OPS or _perf() < end:
            series.append(run_series(self.server, self._next(SERIES_GROUP),
                                     LIVE_CONFIG))
            samples.append(yardstick_ms())
        latencies = []
        for i, group in enumerate(series, first):
            k = REF_MS / statistics.median(samples[max(0, i - 1):i + 3])
            latencies += [ms * k for ms in group.latencies_ms]
        ladder = []
        for rate in LADDER:
            ladder.append(self._rung(
                rate, LADDER_SHARE * seconds / len(LADDER)))
            samples.append(yardstick_ms())
            if not ladder[-1].meets(LIMIT_Q, LIMIT_MS):
                break
        return {"bursts": bursts, "rates": rates, "series": series,
                "latencies_ms": latencies, "ladder": ladder,
                "samples": samples,
                "noisy": iqr_share(samples) > NOISY_IQR}

    def measure_traced(self, seconds: float, tracer: Tracer) -> Report:
        """Per-session spans of open-loop load at :data:`TRACE_RATE`,
        after an untraced stretch at that rate for the overhead
        comparison."""
        self._restart()
        samples = [yardstick_ms()]
        plain = self._rung(TRACE_RATE, seconds * PLAIN_SHARE)
        samples.append(yardstick_ms())
        with _timed_build_plans(tracer), patched(
                repro.exec.served, "run_section_async", timed_coroutine(
                    tracer, "exec.actors",
                    repro.exec.served.run_section_async)):
            traced = self._rung(TRACE_RATE, seconds * (1.0 - PLAIN_SHARE),
                                tracer)
        samples.append(yardstick_ms())
        client = traced.latency(0.5)
        values = {
            "exec.actors.messages": traced.messages.get(0, 0),
            "exec.served.handoff_frac":
                (client - traced.server_p50_ms) / client,
            "bench.gen_late_p99_frac":
                traced.late_p99_ms * TRACE_RATE / 1e3,
            "bench.trace_overhead_frac":
                client / plain.latency(0.5) - 1.0,
            "bench.yardstick_ms": statistics.median(samples),
            "bench.yardstick_iqr_frac": iqr_share(samples),
        }
        errors = plain.errors + traced.errors
        return Report(
            values=values, attempted=plain.offered + traced.offered,
            failed=plain.failed + traced.failed + plain.shed + traced.shed,
            errors=errors[:MAX_ERRORS],
            layer_work={"exec.actors": sum(traced.messages.values())},
            details={"rungs": [plain.summary(),
                               traced.summary()]})


WORKLOADS: Dict[str, Callable[[int], object]] = {
    "ops5-rubik": lambda seed: Ops5Pipeline(
        "ops5-rubik", seed,
        functools.partial(rubik_match_program, n_moves=100)),
    "ops5-tourney": lambda seed: Ops5Pipeline(
        "ops5-tourney", seed,
        functools.partial(tourney_match_program, n_players=24,
                          n_rounds=75)),
    "sim-paper": SimPaper,
    "sim-scale": SimScale,
    "served-open": ServedOpen,
}
