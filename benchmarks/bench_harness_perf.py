"""Harness performance tracking: simulator hot paths, scale, live
sessions.

Unlike its siblings, this benchmark measures the *harness itself* rather
than a figure of the paper: the dense event loop, the fault/protocol
loop and the greedy routing against their object- and dict-based
forms.  The baselines are executed live from
:mod:`repro.mpc._reference` — the preserved original event loops — so
both sides of every ratio run on the same machine, in the same process.
``test_live_sessions`` times live sessions of the one supervised
engine on both transports, ``test_plan_build`` the per-cycle plans
every live run builds before its first broadcast, and
``test_single_processor`` the FIFO pass that runs every one-processor
simulation, and ``test_paper_sweep`` the Figure 5-1/5-2 grid with each
cycle's routing cold and memoised.

Results are written machine-readably to ``BENCH_harness.json`` at the
repo root so the performance trajectory is tracked across PRs.  Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_harness_perf.py -s
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import pickle
import platform
import resource
import statistics
import time

from conftest import git_revision, quartiles, src_sha256
from repro.exec import (RunResult, build_plans, match_signature, run,
                        run_section_async)
from repro.exec.mp import run_section_process
from repro.mpc import (DEFAULT_COSTS, DEFAULT_PROC_COUNTS,
                       SCALE_PROC_COUNTS, TABLE_5_1, FaultModel,
                       GreedyMappingFactory, RoundRobinMapping, RunConfig,
                       bucket_work, greedy_mapping, iter_cycle_results,
                       simulate_config, speedup, speedup_curve)
from repro.mpc._reference import (simulate_reference,
                                  simulate_with_faults_reference)
from repro.mpc.simulator import _simulate_cycle, _simulate_single, simulate
from repro.ops5 import parse_program
from repro.rete.hashing import BucketKey
from repro.trace.recorder import record_program
from repro.workloads import (MATCH_PROGRAMS, StreamSpec, SyntheticStream,
                             rubik_section, tourney_section, weaver_section)

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCH_harness.json"

SECTION_BUILDERS = (rubik_section, tourney_section, weaver_section)
OVERHEAD_8US = next(o for o in TABLE_5_1 if o.total_us == 8)


def _merge_results(update: dict) -> dict:
    """Merge *update* into ``BENCH_harness.json`` (section-wise), so the
    file survives running any one benchmark test alone."""
    results = {}
    if BENCH_JSON.exists():
        results = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    results.update(update)
    BENCH_JSON.write_text(json.dumps(results, indent=2) + "\n",
                          encoding="utf-8")
    return results


def _best_of(fn, repeats: int = 3) -> float:
    """Minimum wall time of *fn* over *repeats* runs (noise floor)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _fig5_1_reference():
    """Figure 5-1 on the preserved reference event loop."""
    all_speedups = []
    for build in SECTION_BUILDERS:
        trace = build()
        base = simulate_reference(trace, 1)
        all_speedups.append(
            [speedup(base, simulate_reference(trace, n))
             for n in DEFAULT_PROC_COUNTS])
    return all_speedups


def test_harness_perf(report):
    results = {
        "schema": 1,
        "generated_unix": int(time.time()),
        "machine": {"cpus": os.cpu_count(),
                    "platform": platform.platform(),
                    "python": platform.python_version(),
                    "git_revision": git_revision(),
                    "src_sha256": src_sha256()},
    }

    # --- simulator hot path: reference vs optimized ---------------------
    rubik = rubik_section()
    ref_s = _best_of(lambda: simulate_reference(rubik, 16), repeats=5)
    opt_s = _best_of(lambda: simulate(rubik, 16), repeats=5)
    sim_speedup = ref_s / opt_s
    results["simulator_rubik_16procs"] = {
        "reference_s": round(ref_s, 4),
        "optimized_s": round(opt_s, 4),
        "speedup": round(sim_speedup, 2),
    }

    # --- fault/protocol loop: object-based reference vs the table loop --
    lossy = FaultModel(seed=0, loss_prob=0.01)
    faulty_config = RunConfig(n_procs=16, overheads=OVERHEAD_8US,
                              faults=lossy)
    assert simulate_config(rubik, faulty_config).cycles == \
        simulate_with_faults_reference(rubik, 16, lossy,
                                       overheads=OVERHEAD_8US).cycles
    ref_s = _best_of(lambda: simulate_with_faults_reference(
        rubik, 16, lossy, overheads=OVERHEAD_8US), repeats=5)
    opt_s = _best_of(lambda: simulate_config(rubik, faulty_config),
                     repeats=5)
    results["faulty_rubik_16procs"] = {
        "what": "rubik at P=16, 8us overheads, loss 0.01",
        "cpus": os.cpu_count(),
        "reference_s": round(ref_s, 4),
        "optimized_s": round(opt_s, 4),
        "speedup": round(ref_s / opt_s, 2),
    }

    # --- greedy routing: dict-based greedy_mapping vs the factory -------
    def _route_by_dict():
        return [cycle.key_index().route(
            greedy_mapping(bucket_work(cycle), 16)).dest for cycle in rubik]

    def _route_by_factory():
        factory = GreedyMappingFactory(16)
        return [cycle.key_index().route(factory(cycle)).dest
                for cycle in rubik]

    assert _route_by_factory() == _route_by_dict()
    dict_s = _best_of(_route_by_dict, repeats=5)
    factory_s = _best_of(_route_by_factory, repeats=5)
    results["greedy_rubik_16procs"] = {
        "what": "route every rubik cycle at P=16 under the greedy "
                "distribution, cold work cache on both sides",
        "cpus": os.cpu_count(),
        "greedy_mapping_s": round(dict_s, 4),
        "factory_s": round(factory_s, 4),
        "speedup": round(dict_s / factory_s, 2),
    }

    # The optimized loop must not move a single number of Figure 5-1.
    assert [speedup_curve(build(), DEFAULT_PROC_COUNTS).speedups
            for build in SECTION_BUILDERS] == _fig5_1_reference(), \
        "optimized path changed Figure 5-1 speedups"

    results = _merge_results(results)
    report("harness_perf", json.dumps(results, indent=2)
           + f"\n[also saved to {BENCH_JSON}]")

    # Generous margin below the measured value, so background load
    # does not flake the suite.
    assert sim_speedup >= 1.5, \
        f"simulator hot path only {sim_speedup:.2f}x over reference"


#: The scale workload: one streamed section of 10^6 activations whose
#: cycles are mostly idle — the regime the paper's saturation analysis
#: describes (past the knee, most cycles distribute nothing to most
#: processors) and the one round compression exists for.
SCALE_SPEC = StreamSpec(name="scale", active_cycles=1_000,
                        activations_per_cycle=1_000, idle_between=2_800,
                        terminals_per_cycle=4, seed=0)


def _rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _drain(trace, config: RunConfig) -> float:
    """Simulate *trace*, accumulating totals and discarding per-cycle
    results (the memory-bounded path both modes are measured through —
    materializing 4.6M dense cycle results at P=4096 would need ~100s
    of GB)."""
    total_us = 0.0
    for result, repeat in iter_cycle_results(trace, config):
        total_us += result.makespan_us if repeat == 1 \
            else result.makespan_us * repeat
    return total_us


def test_scale_sweep(report):
    """The tentpole acceptance number: the compressed path vs the dense
    exact path on a streamed million-activation workload, at
    processor counts into the thousands.  One measurement per point —
    the baseline alone is minutes of wall clock at P=4096."""
    stream = SyntheticStream(SCALE_SPEC)
    points = []
    for n_procs in SCALE_PROC_COUNTS:
        start = time.perf_counter()
        compressed_total = _drain(
            stream, RunConfig(n_procs=n_procs, compress_rounds=True))
        compressed_s = time.perf_counter() - start
        start = time.perf_counter()
        exact_total = _drain(stream, RunConfig(n_procs=n_procs))
        exact_s = time.perf_counter() - start
        assert compressed_total == exact_total, \
            f"compression changed the P={n_procs} makespan"
        points.append({
            "n_procs": n_procs,
            "exact_s": round(exact_s, 2),
            "compressed_s": round(compressed_s, 2),
            "speedup": round(exact_s / compressed_s, 1),
        })
    peak_rss_mb = round(_rss_mb(), 1)
    section = {
        "what": "streamed 1e6-activation mostly-idle section, the event "
                "loop dense vs compressed (sparse per-processor state "
                "plus idle-run collapse; accumulate-and-discard on both "
                "sides)",
        "cpus": os.cpu_count(),
        "active_cycles": SCALE_SPEC.active_cycles,
        "activations": SCALE_SPEC.total_activations,
        "total_cycles": SCALE_SPEC.n_cycles,
        "points": points,
        "peak_rss_mb": peak_rss_mb,
    }
    _merge_results({"scale_sweep": section})
    report("scale_sweep", json.dumps(section, indent=2)
           + f"\n[also saved to {BENCH_JSON}]")
    for point in points:
        if point["n_procs"] >= 1024:
            assert point["speedup"] >= 10.0, (
                f"compression only {point['speedup']}x at "
                f"P={point['n_procs']} (need >= 10x)")
    # Bounded memory: 4.6M cycles at P=4096 never materialize.
    assert peak_rss_mb < 1536, f"peak RSS {peak_rss_mb} MiB"


def test_symbol_interning(report):
    """Micro-benchmark of the rete symbol-interning change: equality
    over bucket keys whose string values are interned (pointer check
    fast path) vs structurally-equal keys that dodge interning."""

    class _Uninterned(str):
        """``type(v) is str`` fails, so :func:`intern_value` skips it."""

    symbols = [f"symbol-{i:03d}" for i in range(64)]
    n_keys = 50_000

    def _keys(wrap):
        return [BucketKey(1, (wrap(symbols[i % len(symbols)]),
                              wrap(symbols[(i * 7) % len(symbols)])))
                for i in range(n_keys)]

    def _eq_sweep(keys):
        return sum(1 for a, b in zip(keys, keys[len(symbols):])
                   if a == b)

    # encode/decode forces a fresh str object per key, which interning
    # then collapses back to one representative.
    interned = _keys(lambda s: s.encode().decode())
    uninterned = _keys(_Uninterned)
    matches = _eq_sweep(interned)
    assert matches == _eq_sweep(uninterned)  # same workload
    interned_s = _best_of(lambda: _eq_sweep(interned), repeats=5)
    uninterned_s = _best_of(lambda: _eq_sweep(uninterned), repeats=5)
    # Interned equal values are one shared object.
    assert interned[0].values[0] is interned[len(symbols)].values[0]
    assert uninterned[0].values[0] \
        is not uninterned[len(symbols)].values[0]
    section = {
        "what": "equality sweep over 50k 2-symbol bucket keys, "
                "interned vs interning-dodging values",
        "interned_s": round(interned_s, 4),
        "uninterned_s": round(uninterned_s, 4),
        "interned_over_uninterned": round(uninterned_s / interned_s, 2),
    }
    _merge_results({"symbol_interning": section})
    report("symbol_interning", json.dumps(section, indent=2)
           + f"\n[also saved to {BENCH_JSON}]")
    # Interning must never make comparisons slower (generous margin:
    # identical strings compare fast even without identity).
    assert interned_s <= uninterned_s * 1.25


#: Cycles per live session, and bursts per transport.
LIVE_WINDOW, LIVE_BURSTS, PROCESS_BURSTS = 5, 15, 5


def _live_windows():
    """The 5-cycle windows of the seed-0 rubik/tourney/weaver recordings."""
    windows = []
    for name, generator in MATCH_PROGRAMS.items():
        section = record_program(parse_program(generator(0)), name)
        windows += [section.slice(start, start + LIVE_WINDOW)
                    for start in range(0, len(section) - LIVE_WINDOW + 1,
                                       LIVE_WINDOW)]
    return windows


def test_live_sessions(report):
    """What a live session costs on each transport's one (supervised)
    engine.  An asyncio burst runs every window as a concurrent session
    on one loop, as the session server does; a process burst runs the
    windows one after another, each on fresh worker processes."""
    windows = _live_windows()
    config = RunConfig(n_procs=4)
    expected = [match_signature(run(w, config)) for w in windows]

    def rate(outcomes, start):
        assert [match_signature(RunResult("actors", *o))
                for o in outcomes] == expected
        return len(windows) / (time.perf_counter() - start)

    async def asyncio_burst():
        start = time.perf_counter()
        return rate(await asyncio.gather(
            *(run_section_async(w, config) for w in windows)), start)

    def process_burst():
        start = time.perf_counter()
        return rate([run_section_process(w, config) for w in windows],
                    start)

    async def asyncio_bursts():
        await asyncio_burst()  # warm-up
        return [await asyncio_burst() for _ in range(LIVE_BURSTS)]

    asyncio_rates = asyncio.run(asyncio_bursts())
    process_rates = [process_burst() for _ in range(PROCESS_BURSTS)]
    section = {
        "what": "sessions/s of the supervised engine, bursts of every "
                "5-cycle window of the seed-0 rubik/tourney/weaver "
                "recordings at P=4: concurrent on one asyncio loop, "
                "sequential on the process transport",
        "sessions_per_burst": len(windows),
        "bursts": {"asyncio": LIVE_BURSTS, "process": PROCESS_BURSTS},
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "src_sha256": src_sha256(),
        "asyncio_per_s": quartiles(asyncio_rates),
        "process_per_s": quartiles(process_rates),
    }
    _merge_results({"live_sessions": section})
    report("live_sessions", json.dumps(section, indent=2)
           + f"\n[also saved to {BENCH_JSON}]")


#: Round-robin repeats of the plan-build timing, and its processor counts.
PLAN_ROUNDS, PLAN_PROCS = 15, (4, 16)


def test_plan_build(report):
    """``build_plans`` over the three seed-0 sections at each of
    :data:`PLAN_PROCS`: what a live run does before its first cycle
    broadcast.  Each round builds every (section, P) point once."""
    points = [(section, n_procs) for n_procs in PLAN_PROCS
              for section in [build() for build in SECTION_BUILDERS]]
    times = {(section.name, n_procs): [] for section, n_procs in points}
    for _ in range(PLAN_ROUNDS):
        for section, n_procs in points:
            config = RunConfig(n_procs=n_procs)
            start = time.perf_counter()
            build_plans(section, config)
            times[section.name, n_procs].append(
                (time.perf_counter() - start) * 1e3)
    section = {
        "what": "ms of build_plans per seed-0 section and processor "
                "count (round-robin mapping, default costs)",
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "src_sha256": src_sha256(),
        "n": PLAN_ROUNDS,
        **{f"{name}_p{n_procs}_ms": quartiles(values, digits=2)
           for (name, n_procs), values in times.items()},
    }
    _merge_results({"plan_build": section})
    report("plan_build", json.dumps(section, indent=2)
           + f"\n[also saved to {BENCH_JSON}]")


#: Alternating rounds of the single-processor timing.
SINGLE_ROUNDS = 15


def test_single_processor(report):
    """The paper's P=1 grid (3 sections x the 4 Table 5-1 rows) on the
    reference loop, on the general event loop called at ``n_procs=1``
    and on the FIFO pass the simulator selects there.  Each round runs
    every leg once, in the reverse of the previous round's order; the
    legs must agree by ``repr``."""
    grid = [(section, overheads)
            for section in [build() for build in SECTION_BUILDERS]
            for overheads in TABLE_5_1]
    mapping = RoundRobinMapping(1)

    def reference():
        return [simulate_reference(section, 1, overheads=overheads).cycles
                for section, overheads in grid]

    def general():
        return [[_simulate_cycle(c, 1, DEFAULT_COSTS, overheads, mapping)
                 for c in section] for section, overheads in grid]

    def single():
        return [[_simulate_single(c, DEFAULT_COSTS, overheads)
                 for c in section] for section, overheads in grid]

    legs = {"reference": reference, "general": general, "single": single}
    expected = repr(reference())
    assert repr(general()) == expected and repr(single()) == expected
    times = {name: [] for name in legs}
    order = list(legs)
    for _ in range(SINGLE_ROUNDS):
        for name in order:
            start = time.perf_counter()
            legs[name]()
            times[name].append(time.perf_counter() - start)
        order.reverse()
    ratios = [g / s for g, s in zip(times["general"], times["single"])]
    section = {
        "what": "P=1 grid: rubik/tourney/weaver x the 4 Table 5-1 rows, "
                "per-cycle loops; reference = mpc._reference, general = "
                "_simulate_cycle at n_procs=1, single = the FIFO pass",
        "cpus": os.cpu_count(),
        "git_revision": git_revision(),
        "src_sha256": src_sha256(),
        "n": SINGLE_ROUNDS,
        **{f"{name}_s": quartiles(values, digits=5)
           for name, values in times.items()},
        "general_over_single": {
            "median": round(statistics.median(ratios), 2),
            "wins": sum(r > 1.0 for r in ratios)},
    }
    _merge_results({"single_processor": section})
    report("single_processor", json.dumps(section, indent=2)
           + f"\n[also saved to {BENCH_JSON}]")
    # Generous margin below the measured ratio, so background load does
    # not flake the suite.
    assert section["general_over_single"]["median"] >= 1.5


#: Alternating cold/warm rounds of the paper-sweep timing.
SWEEP_ROUNDS = 9


def test_paper_sweep(report):
    """The Figure 5-1/5-2 grid of the ``sim-paper`` bench workload:
    ``speedup_curve`` over :data:`TABLE_5_1` x
    :data:`DEFAULT_PROC_COUNTS` on the three seed-0 sections.  *Cold*
    runs on fresh pickled copies, whose cycles carry no routing memo
    (copied untimed), so every (cycle, P) is routed twice per run (its
    route is stored at the second Table 5-1 row); *warm* replays the
    same sections, every route stored.  Each round
    runs both legs, in the reverse of the previous round's order; they
    must give the same speedups."""
    sections = [build() for build in SECTION_BUILDERS]

    def grid(traces):
        return [speedup_curve(trace, DEFAULT_PROC_COUNTS,
                              overheads=overheads).speedups
                for trace in traces for overheads in TABLE_5_1]

    expected = grid(sections)
    times = {"cold": [], "warm": []}
    order = list(times)
    for _ in range(SWEEP_ROUNDS):
        legs = {"cold": pickle.loads(pickle.dumps(sections)),
                "warm": sections}
        for name in order:
            start = time.perf_counter()
            speedups = grid(legs[name])
            times[name].append(time.perf_counter() - start)
            assert speedups == expected
        order.reverse()
    section = {
        "what": "s per sim-paper grid: speedup_curve over the 4 Table 5-1 "
                "rows x DEFAULT_PROC_COUNTS on rubik/tourney/weaver seed "
                "0; cold = fresh pickled copies (no routing memo), warm = "
                "the same sections replayed (every route stored)",
        "machine": {"cpus": os.cpu_count(),
                    "platform": platform.platform(),
                    "python": platform.python_version(),
                    "git_revision": git_revision(),
                    "src_sha256": src_sha256()},
        **{f"{name}_s": {**quartiles(values, digits=4), "n": len(values)}
           for name, values in times.items()},
    }
    _merge_results({"paper_sweep": section})
    report("paper_sweep", json.dumps(section, indent=2)
           + f"\n[also saved to {BENCH_JSON}]")
