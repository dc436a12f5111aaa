"""Match-kernel performance: flattened kernel vs the reference engine.

Replays the recorded rubik/tourney/weaver delta scripts (see
:mod:`repro.workloads.match`) into the preserved object-dispatch engine
and the flattened kernel, twice: untraced, and
*recorded* — a :class:`~repro.trace.recorder.TraceRecorder` attached and
its section built, the path every program in the trace pipeline takes.
It also times the CORGI-style adversarial cross-product at two sizes to
confirm cost stays quadratic in token count, and a negated CE with one
relational test and no equality key (the tourney ``leader`` shape)
against the reference engine.  Every timed pair also cross-checks final
conflict sets (and recorded sections), so a kernel that got fast by
getting wrong fails here before it fails anywhere else.

Results are written machine-readably to ``BENCH_rete.json`` at the repo
root so the match-throughput trajectory is tracked across PRs.  Every
timing is the median and IQR of ``n`` round-robin repeats, and the
machine block names the CPU count, Python version and git revision.
Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_rete_perf.py -s
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import platform
import statistics
import time

from conftest import git_revision, once, quartiles, src_sha256
from repro.rete import ReteNetwork
from repro.rete._reference import ReferenceReteNetwork
from repro.trace.recorder import TraceRecorder
from repro.workloads import (adversarial_cross_product, negated_range,
                             record_match_deltas, replay_deltas,
                             rubik_match_program, tourney_match_program,
                             weaver_match_program)

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCH_rete.json"

#: Scaled-up workload shapes: enough waves that per-replay timing noise
#: stays well under the asserted ratios.
WORKLOADS = {
    "rubik": lambda: rubik_match_program(seed=0, n_moves=200),
    "tourney": lambda: tourney_match_program(seed=0, n_players=24,
                                             n_rounds=150),
    "weaver": lambda: weaver_match_program(seed=0, n_tasks=60,
                                           n_resources=7),
}

#: The tentpole acceptance bar: the kernel must at least double rubik
#: match throughput over the reference engine.
RUBIK_MIN_SPEEDUP = 2.0

#: n -> 2n wall-time ratio bound for the adversarial cross-product.
#: The workload is Theta(n^2), so the ideal ratio is 4; the bound
#: leaves headroom for constant factors without admitting an O(n^3)
#: regression (ratio 8).
ADVERSARIAL_MAX_RATIO = 6.0

#: Kernel-over-reference floor for the negated range test.  The
#: reference scans the whole right bucket per token (n² predicate calls
#: per ctl); the kernel bisects a sorted index.  A kernel that scans
#: as well reads about 7-11x, the index about 70-90x (2-CPU box).
NEGATED_RANGE_MIN_SPEEDUP = 30.0

#: Round-robin repeats per timed leg.
REPEATS = 5


def _merge_results(update: dict) -> dict:
    """Merge *update* into ``BENCH_rete.json`` (section-wise), so the
    file survives running any one benchmark test alone."""
    results = {}
    if BENCH_JSON.exists():
        results = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    results.update(update)
    BENCH_JSON.write_text(json.dumps(results, indent=2) + "\n",
                          encoding="utf-8")
    return results


def _seconds(samples) -> dict:
    return quartiles(samples, digits=5)


def _signature(conflict_set):
    return sorted((inst.production.name,
                   tuple(w.wme_id for w in inst.wmes))
                  for inst in conflict_set)


def _time_replays(factories, program, deltas, repeats: int = REPEATS,
                  recorded: bool = False):
    """Replay seconds (one sample per repeat) and final signature per
    factory.

    The engines are timed round-robin (ref, fast, ... ref, fast, ...)
    rather than back to back, so drifting machine load lands on every
    engine about equally and the *ratios* stay stable even when the
    absolute timings wobble.  Every leg starts from an empty cycle
    collector (an untimed ``gc.collect()``), so no leg pays for a full
    collection of what earlier legs or tests left behind.  With
    *recorded*, a trace recorder logs every activation and its section
    is built inside the timed region; the signature then includes the
    section.
    """
    samples = [[] for _ in factories]
    signatures = [None] * len(factories)
    for _ in range(repeats):
        for i, factory in enumerate(factories):
            matcher = factory()
            recorder = TraceRecorder(matcher) if recorded else None
            gc.collect()
            start = time.perf_counter()
            conflict_set = replay_deltas(matcher, program, deltas)
            section = recorder.section("replay") if recorded else None
            samples[i].append(time.perf_counter() - start)
            signatures[i] = (_signature(conflict_set), section)
    return samples, signatures


def _machine() -> dict:
    return {"cpus": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(),
            "git_revision": git_revision(), "src_sha256": src_sha256()}


def test_match_throughput(benchmark, report):
    results = {
        "schema": 2,
        "generated_unix": int(time.time()),
        "machine": _machine(),
    }
    lines = ["Rete match throughput: flattened kernel vs reference",
             f"{'workload':<9} {'waves':>6} {'ref':>9} {'fast':>9} "
             f"{'speedup':>8} "
             f"{'rec ref':>9} {'rec fast':>9} {'speedup':>8}"]

    def _measure():
        throughput = {}
        for name, make_source in WORKLOADS.items():
            script = record_match_deltas(make_source())
            assert script.halted, f"{name} did not halt"
            waves = script.wave_count()
            engines = (ReferenceReteNetwork, ReteNetwork)
            (ref, fast), (ref_sig, fast_sig) = _time_replays(
                engines, script.program, script.deltas)
            assert fast_sig == ref_sig, f"{name}: fast diverged"
            (rec_ref, rec_fast), (rec_ref_sig, rec_fast_sig) = \
                _time_replays(engines, script.program, script.deltas,
                              recorded=True)
            assert rec_fast_sig == rec_ref_sig, \
                f"{name}: recorded fast section diverged"
            ref_s, fast_s = statistics.median(ref), statistics.median(fast)
            rec_ref_s = statistics.median(rec_ref)
            rec_fast_s = statistics.median(rec_fast)
            throughput[name] = {
                "waves": waves,
                "cycles": script.cycles,
                "n": REPEATS,
                "reference_s": _seconds(ref),
                "fast_s": _seconds(fast),
                "speedup": round(ref_s / fast_s, 2),
                "fast_waves_per_s": round(waves / fast_s),
                "reference_waves_per_s": round(waves / ref_s),
                "recorded_reference_s": _seconds(rec_ref),
                "recorded_fast_s": _seconds(rec_fast),
                "recorded_speedup": round(rec_ref_s / rec_fast_s, 2),
                "recorded_fast_waves_per_s": round(waves / rec_fast_s),
                "activations": rec_fast_sig[1].total_activations(),
            }
            row = throughput[name]
            lines.append(
                f"{name:<9} {waves:>6} {ref_s * 1e3:>7.1f}ms "
                f"{fast_s * 1e3:>7.1f}ms {row['speedup']:>7.2f}x "
                f"{rec_ref_s * 1e3:>7.1f}ms {rec_fast_s * 1e3:>7.1f}ms "
                f"{row['recorded_speedup']:>7.2f}x")
        return throughput

    throughput = once(benchmark, _measure)
    results["match_throughput"] = throughput
    _merge_results(results)
    report("bench_rete_throughput", "\n".join(lines))

    rubik = throughput["rubik"]
    assert rubik["speedup"] >= RUBIK_MIN_SPEEDUP, (
        f"rubik match speedup {rubik['speedup']}x is below the "
        f"{RUBIK_MIN_SPEEDUP}x acceptance bar")


def test_adversarial_cross_product_stays_quadratic(benchmark, report):
    n = 48
    cases = [adversarial_cross_product(size) for size in (n, 2 * n)]

    def _replay(program, deltas):
        matcher = ReteNetwork()
        gc.collect()
        start = time.perf_counter()
        conflict_set = replay_deltas(matcher, program, deltas)
        seconds = time.perf_counter() - start
        assert conflict_set == []
        assert matcher.memories.is_empty()
        return seconds

    def _measure():
        small, big = [], []
        for _ in range(REPEATS):
            small.append(_replay(*cases[0]))
            big.append(_replay(*cases[1]))
        return {"n": n,
                "repeats": REPEATS,
                "small_s": _seconds(small),
                "big_s": _seconds(big),
                "time_ratio_2n_over_n": round(
                    statistics.median(b / s for s, b in zip(small, big)),
                    2)}

    adversarial = once(benchmark, _measure)
    _merge_results({"adversarial_cross_product": adversarial})
    report("bench_rete_adversarial",
           "Adversarial cross-product (all wmes share one join key)\n"
           f"n={n}: {adversarial['small_s']['median'] * 1e3:.1f}ms   "
           f"n={2 * n}: {adversarial['big_s']['median'] * 1e3:.1f}ms   "
           f"ratio {adversarial['time_ratio_2n_over_n']:.2f} "
           f"(quadratic ideal 4.0, bound {ADVERSARIAL_MAX_RATIO})")

    ratio = adversarial["time_ratio_2n_over_n"]
    assert ratio <= ADVERSARIAL_MAX_RATIO, (
        f"cross-product time ratio {ratio} for n -> 2n exceeds "
        f"{ADVERSARIAL_MAX_RATIO}: match cost is no longer quadratic "
        f"in token count")


def test_negated_range_test(benchmark, report):
    """``(ctl ^r <r>) (item ^v <v>) -(item ^v > <v>)`` over 192 items and
    20 ctl replacements, kernel and reference timed round-robin."""
    program, deltas = negated_range(n_items=192, n_toggles=20)

    def _measure():
        (ref, fast), (ref_sig, fast_sig) = _time_replays(
            (ReferenceReteNetwork, ReteNetwork), program, deltas)
        assert fast_sig == ref_sig and fast_sig[0], "kernel diverged"
        return {"items": 192, "toggles": 20, "n": REPEATS,
                "reference_s": _seconds(ref),
                "fast_s": _seconds(fast),
                "speedup": round(statistics.median(ref)
                                 / statistics.median(fast), 1)}

    row = once(benchmark, _measure)
    _merge_results({"negated_range": row})
    report("bench_rete_negated_range",
           "Negated CE with one relational test and no equality key\n"
           f"reference {row['reference_s']['median'] * 1e3:.1f}ms   "
           f"kernel {row['fast_s']['median'] * 1e3:.1f}ms   "
           f"speedup {row['speedup']:.1f}x "
           f"(floor {NEGATED_RANGE_MIN_SPEEDUP}x)")

    assert row["speedup"] >= NEGATED_RANGE_MIN_SPEEDUP, (
        f"negated range speedup {row['speedup']}x is below the "
        f"{NEGATED_RANGE_MIN_SPEEDUP}x floor: the kernel is scanning "
        f"the right bucket per token")
