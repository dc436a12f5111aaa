"""Match-kernel performance: flattened kernel vs the reference engine.

Replays the recorded rubik/tourney/weaver delta scripts (see
:mod:`repro.workloads.match`) into the preserved object-dispatch engine
and the flattened kernel (numpy on and off), twice: untraced, and
*recorded* — a :class:`~repro.trace.recorder.TraceRecorder` attached and
its section built, the path every program in the trace pipeline takes.
It also times the CORGI-style adversarial cross-product at two sizes to
confirm cost stays quadratic in token count.  Every timed pair also
cross-checks final conflict sets (and recorded sections), so a kernel
that got fast by getting wrong fails here before it fails anywhere
else.

Results are written machine-readably to ``BENCH_rete.json`` at the repo
root so the match-throughput trajectory is tracked across PRs.  Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_rete_perf.py -s
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time

from conftest import once
from repro.rete import ReferenceReteNetwork, ReteNetwork, resolve_numpy
from repro.trace.recorder import TraceRecorder
from repro.workloads import (adversarial_cross_product,
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


def _best_of(fn, repeats: int = 5) -> float:
    """Minimum wall time of *fn* over *repeats* runs (noise floor)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _signature(conflict_set):
    return sorted((inst.production.name,
                   tuple(w.wme_id for w in inst.wmes))
                  for inst in conflict_set)


def _time_replays(factories, script, repeats: int = 5,
                  recorded: bool = False):
    """Best replay seconds and final signature per factory.

    The engines are timed round-robin (ref, fast, ... ref, fast, ...)
    rather than back to back, so drifting machine load lands on every
    engine about equally and the *ratios* stay stable even when the
    absolute timings wobble.  With *recorded*, a trace recorder
    observes every activation and its section is built inside the
    timed region; the signature then includes the section.
    """
    best = [float("inf")] * len(factories)
    signatures = [None] * len(factories)
    for _ in range(repeats):
        for i, factory in enumerate(factories):
            matcher = factory()
            recorder = TraceRecorder(matcher) if recorded else None
            start = time.perf_counter()
            conflict_set = replay_deltas(matcher, script.program,
                                         script.deltas)
            section = recorder.section("replay") if recorded else None
            best[i] = min(best[i], time.perf_counter() - start)
            signatures[i] = (_signature(conflict_set), section)
    return best, signatures


def _machine() -> dict:
    return {"cpus": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version()}


def test_match_throughput(benchmark, report):
    numpy_available = resolve_numpy(True) is not None
    results = {
        "schema": 1,
        "generated_unix": int(time.time()),
        "machine": _machine(),
        "numpy_available": numpy_available,
    }
    lines = ["Rete match throughput: flattened kernel vs reference",
             f"{'workload':<9} {'waves':>6} {'ref':>9} {'fast':>9} "
             f"{'speedup':>8} {'no-numpy':>9} {'speedup':>8} "
             f"{'rec ref':>9} {'rec fast':>9} {'speedup':>8}"]

    def _measure():
        throughput = {}
        for name, make_source in WORKLOADS.items():
            script = record_match_deltas(make_source())
            assert script.halted, f"{name} did not halt"
            waves = script.wave_count()
            (ref_s, fast_s, plain_s), (ref_sig, fast_sig, plain_sig) = \
                _time_replays((ReferenceReteNetwork, ReteNetwork,
                               lambda: ReteNetwork(use_numpy=False)),
                              script)
            assert fast_sig == ref_sig, f"{name}: fast diverged"
            assert plain_sig == ref_sig, f"{name}: no-numpy diverged"
            (rec_ref_s, rec_fast_s), (rec_ref_sig, rec_fast_sig) = \
                _time_replays((ReferenceReteNetwork, ReteNetwork), script,
                              recorded=True)
            assert rec_fast_sig == rec_ref_sig, \
                f"{name}: recorded fast section diverged"
            probe = ReteNetwork()
            replay_deltas(probe, script.program, script.deltas)
            throughput[name] = {
                "waves": waves,
                "cycles": script.cycles,
                "reference_s": round(ref_s, 5),
                "fast_s": round(fast_s, 5),
                "fast_no_numpy_s": round(plain_s, 5),
                "speedup": round(ref_s / fast_s, 2),
                "speedup_no_numpy": round(ref_s / plain_s, 2),
                "fast_waves_per_s": round(waves / fast_s),
                "reference_waves_per_s": round(waves / ref_s),
                "recorded_reference_s": round(rec_ref_s, 5),
                "recorded_fast_s": round(rec_fast_s, 5),
                "recorded_speedup": round(rec_ref_s / rec_fast_s, 2),
                "recorded_fast_waves_per_s": round(waves / rec_fast_s),
                "activations": rec_fast_sig[1].total_activations(),
                "numpy_engaged": probe.kernel.numpy_engaged,
            }
            row = throughput[name]
            lines.append(
                f"{name:<9} {waves:>6} {ref_s * 1e3:>7.1f}ms "
                f"{fast_s * 1e3:>7.1f}ms {row['speedup']:>7.2f}x "
                f"{plain_s * 1e3:>7.1f}ms "
                f"{row['speedup_no_numpy']:>7.2f}x "
                f"{rec_ref_s * 1e3:>7.1f}ms {rec_fast_s * 1e3:>7.1f}ms "
                f"{row['recorded_speedup']:>7.2f}x")
        return throughput

    throughput = once(benchmark, _measure)
    results["match_throughput"] = throughput
    _merge_results(results)
    report("bench_rete_throughput", "\n".join(lines))

    rubik = throughput["rubik"]
    assert rubik["numpy_engaged"] == numpy_available
    assert rubik["speedup"] >= RUBIK_MIN_SPEEDUP, (
        f"rubik match speedup {rubik['speedup']}x is below the "
        f"{RUBIK_MIN_SPEEDUP}x acceptance bar")


def test_adversarial_cross_product_stays_quadratic(benchmark, report):
    n = 48

    def _time_case(size):
        program, deltas = adversarial_cross_product(size)

        def _replay():
            matcher = ReteNetwork()
            conflict_set = replay_deltas(matcher, program, deltas)
            assert conflict_set == []
            assert matcher.memories.is_empty()

        return _best_of(_replay)

    def _measure():
        small_s = _time_case(n)
        big_s = _time_case(2 * n)
        return {"n": n,
                "small_s": round(small_s, 5),
                "big_s": round(big_s, 5),
                "time_ratio_2n_over_n": round(big_s / small_s, 2)}

    adversarial = once(benchmark, _measure)
    _merge_results({"adversarial_cross_product": adversarial})
    report("bench_rete_adversarial",
           "Adversarial cross-product (all wmes share one join key)\n"
           f"n={n}: {adversarial['small_s'] * 1e3:.1f}ms   "
           f"n={2 * n}: {adversarial['big_s'] * 1e3:.1f}ms   "
           f"ratio {adversarial['time_ratio_2n_over_n']:.2f} "
           f"(quadratic ideal 4.0, bound {ADVERSARIAL_MAX_RATIO})")

    ratio = adversarial["time_ratio_2n_over_n"]
    assert ratio <= ADVERSARIAL_MAX_RATIO, (
        f"cross-product time ratio {ratio} for n -> 2n exceeds "
        f"{ADVERSARIAL_MAX_RATIO}: match cost is no longer quadratic "
        f"in token count")
