"""The benchmark: OPS5 programs, simulator sweeps and served sessions,
timed end to end and through every layer.

Run from the root of a checkout::

    python3 bench/run.py [--workload W ...] [--seed N] [--seconds S]
                         [--trace 0|1] [--out DIR] [--json FILE]
                         [--check FILE]

Every workload named (default: all five) runs in its own fresh
process.  ``--trace 0`` measures the end-to-end metrics, and
``--trace 1`` the per-layer ones from spans it writes under ``--out``.
Metrics and units are declared in ``BENCHMARK.json``.  The run prints
a table, then one JSON line with ``correct``, ``attempted``, ``failed``
and ``metrics`` as its last line.  With ``--check FILE`` it exits 1 if
any end-to-end metric is worse than in FILE (a ``--json`` output, such
as ``bench/baseline.json``) by more than its bound.

Seed 0 is the default.  Seed 1 is held out for confirming claims.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from yardstick import REF_MS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"

#: Fresh processes timed for ``setup_s`` (the measuring one included).
SETUP_LAUNCHES = 5

#: A child that has not finished by then is killed and counted failed.
CHILD_TIMEOUT_S = 150.0


def parse_args(argv, names):
    parser = argparse.ArgumentParser(
        description="Time the repro pipeline end to end and per layer.")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", default=str(BENCH / "out"),
                        help="directory for spans and scratch files")
    parser.add_argument("--json", help="write the full results here")
    parser.add_argument("--check", metavar="BASELINE",
                        help="exit 1 on a regression against BASELINE")
    return parser.parse_args(argv)


def environment() -> dict:
    """Where the numbers came from."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        rev = done.stdout.strip() or None
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_rev": rev, "src_sha256": digest.hexdigest(),
            "numpy": numpy_version,
            "rete_numpy_env": os.environ.get("REPRO_RETE_NUMPY"),
            "yardstick_ref_ms": REF_MS}


def launch(workload: str, mode: str, args, scratch: Path, k: int):
    """One fresh child process; returns (spawn time, result or error)."""
    work = scratch / f"{mode}-{k}"
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC),
               REPRO_TRACE_CACHE_DIR=str(work / "trace_cache"),
               REPRO_FLIGHT_DIR=str(work / "flight"),
               REPRO_SWEEP_WORKERS="1")
    result = work / "result.json"
    cmd = [sys.executable, str(BENCH / "child.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--result", str(result), "--out", args.out]
    spawned = time.monotonic()
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return spawned, f"{mode} process timed out after {CHILD_TIMEOUT_S} s"
    if done.returncode != 0 or not result.exists():
        return spawned, f"{mode} process exited with {done.returncode}"
    return spawned, json.loads(result.read_text())


def run_workload(workload: str, args, spec: dict) -> dict:
    """Setup launches plus the measuring launch of one workload."""
    scratch = Path(args.out) / f"tmp-{workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    modes = ["setup"] * (SETUP_LAUNCHES - 1) if not args.trace else []
    setups = []
    try:
        for k, mode in enumerate(modes + ["run"]):
            spawned, result = launch(workload, mode, args, scratch, k)
            if isinstance(result, str):
                return {"correct": False, "attempted": 1, "failed": 1,
                        "errors": [result], "metrics": {}}
            setups.append((result["ready"] - spawned) * REF_MS
                          / statistics.median(result["setup_yardstick_ms"]))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics = result["metrics"]
    if not args.trace:
        q1, median, q3 = statistics.quantiles(setups, n=4)
        metrics["setup_s"] = {"value": median, "q1": q1, "q3": q3,
                              "n": len(setups)}
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    errors = list(result["errors"])
    if set(metrics) != set(units):
        errors.append(f"metrics {sorted(set(metrics) ^ set(units))} are "
                      "produced or declared but not both")
    attached = {}
    for name, unit in units.items():
        value = metrics.get(name)
        stats = value if isinstance(value, dict) else {"value": value}
        if not isinstance(stats["value"], (int, float)) \
                or not math.isfinite(stats["value"]):
            errors.append(f"{name} has no finite value")
            continue
        attached[name] = {**stats, "unit": unit}
    return {"correct": result["failed"] == 0 and not errors,
            "attempted": result["attempted"], "failed": result["failed"],
            "errors": errors, "metrics": attached,
            "details": result["details"]}


def regressions(current: dict, baseline: dict, spec: dict) -> list:
    """(workload, metric, baseline, current, worse_by, bound) for every
    end-to-end metric worse than the baseline by more than its bound."""
    found = []
    for workload, result in current["workloads"].items():
        base = baseline["workloads"].get(workload)
        if base is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in result["metrics"] or name not in base["metrics"]:
                continue
            now = result["metrics"][name]["value"]
            then = base["metrics"][name]["value"]
            worse = (now - then if metric["better"] == "lower"
                     else then - now) / then
            if worse > metric["bound"]:
                found.append((workload, name, then, now, worse,
                              metric["bound"]))
    return found


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, (int, float)) else str(value)


def print_report(payload: dict) -> None:
    env = payload["env"]
    print(f"seed {payload['seed']}  seconds {payload['seconds']:g}  "
          f"trace {payload['trace']}  cpus {env['cpus_usable']}/"
          f"{env['cpu_count']}  python {env['python']}  numpy "
          f"{env['numpy']}  rev {(env['git_rev'] or '-')[:12]}  src "
          f"{env['src_sha256'][:12]}")
    for workload, result in payload["workloads"].items():
        details = result.get("details", {})
        print(f"\n{workload}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']}"
              + (f"  yardstick {details['yardstick_ms']:.2f} ms (IQR "
                 f"{100 * details['yardstick_iqr_frac']:.0f}%)"
                 + ("  NOISY" if details.get("noisy") else "")
                 if "yardstick_ms" in details else ""))
        for error in result["errors"]:
            print(f"  ! {error}")
        for name, m in result["metrics"].items():
            if payload["trace"] and not m["value"]:
                continue  # a layer this workload bypasses
            spread = (f"  q1 {_fmt(m['q1'])}  q3 {_fmt(m['q3'])}"
                      if "q1" in m else "")
            count = f"  n {m['n']}" if "n" in m else ""
            print(f"  {name:<34} {_fmt(m['value']):>12} {m['unit']:<8}"
                  f"{spread}{count}")
        tail = details.get("latency_p90_ms")
        if tail and tail["value"] is not None:
            print(f"  (unbounded) latency_p90_ms {_fmt(tail['value'])} ms  "
                  f"n {tail['n']}")
        if "open_loop_max_rate_per_s" in details:
            print(f"  (unbounded) open-loop max rate with p90 <= 25 ms: "
                  f"{_fmt(details['open_loop_max_rate_per_s'])} /s")
        layers = details.get("layers")
        if layers:
            print(f"  {'layer':<20} {'self ms/op':>11} {'share':>7}")
            for layer, row in layers.items():
                print(f"  {layer:<20} {row['self_ms_per_op']:>11.3f} "
                      f"{100 * row['share']:>6.1f}%")
        for rung in details.get("rungs", []):
            print(f"  rung {rung['rate_per_s']:>4g}/s  n {rung['offered']:>4}"
                  f"  p50 {rung['p50_ms']:7.2f}  p90 {rung['p90_ms']:7.2f}"
                  f"  p99 {rung['p99_ms']:7.2f} ms  server p50 "
                  f"{rung['server_p50_ms']:6.2f}  shed {rung['shed']}"
                  f"  late p99 {rung['gen_late_p99_ms']:.2f} ms"
                  + ("  GENERATOR STALLED" if rung["generator_stalled"]
                     else ""))


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from the root of "
              "a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, names)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    workloads = args.workload or names
    payload = {"schema": 1, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "env": environment(),
               "workloads": {w: run_workload(w, args, spec)
                             for w in workloads}}
    print_report(payload)
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=1) + "\n")
    status = 0
    if args.check:
        baseline = json.loads(Path(args.check).read_text())
        found = regressions(payload, baseline, spec)
        for workload, name, then, now, worse, bound in found:
            print(f"REGRESSION {workload} {name}: {_fmt(then)} -> "
                  f"{_fmt(now)} ({100 * worse:.1f}% worse, bound "
                  f"{100 * bound:.0f}%)")
        status = 1 if found else 0
    results = payload["workloads"].values()
    single = len(workloads) == 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(name if single else f"{workload}/{name}"):
                    {"value": m["value"], "unit": m["unit"]}
                    for workload, r in payload["workloads"].items()
                    for name, m in r["metrics"].items()}}))
    return status


if __name__ == "__main__":
    sys.exit(main())
