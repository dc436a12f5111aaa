"""One workload in a fresh process: set up, warm up, measure, report.

Started by ``bench/run.py``, never by hand::

    python3 bench/child.py --workload W --seed N --seconds S --trace 0|1
        --mode setup|run --result FILE --out DIR

``--mode setup`` stops once the inputs are built (and the server is
up): its timestamp feeds ``setup_s``.  ``--mode run`` goes on to warm
up and measure, untraced (``--trace 0``, the end-to-end metrics) or
traced (``--trace 1``, the per-layer metrics; spans are written under
``--out``).  The result is one JSON object written to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time

from spans import Tracer
from workloads import WORKLOADS
from yardstick import yardstick_ms

#: Warm-up before timing: this long, or this share of a shorter run.
WARM_S, WARM_SHARE = 4.0, 0.4

#: A noisy measurement is repeated only if the repeat would end this
#: long after the process started, keeping every run under 30 s.
RERUN_BY_S = 24.0

#: Layers in pipeline order.  ``bench`` is the op's own self time: the
#: part of the op no wrapper attributed to a layer.
LAYERS = ("bench", "ops5.parse", "rete.compile", "ops5.interpret",
          "rete.match", "rete.conflict_set", "trace.record", "mpc.dense",
          "mpc.greedy", "mpc.faulty", "mpc.compressed", "exec.plan",
          "exec.actors", "exec.served")

#: Layer -> metric of its work units per second of its self time.
RATES = {"rete.match": "rete.match.waves_per_s",
         "trace.record": "trace.record.acts_per_s",
         "mpc.dense": "mpc.dense.acts_per_s",
         "mpc.compressed": "mpc.compressed.acts_per_s",
         "exec.actors": "exec.actors.msgs_per_s"}

#: Per-layer values a workload reports itself (0 where it has none).
VALUES = ("ops5.interpret.cycles", "rete.compile.nodes", "rete.match.waves",
          "rete.match.terminal_frac", "rete.match.numpy_engaged",
          "rete.conflict_set.calls", "trace.record.activations",
          "trace.record.cycles", "mpc.compressed.collapsed_frac",
          "mpc.faulty.retransmits", "mpc.model.err_pts",
          "mpc.model.peak_speedup.rubik", "mpc.model.peak_speedup.tourney",
          "mpc.model.peak_speedup.weaver", "mpc.model.loss32_pct.rubik",
          "mpc.model.loss32_pct.tourney", "mpc.model.loss32_pct.weaver",
          "exec.actors.messages", "exec.served.handoff_frac",
          "bench.gen_late_p99_frac", "bench.trace_overhead_frac",
          "bench.yardstick_ms", "bench.yardstick_iqr_frac")


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer: Tracer, report) -> tuple:
    """Every per-layer metric, plus a per-layer table for printing."""
    own = tracer.layer_self()
    wall = tracer.root_seconds()
    ops = len({span.op for span in tracer.spans if span.parent is None})
    metrics = {}
    table = {}
    for layer in LAYERS:
        seconds = own.get(layer, 0.0)
        metrics[f"{layer}.share"] = seconds / wall if wall else 0.0
        if seconds:
            table[layer] = {"self_ms_per_op": 1e3 * seconds / ops,
                            "share": metrics[f"{layer}.share"]}
    for layer, name in RATES.items():
        units = report.layer_work.get(layer, 0.0)
        metrics[name] = units / own[layer] if own.get(layer) else 0.0
    for name in VALUES:
        metrics[name] = report.values.get(name, 0)
    return metrics, table


def measure(workload, args, started: float) -> dict:
    workload.warm(min(WARM_S, WARM_SHARE * args.seconds))
    if not args.trace:
        report = workload.measure(args.seconds, started + RERUN_BY_S)
        metrics = dict(report.values)
        # Read before the oracle check, which is not the workload's
        # memory: the dense sim-scale replay alone peaks near 100 MB.
        metrics["peak_rss_mb"] = peak_rss_mb()
        # The once-per-run oracle check counts as one more attempt.
        once = workload.check_once()
        errors = report.errors + ([once] if once is not None else [])
        return {"metrics": metrics, "attempted": report.attempted + 1,
                "failed": report.failed + (once is not None),
                "errors": errors, "details": report.details}
    tracer = Tracer()
    report = workload.measure_traced(args.seconds, tracer)
    metrics, table = layer_metrics(tracer, report)
    stem = os.path.join(args.out, f"{args.workload}-seed{args.seed}")
    tracer.write(stem)
    return {"metrics": metrics, "attempted": report.attempted,
            "failed": report.failed, "errors": report.errors,
            "details": {**report.details, "layers": table,
                        "spans": len(tracer.spans),
                        "span_files": [stem + ".spans.jsonl",
                                       stem + ".trace.json"]}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    started = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    result = {"ready": time.monotonic(),
              "setup_yardstick_ms": [yardstick_ms() for _ in range(3)]}
    try:
        if args.mode == "run":
            result.update(measure(workload, args, started))
    finally:
        workload.close()
    with open(args.result, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
