#!/usr/bin/env python3
"""Profiling a simulated section: where do the cycles actually go?

The paper's Section 5 explains *why* speedups saturate — serial
broadcast floors, long dependent chains, per-message overheads, load
imbalance — by reasoning over hand-inspected traces.  The timeline
layer makes that reasoning mechanical: an opt-in recorder captures a
typed span for every piece of work the simulator schedules, and the
attribution pass charges every idle processor-microsecond to exactly
one limiter category.

This example walks the whole loop and *checks its own output*:

1. record a run (and verify recording never changes the result),
2. reconcile spans against the aggregate counters, bit for bit,
3. attribute idle time and print the report + ASCII Gantt chart,
4. export a Chrome trace you can open in https://ui.perfetto.dev, and
   JSONL spans — through the writers a live traced run uses too
   (``examples/live_trace.py``), so both load side by side.

Run:  python examples/profile_section.py
"""

import json
import pathlib
import tempfile

from repro.mpc import (TABLE_5_1, RunConfig, TimelineRecorder,
                       attribute_timeline, critical_path,
                       format_attribution, gantt, simulate,
                       simulate_config, timeline_jsonl,
                       write_chrome_trace)
from repro.workloads import weaver_section

N_PROCS = 16
OVERHEADS = next(o for o in TABLE_5_1 if o.total_us == 16)


def record(trace):
    print("--- 1. record a run (recording must be invisible) ---")
    base = simulate(trace, n_procs=N_PROCS, overheads=OVERHEADS)
    recorder = TimelineRecorder()
    result = simulate_config(trace, RunConfig(
        n_procs=N_PROCS, overheads=OVERHEADS, recorder=recorder))
    assert result == base, "recorder changed the simulation!"
    timeline = recorder.timeline
    n_spans = sum(len(c.spans) for c in timeline.cycles)
    print(f"recorded {n_spans} spans over {len(timeline.cycles)} "
          f"cycles; results bit-identical: yes\n")
    return result, timeline


def reconcile(result, timeline):
    print("--- 2. spans reconcile with the aggregate counters ---")
    for cycle_timeline, cycle_result in zip(timeline.cycles,
                                            result.cycles):
        cycle_timeline.reconcile(cycle_result)  # raises on mismatch
    print(f"all {len(timeline.cycles)} cycles reconcile exactly "
          f"(busy sums, control, network, makespan)\n")


def attribute(timeline):
    print("--- 3. idle-time attribution (paper Section 5 limiters) ---")
    section = attribute_timeline(timeline)
    for attribution in section.cycles:
        attribution.check_sums()  # categories partition measured idle
    print(format_attribution(
        section, title=f"weaver @{N_PROCS} procs, "
                       f"overheads {OVERHEADS.label()}"))
    print()
    longest = timeline.longest_cycle()
    path = critical_path(longest)
    print(f"critical path of cycle {longest.index}: "
          f"{len(path)} activations deep, ending at "
          f"{path[-1].end_us:.1f} us")
    print()
    print("Gantt chart of the longest cycle:")
    print(gantt(longest, width=72))
    print()
    return section


def export(timeline, section):
    print("--- 4. machine-readable exports ---")
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "weaver.trace.json"
        n_events = write_chrome_trace(timeline, out)
        events = json.loads(out.read_text(encoding="utf-8"))
        threads = [e["args"]["name"] for e in events["traceEvents"]
                   if e["name"] == "thread_name"]
        print(f"Chrome trace: {n_events} events on rows {threads[0]}, "
              f"{threads[1]} .. {threads[-1]} "
              f"(load in https://ui.perfetto.dev)")
    records = [json.loads(line) for line in timeline_jsonl(timeline)]
    assert len({frozenset(r) for r in records}) == 1  # one key set
    print(f"JSONL: {len(records)} spans, keys {sorted(records[0])}")
    payload = section.to_dict()
    json.dumps(payload)  # JSON-ready by construction
    dominant = section.dominant_category()
    share = section.idle_shares()[dominant]
    print(f"attribution JSON: dominant limiter is {dominant} "
          f"({share:.0%} of idle time)")


def main() -> int:
    trace = weaver_section()
    result, timeline = record(trace)
    reconcile(result, timeline)
    section = attribute(timeline)
    export(timeline, section)
    print("\nprofile walkthrough complete: all invariants hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
