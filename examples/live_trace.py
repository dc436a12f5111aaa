#!/usr/bin/env python3
"""Distributed tracing of a *live* actors run, end to end.

``examples/profile_section.py`` profiles the simulator — spans come
from a modeled clock, so they reconcile with the cost model exactly.
This example traces the real thing: an asyncio run of the Section 3.2
message protocol, where span context rides inside the protocol's own
``cycle``/``token``/``fire`` messages, each actor records into a
bounded flight-recorder ring, and the coordinator drains the rings
before every ``processed`` report and merges them onto one
clock-aligned axis.

The walk checks its own output, mirroring the simulator example:

1. run traced and untraced — tracing must be bit-invisible,
2. reconcile the merged spans against the run's counters (``==``),
3. attribute measured idle time to the paper's limiter categories,
4. export a Chrome trace you can open in https://ui.perfetto.dev —
   through the same writer and with the same ``control``/``proc N``
   rows as a ``repro profile`` trace of the same section, so the two
   load side by side to show where the model and the machine disagree,
5. crash an actor under supervision and watch the restart and
   checkpoint-replay windows appear as spans — plus the
   flight-recorder post-mortem dump a fatal error would leave behind.

Run:  python examples/live_trace.py
"""

import json
import pathlib
import tempfile

from repro.exec import (ActorExecutor, ChaosPolicy, match_signature,
                        run)
from repro.mpc import (TABLE_5_1, RunConfig, SupervisePolicy,
                       format_attribution)
from repro.obs import live_attribution, reconcile_live, write_chrome_trace
from repro.obs.spans import CAT_CHECKPOINT_REPLAY, CAT_RESTART
from repro.workloads import rubik_section

N_PROCS = 4
OVERHEADS = next(o for o in TABLE_5_1 if o.total_us == 8)
CONFIG = RunConfig(n_procs=N_PROCS, overheads=OVERHEADS)


def trace_a_run(trace):
    print("--- 1. traced run (tracing must be bit-invisible) ---")
    plain = run(trace, CONFIG, backend="actors")
    traced = run(trace, CONFIG.replace(live_trace=True),
                 backend="actors")
    assert match_signature(traced) == match_signature(plain), \
        "tracing changed the run!"
    assert match_signature(traced) == \
        match_signature(run(trace, CONFIG)), "live run diverged from sim"
    timeline = traced.live
    print(f"recorded {len(timeline.spans)} spans over "
          f"{len(timeline.cycle_indices())} committed cycles on "
          f"{timeline.n_procs} actors ({timeline.transport} "
          f"transport); match signature unchanged: yes\n")
    return traced, timeline


def reconcile(outcome, timeline):
    print("--- 2. spans reconcile with the run's own counters ---")
    reconcile_live(timeline, outcome.result)  # raises on mismatch
    print("match-span activations == proc_activations, cumulative "
          "busy\nsnapshots == proc_busy_us, send spans == n_messages "
          "- 1 -- all ==\n")


def attribute(timeline):
    print("--- 3. measured idle-time attribution ---")
    section = live_attribution(timeline)
    for cycle in section.cycles:
        cycle.check_sums()  # partition invariant, exact
    print(format_attribution(section))
    print("(a measurement, not a model: compare against "
          "`repro profile`)\n")


def export(timeline):
    print("--- 4. Chrome trace export ---")
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "live.trace.json"
        n_events = write_chrome_trace(timeline, out)
        payload = json.loads(out.read_text())
    threads = {e["args"]["name"] for e in payload["traceEvents"]
               if e.get("name") == "thread_name"}
    # The same row names as a simulated ``repro profile`` export.
    assert threads == {"control"} | {f"proc {p}" for p in range(N_PROCS)}
    print(f"wrote {n_events} events to a Chrome trace file")
    print(f"Perfetto rows: {sorted(threads)}\n")


def crash_and_recover(trace):
    print("--- 5. supervised crash: restarts become spans ---")
    first = trace.cycles[0].index
    config = CONFIG.replace(
        live_trace=True,
        supervise=SupervisePolicy(heartbeat_s=0.02, cycle_timeout_s=5.0,
                                  max_restarts=3, restart_delay_s=0.0))
    executor = ActorExecutor(
        chaos=ChaosPolicy(seed=3, kills=((first, 1),)))
    outcome = executor.submit(trace, config).result()
    assert match_signature(outcome) == \
        match_signature(run(trace, CONFIG)), "recovery changed matches"
    timeline = outcome.live
    restarts = [s for s in timeline.spans
                if s.category == CAT_RESTART]
    replays = [s for s in timeline.spans
               if s.category == CAT_CHECKPOINT_REPLAY]
    reconcile_live(timeline, outcome.result)
    print(f"killed actor 1 in cycle {first}: {len(restarts)} restart "
          f"span(s), {len(replays)} replay span(s);")
    print(f"committed generations: {timeline.committed} -- only the "
          f"committed attempt's\nactor spans survive the merge, and "
          f"the recovered run still reconciles.")
    print("(a *fatal* error -- restarts exhausted, wedge, protocol "
          "violation -- would\nadditionally dump every ring to "
          "flight-*.jsonl; see REPRO_FLIGHT_DIR)\n")


def main():
    trace = rubik_section()
    outcome, timeline = trace_a_run(trace)
    reconcile(outcome, timeline)
    attribute(timeline)
    export(timeline)
    crash_and_recover(trace)
    print("done.")


if __name__ == "__main__":
    main()
