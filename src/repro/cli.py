"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``sections``
    Print the Table 5-2 statistics of the three characteristic sections.
``simulate``
    Simulate a section (or a trace file) on an MPC and print speedups;
    ``--loss/--dup/--jitter/--fault-seed`` inject deterministic faults.
``fault-sweep``
    Speedup-vs-loss-rate degradation curve at one processor count.
``profile``
    Record a run's timeline and report idle-time attribution, an ASCII
    Gantt chart, or export Chrome trace-event JSON / JSONL spans.
``figures``
    Regenerate paper figures (same as ``examples/paper_figures.py``).
``trace``
    Generate a section trace and write it in the Fig 4-1 text format.
``run``
    Run a section on an executor backend (``--backend sim`` /
    ``actors`` / ``served``; live runs are cross-checked against the
    simulator), or execute an OPS5 source file on the Rete engine.
    ``--trace-live`` distributed-traces an actors run (flight
    recorders, span contexts, clock-aligned merge) into a Chrome
    trace-event file, reconciled against the match counters.
``loadtest``
    Open-loop (Poisson-arrival) load test of the served backend;
    writes throughput, latency quantiles and shed counts to
    ``BENCH_served.json``.

Examples
--------
::

    python -m repro sections
    python -m repro simulate --section rubik --procs 1 8 32 --overhead 8
    python -m repro simulate --section rubik --procs 16 --overhead 8 \\
                             --loss 0.01 --jitter 5
    python -m repro fault-sweep --section rubik --procs 16 --overhead 8
    python -m repro profile rubik --procs 16 --overhead 8
    python -m repro profile rubik --procs 16 --format chrome --out t.json
    python -m repro simulate --section weaver --procs 16 --json
    python -m repro trace --section weaver --out weaver.trace
    python -m repro simulate --trace-file weaver.trace --procs 16
    python -m repro run --backend actors --section rubik --procs 2
    python -m repro run --backend actors --procs 4 --trace-live
    python -m repro run --backend served --sessions 8 --procs 4
    python -m repro loadtest --sessions 64 --duration 5
    python -m repro run my_program.ops --max-cycles 100

Errors (an unreadable or malformed trace file, an invalid flag
combination) exit with status 2 and a one-line ``error: ...`` message
on stderr — never a bare traceback.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import List, Optional

from .analysis import format_table
from .mpc import (RunConfig, fault_sweep, format_degradation, simulate_base,
                  simulate_config, speedup)
from .obs import configure_logging
from .trace import (TraceFormatError, TraceValidationError, read_trace,
                    save_trace, validate_trace)
from .workloads import rubik_section, tourney_section, weaver_section

logger = logging.getLogger(__name__)

SECTIONS = {
    "rubik": rubik_section,
    "tourney": tourney_section,
    "weaver": weaver_section,
}


class CLIError(Exception):
    """A user-facing error: printed as one line, exit status 2."""


def _print_json(payload: dict, sort_keys: bool = False) -> None:
    """Print a ``--json`` payload with the end-of-run observability
    snapshot folded in under ``"obs"``.

    Every machine-readable output thereby carries what the whole stack
    did this process — supervisor restarts, shed sessions, live-trace
    dumps — instead of those counters dying invisibly at exit."""
    from .obs import get_registry
    payload = dict(payload)
    payload["obs"] = get_registry().snapshot()
    print(json.dumps(payload, indent=2, sort_keys=sort_keys))


def _read_trace_file(path):
    try:
        trace = read_trace(path)
    except OSError as err:
        raise CLIError(f"cannot read trace file {path}: "
                       f"{err.strerror or err}") from err
    except TraceFormatError as err:
        raise CLIError(f"malformed trace file {path}: {err}") from err
    try:
        validate_trace(trace)
    except TraceValidationError as err:
        raise CLIError(f"invalid trace {path}: {err}") from err
    return trace


def _load_trace(args):
    path = getattr(args, "trace_file", None)
    if path:
        return _read_trace_file(path)
    return SECTIONS[args.section](args.seed)


def _run_config(args, **kwargs) -> RunConfig:
    """Flag validation, shared with every backend: a RunConfig off the
    argparse namespace (:meth:`repro.mpc.RunConfig.from_args`), with
    ``ValueError`` re-raised as a one-line :class:`CLIError`."""
    try:
        return RunConfig.from_args(args, **kwargs)
    except ValueError as err:
        raise CLIError(str(err)) from err


def _check_procs(procs) -> None:
    for n in procs if isinstance(procs, list) else [procs]:
        if n < 1:
            raise CLIError(f"--procs must be >= 1, got {n}")


def cmd_sections(args) -> int:
    rows = []
    for name, build in SECTIONS.items():
        stats = build(args.seed).stats()
        lf = round(100 * stats.left_fraction)
        rows.append([name, f"{stats.left} ({lf}%)",
                     f"{stats.right} ({100 - lf}%)", stats.total])
    print(format_table(
        ["section", "left", "right", "total"], rows,
        title="Characteristic sections (paper Table 5-2)"))
    return 0


def cmd_simulate(args) -> int:
    _check_procs(args.procs)
    configs = [_run_config(args, n_procs=n) for n in args.procs]
    faults = configs[0].faults
    trace = _load_trace(args)
    overheads = configs[0].overheads
    if args.timeline and len(args.procs) != 1:
        raise CLIError("--timeline needs exactly one --procs value "
                       f"(got {len(args.procs)})")
    base = simulate_base(trace)
    if args.timeline:
        from .mpc import TimelineRecorder, write_chrome_trace
        recorder = TimelineRecorder()
        runs = [simulate_config(trace,
                                configs[0].replace(recorder=recorder))]
        write_chrome_trace(recorder.timeline, args.timeline)
    else:
        runs = [simulate_config(trace, config) for config in configs]
    if args.json:
        payload = {
            "trace": trace.name,
            "overheads_us": overheads.total_us,
            "base_total_us": base.total_us,
            "faults": None if faults is None else {
                "seed": faults.seed, "loss_prob": faults.loss_prob,
                "dup_prob": faults.dup_prob,
                "jitter_us": faults.jitter_us},
            "points": [{
                "n_procs": n_procs,
                "total_us": run.total_us,
                "speedup": speedup(base, run),
                "n_messages": run.n_messages,
                "network_idle_fraction": run.network_idle_fraction(),
                "retransmits": run.retransmits,
                "duplicate_drops": run.duplicate_drops,
            } for n_procs, run in zip(args.procs, runs)],
        }
        _print_json(payload)
        return 0
    headers = ["procs", "time (ms)", "speedup", "messages", "net idle"]
    if faults is not None:
        headers += ["retransmits", "dup drops"]
    rows = []
    for n_procs, run in zip(args.procs, runs):
        row = [n_procs, f"{run.total_us / 1000:.2f}",
               f"{speedup(base, run):.2f}x", run.n_messages,
               f"{run.network_idle_fraction():.1%}"]
        if faults is not None:
            row += [run.retransmits, run.duplicate_drops]
        rows.append(row)
    title = (f"{trace.name}: base (1 proc, 0 overhead) = "
             f"{base.total_us / 1000:.2f} ms; "
             f"overheads {overheads.label()}")
    if faults is not None:
        title += (f"; faults loss={faults.loss_prob:g} "
                  f"dup={faults.dup_prob:g} jitter={faults.jitter_us:g}us "
                  f"seed={faults.seed}")
    print(format_table(headers, rows, title=title))
    if args.timeline:
        print(f"timeline written to {args.timeline} "
              f"(load in https://ui.perfetto.dev)")
    return 0


def cmd_fault_sweep(args) -> int:
    for rate in args.loss:
        if not 0.0 <= rate <= 1.0:
            raise CLIError(f"--loss rates must be in [0, 1], got {rate:g}")
    # Validates procs, overhead and the shared fault/protocol flags.
    config = _run_config(args, n_procs=args.procs, loss=0.0)
    trace = _load_trace(args)
    overheads = config.overheads
    curve = fault_sweep(trace, n_procs=args.procs, loss_rates=args.loss,
                        overheads=overheads, seed=args.fault_seed,
                        dup_prob=args.dup, jitter_us=args.jitter,
                        protocol=config.protocol)
    if args.timeline:
        # Record the worst point of the sweep (highest loss rate).
        from .mpc import TimelineRecorder, write_chrome_trace
        recorder = TimelineRecorder()
        simulate_config(trace, _run_config(
            args, n_procs=args.procs, loss=max(args.loss),
            recorder=recorder))
        write_chrome_trace(recorder.timeline, args.timeline)
    if args.json:
        _print_json({
            "trace": trace.name,
            "n_procs": args.procs,
            "overheads_us": overheads.total_us,
            "seed": args.fault_seed,
            "loss_rates": curve.loss_rates,
            "speedups": curve.speedups,
            "degradation": [curve.degradation(i)
                            for i in range(len(curve.speedups))],
            "monotone": curve.is_monotone(),
        })
    else:
        print(format_degradation(
            curve,
            title=f"{trace.name}@{args.procs} procs, overheads "
                  f"{overheads.label()}, seed {args.fault_seed}: "
                  f"speedup degradation vs message-loss rate"))
        if args.timeline:
            print(f"timeline (loss {max(args.loss):g}) written to "
                  f"{args.timeline}")
    if not curve.is_monotone():
        logger.warning("degradation curve is not monotone")
    return 0


def cmd_diagnose(args) -> int:
    from .analysis import diagnose, diagnose_measured
    config = _run_config(args, n_procs=args.procs)
    trace = _load_trace(args)
    findings = diagnose(trace)
    findings += diagnose_measured(trace, n_procs=args.procs,
                                  overheads=config.overheads)
    if getattr(args, "live", False):
        # Measured truth, not the model: run the actors backend traced
        # and attribute the merged live timeline the same way.
        from .analysis import diagnose_live
        from .exec import ExecutorError
        from .exec import run as exec_run
        try:
            outcome = exec_run(trace, config.replace(live_trace=True),
                               backend="actors")
        except ExecutorError as err:
            raise CLIError(f"{type(err).__name__}: {err}") from err
        findings += diagnose_live(outcome.live)
    if not findings:
        print(f"{trace.name}: no speedup limiters detected")
        return 0
    print(f"{trace.name}: {len(findings)} finding(s)")
    for finding in findings:
        print(f"  {finding}")
    return 0


def cmd_profile(args) -> int:
    from .mpc import (TimelineRecorder, attribute_timeline,
                      format_attribution, gantt_section, simulate_config,
                      write_chrome_trace, write_timeline_jsonl)
    recorder = TimelineRecorder()
    config = _run_config(args, n_procs=args.procs, recorder=recorder)
    overheads = config.overheads
    faults = config.faults
    if args.target in SECTIONS:
        trace = SECTIONS[args.target](args.seed)
    else:
        trace = _read_trace_file(args.target)
    simulate_config(trace, config)
    timeline = recorder.timeline
    if args.format == "chrome":
        out = args.out or f"{trace.name}-{args.procs}p.trace.json"
        write_chrome_trace(timeline, out)
        print(f"wrote Chrome trace with "
              f"{sum(len(c.spans) for c in timeline.cycles)} spans over "
              f"{len(timeline.cycles)} cycles to {out} "
              f"(load in https://ui.perfetto.dev)")
        return 0
    if args.format == "jsonl":
        if args.out:
            with open(args.out, "w", encoding="utf-8") as stream:
                n = write_timeline_jsonl(timeline, stream)
            print(f"wrote {n} spans to {args.out}")
        else:
            write_timeline_jsonl(timeline, sys.stdout)
        return 0
    section = attribute_timeline(timeline)
    if args.format == "json":
        text = json.dumps(section.to_dict(), indent=2)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as stream:
                stream.write(text + "\n")
            print(f"wrote attribution to {args.out}")
        else:
            print(text)
        return 0
    title = (f"{trace.name} @{args.procs} procs, overheads "
             f"{overheads.label()}")
    if faults is not None:
        title += (f", faults loss={faults.loss_prob:g} "
                  f"dup={faults.dup_prob:g} seed={faults.seed}")
    print(format_attribution(section, title=title))
    print()
    print(gantt_section(timeline, width=args.width,
                        cycles=args.cycle or None))
    return 0


def cmd_autotune(args) -> int:
    from .analysis import autotune
    trace = _load_trace(args)
    result = autotune(trace, n_procs=args.procs)
    print(f"{trace.name}:")
    print(result.summary())
    if args.out:
        from .trace import save_trace
        save_trace(result.trace, args.out)
        print(f"tuned trace written to {args.out}")
    return 0


def cmd_trace(args) -> int:
    trace = SECTIONS[args.section](args.seed)
    save_trace(trace, args.out)
    print(f"wrote {trace.total_activations()} activations over "
          f"{len(trace.cycles)} cycles to {args.out}")
    return 0


def cmd_generate(args) -> int:
    from .trace import save_trace
    from .workloads import SectionSpec, generate_section
    spec = SectionSpec(
        name=args.name, cycles=args.cycles,
        right_activations=args.right, left_activations=args.left,
        fanout=args.fanout, active_left_buckets=args.buckets,
        left_skew=args.skew, seed=args.seed)
    trace = generate_section(spec)
    save_trace(trace, args.out)
    stats = trace.stats()
    print(f"wrote {stats.total} activations "
          f"({stats.left} left / {stats.right} right) over "
          f"{len(trace.cycles)} cycles to {args.out}")
    return 0


def cmd_figures(args) -> int:
    # Reuse the example script's figure registry.
    import importlib.util
    import pathlib
    spec_path = (pathlib.Path(__file__).resolve().parent.parent.parent
                 / "examples" / "paper_figures.py")
    if not spec_path.exists():
        print("error: examples/paper_figures.py not found "
              "(source checkout required)", file=sys.stderr)
        return 2
    spec = importlib.util.spec_from_file_location("paper_figures",
                                                  spec_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # type: ignore[union-attr]
    sections = [rubik_section(), tourney_section(), weaver_section()]
    wanted = args.names or list(module.FIGURES)
    for name in wanted:
        if name not in module.FIGURES:
            print(f"error: unknown figure {name!r}; choose from "
                  f"{sorted(module.FIGURES)}", file=sys.stderr)
            return 2
        module.FIGURES[name](sections)
    return 0


def cmd_check(args) -> int:
    from .check import mutated_right_token_cost, run_check
    if args.budget < 1:
        raise CLIError(f"--budget must be >= 1, got {args.budget}")

    def progress(case, failures):
        if failures:
            names = ", ".join(name for name, _ in failures)
            print(f"FAIL case {case.index} ({case.family}): {names}",
                  file=sys.stderr)
        elif args.verbosity:
            print(f"ok case {case.index} ({case.family})",
                  file=sys.stderr)

    only = tuple(name for name in (args.only or "").split(",")
                 if name) or None

    def run():
        try:
            return run_check(seed=args.seed, budget=args.budget,
                             out_dir=args.out, only=only,
                             progress=progress)
        except ValueError as err:
            raise CLIError(str(err)) from err

    if args.mutate:
        # Deliberately mis-price the optimized loop: a harness that
        # still exits 0 under --mutate is broken.
        with mutated_right_token_cost(args.mutate):
            report = run()
    else:
        report = run()

    if args.json:
        _print_json(report.to_dict(), sort_keys=True)
    else:
        print(f"checked {report.cases_run} cases "
              f"(seed {report.seed}) in {report.elapsed_s:.2f}s: "
              f"{len(report.failures)} failing")
        for failure in report.failures:
            print(f"  {failure.describe()}")
            if failure.repro_path:
                print(f"    repro: {failure.repro_path}")
    return 0 if report.ok else 1


def cmd_loadtest(args) -> int:
    from .exec.loadtest import run_loadtest
    if args.duration <= 0:
        raise CLIError(f"--duration must be > 0, got {args.duration:g}")
    _check_procs(args.procs)
    payload = run_loadtest(sessions=args.sessions,
                           duration_s=args.duration, seed=args.seed,
                           procs=args.procs,
                           max_sessions=args.max_sessions,
                           max_pending=args.max_pending)
    with open(args.out, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    if args.json:
        _print_json(payload)
    else:
        shed = payload["shed"]
        lat = payload["latency_s"]
        print(f"offered {payload['sessions']} sessions over "
              f"{payload['duration_s']:g}s "
              f"({payload['offered_rate_per_s']:.1f}/s, seed "
              f"{payload['seed']}), {payload['procs']} actors each")
        print(f"  completed {payload['completed']} "
              f"({payload['throughput_per_s']:.1f}/s achieved); shed "
              f"{shed['total']} (overloaded {shed['overloaded']}, "
              f"draining {shed['draining']}); "
              f"errors {sum(payload['errors'].values())}")
        if lat["count"]:
            print(f"  latency p50 {lat['p50'] * 1000:.1f} ms / "
                  f"p95 {lat['p95'] * 1000:.1f} ms / "
                  f"p99 {lat['p99'] * 1000:.1f} ms "
                  f"(max {lat['max'] * 1000:.1f} ms)")
    print(f"wrote {args.out}")
    return 0


def cmd_run(args) -> int:
    if args.source:
        return _run_ops5(args)
    return _run_backend(args)


def _run_ops5(args) -> int:
    """The legacy direct mode: execute an OPS5 source file."""
    from .ops5 import Interpreter, parse_program
    from .rete import ReteNetwork
    with open(args.source, "r", encoding="utf-8") as fh:
        program = parse_program(fh.read())
    interp = Interpreter(matcher=ReteNetwork())
    interp.load_program(program)
    result = interp.run(max_cycles=args.max_cycles)
    sys.stdout.write(result.output)
    status = ("halted" if result.halted
              else "quiesced" if result.quiesced else "cycle limit")
    print(f"[{result.cycles} firings; {status}]")
    if args.verbose:
        for record in result.firings:
            print(f"  cycle {record.cycle}: {record.production_name}")
    return 0


#: The ``repro run --chaos`` preset: actor kills and stalls (per
#: actor-cycle, cheap to recover, detected immediately) plus message
#: delays (harmless to counting).  Per-message drop/duplicate faults
#: are deliberately absent: a real section pushes thousands of data
#: messages per cycle, so any per-message corruption rate makes a
#: clean replay attempt improbable within the restart budget — those
#: faults are exercised by ``repro check --only live_recovery`` and
#: the chaos test suite on small generated traces instead.
_CHAOS_PRESET = dict(kill_prob=0.05, delay_prob=0.01, delay_s=0.002,
                     stall_prob=0.05, stall_s=0.01)


def _chaos_policy(args):
    """The ChaosPolicy requested by ``--chaos``/``--chaos-seed``."""
    if not (getattr(args, "chaos", False)
            or getattr(args, "chaos_seed", None) is not None):
        return None
    if args.backend != "actors":
        raise CLIError("--chaos applies to the actors backend only "
                       "(use --backend actors)")
    from .exec import ChaosPolicy
    seed = args.chaos_seed if args.chaos_seed is not None else 0
    return ChaosPolicy(seed=seed, **_CHAOS_PRESET)


def _run_backend(args) -> int:
    """Run a section on one executor backend (``--backend``)."""
    from .exec import ExecutorError, get_executor, match_signature
    from .exec import run as exec_run
    config = _run_config(args, n_procs=args.procs)
    if config.compress_rounds and args.backend != "sim":
        raise CLIError("--compress-rounds applies to the sim backend "
                       "only (live backends execute every cycle)")
    if config.live_trace and args.backend != "actors":
        raise CLIError("--trace-live applies to the actors backend "
                       "only (use --backend actors; 'repro profile' "
                       "exports modeled sim timelines)")
    if getattr(args, "trace_out", None) and not config.live_trace:
        raise CLIError("--trace-out requires --trace-live")
    chaos = _chaos_policy(args)
    if chaos is not None:
        # Bound the per-cycle deadline so an injected wedge surfaces
        # in seconds, not the full REPRO_EXEC_TIMEOUT_S.
        import dataclasses as _dc
        from .mpc import SupervisePolicy
        policy = config.supervise or SupervisePolicy()
        if policy.cycle_timeout_s is None:
            policy = _dc.replace(policy, cycle_timeout_s=30.0)
        config = config.replace(supervise=policy)
    trace = _load_trace(args)
    try:
        if args.backend == "served":
            executor = get_executor("served",
                                    max_sessions=args.sessions)
            try:
                handles = [executor.submit(trace, config)
                           for _ in range(args.sessions)]
                results = [handle.result() for handle in handles]
            finally:
                executor.close()
            outcome = results[0]
            if any(match_signature(r) != match_signature(outcome)
                   for r in results[1:]):
                raise CLIError("served sessions diverged on the same "
                               "input — session isolation is broken")
        elif args.backend == "actors":
            outcome = exec_run(trace, config, backend="actors",
                               transport=args.transport, chaos=chaos)
        else:
            outcome = exec_run(trace, config, backend="sim")
    except ExecutorError as err:
        # Typed, actionable: the run failed loudly rather than wedging
        # or returning silently-wrong counters.
        raise CLIError(f"{type(err).__name__}: {err}") from err
    except ValueError as err:
        raise CLIError(str(err)) from err
    live = args.backend != "sim"
    if live:
        # Every live run is cross-checked against the model: same
        # activation counts, message counts and fire sequence.
        reference = exec_run(trace, config.replace(live_trace=False),
                             backend="sim")
        if match_signature(reference) != match_signature(outcome):
            raise CLIError(f"{args.backend} run diverged from the "
                           f"simulator on {trace.name}")
    trace_info = None
    if config.live_trace:
        trace_info = _export_live_trace(args, trace, outcome)
    result = outcome.result
    n_fires = sum(len(f) for f in outcome.fires)
    if args.json:
        payload = {
            "trace": trace.name,
            "backend": args.backend,
            "n_procs": config.n_procs,
            "overheads_us": config.overheads.total_us,
            "cycles": result.n_cycles,
            "n_messages": result.n_messages,
            "instantiations": n_fires,
            "wall_s": outcome.wall_s,
            "matches_simulator": True if live else None,
        }
        if live:
            payload["supervised"] = True
        if chaos is not None:
            payload["chaos_seed"] = chaos.seed
        if args.backend == "served":
            payload["sessions"] = args.sessions
        if args.backend == "sim":
            payload["total_us"] = result.total_us
        if trace_info is not None:
            payload["live_trace"] = trace_info
        _print_json(payload)
        return 0
    print(f"{trace.name} on backend {args.backend}: "
          f"{result.n_cycles} cycles, {result.n_messages} messages, "
          f"{n_fires} instantiations "
          f"({config.n_procs} procs, overheads "
          f"{config.overheads.label()})")
    if args.backend == "sim":
        print(f"  model time {result.total_us / 1000:.2f} ms; "
              f"wall {outcome.wall_s:.3f} s")
    else:
        print(f"  wall {outcome.wall_s:.3f} s"
              + (f" ({args.transport} transport)"
                 if args.backend == "actors" else
                 f" ({args.sessions} concurrent sessions, "
                 f"all identical)"))
        print("  match results and fire sequence match the simulator")
        if chaos is not None:
            print(f"  recovered from seeded chaos (seed {chaos.seed}) "
                  f"bit-identically")
        else:
            print("  supervised: liveness checks, deadlines, "
                  "checkpoint-replay restarts")
        if trace_info is not None:
            print(f"  live trace: {trace_info['spans']} spans over "
                  f"{trace_info['cycles']} committed cycles, "
                  f"reconciled against the match counters; written to "
                  f"{trace_info['path']} "
                  f"(load in https://ui.perfetto.dev)")
            for line in trace_info["findings"]:
                print(f"    {line}")
    return 0


def _export_live_trace(args, trace, outcome) -> dict:
    """Write, reconcile and summarize a ``--trace-live`` run's merged
    timeline; returns the JSON-ready ``live_trace`` payload."""
    from .analysis import diagnose_live
    from .obs.trace import reconcile_live, write_chrome_trace_live
    timeline = outcome.live
    if timeline is None:
        raise CLIError("--trace-live produced no timeline "
                       "(executor returned no live trace)")
    try:
        reconcile_live(timeline, outcome.result)
    except ValueError as err:
        raise CLIError(f"live trace failed reconciliation: {err}") \
            from err
    out = getattr(args, "trace_out", None) \
        or f"{trace.name}-live-{args.transport}.trace.json"
    with open(out, "w", encoding="utf-8") as stream:
        write_chrome_trace_live(timeline, stream)
    findings = [str(f) for f in diagnose_live(timeline)]
    return {
        "path": out,
        "spans": len(timeline.spans),
        "cycles": len(timeline.cycle_indices()),
        "reconciled": True,
        "findings": findings,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Production systems on message-passing computers "
                    "(Tambe/Acharya/Gupta 1989) — reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return value

    # Shared logging verbosity (routed through repro.obs.logging).
    verb = argparse.ArgumentParser(add_help=False)
    verb.add_argument(
        "-v", dest="verbosity", action="count", default=0,
        help="log progress to stderr (-v = INFO, -vv = DEBUG)")
    verb.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress warnings (errors only)")

    # Shared output/input flags, declared once and reused by every
    # subcommand that takes them (same spelling and default everywhere).
    jsonp = argparse.ArgumentParser(add_help=False)
    jsonp.add_argument(
        "--json", action="store_true",
        help="print machine-readable JSON instead of a table")

    seedp = argparse.ArgumentParser(add_help=False)
    seedp.add_argument("--seed", type=int, default=0,
                       help="trace-generation seed (default 0)")

    timelinep = argparse.ArgumentParser(add_help=False)
    timelinep.add_argument(
        "--timeline", metavar="PATH",
        help="record the run and write a Chrome trace-event file here")

    compressp = argparse.ArgumentParser(add_help=False)
    compressp.add_argument(
        "--compress-rounds", action="store_true",
        help="collapse fully-idle cycle stretches analytically "
             "(bit-identical results, O(active work) runtime; "
             "composes with fault injection — fault draws are keyed "
             "to absolute cycle indices)")

    def source_parent(default_section: str) -> argparse.ArgumentParser:
        src = argparse.ArgumentParser(add_help=False)
        group = src.add_mutually_exclusive_group()
        group.add_argument("--section", choices=sorted(SECTIONS),
                           default=default_section)
        group.add_argument("--trace-file", help="a saved Fig 4-1 trace")
        return src

    p = sub.add_parser("sections", help="Table 5-2 statistics",
                       parents=[verb, seedp])
    p.set_defaults(fn=cmd_sections)

    # Shared fault-injection knobs (see README "Fault model").
    fault = argparse.ArgumentParser(add_help=False)
    fault.add_argument(
        "--dup", type=float, default=0.0, metavar="P",
        help="per-message duplication probability in [0, 1] (default 0)")
    fault.add_argument(
        "--jitter", type=float, default=0.0, metavar="US",
        help="max extra transit latency per message in us (default 0)")
    fault.add_argument(
        "--fault-seed", type=int, default=0, metavar="N",
        help="seed of the deterministic fault model (default 0); the "
             "same seed always reproduces the same faults")
    fault.add_argument(
        "--timeout", type=float, default=500.0, metavar="US",
        help="ack timeout before retransmit, in us (default 500)")
    fault.add_argument(
        "--retries", type=int, default=8, metavar="N",
        help="max retransmissions before the reliable fallback "
             "(default 8)")

    p = sub.add_parser("simulate", help="simulate a section on an MPC",
                       parents=[fault, verb,
                                source_parent("rubik"), seedp, jsonp,
                                timelinep, compressp])
    p.add_argument("--procs", type=int, nargs="+",
                   default=[1, 2, 4, 8, 16, 32])
    p.add_argument("--overhead", type=int, default=0,
                   help="total message overhead in us "
                        "(a Table 5-1 row: 0, 8, 16 or 32)")
    p.add_argument("--loss", type=float, default=0.0, metavar="P",
                   help="per-message loss probability in [0, 1] "
                        "(default 0 = the paper's perfect network)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("fault-sweep",
                       help="speedup degradation vs message-loss rate",
                       parents=[fault, verb,
                                source_parent("rubik"), seedp, jsonp,
                                timelinep])
    p.add_argument("--procs", type=int, default=16,
                   help="processor count held fixed across the sweep")
    p.add_argument("--loss", type=float, nargs="+", metavar="P",
                   default=[0.0, 1e-4, 1e-3, 1e-2],
                   help="loss rates to sweep (default: 0 1e-4 1e-3 1e-2)")
    p.add_argument("--overhead", type=int, default=8,
                   help="total message overhead in us "
                        "(a Table 5-1 row: 0, 8, 16 or 32; default 8)")
    p.set_defaults(fn=cmd_fault_sweep)

    p = sub.add_parser("profile",
                       help="record a run and report its timeline: "
                            "idle-time attribution, Gantt chart, "
                            "Chrome trace export",
                       parents=[fault, verb, seedp])
    p.add_argument("target",
                   help="section name (%s) or a saved trace file"
                        % "/".join(sorted(SECTIONS)))
    p.add_argument("--procs", type=int, default=16)
    p.add_argument("--overhead", type=int, default=8,
                   help="total message overhead in us "
                        "(a Table 5-1 row: 0, 8, 16 or 32; default 8)")
    p.add_argument("--loss", type=float, default=0.0, metavar="P",
                   help="per-message loss probability in [0, 1] "
                        "(default 0)")
    p.add_argument("--format", choices=["table", "chrome", "jsonl",
                                        "json"],
                   default="table",
                   help="table = attribution + Gantt (default); chrome "
                        "= Perfetto-loadable trace-event JSON; jsonl = "
                        "one JSON object per span; json = attribution "
                        "summary")
    p.add_argument("--out", metavar="PATH",
                   help="output file (chrome default: "
                        "<trace>-<procs>p.trace.json; jsonl/json "
                        "default: stdout)")
    p.add_argument("--cycle", type=int, nargs="+", metavar="N",
                   help="cycle indices to chart (default: the longest)")
    p.add_argument("--width", type=int, default=72,
                   help="Gantt chart width in columns (default 72)")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("diagnose",
                       help="detect speedup limiters in a trace "
                            "(Section 5.2 methodology)",
                       parents=[verb, source_parent("tourney"),
                                seedp])
    p.add_argument("--procs", type=int, default=16,
                   help="processor count for the measured idle-time "
                        "attribution (default 16)")
    p.add_argument("--overhead", type=int, default=8,
                   help="overhead setting for the measured attribution "
                        "(default 8)")
    p.add_argument("--live", action="store_true",
                   help="also run the actors backend with live "
                        "tracing and attribute the measured (wall-"
                        "clock) idle time — same categories and "
                        "remedies as the simulated attribution")
    p.set_defaults(fn=cmd_diagnose)

    p = sub.add_parser("trace", help="write a section trace to a file",
                       parents=[verb, seedp])
    p.add_argument("--section", choices=sorted(SECTIONS),
                   default="rubik")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("autotune",
                       help="apply the Section 5.2 remedies "
                            "automatically",
                       parents=[verb, source_parent("tourney"),
                                seedp])
    p.add_argument("--procs", type=int, default=16)
    p.add_argument("--out", help="write the tuned trace here")
    p.set_defaults(fn=cmd_autotune)

    p = sub.add_parser("generate",
                       help="synthesize a custom section trace",
                       parents=[verb, seedp])
    p.add_argument("--name", default="custom")
    p.add_argument("--cycles", type=int, default=4)
    p.add_argument("--right", type=int, default=1000,
                   help="right activations over the section")
    p.add_argument("--left", type=int, default=1000,
                   help="left activations over the section")
    p.add_argument("--fanout", type=int, default=4)
    p.add_argument("--buckets", type=int, default=32,
                   help="active left buckets per cycle")
    p.add_argument("--skew", type=float, default=0.8,
                   help="Zipf skew of left traffic over buckets")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("figures", help="regenerate paper figures",
                       parents=[verb])
    p.add_argument("names", nargs="*",
                   help="figure ids (default: all)")
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser(
        "run",
        help="run a section on an executor backend, or an OPS5 file",
        description="With SOURCE: execute an OPS5 source file on the "
                    "Rete engine (the legacy direct mode). Without: "
                    "run a section on one of the pluggable executor "
                    "backends — 'sim' (the discrete-event simulator), "
                    "'actors' (live asyncio or multiprocessing actors "
                    "speaking the Section 3.2 message protocol) or "
                    "'served' (N concurrent sessions on one asyncio "
                    "server). Live runs are cross-checked against the "
                    "simulator: same match counters, same fire "
                    "sequence.",
        parents=[verb, source_parent("rubik"), seedp, jsonp,
                 compressp])
    p.add_argument("source", nargs="?",
                   help="an OPS5 source file (legacy direct mode; "
                        "overrides --backend)")
    p.add_argument("--backend", choices=("sim", "actors", "served"),
                   default="sim",
                   help="executor backend (default sim)")
    p.add_argument("--procs", type=int, default=8,
                   help="match processors / actors (default 8)")
    p.add_argument("--overhead", type=int, default=0,
                   help="total message overhead in us "
                        "(a Table 5-1 row: 0, 8, 16 or 32)")
    p.add_argument("--transport", choices=("asyncio", "process"),
                   default="asyncio",
                   help="actors backend: how messages move "
                        "(default asyncio; 'process' = one OS process "
                        "per actor)")
    p.add_argument("--sessions", type=positive_int, default=4,
                   metavar="N",
                   help="served backend: concurrent sessions to run "
                        "(default 4)")
    p.add_argument("--chaos", action="store_true",
                   help="actors backend: inject a light deterministic "
                        "chaos mix (message drop/duplicate/delay, "
                        "actor stalls and kills) and recover through "
                        "supervision")
    p.add_argument("--chaos-seed", type=int, default=None, metavar="N",
                   help="seed of the deterministic chaos policy "
                        "(implies --chaos; same seed, same faults)")
    p.add_argument("--trace-live", action="store_true",
                   help="actors backend: distributed-trace the live "
                        "run (per-actor flight recorders, span "
                        "contexts on every data message, clock-"
                        "aligned merge), reconcile the spans against "
                        "the match counters and write a Chrome "
                        "trace-event file; match results stay "
                        "bit-identical to the untraced run")
    p.add_argument("--trace-out", metavar="PATH",
                   help="live-trace output path (default "
                        "<trace>-live-<transport>.trace.json)")
    p.add_argument("--max-cycles", type=int, default=10_000)
    p.add_argument("--verbose", action="store_true",
                   help="list every production firing (OPS5 mode)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "loadtest",
        help="open-loop load test of the served backend",
        description="Offer N sessions to a served-backend server on "
                    "an open-loop (Poisson) arrival schedule at rate "
                    "sessions/duration, seeded and reproducible, and "
                    "measure what the server achieves: throughput, "
                    "exact client-observed latency quantiles "
                    "(p50/p95/p99) and shed counts split by reason. "
                    "Writes the full payload to --out "
                    "(BENCH_served.json).",
        parents=[verb, jsonp])
    p.add_argument("--sessions", type=positive_int, default=64,
                   metavar="N",
                   help="sessions to offer (default 64)")
    p.add_argument("--duration", type=float, default=5.0, metavar="S",
                   help="seconds to spread the arrivals over "
                        "(default 5; offered rate = sessions/duration)")
    p.add_argument("--seed", type=int, default=0,
                   help="arrival-schedule seed (default 0)")
    p.add_argument("--procs", type=int, default=2,
                   help="match actors per session (default 2)")
    p.add_argument("--max-sessions", type=positive_int, default=32,
                   metavar="N",
                   help="server concurrency limit (default 32)")
    p.add_argument("--max-pending", type=positive_int, default=None,
                   metavar="N",
                   help="shed high-water mark (default "
                        "4 x max-sessions)")
    p.add_argument("--out", default="BENCH_served.json", metavar="PATH",
                   help="bench payload file (default BENCH_served.json)")
    p.set_defaults(fn=cmd_loadtest)

    p = sub.add_parser(
        "check",
        help="run the differential-oracle conformance harness",
        description="Generate seeded adversarial traces and OPS5 "
                    "programs, run every oracle pair and invariant on "
                    "each, and shrink any failure to a minimal repro. "
                    "Exits 1 if anything fails.",
        parents=[verb, jsonp])
    p.add_argument("--seed", type=int, default=0,
                   help="root seed of the case stream (default 0)")
    p.add_argument("--budget", type=positive_int, default=200,
                   metavar="N",
                   help="number of generated cases (default 200)")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="write minimal-repro JSON files here on failure")
    p.add_argument("--only", default=None, metavar="NAMES",
                   help="run only the named oracles/invariants "
                        "(comma-separated, e.g. live_recovery); named "
                        "checks run on every eligible case, sampling "
                        "throttles notwithstanding")
    p.add_argument("--mutate", type=float, default=0.0,
                   metavar="US", help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(verbose=getattr(args, "verbosity", 0),
                      quiet=getattr(args, "quiet", False))
    try:
        return args.fn(args)
    except CLIError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
