"""Tests for the ``python -m repro`` command-line interface."""

import pathlib
import subprocess
import sys

import pytest

from repro.cli import main


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, text=True, timeout=300)


class TestInProcess:
    def test_sections(self, capsys):
        assert main(["sections"]) == 0
        out = capsys.readouterr().out
        assert "10750" in out and "8502" in out and "416" in out

    def test_simulate_defaults(self, capsys):
        assert main(["simulate", "--section", "weaver",
                     "--procs", "1", "4"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "weaver" in out

    def test_simulate_rejects_bad_overhead(self, capsys):
        assert main(["simulate", "--overhead", "7"]) == 2
        assert "must be one of" in capsys.readouterr().err

    def test_diagnose_section(self, capsys):
        assert main(["diagnose", "--section", "weaver"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck-generator" in out
        assert "unshare" in out

    def test_diagnose_trace_file(self, tmp_path, capsys):
        out_file = tmp_path / "t.trace"
        assert main(["trace", "--section", "tourney",
                     "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert main(["diagnose", "--trace-file", str(out_file)]) == 0
        assert "cross-product" in capsys.readouterr().out

    def test_trace_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "w.trace"
        assert main(["trace", "--section", "weaver",
                     "--out", str(out_file)]) == 0
        assert out_file.exists()
        assert main(["simulate", "--trace-file", str(out_file),
                     "--procs", "8"]) == 0
        assert "weaver" in capsys.readouterr().out

    def test_autotune_command(self, tmp_path, capsys):
        out_file = tmp_path / "tuned.trace"
        assert main(["autotune", "--section", "weaver",
                     "--procs", "16", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "improvement" in out
        assert out_file.exists()

    def test_generate_then_simulate_and_diagnose(self, tmp_path,
                                                 capsys):
        out_file = tmp_path / "custom.trace"
        assert main(["generate", "--left", "300", "--right", "100",
                     "--buckets", "2", "--skew", "2.0",
                     "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "300 left / 100 right" in out
        assert main(["simulate", "--trace-file", str(out_file),
                     "--procs", "8"]) == 0
        capsys.readouterr()
        # Two hot buckets per cycle -> the diagnostics should object.
        assert main(["diagnose", "--trace-file", str(out_file)]) == 0
        assert "cross-product" in capsys.readouterr().out

    def test_run_ops5_source(self, tmp_path, capsys):
        source = tmp_path / "prog.ops"
        source.write_text("""
            (startup (make a))
            (p go (a) --> (write done (crlf)) (remove 1))
        """)
        assert main(["run", str(source)]) == 0
        out = capsys.readouterr().out
        assert "done" in out
        assert "1 firings" in out

    def test_run_verbose_lists_firings(self, tmp_path, capsys):
        source = tmp_path / "prog.ops"
        source.write_text("""
            (startup (make a))
            (p go (a) --> (remove 1))
        """)
        assert main(["run", str(source), "--verbose"]) == 0
        assert "cycle 1: go" in capsys.readouterr().out

    def test_simulate_with_faults(self, capsys):
        assert main(["simulate", "--section", "weaver",
                     "--procs", "1", "16", "--overhead", "8",
                     "--loss", "0.01", "--fault-seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "loss=0.01" in out
        assert "retrans" in out

    def test_fault_sweep_command(self, capsys):
        assert main(["fault-sweep", "--section", "weaver",
                     "--procs", "8", "--loss", "0", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "loss" in out and "speedup" in out


class TestErrorPaths:
    """Bad input exits non-zero with a one-line error on stderr."""

    def one_line_error(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.strip().count("\n") == 0, "error must be one line"
        return err

    def test_missing_trace_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.trace"
        assert main(["simulate", "--trace-file", str(missing)]) == 2
        assert "cannot read trace file" in self.one_line_error(capsys)

    def test_malformed_trace_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("this is not a trace\n", encoding="utf-8")
        assert main(["simulate", "--trace-file", str(bad)]) == 2
        assert "malformed trace file" in self.one_line_error(capsys)

    def test_truncated_trace_file(self, tmp_path, capsys):
        whole = tmp_path / "ok.trace"
        assert main(["trace", "--section", "weaver",
                     "--out", str(whole)]) == 0
        capsys.readouterr()
        torn = tmp_path / "torn.trace"
        text = whole.read_text(encoding="utf-8")
        torn.write_text(text[: len(text) // 2].rsplit(" ", 1)[0],
                        encoding="utf-8")
        assert main(["diagnose", "--trace-file", str(torn)]) == 2
        assert "trace file" in self.one_line_error(capsys)

    def test_loss_out_of_range(self, capsys):
        assert main(["simulate", "--loss", "1.5"]) == 2
        assert "--loss" in self.one_line_error(capsys)

    def test_negative_jitter(self, capsys):
        assert main(["simulate", "--loss", "0.1",
                     "--jitter", "-3"]) == 2
        assert "--jitter" in self.one_line_error(capsys)

    def test_zero_procs(self, capsys):
        assert main(["simulate", "--procs", "0"]) == 2
        assert "--procs" in self.one_line_error(capsys)

    def test_bad_timeout(self, capsys):
        assert main(["fault-sweep", "--timeout", "0"]) == 2
        assert "--timeout" in self.one_line_error(capsys)

    def test_fault_sweep_bad_loss(self, capsys):
        assert main(["fault-sweep", "--loss", "0", "2"]) == 2
        assert "--loss" in self.one_line_error(capsys)


class TestSubprocess:
    def test_module_entry_point(self):
        result = run_cli("sections")
        assert result.returncode == 0
        assert "Table 5-2" in result.stdout

    def test_figures_single(self):
        result = run_cli("figures", "table5_1")
        assert result.returncode == 0
        assert "Table 5-1" in result.stdout

    def test_figures_unknown(self):
        result = run_cli("figures", "fig0_0")
        assert result.returncode == 2
        assert "unknown figure" in result.stderr

    def test_no_command_is_error(self):
        result = run_cli()
        assert result.returncode != 0


class TestObservability:
    """The profiling/report surfaces added with the timeline layer."""

    def test_profile_table(self, capsys):
        assert main(["profile", "weaver", "--procs", "8"]) == 0
        out = capsys.readouterr().out
        assert "idle time:" in out
        assert "critical path" in out
        assert "proc 0" in out          # the Gantt chart
        assert "B broadcast" in out     # the legend

    def test_profile_chrome_is_perfetto_loadable(self, tmp_path,
                                                 capsys):
        import json as json_mod
        out_file = tmp_path / "weaver.trace.json"
        assert main(["profile", "weaver", "--procs", "4",
                     "--format", "chrome", "--out", str(out_file)]) == 0
        assert "perfetto" in capsys.readouterr().out
        data = json_mod.loads(out_file.read_text(encoding="utf-8"))
        events = data["traceEvents"]
        assert any(e["ph"] == "M" for e in events)
        assert any(e["ph"] == "X" for e in events)

    def test_profile_json_attribution(self, capsys):
        import json as json_mod
        assert main(["profile", "weaver", "--procs", "8",
                     "--format", "json"]) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["trace"] == "weaver"
        assert payload["n_procs"] == 8
        assert set(payload["idle_shares"]) == {
            "broadcast_floor", "chain_wait", "comm_overhead",
            "imbalance", "protocol"}

    def test_profile_jsonl_spans(self, tmp_path, capsys):
        import json as json_mod
        out_file = tmp_path / "spans.jsonl"
        assert main(["profile", "weaver", "--procs", "2",
                     "--format", "jsonl", "--out", str(out_file)]) == 0
        lines = out_file.read_text(encoding="utf-8").splitlines()
        assert lines
        record = json_mod.loads(lines[0])
        assert "category" in record and "proc" in record

    def test_profile_trace_file_target(self, tmp_path, capsys):
        out_file = tmp_path / "w.trace"
        assert main(["trace", "--section", "weaver",
                     "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert main(["profile", str(out_file), "--procs", "4"]) == 0
        assert "idle time:" in capsys.readouterr().out

    def test_profile_under_faults(self, capsys):
        assert main(["profile", "weaver", "--procs", "8",
                     "--loss", "0.05", "--fault-seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "loss=0.05" in out

    def test_profile_unknown_target(self, capsys):
        assert main(["profile", "nonesuch"]) == 2
        assert "cannot read trace file" in capsys.readouterr().err

    def test_simulate_json(self, capsys):
        import json as json_mod
        assert main(["simulate", "--section", "weaver",
                     "--procs", "1", "8", "--json"]) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["trace"] == "weaver"
        assert [p["n_procs"] for p in payload["points"]] == [1, 8]
        assert payload["points"][1]["speedup"] > \
            payload["points"][0]["speedup"]

    def test_simulate_timeline_writes_chrome_trace(self, tmp_path,
                                                   capsys):
        import json as json_mod
        out_file = tmp_path / "sim.trace.json"
        assert main(["simulate", "--section", "weaver", "--procs", "8",
                     "--timeline", str(out_file)]) == 0
        assert "perfetto" in capsys.readouterr().out
        data = json_mod.loads(out_file.read_text(encoding="utf-8"))
        assert data["traceEvents"]

    def test_simulate_timeline_needs_one_proc_count(self, tmp_path,
                                                    capsys):
        out_file = tmp_path / "sim.trace.json"
        assert main(["simulate", "--section", "weaver",
                     "--procs", "4", "8",
                     "--timeline", str(out_file)]) == 2
        assert "--timeline" in capsys.readouterr().err
        assert not out_file.exists()

    def test_fault_sweep_json(self, capsys):
        import json as json_mod
        assert main(["fault-sweep", "--section", "weaver",
                     "--procs", "8", "--loss", "0", "0.02",
                     "--json"]) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["loss_rates"] == [0.0, 0.02]
        assert len(payload["speedups"]) == 2
        assert isinstance(payload["monotone"], bool)

    def test_diagnose_includes_measured_attribution(self, capsys):
        assert main(["diagnose", "--section", "weaver",
                     "--procs", "8"]) == 0
        out = capsys.readouterr().out
        assert "measured-idle" in out
        assert "of idle time at 8 procs" in out

    def test_verbosity_flags_accepted(self, capsys):
        assert main(["sections", "-q"]) == 0
        capsys.readouterr()
        assert main(["simulate", "--section", "weaver",
                     "--procs", "4", "-v"]) == 0
        capsys.readouterr()
        assert main(["profile", "weaver", "--procs", "2", "-vv"]) == 0


class TestSuperviseAndChaosFlags:
    def test_run_supervised_actors(self, capsys):
        assert main(["run", "--backend", "actors",
                     "--section", "rubik", "--procs", "2"]) == 0
        out = capsys.readouterr().out
        assert "match the simulator" in out
        assert "supervised" in out

    def test_run_chaos_seed_recovers(self, capsys):
        assert main(["run", "--backend", "actors", "--chaos-seed", "7",
                     "--section", "rubik", "--procs", "2"]) == 0
        out = capsys.readouterr().out
        assert "recovered from seeded chaos (seed 7)" in out

    def test_run_chaos_json_payload(self, capsys):
        import json as json_mod
        assert main(["run", "--backend", "actors", "--chaos",
                     "--section", "rubik", "--procs", "2",
                     "--json"]) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["supervised"] is True
        assert payload["chaos_seed"] == 0
        assert payload["matches_simulator"] is True

    def test_chaos_requires_actors_backend(self, capsys):
        assert main(["run", "--backend", "sim", "--chaos-seed", "1",
                     "--section", "rubik"]) == 2
        assert "actors backend only" in capsys.readouterr().err

    def test_run_trace_live_writes_reconciled_trace(self, tmp_path,
                                                    capsys):
        import json as json_mod
        out = tmp_path / "live.trace.json"
        assert main(["run", "--backend", "actors", "--section",
                     "rubik", "--procs", "2", "--trace-live",
                     "--trace-out", str(out), "--json"]) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["live_trace"]["reconciled"] is True
        assert payload["live_trace"]["spans"] > 0
        trace = json_mod.loads(out.read_text())
        assert any(e.get("ph") == "X" for e in trace["traceEvents"])
        assert payload["matches_simulator"] is True

    def test_trace_live_requires_actors_backend(self, capsys):
        assert main(["run", "--backend", "sim", "--trace-live",
                     "--section", "rubik"]) == 2
        assert "actors backend" in capsys.readouterr().err

    def test_trace_out_requires_trace_live(self, capsys):
        assert main(["run", "--backend", "actors", "--trace-out",
                     "x.json", "--section", "rubik"]) == 2
        assert "--trace-live" in capsys.readouterr().err

    def test_json_payloads_carry_obs_snapshot(self, capsys):
        import json as json_mod
        assert main(["simulate", "--section", "rubik", "--procs", "2",
                     "--json"]) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert "obs" in payload and isinstance(payload["obs"], dict)

    def test_loadtest_writes_bench_payload(self, tmp_path, capsys):
        import json as json_mod
        out = tmp_path / "BENCH_served.json"
        assert main(["loadtest", "--sessions", "8", "--duration",
                     "0.2", "--procs", "2", "--out", str(out)]) == 0
        assert "latency p50" in capsys.readouterr().out
        payload = json_mod.loads(out.read_text())
        assert payload["bench"] == "served_loadtest"
        assert payload["sessions"] == 8
        assert payload["completed"] + payload["shed"]["total"] \
            + sum(payload["errors"].values()) == 8
        assert set(payload["latency_s"]) >= {"p50", "p95", "p99"}

    def test_loadtest_rejects_bad_duration(self, capsys):
        assert main(["loadtest", "--duration", "0"]) == 2
        assert "--duration" in capsys.readouterr().err

    def test_diagnose_live_attribution(self, capsys):
        assert main(["diagnose", "--section", "rubik", "--procs", "2",
                     "--live"]) == 0
        assert "[live-idle]" in capsys.readouterr().out

    def test_check_only_filter(self, capsys):
        assert main(["check", "--only", "compressed_vs_exact_faults",
                     "--budget", "10"]) == 0
        assert "0 failing" in capsys.readouterr().out

    def test_check_only_rejects_unknown_name(self, capsys):
        assert main(["check", "--only", "nope", "--budget", "2"]) == 2
        assert "unknown check name" in capsys.readouterr().err
