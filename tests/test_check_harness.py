"""The conformance harness itself: matrix, shrinker, mutation smoke.

The mutation smoke test is the harness's own acceptance test: with one
cost constant deliberately mis-priced behind the test-only hook, the
oracle matrix must fail and the shrinker must deliver a repro of at
most 5 cycles.  If these tests pass while the mutation test fails, the
harness has gone blind.
"""

import json

import pytest

from repro import cli
from repro.check import (ProgramCase, TraceCase, build_case,
                         generate_cases, mutated_right_token_cost,
                         run_check, run_invariants, run_oracles,
                         shrink_program, shrink_trace)
from repro.check.oracles import _diff_results
from repro.mpc import CycleResult, SimResult, SparseProcArray
from repro.obs import get_registry, reset_registry
from repro.trace import validate_trace
from repro.trace.events import SectionTrace
from tests.trace_view import acts, view


def first_trace_case(seed=0):
    for case in generate_cases(seed, 10):
        if isinstance(case, TraceCase):
            return case
    raise AssertionError("no trace case in the first 10")


class TestMatrixClean:
    def test_oracles_and_invariants_pass_on_main(self):
        for case in generate_cases(0, 30):
            assert run_oracles(case) == []
            if isinstance(case, TraceCase):
                assert run_invariants(case) == []

    def test_run_check_reports_clean(self):
        reset_registry()
        report = run_check(seed=0, budget=25)
        assert report.ok
        assert report.cases_run == 25
        assert report.to_dict()["failures"] == []
        registry = get_registry()
        assert registry.counter("check.cases").value == 25
        assert registry.counter("check.oracle_runs").value > 0
        assert registry.counter("check.invariant_runs").value > 0
        assert registry.counter("check.failures").value == 0

    @pytest.mark.fuzz
    def test_deep_matrix_clean(self):
        # The nightly-tier sweep: several hundred cases, a second seed.
        assert run_check(seed=0, budget=300).ok
        assert run_check(seed=2026, budget=150).ok


class TestMutationSmoke:
    def test_mispriced_cost_is_caught_and_shrunk(self, tmp_path):
        with mutated_right_token_cost(1.0):
            report = run_check(seed=0, budget=5,
                               out_dir=str(tmp_path))
        assert not report.ok
        assert report.failures, "harness did not catch the mutation"
        for failure in report.failures:
            # Acceptance bar: a shrunk repro of <= 5 cycles.
            assert failure.repro["n_cycles"] <= 5
            assert failure.repro["n_activations"] <= 10
            assert failure.checks
            path = failure.repro_path
            assert path is not None
            payload = json.loads((tmp_path / path.split("/")[-1])
                                 .read_text())
            assert payload["case"]["seed"] == 0
            assert payload["repro"]["trace"][0].startswith("#repro-trace")

    def test_mutation_is_scoped_to_the_context(self):
        case = first_trace_case()
        with mutated_right_token_cost(5.0):
            assert run_oracles(case) != []
        assert run_oracles(case) == []

    def test_multiple_oracles_catch_it(self):
        # The mutation hits only the optimized fast path, so every
        # mirror of that path must notice.
        case = first_trace_case()
        with mutated_right_token_cost(1.0):
            names = {name for name, _ in run_oracles(case)}
        assert "opt_vs_reference" in names
        assert "recorder_invisible" in names


class TestTypeDrift:
    """An int where a float belongs compares equal but changes ``repr``
    digests and ``--json`` payloads, so the oracles' diff reports it."""

    @staticmethod
    def result(recovery_us, busy):
        return SimResult(trace_name="x", n_procs=1, cycles=[CycleResult(
            index=3, makespan_us=30.0, proc_busy_us=busy,
            proc_activations=[0], proc_left_activations=[0],
            n_messages=1, network_busy_us=0.0, control_busy_us=0.0,
            recovery_us=recovery_us)])

    def test_int_vs_float_scalar_is_reported(self):
        diff = _diff_results(self.result(0, [30.0]),
                             self.result(0.0, [30.0]))
        assert diff is not None
        assert "cycle 3: recovery_us" in diff and "int" in diff

    def test_proc_arrays_compare_by_value(self):
        sparse = SparseProcArray(1, 30.0)
        assert _diff_results(self.result(0.0, [30.0]),
                             self.result(0.0, sparse)) is None


class TestShrinkTrace:
    def test_shrinks_to_single_activation(self):
        case = first_trace_case()

        def fails(trace: SectionTrace) -> bool:
            return any(act.side == "right"
                       for cycle in trace for act in acts(cycle))

        shrunk = shrink_trace(case.trace, fails)
        assert fails(shrunk)
        assert validate_trace(shrunk) == []
        assert len(shrunk.cycles) == 1
        assert sum(len(view(c)) for c in shrunk.cycles) == 1

    def test_result_always_still_fails(self):
        case = first_trace_case(seed=3)

        def fails(trace: SectionTrace) -> bool:
            return sum(len(view(c)) for c in trace.cycles) >= 7

        shrunk = shrink_trace(case.trace, fails)
        assert fails(shrunk)
        assert sum(len(view(c)) for c in shrunk.cycles) == 7

    def test_non_failing_input_unchanged(self):
        case = first_trace_case()
        shrunk = shrink_trace(case.trace, lambda trace: False)
        assert shrunk is case.trace

    def test_respects_eval_budget(self):
        case = first_trace_case()
        evals = []

        def fails(trace: SectionTrace) -> bool:
            evals.append(1)
            return True

        shrink_trace(case.trace, fails, max_evals=10)
        assert len(evals) <= 10

    def test_shrinks_key_values(self):
        case = first_trace_case()

        def fails(trace: SectionTrace) -> bool:
            return bool(trace.cycles)

        shrunk = shrink_trace(case.trace, fails)
        for cycle in shrunk.cycles:
            for act in acts(cycle):
                assert act.key.values == ()


class TestShrinkProgram:
    def _program(self):
        for case in generate_cases(0, 10):
            if isinstance(case, ProgramCase):
                return case
        raise AssertionError("no program case in the first 10")

    def test_drops_irrelevant_rules_and_ops(self):
        case = self._program()

        def fails(rules, script) -> bool:
            return any(op[0] == "add" for op in script)

        rules, script = shrink_program(case.rules, case.script, fails)
        assert fails(rules, script)
        assert len(rules) == 1
        assert len(script) == 1

    def test_dropping_add_drops_its_remove(self):
        rules = ("(p const (a ^p 1) --> (remove 1))",)
        script = (("add", 1, "a", {"p": 1}), ("add", 2, "b", {"p": 1}),
                  ("remove", 1), ("remove", 2))

        def fails(r, s) -> bool:
            # Well-formedness probe: every remove follows its add.
            live = set()
            for op in s:
                if op[0] == "add":
                    live.add(op[1])
                elif op[1] not in live:
                    raise AssertionError("shrunk script is malformed")
                else:
                    live.remove(op[1])
            return any(op[0] == "remove" for op in s)

        _, shrunk = shrink_program(rules, script, fails)
        assert fails(rules, shrunk)
        assert len(shrunk) == 2  # one add + its remove


class TestCLI:
    def test_clean_run_exits_zero(self, capsys):
        assert cli.main(["check", "--seed", "0", "--budget", "12"]) == 0
        out = capsys.readouterr().out
        assert "12 cases" in out and "0 failing" in out

    def test_json_report(self, capsys):
        assert cli.main(["check", "--budget", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["cases_run"] == 8

    def test_mutated_run_exits_nonzero_and_writes_repros(self, tmp_path,
                                                         capsys):
        code = cli.main(["check", "--budget", "3", "--mutate", "1.0",
                         "--out", str(tmp_path)])
        assert code == 1
        assert list(tmp_path.glob("repro-seed0-case*.json"))
        assert "FAIL" in capsys.readouterr().err

    def test_bad_budget_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["check", "--budget", "0"])
        assert excinfo.value.code == 2


class TestReproRoundTrip:
    def test_descriptor_rebuilds_failing_case(self, tmp_path):
        with mutated_right_token_cost(1.0):
            report = run_check(seed=0, budget=2,
                               out_dir=str(tmp_path))
        failure = report.failures[0]
        rebuilt = build_case(failure.case["seed"],
                             failure.case["index"],
                             family=failure.case["family"])
        with mutated_right_token_cost(1.0):
            assert run_oracles(rebuilt) != []
