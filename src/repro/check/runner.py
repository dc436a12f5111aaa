"""Drive the conformance harness: generate, check, shrink, report.

:func:`run_check` is what ``repro check`` calls: it walks the seeded
case stream, runs every applicable oracle and invariant on each case,
and for each failing case shrinks the input to a minimal repro and
writes it as a JSON file.  The repro records everything needed to
reproduce by hand:

* the case descriptor (``seed``/``index``/``family``) —
  :func:`repro.check.generate.build_case` rebuilds the original input
  from it alone;
* the failing check names and their one-line details;
* the shrunk input itself (a serialized trace, or rules + script).

Progress is counted in the :mod:`repro.obs` registry under
``check.cases``, ``check.failures``, ``check.oracle_runs``,
``check.invariant_runs`` and ``check.shrink_evals``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs import get_registry
from ..trace.events import SectionTrace
from ..trace.format import dumps_trace
from .generate import (CheckCase, ProgramCase, TraceCase, build_case,
                       generate_cases)
from .invariants import INVARIANTS, run_invariants
from .oracles import ORACLES, run_oracles
from .shrink import shrink_program, shrink_trace

DEFAULT_BUDGET = 200


@dataclass
class CheckFailure:
    """One falsified case, with its shrunk repro."""

    case: Dict[str, object]
    checks: List[Tuple[str, str]]
    repro: Dict[str, object]
    repro_path: Optional[str] = None

    def describe(self) -> str:
        names = ", ".join(name for name, _ in self.checks)
        return (f"case {self.case['index']} (seed {self.case['seed']}, "
                f"{self.case['family']}): {names}")


@dataclass
class CheckReport:
    """The outcome of one ``repro check`` run."""

    seed: int
    budget: int
    cases_run: int = 0
    elapsed_s: float = 0.0
    failures: List[CheckFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "cases_run": self.cases_run,
            "elapsed_s": round(self.elapsed_s, 3),
            "ok": self.ok,
            "failures": [
                {"case": f.case,
                 "checks": [{"name": n, "detail": d} for n, d in f.checks],
                 "repro_path": f.repro_path}
                for f in self.failures
            ],
        }


def _check_case(case: CheckCase,
                only: Optional[Tuple[str, ...]] = None
                ) -> List[Tuple[str, str]]:
    failures = list(run_oracles(case, only=only))
    if isinstance(case, TraceCase):
        if only is None:
            failures.extend(run_invariants(case))
        else:
            failures.extend(
                (name, detail)
                for name, detail in run_invariants(case)
                if name in only)
    return failures


def _recheck_names(case: CheckCase,
                   names: List[str]) -> List[Tuple[str, str]]:
    """Re-run only the named checks (used on shrink candidates)."""
    failures: List[Tuple[str, str]] = []
    for oracle in ORACLES:
        if oracle.name in names:
            detail = oracle.fn(case)
            if detail is not None:
                failures.append((oracle.name, detail))
    if isinstance(case, TraceCase):
        for invariant in INVARIANTS:
            if invariant.name in names:
                detail = invariant.fn(case)
                if detail is not None:
                    failures.append((invariant.name, detail))
    return failures


def _shrink_case(case: CheckCase,
                 checks: List[Tuple[str, str]],
                 max_evals: int) -> Dict[str, object]:
    """Minimal repro payload for a failing case."""
    names = [name for name, _ in checks]
    if isinstance(case, ProgramCase):
        def fails(rules, script) -> bool:
            candidate = ProgramCase(seed=case.seed, index=case.index,
                                    rules=rules, script=script)
            try:
                return bool(_recheck_names(candidate, names))
            except Exception:
                return False  # an erroring candidate is not a repro
        rules, script = shrink_program(case.rules, case.script, fails,
                                       max_evals=max_evals)
        return {"rules": list(rules),
                "script": [list(op) for op in script]}

    def fails(trace: SectionTrace) -> bool:
        candidate = TraceCase(seed=case.seed, index=case.index,
                              family=case.family, trace=trace)
        try:
            return bool(_recheck_names(candidate, names))
        except Exception:
            return False
    shrunk = shrink_trace(case.trace, fails, max_evals=max_evals)
    # The native text format (repro.trace.format), embedded as lines so
    # the repro JSON stays one self-contained reviewable file.
    return {"trace": dumps_trace(shrunk).splitlines(),
            "n_cycles": len(shrunk.cycles),
            "n_activations": sum(
                len(c.key_index().tags) - c.key_index().tags.count(0)
                for c in shrunk.cycles)}


def _write_repro(failure: CheckFailure, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    name = f"repro-seed{failure.case['seed']}-" \
           f"case{failure.case['index']}.json"
    path = os.path.join(out_dir, name)
    payload = {"case": failure.case,
               "checks": [{"name": n, "detail": d}
                          for n, d in failure.checks],
               "repro": failure.repro}
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    return path


def run_check(seed: int = 0, budget: int = DEFAULT_BUDGET, *,
              out_dir: Optional[str] = None,
              shrink_evals: int = 400,
              only: Optional[Tuple[str, ...]] = None,
              progress=None) -> CheckReport:
    """Run the whole matrix over *budget* cases from *seed*.

    *progress*, when given, is called as ``progress(case, failures)``
    after each case (the CLI uses it for verbose logging).  Failing
    cases are shrunk and, when *out_dir* is set, written there as JSON.
    *only* restricts the run to the named oracles/invariants (the CI
    chaos leg uses ``only=("live_recovery",)``); unknown names raise
    ``ValueError`` so a typo cannot silently check nothing.
    """
    if only is not None:
        known = ({o.name for o in ORACLES}
                 | {i.name for i in INVARIANTS})
        unknown = sorted(set(only) - known)
        if unknown:
            raise ValueError(
                f"unknown check name(s) {', '.join(unknown)}; "
                f"choose from {', '.join(sorted(known))}")
    registry = get_registry()
    report = CheckReport(seed=seed, budget=budget)
    started = time.perf_counter()
    for case in generate_cases(seed, budget):
        registry.counter("check.cases").inc()
        report.cases_run += 1
        checks = _check_case(case, only)
        if progress is not None:
            progress(case, checks)
        if not checks:
            continue
        registry.counter("check.failures").inc()
        failure = CheckFailure(case=dict(case.descriptor()),
                               checks=checks,
                               repro=_shrink_case(case, checks,
                                                  shrink_evals))
        if out_dir is not None:
            failure.repro_path = _write_repro(failure, out_dir)
        report.failures.append(failure)
    report.elapsed_s = time.perf_counter() - started
    return report


def rebuild_failure_case(seed: int, index: int) -> CheckCase:
    """The original (unshrunk) input of a repro, from its descriptor."""
    return build_case(seed, index)
