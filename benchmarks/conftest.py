"""Shared fixtures and reporting helpers for the benchmark harness.

Each ``bench_*.py`` file regenerates one table or figure of the paper:
it computes the same rows/series, prints them (and writes them under
``benchmarks/out/``), asserts the qualitative shape the paper reports,
and wraps the core computation in pytest-benchmark so

    pytest benchmarks/ --benchmark-only

also measures the harness itself.
"""

from __future__ import annotations

import hashlib
import pathlib
import statistics
import subprocess

import pytest

from repro.mpc import simulate_base
from repro.workloads import rubik_section, tourney_section, weaver_section

OUT_DIR = pathlib.Path(__file__).parent / "out"
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@pytest.fixture(scope="session")
def rubik():
    return rubik_section()


@pytest.fixture(scope="session")
def tourney():
    return tourney_section()


@pytest.fixture(scope="session")
def weaver():
    return weaver_section()


@pytest.fixture(scope="session")
def sections(rubik, tourney, weaver):
    return [rubik, tourney, weaver]


@pytest.fixture(scope="session")
def bases(sections):
    """Base-case (1 processor, zero overhead) results keyed by name."""
    return {t.name: simulate_base(t) for t in sections}


@pytest.fixture(scope="session")
def report():
    """Callable saving a figure/table reproduction as text and printing
    it (visible with ``pytest -s``; always persisted under out/)."""
    OUT_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> str:
        path = OUT_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n{'=' * 72}\n{text}\n[saved to {path}]")
        return text

    return _save


def once(benchmark, fn):
    """Run *fn* exactly once under pytest-benchmark (the simulations are
    deterministic; repeated rounds would only re-measure the same work)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def quartiles(values, digits=1):
    """``{"median", "iqr"}`` of *values* (``statistics.quantiles``
    quartiles), the spread every committed ``BENCH_*.json`` timing
    carries."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": round(q2, digits), "iqr": round(q3 - q1, digits)}


def git_revision() -> str:
    """``HEAD``'s short hash, suffixed ``-dirty`` when ``src/`` has
    uncommitted changes: the code the numbers were measured on."""
    def git(*args):
        return subprocess.run(("git",) + args, cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    try:
        rev = git("rev-parse", "--short", "HEAD")
        dirty = git("status", "--porcelain", "--", "src")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return rev + ("-dirty" if dirty else "")


def src_sha256() -> str:
    """sha256 over every ``src/**/*.py`` file's relative path and
    bytes, in sorted path order (the digest ``bench/run.py`` records):
    it names the code measured even when :func:`git_revision` reads
    ``-dirty``."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
