"""Shared fixtures and reporting helpers for the benchmark harness.

Each ``bench_*.py`` file regenerates one table or figure of the paper:
it computes the same rows/series, prints them (and writes them under
``benchmarks/out/``), asserts the qualitative shape the paper reports,
and wraps the core computation in pytest-benchmark so

    pytest benchmarks/ --benchmark-only

also measures the harness itself.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.mpc import simulate_base
from repro.workloads import rubik_section, tourney_section, weaver_section

OUT_DIR = pathlib.Path(__file__).parent / "out"


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
