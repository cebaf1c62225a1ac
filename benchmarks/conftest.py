"""Shared fixtures for the benchmark harness.

Every figure benchmark runs its generator exactly once (the generators
are deterministic simulations, not noisy timings), saves the rows as JSON
under ``benchmarks/output/`` and prints the rendered table so a run of
``pytest benchmarks/ --benchmark-only -s`` reproduces the paper's
exhibits end to end.
"""

from __future__ import annotations

import os

import pytest

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")


@pytest.fixture(scope="session")
def output_dir() -> str:
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture
def substrate_telemetry():
    """Reset the substrate counters around a figure run and print what the
    replay engines did (memo hit rate, accesses) once it finishes."""
    from repro.machine import SUBSTRATE_COUNTERS

    SUBSTRATE_COUNTERS.reset()
    yield SUBSTRATE_COUNTERS
    snap = SUBSTRATE_COUNTERS.snapshot()
    if snap["jobs_replayed"]:
        print(f"[substrate: {snap['accesses_replayed']} accesses in "
              f"{snap['jobs_replayed']} job batches, stream memo rate "
              f"{snap['stream_memo_rate']:.1%}]")


@pytest.fixture
def run_once(benchmark):
    """Run a generator exactly once under pytest-benchmark timing."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run


def by_variant(rows, variant, x_key):
    """Index figure rows: variant -> {x: row}."""
    return {r[x_key]: r for r in rows if r.get("variant") == variant and "MLUPs" in r}
