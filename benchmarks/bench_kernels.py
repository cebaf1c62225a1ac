"""Microbenchmarks of the THIIM kernels and the tiled executor, on both
kernel back ends (the compiled pass and its NumPy oracle).

These are real timings (pytest-benchmark statistics over repeated runs),
complementing the figure benchmarks which are deterministic simulations.
``test_bench_host_kernels_report`` prints the host table EXPERIMENTS.md
quotes: NumPy vs compiled for the half steps, the naive sweep and the
tiled executor, the cost of one region update, and MWD against the
naive sweep on a grid larger than the L2 with a registry-tuned plan.
"""

import time

import numpy as np
import pytest

from repro.core import TiledExecutor, TilingPlan
from repro.fdfd import (
    FieldState,
    Grid,
    kernels,
    naive_sweep,
    random_coefficients,
    spatial_blocked_sweep,
    update_e,
    update_h,
)

GRID_N = 48
STEPS = 2
#: 64^3 cells x 640 B = 168 MB of state: far beyond any L2.
BIG_N = 64


@pytest.fixture(params=["native", "numpy"])
def backend(request, monkeypatch):
    """Run a benchmark once per kernel back end."""
    if request.param == "numpy":
        monkeypatch.setattr(kernels, "_THIIM", False)
    elif not kernels._native():
        pytest.skip("compiled THIIM kernel unavailable")
    return request.param


@pytest.fixture(scope="module")
def setup():
    grid = Grid.cube(GRID_N)
    coeffs = random_coefficients(grid, seed=1)
    fields = FieldState(grid).fill_random(np.random.default_rng(2))
    return grid, coeffs, fields


def test_bench_h_half_step(benchmark, setup, backend):
    grid, coeffs, fields = setup
    lups = benchmark(update_h, fields, coeffs)
    assert lups > 0


def test_bench_e_half_step(benchmark, setup, backend):
    grid, coeffs, fields = setup
    lups = benchmark(update_e, fields, coeffs)
    assert lups > 0


def test_bench_naive_sweep(benchmark, setup, backend):
    grid, coeffs, fields = setup

    def run():
        return naive_sweep(fields, coeffs, STEPS)

    assert benchmark(run) > 0


def test_bench_spatial_blocked_sweep(benchmark, setup):
    grid, coeffs, fields = setup

    def run():
        return spatial_blocked_sweep(fields, coeffs, STEPS, block_y=16)

    assert benchmark(run) > 0


def test_bench_tiled_executor(benchmark, setup, backend):
    grid, coeffs, fields = setup
    plan = TilingPlan.build(ny=GRID_N, nz=GRID_N, timesteps=STEPS, dw=8, bz=4)

    def run():
        ex = TiledExecutor(fields, coeffs, plan)
        ex.run()
        return ex.lups_done

    assert benchmark(run) > 0


def test_bench_plan_construction(benchmark):
    plan = benchmark(TilingPlan.build, 384, 384, 32, 16, 4)
    assert plan.n_tiles > 0


def _best(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_host_kernels_report(setup, capsys):
    """The host table, for the record (the paper's units; the simulated
    figures stay the reproduction of its 18-core numbers -- DESIGN.md
    section 2).  Every ratio is printed with its base."""
    from repro.machine import HASWELL_EP
    from repro.service import PlanRegistry

    grid, coeffs, fields = setup
    plan = TilingPlan.build(ny=GRID_N, nz=GRID_N, timesteps=STEPS, dw=8, bz=4)
    executor = TiledExecutor(fields, coeffs, plan)
    calls = sum(len(ops) for ops, _ in plan.compiled(grid).values())
    rows = {
        "H half step": (lambda: update_h(fields, coeffs), grid.n_cells / 2),
        "E half step": (lambda: update_e(fields, coeffs), grid.n_cells / 2),
        "naive sweep": (lambda: naive_sweep(fields, coeffs, STEPS),
                        grid.n_cells * STEPS),
        "tiled executor": (executor.run, grid.n_cells * STEPS),
    }
    backends = ["numpy"] + (["native"] if kernels._native() else [])
    seconds = {}
    for name in backends:
        with pytest.MonkeyPatch.context() as patch:
            if name == "numpy":
                patch.setattr(kernels, "_THIIM", False)
            for label, (fn, _) in rows.items():
                fn()  # bind, fill the scratch pool
                seconds[name, label] = _best(fn)

    # MWD against the naive sweep beyond the L2, plan from a registry tune.
    big = Grid.cube(BIG_N)
    big_coeffs = random_coefficients(big, seed=3)
    big_fields = FieldState(big).fill_random(np.random.default_rng(4))
    point, _ = PlanRegistry().get_or_tune(HASWELL_EP, BIG_N, 18)
    big_plan = TilingPlan.build(ny=BIG_N, nz=BIG_N, timesteps=point.dw,
                                dw=point.dw, bz=point.bz)
    big_exec = TiledExecutor(big_fields, big_coeffs, big_plan)
    big_exec.run()
    mwd = _best(big_exec.run, 2)
    naive = _best(lambda: naive_sweep(big_fields, big_coeffs, point.dw), 2)

    with capsys.disabled():
        print(f"\n[host kernels at {GRID_N}^3, {STEPS} steps; best of 3]")
        for label, (_, lups) in rows.items():
            line = f"  {label:<15}"
            for name in backends:
                s = seconds[name, label]
                line += f" {name} {1e3 * s:8.2f} ms {lups / s / 1e6:6.2f} MLUP/s "
            if len(backends) == 2:
                ratio = seconds["numpy", label] / seconds["native", label]
                line += f" native {ratio:.2f}x of numpy"
            print(line)
        for name in backends:
            us = 1e6 * seconds[name, "tiled executor"] / calls
            over = seconds[name, "tiled executor"] / seconds[name, "naive sweep"]
            print(f"  {name}: region update {us:.2f} us over {calls} calls; "
                  f"tiled / naive seconds {over:.2f}")
        print(f"[{BIG_N}^3, {point.dw} steps, registry-tuned dw={point.dw} "
              f"bz={point.bz}, {backends[-1]} kernel] "
              f"MWD {1e3 * mwd:.1f} ms  naive {1e3 * naive:.1f} ms  "
              f"MWD {naive / mwd:.2f}x of naive")
    assert all(s > 0 for s in seconds.values())
