"""Microbenchmarks of the THIIM kernels and the tiled executor, on both
kernel back ends (the compiled pass and its NumPy oracle).

These are real timings (pytest-benchmark statistics over repeated runs),
complementing the figure benchmarks which are deterministic simulations.
``test_bench_host_kernels_report`` prints the host table EXPERIMENTS.md
quotes: NumPy vs compiled for the half steps, the naive sweep and the
tiled executor, the cost of one region update, MWD against the naive
sweep on a grid larger than the L2 with a registry-tuned plan, the
naive sweep serial against its boxes split over the compiled pass's
helper group (helpers free, and pinned one per CPU), tiled passes with
their calls immediate against streamed to the group's job queue, what
the compiled path adds to a raw ctypes call, and the tandem scene's
coefficients domain-sized against contracted (``build_coefficients``'
layout) under both traversals, the compiled pass's ns per component update
on its vector and its scalar body, and the split gate's break-even: one
box serial against split, at 8k, 16k and 32k cells.
``test_bench_beside_a_hog_report`` prints the split and stream rows again
with one busy-looping process beside them.
"""

import ctypes
import functools
import os
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext

import dataclasses

import numpy as np
import pytest

from repro import nativelib
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
#: The split rows: the solve service's grid 24 and 32 geometry (nz = 2 n,
#: periodic in x and y) and the 48^3 cube above.
GROUP_GRIDS = {
    "g24": Grid(nz=48, ny=24, nx=24, periodic=(False, True, True)),
    "g32": Grid(nz=64, ny=32, nx=32, periodic=(False, True, True)),
    f"{GRID_N}^3": Grid.cube(GRID_N),
}
#: Solve-service grids of the coefficient-layout rows (nz = 2 n): g24,
#: g32, and 128 x 64 x 64, whose domain-sized state (335 MB) outgrows a
#: 300 MiB L3.
LAYOUT_GRIDS = (24, 32, 64)
#: The split rows' columns, measured in turn, two rounds.
SPLITS = ("serial", "helpers free", "helpers pinned")
#: The stream rows: (label, service grid or cube edge, lanes, dw, bz).  The
#: g24 rows run the plan the registry serves the tandem scene (dw 24, bz
#: 4: every row box below the gate); at 48^3 with bz 16 the largest row
#: boxes reach it and are queued as jobs of several parts.
STREAMS = (("g24", 24, 1, 24, 4), ("g24", 24, 3, 24, 4), (f"{GRID_N}^3", GRID_N, 1, 24, 16))
#: The per-update rows: service grids whose slab of ``UPDATE_PLANES`` z
#: planes (every component: 3 x 16 B per cell of fields, contracted
#: coefficients) stays in a 2 MiB L2.
UPDATE_GRIDS = (24, 32)
UPDATE_PLANES = 4
#: The rows beside a hog: the split rows of these grids and the g24
#: stream rows.
HOG_GRIDS = ("g24", "g32")
HOG_STREAMS = STREAMS[:2]
#: Cells of the boxes the break-even rows split: z slabs of g32 (1,024
#: cells a plane), half, equal to and twice the split gate.
BREAK_EVEN_CELLS = (8192, 16384, 32768)


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


def _thiim_int(name):
    return ctypes.c_int.in_dll(nativelib._open("_thiim_kernel"), name)


@contextmanager
def _thiim_ints(**values):
    """Set exported C ints of the compiled pass for the block (the NumPy
    body has no helper group)."""
    if not kernels._native():
        yield
        return
    ints = {name: _thiim_int(name) for name in values}
    saved = {name: var.value for name, var in ints.items()}
    for name, var in ints.items():
        var.value = values[name]
    try:
        yield
    finally:
        for name, var in ints.items():
            var.value = saved[name]


def _serial():
    """Every box on the calling thread: no split, no stream window."""
    return _thiim_ints(thiim_helper_cap=0, thiim_ring_cap=0)


def _immediate():
    """No stream window: every call runs before it returns (boxes at the
    gate still split)."""
    return _thiim_ints(thiim_ring_cap=0)


def _pin_helpers(pinned: bool, cpus):
    """Helper ``i`` to ``cpus[i + 1]``, or every helper back to ``cpus``."""
    tids = []
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/comm") as f:
            if f.read().strip() == "thiim-helper":
                tids.append(int(tid))
    for i, tid in enumerate(sorted(tids)):
        os.sched_setaffinity(tid, cpus[i + 1:i + 2] if pinned else cpus)


def _split_seconds(grid, steps=10):
    """Naive sweep seconds per step, best of 3 over two rounds of
    ``SPLITS``: serial, its boxes split over the helper group as started
    (helpers free), and split with helper ``i`` pinned to the ``i + 1``-th
    CPU of the mask (the caller stays free)."""
    coeffs = random_coefficients(grid, seed=5)
    fields = FieldState(grid).fill_random(np.random.default_rng(6))
    cpus = sorted(os.sched_getaffinity(0))
    naive_sweep(fields, coeffs, 1)  # bind, fault the pages in
    seconds = dict.fromkeys(SPLITS, float("inf"))
    try:
        for _ in range(2):
            for label in SPLITS:
                _pin_helpers(label == "helpers pinned", cpus)
                with _serial() if label == "serial" else nullcontext():
                    best = _best(lambda: naive_sweep(fields, coeffs, steps)) / steps
                seconds[label] = min(seconds[label], best)
    finally:
        _pin_helpers(False, cpus)
    return seconds


@contextmanager
def _hog():
    """One busy-looping process beside the block."""
    proc = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        yield
    finally:
        proc.kill()
        proc.wait()


def _stream_case(n, lanes, dw, bz):
    """Fields, coefficients and plan of one stream row: the tandem scene
    at service grid ``n`` (``lanes`` stacked wavelengths), or random
    coefficients on the ``n``^3 cube for ``n == GRID_N``."""
    from repro.fdfd import BatchedCoefficientSet, BatchedFieldState, THIIMSolver
    from repro.service import JobSpec
    from repro.service.jobs import _solve_geometry

    if n == GRID_N:
        grid = Grid.cube(n)
        coeffs = random_coefficients(grid, seed=8)
    else:
        spec = JobSpec(kind="solve", preset="tandem", grid=n, wavelength=10.0, tiled=True)
        grid, scene, _, source, pml = _solve_geometry(spec)
        coeffs = BatchedCoefficientSet.stack([
            THIIMSolver(grid, 2 * np.pi / w, scene=scene, source=source,
                        pml=pml).coefficients for w in (10.0, 11.0, 12.0)[:lanes]])
    states = [FieldState(grid).fill_random(np.random.default_rng(9 + i)) for i in range(lanes)]
    fields = BatchedFieldState.stack(states) if lanes > 1 else states[0]
    if lanes == 1 and n != GRID_N:
        coeffs = coeffs.lane(0)
    plan = TilingPlan.build(ny=grid.ny, nz=grid.nz, timesteps=dw, dw=dw, bz=bz)
    return fields, coeffs, plan


def _stream_seconds(n, lanes, dw, bz):
    """Seconds per tiled pass with every call immediate and with the
    calls streamed, best of 3 over two alternating rounds; the share of
    the pass's calls whose box reaches the split gate."""
    fields, coeffs, plan = _stream_case(n, lanes, dw, bz)
    executor = TiledExecutor(fields, coeffs, plan)
    executor.run()  # bind, fault the pages in
    seconds = {"immediate": float("inf"), "streamed": float("inf")}
    for _ in range(2):
        for label in seconds:
            with _immediate() if label == "immediate" else nullcontext():
                seconds[label] = min(seconds[label], _best(executor.run))
    gate = _thiim_int("thiim_split_min").value
    boxes = [n for ops, _ in plan.compiled(fields.grid).values() for _, _, n in ops]
    seconds["at gate"] = sum(n * lanes >= gate for n in boxes) / len(boxes)
    return seconds


def _slab_seconds(fields, coeffs, planes, reps):
    """Seconds per update of every component over a slab of ``planes`` z
    planes mid-grid, through the raw compiled calls (no Python dispatch
    in the timing), best of 5."""
    from repro.fdfd import ALL_COMPONENTS, SPECS, clip_region
    from repro.fdfd.kernels import BoundRegion, update_component

    grid = fields.grid
    z0 = (grid.nz - planes) // 2
    ops = [(name, BoundRegion(clip_region(grid, SPECS[name], z=(z0, z0 + planes))))
           for name in ALL_COMPONENTS]
    for name, region in ops:
        update_component(name, fields, coeffs, region)  # bind
    call = kernels._THIIM
    raw = [(fields._bound[name][0], region.box) for name, region in ops]

    def run():
        for _ in range(reps):
            for ref, box in raw:
                call(ref, box)

    return _best(run, 5) / reps


def _ns_per_update(n):
    """ns per component update over an L2-resident slab of the tandem
    scene at service grid ``n``, serial, on the vector and on the scalar
    body of the compiled pass (``thiim_vector`` 1 and 0; the two are one
    body where the CPU has no AVX2 and FMA)."""
    from repro.fdfd import SPECS, clip_region
    from repro.fdfd.kernels import region_lups

    fields, coeffs, _ = _stream_case(n, 1, 2, 1)
    z0 = (fields.grid.nz - UPDATE_PLANES) // 2
    cells = sum(region_lups(clip_region(fields.grid, spec, z=(z0, z0 + UPDATE_PLANES)))
                for spec in SPECS.values())
    out = {"cells": cells // len(SPECS)}
    with _serial():
        for body in ("vector", "scalar"):
            with _thiim_ints(thiim_vector=int(body == "vector")):
                out[body] = 1e9 * _slab_seconds(fields, coeffs, UPDATE_PLANES, 200) / cells
    return out


def _break_even_us():
    """Microseconds per update of every component over a z slab of the
    tandem scene at g32 of each size in ``BREAK_EVEN_CELLS``, serial and
    split over the helper group (the gate lowered to 0), alternating
    twice."""
    fields, coeffs, _ = _stream_case(32, 1, 2, 1)
    plane = fields.grid.ny * fields.grid.nx
    out = {}
    for cells in BREAK_EVEN_CELLS:
        row = {"serial": float("inf"), "split": float("inf")}
        for _ in range(2):
            for label in row:
                with _serial() if label == "serial" else _thiim_ints(thiim_split_min=0):
                    row[label] = min(row[label], 1e6 * _slab_seconds(
                        fields, coeffs, cells // plane, 50))
        out[cells] = row
    return out


def _dispatch_us(calls=200_000):
    """Microseconds per call of a 1-cell compiled update through
    ``update_component`` (immediate) and of the raw ctypes call it ends in."""
    from repro.fdfd.kernels import BoundRegion, update_component

    grid = Grid.cube(8)
    coeffs = random_coefficients(grid, seed=10)
    fields = FieldState(grid).fill_random(np.random.default_rng(11))
    region = BoundRegion((slice(3, 4), slice(3, 4), slice(3, 4)))
    update_component("Hxy", fields, coeffs, region)  # bind
    raw, ref = kernels._HELD, fields._bound["Hxy"][0]

    def dispatched():
        for _ in range(calls):
            update_component("Hxy", fields, coeffs, region)

    def direct():
        for _ in range(calls):
            raw(ref, region.box)

    with _immediate():
        return {label: 1e6 * _best(fn, 5) / calls
                for label, fn in (("update_component", dispatched), ("raw call", direct))}


def _layout_seconds(n):
    """Seconds per step of the naive sweep and of a registry-tuned MWD
    plan over the tandem scene at service grid ``n`` (serial, best of 2),
    with its coefficients domain-sized and contracted; and the bytes of
    state per cell of each layout."""
    from repro.fdfd import THIIMSolver
    from repro.machine import HASWELL_EP
    from repro.service import JobSpec, PlanRegistry
    from repro.service.jobs import _solve_geometry

    spec = JobSpec(kind="solve", preset="tandem", grid=n, wavelength=10.0, tiled=True)
    grid, scene, _, source, pml = _solve_geometry(spec)
    contracted = THIIMSolver(grid, 2 * np.pi / 10.0, scene=scene, source=source,
                             pml=pml).coefficients
    point, _ = PlanRegistry().get_or_tune(HASWELL_EP, n, 18)
    plan = TilingPlan.build(ny=grid.ny, nz=grid.nz, timesteps=point.dw,
                            dw=point.dw, bz=point.bz)
    fields = FieldState(grid).fill_random(np.random.default_rng(7))
    out = {"plan": (point.dw, point.bz), "cells": grid.n_cells}
    for layout in ("full", "contracted"):
        coeffs = contracted if layout == "contracted" else dataclasses.replace(
            contracted, arrays={k: np.array(np.broadcast_to(a, grid.shape), order="C")
                                for k, a in contracted.arrays.items()})
        out[layout, "B/cell"] = 16 * len(fields.components()) + sum(
            a.nbytes for a in coeffs.arrays.values()) / grid.n_cells
        executor = TiledExecutor(fields, coeffs, plan)
        with _serial():
            for traversal, fn in (("naive", lambda: naive_sweep(fields, coeffs, point.dw)),
                                  ("MWD", executor.run)):
                fn()  # bind, fault the pages in
                out[layout, traversal] = _best(fn, 2) / point.dw
    return out


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
        with pytest.MonkeyPatch.context() as patch, _serial():
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
    with _serial():
        naive = _best(lambda: naive_sweep(big_fields, big_coeffs, point.dw), 2)

    helpers = _thiim_int("thiim_helper_cap").value if kernels._native() else 0
    split = {name: _split_seconds(g) for name, g in GROUP_GRIDS.items()} if helpers else {}
    streams = {row: _stream_seconds(*row[1:]) for row in STREAMS} if helpers else {}
    dispatch = _dispatch_us() if kernels._native() else {}
    per_update = {n: _ns_per_update(n) for n in UPDATE_GRIDS} if kernels._native() else {}
    break_even = _break_even_us() if helpers else {}
    layouts = {n: _layout_seconds(n) for n in LAYOUT_GRIDS}

    with capsys.disabled():
        print(f"\n[host kernels at {GRID_N}^3, {STEPS} steps, serial; best of 3]")
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
        if split:
            print(f"[naive sweep, boxes split over {helpers} helper(s) + the caller, "
                  f"native kernel; ms per step, best of 3 over 2 rounds; "
                  f"x = speedup over serial]")
        for name, row in split.items():
            line = f"  {name:<5} {GROUP_GRIDS[name].n_cells:7,d} cells  serial {1e3 * row['serial']:6.2f}"
            for label in SPLITS[1:]:
                line += f" | {label} {1e3 * row[label]:6.2f} {row['serial'] / row[label]:4.2f}x"
            print(line)
        if streams:
            print("[tiled passes, calls immediate vs streamed to the job queue, "
                  "native kernel; ms per pass, best of 3 over 2 rounds]")
        for (name, _, lanes, dw, bz), row in streams.items():
            print(f"  {name:<5} {lanes} lane{'s' if lanes > 1 else ' '} dw={dw:<2} bz={bz:<2} "
                  f"immediate {1e3 * row['immediate']:7.2f} | streamed "
                  f"{1e3 * row['streamed']:7.2f} {row['immediate'] / row['streamed']:4.2f}x"
                  f" | {100 * row['at gate']:4.1f} % of calls at the gate")
        if dispatch:
            print(f"[per-op dispatch, 1-cell box, immediate] update_component "
                  f"{dispatch['update_component']:.3f} us, raw ctypes call "
                  f"{dispatch['raw call']:.3f} us, compiled path adds "
                  f"{dispatch['update_component'] - dispatch['raw call']:.3f} us")
        if per_update:
            print(f"[ns per component update, tandem scene, {UPDATE_PLANES} z planes of "
                  f"every component (L2-resident), serial raw calls; best of 5]")
        for n, row in per_update.items():
            print(f"  g{n:<3} {row['cells']:5,d} cells  vector {row['vector']:5.2f} | "
                  f"scalar {row['scalar']:5.2f}  vector {row['scalar'] / row['vector']:.2f}x "
                  f"of scalar")
        if break_even:
            gate = _thiim_int("thiim_split_min").value
            print(f"[split break-even, tandem g32 z slabs, every component, serial vs "
                  f"split over {helpers} helper(s) + the caller; us per slab update, "
                  f"best of 5 over 2 rounds; gate {gate:,d} cells]")
        for cells, row in break_even.items():
            print(f"  {cells:6,d} cells  serial {row['serial']:8.1f} | split "
                  f"{row['split']:8.1f}  {row['serial'] / row['split']:4.2f}x")
        print(f"[tandem coefficients domain-sized vs contracted, service grids, "
              f"registry-tuned plans, serial, {backends[-1]} kernel; "
              f"MLUP/s, best of 2]")
        for n, row in layouts.items():
            cells = row["cells"]
            line = f"  g{n:<3} {2 * n}x{n}x{n} dw={row['plan'][0]:<2} bz={row['plan'][1]}"
            for layout in ("full", "contracted"):
                line += (f" | {layout} {row[layout, 'B/cell']:5.0f} B/cell naive "
                         f"{cells / row[layout, 'naive'] / 1e6:6.2f} MWD "
                         f"{cells / row[layout, 'MWD'] / 1e6:6.2f}")
            line += (f" | contracted/full naive "
                     f"{row['full', 'naive'] / row['contracted', 'naive']:.2f}x MWD "
                     f"{row['full', 'MWD'] / row['contracted', 'MWD']:.2f}x")
            print(line)
    assert all(s > 0 for s in seconds.values())
    assert all(s > 0 for row in split.values() for s in row.values())
    assert all(row[label] > 0 for row in streams.values()
               for label in ("immediate", "streamed"))
    assert all(row[body] > 0 for row in per_update.values() for body in ("vector", "scalar"))
    assert all(s > 0 for row in break_even.values() for s in row.values())


def _median_ms(cases, runs=15):
    """Median ms per run of each case (label -> (context, fn)), the cases
    taking turns run by run."""
    ms = {label: [] for label in cases}
    for _ in range(runs):
        for label, (context, fn) in cases.items():
            with context():
                t0 = time.perf_counter()
                fn()
                ms[label].append(1e3 * (time.perf_counter() - t0))
    return {label: float(np.median(runs)) for label, runs in ms.items()}


def test_bench_beside_a_hog_report(capsys):
    """The split and the stream beside one busy-looping process (so the
    helpers and the caller share the CPUs with it): ms per naive step
    serial vs split at g24 and g32, and per g24 tiled pass (1 and 3
    lanes) immediate vs streamed; medians of 15 runs each."""
    if not kernels._native() or _thiim_int("thiim_helper_cap").value < 1:
        pytest.skip("no helper group: one CPU, or no compiled kernel")
    rows = {}
    for name in HOG_GRIDS:
        grid = GROUP_GRIDS[name]
        coeffs = random_coefficients(grid, seed=5)
        fields = FieldState(grid).fill_random(np.random.default_rng(6))
        step = functools.partial(naive_sweep, fields, coeffs, 1)
        step()  # bind, fault the pages in
        rows[f"{name} naive step"] = {"serial": (_serial, step), "split": (nullcontext, step)}
    for name, n, lanes, dw, bz in HOG_STREAMS:
        executor = TiledExecutor(*_stream_case(n, lanes, dw, bz))
        executor.run()  # bind, fault the pages in
        rows[f"{name} pass, {lanes} lane{'s' if lanes > 1 else ''}"] = {
            "immediate": (_immediate, executor.run), "streamed": (nullcontext, executor.run)}
    with _hog():
        ms = {label: _median_ms(cases) for label, cases in rows.items()}
    with capsys.disabled():
        print("\n[beside one busy-looping process, native kernel; ms per run, median "
              "of 15, the two columns alternating; x = the second over the first]")
        for label, row in ms.items():
            (first, a), (second, b) = row.items()
            print(f"  {label:<18} {first:<9} {a:7.2f} | {second:<8} {b:7.2f}  {b / a:4.2f}x")
    assert all(v > 0 for row in ms.values() for v in row.values())
