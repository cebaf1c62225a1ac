"""The headline correctness contract: tiled execution == naive sweep,
for any valid plan configuration and any topological tile order, plus the
FIFO queue protocol tests."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TiledExecutor, TileQueue, TilingPlan
from repro.fdfd import (
    ALL_COMPONENTS,
    E_COMPONENTS,
    H_COMPONENTS,
    FieldState,
    Grid,
    PMLSpec,
    PlaneWaveSource,
    THIIMSolver,
    clip_region,
    naive_sweep,
    random_coefficients,
)
from repro.fdfd.kernels import region_lups
from repro.fdfd.specs import SPECS

from conftest import random_state


def run_pair(grid, plan, seed=5, nsteps=None):
    coeffs = random_coefficients(grid, seed=seed)
    f_naive = random_state(grid, seed=seed + 1)
    f_tiled = f_naive.copy()
    naive_sweep(f_naive, coeffs, plan.timesteps)
    TiledExecutor(f_tiled, coeffs, plan).run()
    return f_naive, f_tiled


class TestTiledEqualsNaive:
    @pytest.mark.parametrize(
        "ny,nz,T,dw,bz",
        [
            (8, 8, 4, 2, 1),
            (12, 10, 6, 4, 1),
            (12, 10, 6, 4, 3),
            (16, 12, 8, 4, 2),
            (16, 16, 4, 8, 1),
            (16, 16, 10, 8, 4),
            (9, 7, 5, 2, 2),     # odd, non-divisible extents
            (10, 11, 7, 6, 5),
            (24, 6, 3, 12, 1),   # diamond wider than the horizon
            (6, 20, 2, 4, 7),    # bz larger than needed
        ],
    )
    def test_exact_equality(self, ny, nz, T, dw, bz):
        grid = Grid(nz=nz, ny=ny, nx=4)
        plan = TilingPlan.build(ny=ny, nz=nz, timesteps=T, dw=dw, bz=bz)
        f_naive, f_tiled = run_pair(grid, plan)
        # Same arithmetic in the same per-cell order: bitwise equality.
        assert f_naive.max_abs_difference(f_tiled) == 0.0

    def test_periodic_x_supported(self):
        grid = Grid(nz=8, ny=8, nx=6, periodic=(False, False, True))
        plan = TilingPlan.build(ny=8, nz=8, timesteps=4, dw=4, bz=2)
        f_naive, f_tiled = run_pair(grid, plan)
        assert f_naive.max_abs_difference(f_tiled) == 0.0

    def test_periodic_y_rejected(self):
        grid = Grid(nz=8, ny=8, nx=4, periodic=(False, True, False))
        plan = TilingPlan.build(ny=8, nz=8, timesteps=4, dw=4, bz=1)
        with pytest.raises(ValueError):
            TiledExecutor(random_state(grid), random_coefficients(grid), plan)

    def test_periodic_z_rejected(self):
        grid = Grid(nz=8, ny=8, nx=4, periodic=(True, False, False))
        plan = TilingPlan.build(ny=8, nz=8, timesteps=4, dw=4, bz=1)
        with pytest.raises(ValueError):
            TiledExecutor(random_state(grid), random_coefficients(grid), plan)

    def test_mismatched_plan_rejected(self):
        grid = Grid(nz=8, ny=8, nx=4)
        plan = TilingPlan.build(ny=10, nz=8, timesteps=4, dw=4, bz=1)
        with pytest.raises(ValueError):
            TiledExecutor(random_state(grid), random_coefficients(grid), plan)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_topological_orders_bitwise_equal(self, seed):
        """Any linear extension of the tile DAG gives identical fields --
        the property that makes concurrent MWD execution safe."""
        grid = Grid(nz=10, ny=14, nx=4)
        plan = TilingPlan.build(ny=14, nz=10, timesteps=6, dw=4, bz=2)
        coeffs = random_coefficients(grid, seed=33)
        reference = random_state(grid, seed=34)
        shuffled = reference.copy()
        naive_sweep(reference, coeffs, plan.timesteps)
        TiledExecutor(shuffled, coeffs, plan).run_interleaved(
            np.random.default_rng(seed)
        )
        assert reference.max_abs_difference(shuffled) == 0.0

    def test_physics_run_through_tiles(self):
        """The tiled executor reproduces an actual THIIM physics run
        (PML + source + absorber), not just random data."""
        grid = Grid(nz=32, ny=12, nx=6)
        omega = 2 * np.pi / 10.0
        solver_a = THIIMSolver(
            grid, omega,
            source=PlaneWaveSource(z_plane=10, z_width=2.0),
            pml={"z": PMLSpec(thickness=6)},
        )
        solver_b = THIIMSolver(
            grid, omega,
            source=PlaneWaveSource(z_plane=10, z_width=2.0),
            pml={"z": PMLSpec(thickness=6)},
        )
        T = 12
        solver_a.run(T)
        plan = TilingPlan.build(ny=12, nz=32, timesteps=T, dw=4, bz=3)
        TiledExecutor(solver_b.fields, solver_b.coefficients, plan).run()
        assert solver_a.fields.max_abs_difference(solver_b.fields) == 0.0

    def test_lup_accounting(self):
        grid = Grid(nz=8, ny=8, nx=4)
        plan = TilingPlan.build(ny=8, nz=8, timesteps=3, dw=4, bz=1)
        coeffs = random_coefficients(grid)
        ex = TiledExecutor(random_state(grid), coeffs, plan)
        ex.run()
        # Every component update is counted: compare with a naive run.
        f = random_state(grid)
        expected = naive_sweep(f, coeffs, 3)
        assert ex.lups_done == expected
        assert ex.jobs_done == len(list(plan.row_jobs()))


class TestCompiledPlan:
    """A plan resolved once against a grid is, op for op, what walking
    its row jobs through ``clip_region`` yields -- in any tile order."""

    @given(ny=st.integers(4, 14), nz=st.integers(3, 12), T=st.integers(1, 6),
           half_dw=st.integers(1, 4), bz=st.integers(1, 5),
           x_periodic=st.booleans(), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_ops_equal_clipped_row_jobs(self, ny, nz, T, half_dw, bz,
                                        x_periodic, seed):
        grid = Grid(nz=nz, ny=ny, nx=4, periodic=(False, False, x_periodic))
        plan = TilingPlan.build(ny=ny, nz=nz, timesteps=T, dw=2 * half_dw, bz=bz)
        compiled = plan.compiled(grid)
        order = plan.random_topological_order(np.random.default_rng(seed))
        want = []
        for job in plan.row_jobs(order):
            for name in H_COMPONENTS if job.is_h else E_COMPONENTS:
                region = clip_region(grid, SPECS[name], z=(job.z_lo, job.z_hi),
                                     y=(job.y_lo, job.y_hi))
                if region is not None:
                    want.append((name, region, region_lups(region)))
        got = [op for idx in order for op in compiled[idx][0]]
        assert [(name, tuple(region), lups) for name, region, lups in got] == want
        for _, region, _ in got:  # the packed box is the region's
            assert list(region.box._obj) == [
                b for sl in region for b in (sl.start, sl.stop)]
        assert sum(compiled[idx][1] for idx in order) == len(
            list(plan.row_jobs(order)))

    def test_resolved_once_per_plan_and_grid(self):
        grid = Grid(nz=10, ny=12, nx=4)
        plan = TilingPlan.build(ny=12, nz=10, timesteps=4, dw=4, bz=2)
        again = TilingPlan.build(ny=12, nz=10, timesteps=4, dw=4, bz=2)
        assert plan.compiled(grid) is again.compiled(grid)
        wrapped = Grid(nz=10, ny=12, nx=4, periodic=(False, False, True))
        assert plan.compiled(grid) is not plan.compiled(wrapped)


@pytest.mark.usefixtures("kernel_backend")
class TestConcurrentExecutors:
    def test_threads_equal_serial(self):
        """Four executors at once -- two same-shaped, two not -- each
        equal to its serial run: scratch buffers are per thread, bindings
        per field state, and the compiled pass shares nothing."""
        shapes = [(10, 12, 5), (10, 12, 5), (8, 9, 4), (12, 8, 6)]

        def solve(i, out):
            nz, ny, nx = shapes[i]
            grid = Grid(nz=nz, ny=ny, nx=nx, periodic=(False, False, True))
            fields = random_state(grid, seed=i).zero_boundary()
            plan = TilingPlan.build(ny=ny, nz=nz, timesteps=4, dw=4, bz=2)
            executor = TiledExecutor(fields, random_coefficients(grid, seed=i), plan)
            for _ in range(6):
                executor.run()
            out[i] = [fields[n].tobytes() for n in ALL_COMPONENTS]

        serial, threaded = {}, {}
        for i in range(len(shapes)):
            solve(i, serial)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=solve, args=(i, threaded))
                       for i in range(len(shapes))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_two_worker_scheduler_equals_direct_runs(self):
        from repro.service import JobSpec, Scheduler, run_job

        specs = [JobSpec(kind="solve", preset="tandem", grid=g, wavelength=w,
                         tol=1e-9, max_steps=16, tiled=True, threads=2)
                 for g, w in ((10, 10.0), (10, 11.0), (12, 10.0), (12, 12.0))]
        direct = {s.job_id: run_job(s)["checksum"] for s in specs}
        sched = Scheduler(workers=2, mode="thread").start()
        try:
            jobs = [sched.submit(s) for s in specs]
            done = [sched.wait(j.id, timeout=120.0) for j in jobs]
        finally:
            sched.stop()
        assert {j.id: j.result["checksum"] for j in done} == direct


class TestTileQueue:
    def make_plan(self):
        return TilingPlan.build(ny=16, nz=8, timesteps=8, dw=4, bz=1)

    def test_serial_drain_is_topological(self):
        plan = self.make_plan()
        order = TileQueue(plan).drain_serial()
        assert len(order) == plan.n_tiles
        pos = {idx: k for k, idx in enumerate(order)}
        for idx in plan.tiles:
            for p in plan.preds[idx]:
                assert pos[p] < pos[idx]

    def test_fifo_starts_with_band_zero(self):
        plan = self.make_plan()
        q = TileQueue(plan)
        first = q.pop()
        assert plan.tiles[first].band == min(plan.bands)

    def test_complete_unpopped_tile_rejected(self):
        plan = self.make_plan()
        q = TileQueue(plan)
        with pytest.raises(ValueError):
            q.complete((0, 0))

    def test_concurrent_workers_drain(self):
        """Several simulated workers popping concurrently never deadlock
        and complete all tiles."""
        plan = self.make_plan()
        q = TileQueue(plan)
        rng = np.random.default_rng(0)
        in_flight = []
        completed = 0
        while not q.exhausted:
            # Pop up to 4 tiles, then complete them in random order.
            while len(in_flight) < 4:
                idx = q.pop()
                if idx is None:
                    break
                in_flight.append(idx)
            assert in_flight, "deadlock: nothing in flight and not exhausted"
            k = int(rng.integers(len(in_flight)))
            q.complete(in_flight.pop(k))
            completed += 1
        assert completed == plan.n_tiles

    def test_ready_count_tracks(self):
        plan = self.make_plan()
        q = TileQueue(plan)
        n0 = q.ready_count
        assert n0 >= 1
        idx = q.pop()
        assert q.ready_count == n0 - 1
        q.complete(idx)
        assert q.done_count == 1
