"""Tests for the wavefront traversal and the dependency checker,
including adversarial negative cases (the checker must actually catch
broken schedules)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DependencyChecker,
    DependencyError,
    TilingPlan,
    level_offsets,
    tile_row_jobs,
    validate_jobs,
    wavefront_width,
)
from repro.core.diamond import enumerate_tiles
from repro.core.wavefront import RowJob, tile_job_arrays


def naive_jobs(ny, nz, timesteps):
    """The trivially valid schedule: full half-step sweeps in time order."""
    for tau in range(2 * timesteps):
        yield RowJob(tau, 0, ny, 0, nz)


class TestWavefrontTraversal:
    def test_level_offsets_alternate(self):
        tiles = enumerate_tiles(ny=24, timesteps=12, dw=4)
        tile = next(t for t in tiles.values() if t.is_interior)
        offs = level_offsets(tile)
        assert offs[0] == 0
        # Offsets are nondecreasing, step 1 exactly at H levels.
        for k in range(1, len(offs)):
            expected = 1 if tile.rows[k].is_h else 0
            assert offs[k] - offs[k - 1] == expected

    def test_wavefront_width_formula(self):
        # W_w = D_w + B_z - 1 (the paper's example: Dw=4, Bz=4 -> Ww=7).
        assert wavefront_width(4, 4) == 7
        assert wavefront_width(8, 1) == 8
        with pytest.raises(ValueError):
            wavefront_width(4, 0)

    @pytest.mark.parametrize("bz", [1, 2, 3, 5, 100])
    def test_jobs_cover_tile_exactly(self, bz):
        tiles = enumerate_tiles(ny=24, timesteps=12, dw=4)
        tile = next(t for t in tiles.values() if t.is_interior)
        nz = 11
        covered = {}
        for job in tile_row_jobs(tile, nz=nz, bz=bz):
            key = job.tau
            covered.setdefault(key, []).append((job.z_lo, job.z_hi))
        assert set(covered) == {r.tau for r in tile.rows}
        for tau, spans in covered.items():
            spans.sort()
            # Contiguous, non-overlapping, covering [0, nz).
            assert spans[0][0] == 0 and spans[-1][1] == nz
            for (a, b), (c, d) in zip(spans, spans[1:]):
                assert b == c

    def test_jobs_z_chunks_bounded_by_bz(self):
        tiles = enumerate_tiles(ny=24, timesteps=12, dw=4)
        tile = next(t for t in tiles.values() if t.is_interior)
        for job in tile_row_jobs(tile, nz=16, bz=3):
            assert job.z_hi - job.z_lo <= 3

    def test_invalid_args(self):
        tiles = enumerate_tiles(ny=8, timesteps=4, dw=2)
        tile = next(iter(tiles.values()))
        with pytest.raises(ValueError):
            list(tile_row_jobs(tile, nz=8, bz=0))
        with pytest.raises(ValueError):
            list(tile_row_jobs(tile, nz=0, bz=1))
        with pytest.raises(ValueError):
            tile_job_arrays(tile, nz=8, bz=0)
        with pytest.raises(ValueError):
            tile_job_arrays(tile, nz=0, bz=1)

    @given(ny=st.integers(1, 40), timesteps=st.integers(1, 10),
           dw=st.sampled_from([2, 4, 6, 8, 12]), nz=st.integers(1, 30),
           bz=st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_job_arrays_equal_the_generator(self, ny, timesteps, dw, nz, bz):
        """Every tile of the tessellation -- interior, clipped at either y
        edge or in time -- at ``nz < bz``, ``nz % bz != 0`` and multiples."""
        for tile in enumerate_tiles(ny, timesteps, dw).values():
            level, z_lo, z_hi = tile_job_arrays(tile, nz, bz)
            assert level.dtype == z_lo.dtype == z_hi.dtype == np.int64
            got = [RowJob(tile.rows[lv].tau, tile.rows[lv].y_lo,
                          tile.rows[lv].y_hi, a, b)
                   for lv, a, b in zip(level.tolist(), z_lo.tolist(), z_hi.tolist())]
            assert got == list(tile_row_jobs(tile, nz, bz))


class TestCheckerAcceptsValid:
    def test_naive_schedule_valid(self):
        validate_jobs(naive_jobs(6, 5, 4), 6, 5, timesteps=4)

    def test_row_by_row_schedule_valid(self):
        def jobs():
            for tau in range(8):
                for y in range(6):
                    yield RowJob(tau, y, y + 1, 0, 5)

        validate_jobs(jobs(), 6, 5, timesteps=4)

    @pytest.mark.parametrize("dw,bz", [(2, 1), (4, 1), (4, 3), (6, 2), (8, 5)])
    def test_plan_fifo_valid(self, dw, bz):
        plan = TilingPlan.build(ny=13, nz=9, timesteps=7, dw=dw, bz=bz)
        plan.validate()

    @pytest.mark.parametrize("seed", range(5))
    def test_plan_random_topological_orders_valid(self, seed):
        plan = TilingPlan.build(ny=12, nz=8, timesteps=6, dw=4, bz=2)
        rng = np.random.default_rng(seed)
        plan.validate(plan.random_topological_order(rng))


class TestCheckerRejectsInvalid:
    """Negative tests: every class of violation must be caught."""

    def test_skipping_a_half_step(self):
        checker = DependencyChecker(4, 4)
        checker.execute(RowJob(0, 0, 4, 0, 4))  # H step 0
        with pytest.raises(DependencyError):
            checker.execute(RowJob(2, 0, 4, 0, 4))  # H again without E

    def test_e_before_h(self):
        checker = DependencyChecker(4, 4)
        with pytest.raises(DependencyError):
            checker.execute(RowJob(1, 0, 4, 0, 4))

    def test_y_neighbour_not_ready_for_h(self):
        """H at row y needs E at y+1 from the previous half step."""
        checker = DependencyChecker(4, 4)
        checker.execute(RowJob(0, 0, 4, 0, 4))  # H step 0, all rows
        checker.execute(RowJob(1, 0, 2, 0, 4))  # E step 0, rows 0-1 only
        checker.execute(RowJob(2, 0, 1, 0, 4))  # H row 0: reads E rows 0,1 -- ok
        with pytest.raises(DependencyError):
            checker.execute(RowJob(2, 1, 2, 0, 4))  # H row 1 needs E row 2

    def test_h_row_at_top_boundary_may_advance(self):
        """The topmost H row has no y+1 read and may run flush."""
        checker = DependencyChecker(4, 4)
        checker.execute(RowJob(0, 0, 4, 0, 4))
        checker.execute(RowJob(1, 3, 4, 0, 4))  # E only at the top row
        checker.execute(RowJob(2, 3, 4, 0, 4))  # H at y = ny-1: fine

    def test_e_row_at_bottom_boundary_may_advance(self):
        checker = DependencyChecker(4, 4)
        checker.execute(RowJob(0, 0, 4, 0, 4))
        checker.execute(RowJob(1, 0, 2, 0, 4))
        checker.execute(RowJob(2, 0, 1, 0, 4))
        checker.execute(RowJob(3, 0, 1, 0, 4))  # E at y=0: no y-1 read

    def test_e_row_interior_must_wait_for_h_below(self):
        checker = DependencyChecker(4, 4)
        checker.execute(RowJob(0, 0, 4, 0, 4))
        checker.execute(RowJob(1, 0, 4, 0, 4))
        checker.execute(RowJob(2, 3, 4, 0, 4))
        with pytest.raises(DependencyError):
            checker.execute(RowJob(3, 3, 4, 0, 4))  # needs H(2) at y=2

    def test_z_neighbour_not_ready(self):
        """The wavefront constraint: H may only trail E along z."""
        checker = DependencyChecker(2, 6)
        checker.execute(RowJob(0, 0, 2, 0, 6))
        checker.execute(RowJob(1, 0, 2, 0, 3))  # E of step 1: planes 0-2
        # H of step 1 through plane 2 needs E at plane 3.
        with pytest.raises(DependencyError):
            checker.execute(RowJob(2, 0, 2, 0, 3))
        # Through plane 1 it is fine (far read at plane 2 is ready).
        checker.execute(RowJob(2, 0, 2, 0, 2))

    def test_e_may_run_flush_with_h_along_z(self):
        checker = DependencyChecker(2, 6)
        checker.execute(RowJob(0, 0, 2, 0, 3))  # H step 0 on planes 0-2
        checker.execute(RowJob(1, 0, 2, 0, 3))  # E step 1 flush: reads z-1

    def test_double_execution_rejected(self):
        checker = DependencyChecker(4, 4)
        checker.execute(RowJob(0, 0, 4, 0, 4))
        with pytest.raises(DependencyError):
            checker.execute(RowJob(0, 0, 4, 0, 4))

    def test_out_of_bounds_rejected(self):
        checker = DependencyChecker(4, 4)
        with pytest.raises(DependencyError):
            checker.execute(RowJob(0, 0, 5, 0, 4))
        with pytest.raises(DependencyError):
            checker.execute(RowJob(0, 2, 2, 0, 4))
        with pytest.raises(DependencyError):
            checker.execute(RowJob(-1, 0, 4, 0, 4))

    def test_incomplete_coverage_detected(self):
        with pytest.raises(DependencyError):
            validate_jobs(naive_jobs(4, 4, 2), 4, 4, timesteps=3)

    def test_shuffled_tile_order_violating_dag_caught(self):
        """Executing a band-2 tile before its band-1 predecessor fails."""
        plan = TilingPlan.build(ny=12, nz=6, timesteps=6, dw=4, bz=1)
        order = plan.fifo_order()
        # Swap a dependent pair: find (idx, succ) adjacent in DAG.
        idx = next(i for i in order if plan.succs[i])
        succ = plan.succs[idx][0]
        bad = [succ if o == idx else (idx if o == succ else o) for o in order]
        with pytest.raises(DependencyError):
            plan.validate(bad)
