"""Tests for the temporally blocked solver driver and the I/O module."""

import os

import numpy as np
import pytest

from repro.core.tiled_solver import TiledTHIIM
from repro.fdfd import (
    A_SI_H,
    Grid,
    PMLSpec,
    PlaneWaveSource,
    Scene,
    THIIMSolver,
    build_coefficients,
    random_coefficients,
)
from repro.io import (
    cross_section,
    export_vtk,
    load_coefficients,
    load_state,
    save_coefficients,
    save_state,
)

from conftest import random_state, service_solver


def make_solver(tiled_ok=True):
    grid = Grid(nz=40, ny=10, nx=8)
    omega = 2 * np.pi / 10.0
    scene = Scene().add_layer(A_SI_H, 20, 32)
    return THIIMSolver(
        grid, omega, scene=scene,
        source=PlaneWaveSource(z_plane=10, z_width=2.0),
        pml={"z": PMLSpec(thickness=6)},
    )


class TestTiledTHIIM:
    def test_run_matches_naive_driver(self):
        a = make_solver()
        b = make_solver()
        a.run(16)
        tiled = TiledTHIIM(b, dw=4, bz=2, chunk=16)
        tiled.run(16)
        assert a.fields.max_abs_difference(b.fields) == 0.0
        assert tiled.steps_done == 16
        assert tiled.lups_done > 0 and tiled.jobs_done > 0

    def test_run_rounds_up_to_chunks(self):
        solver = make_solver()
        tiled = TiledTHIIM(solver, dw=4, chunk=4)
        tiled.run(6)  # 2 chunks
        assert tiled.steps_done == 8

    def test_solve_converges_like_naive(self):
        a = make_solver()
        ra = a.solve(tol=1e-4, max_steps=2000, check_every=50)
        b = make_solver()
        tiled = TiledTHIIM(b, dw=4, bz=2, chunk=50)
        rb = tiled.solve(tol=1e-4, max_steps=2000)
        assert ra.converged and rb.converged
        # Both end at the same fixed point (same physics).
        assert a.fields.max_abs_difference(b.fields) < 1e-4 * max(a.fields.norm(), 1)

    def test_default_chunk_is_diamond_height(self):
        solver = make_solver()
        tiled = TiledTHIIM(solver, dw=6)
        assert tiled.chunk == 6

    def test_periodic_grid_rejected(self):
        grid = Grid(nz=16, ny=8, nx=8, periodic=(False, True, False))
        solver = THIIMSolver(grid, 0.5)
        with pytest.raises(ValueError):
            TiledTHIIM(solver, dw=4)

    def test_invalid_args(self):
        solver = make_solver()
        with pytest.raises(ValueError):
            TiledTHIIM(solver, dw=4, chunk=0)
        tiled = TiledTHIIM(solver, dw=4)
        with pytest.raises(ValueError):
            tiled.run(-1)
        with pytest.raises(ValueError):
            tiled.solve(tol=0)

    def test_describe(self):
        tiled = TiledTHIIM(make_solver(), dw=4)
        assert "TiledTHIIM" in tiled.describe()


class TestStateIO:
    def test_roundtrip_state(self, tmp_path, rng):
        grid = Grid(nz=6, ny=5, nx=4, dz=0.5, periodic=(False, True, False))
        fields = random_state(grid, seed=3)
        path = save_state(fields, str(tmp_path / "ckpt.npz"))
        restored = load_state(path)
        assert restored.grid == grid
        assert fields.max_abs_difference(restored) == 0.0

    def test_roundtrip_coefficients(self, tmp_path):
        grid = Grid(nz=8, ny=5, nx=4)
        eps = np.ones(grid.shape)
        eps[4:] = -9.0
        coeffs = build_coefficients(grid, omega=0.7, tau=0.2, eps=eps, sigma=0.5)
        path = save_coefficients(coeffs, str(tmp_path / "coeffs.npz"))
        restored = load_coefficients(path)
        assert restored.omega == coeffs.omega
        assert restored.tau == coeffs.tau
        assert restored.back_mask is not None
        assert np.array_equal(restored.back_mask, coeffs.back_mask)
        for name, arr in coeffs.arrays.items():
            assert np.array_equal(restored.arrays[name], arr), name

    def test_roundtrip_keeps_contracted_shapes(self, tmp_path):
        coeffs = service_solver("tandem").coefficients
        restored = load_coefficients(
            save_coefficients(coeffs, str(tmp_path / "coeffs.npz")))
        assert restored.back_mask.shape == coeffs.back_mask.shape
        for name, arr in coeffs.arrays.items():
            assert restored.arrays[name].shape == arr.shape, name
            assert restored.arrays[name].tobytes() == arr.tobytes(), name

    def test_checkpoint_resume_equivalence(self, tmp_path):
        """Saving mid-run and resuming gives the same trajectory."""
        grid = Grid(nz=10, ny=6, nx=5)
        coeffs = random_coefficients(grid, seed=9)
        from repro.fdfd import naive_sweep

        straight = random_state(grid, seed=10)
        naive_sweep(straight, coeffs, 6)

        resumed = random_state(grid, seed=10)
        naive_sweep(resumed, coeffs, 3)
        p = save_state(resumed, str(tmp_path / "mid.npz"))
        resumed = load_state(p)
        naive_sweep(resumed, coeffs, 3)
        assert straight.max_abs_difference(resumed) == 0.0


class TestVTKExport:
    def test_vtk_structure(self, tmp_path, rng):
        grid = Grid(nz=4, ny=3, nx=5)
        fields = random_state(grid, seed=1)
        path = export_vtk(fields, str(tmp_path / "out.vtk"), quantities=("Emag", "Ex"))
        text = open(path).read()
        assert "STRUCTURED_POINTS" in text
        assert f"DIMENSIONS {grid.nx} {grid.ny} {grid.nz}" in text
        assert f"POINT_DATA {grid.n_cells}" in text
        assert "SCALARS Emag double 1" in text
        assert "SCALARS Ex_re double 1" in text
        assert "SCALARS Ex_im double 1" in text
        # Value count: header lines + one float per point per scalar.
        floats = sum(1 for line in text.splitlines()
                     if line and line[0] in "-0123456789" and " " not in line.strip())
        assert floats == 3 * grid.n_cells

    def test_vtk_unknown_quantity(self, tmp_path, rng):
        fields = random_state(Grid(nz=3, ny=3, nx=3), seed=1)
        with pytest.raises(ValueError):
            export_vtk(fields, str(tmp_path / "x.vtk"), quantities=("bogus",))


class TestCrossSection:
    def test_shapes(self, rng):
        grid = Grid(nz=6, ny=5, nx=4)
        fields = random_state(grid, seed=2)
        assert cross_section(fields, "Emag", "z", 2).shape == (5, 4)
        assert cross_section(fields, "Hmag", "y", 0).shape == (6, 4)
        assert cross_section(fields, "Ex", "x", 3).shape == (6, 5)

    def test_values_match_direct_computation(self, rng):
        grid = Grid(nz=6, ny=5, nx=4)
        fields = random_state(grid, seed=2)
        got = cross_section(fields, "Ex", "z", 1)
        want = np.abs(fields.combined("Ex"))[1]
        assert np.array_equal(got, want)

    def test_validation(self, rng):
        fields = random_state(Grid(nz=4, ny=4, nx=4), seed=1)
        with pytest.raises(ValueError):
            cross_section(fields, "bogus", "z", 0)
        with pytest.raises(ValueError):
            cross_section(fields, "Emag", "w", 0)
        with pytest.raises(IndexError):
            cross_section(fields, "Emag", "z", 99)
