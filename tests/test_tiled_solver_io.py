"""Tests for the temporally blocked solver driver and the I/O module."""

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
)
from repro.io import export_vtk

from conftest import random_state


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
