"""End-to-end integration: the whole pipeline on one small problem.

Scene -> coefficients -> THIIM solve -> temporally blocked re-run ->
distributed re-run on forked ranks -> checkpoint/restore -> observables -> performance
projection.  Everything a downstream user chains together, in one test
module, with cross-checks at every hand-off.
"""

import numpy as np
import pytest

from repro.cluster import RankLayout
from repro.core import TiledTHIIM, TilingPlan, TiledExecutor, tune_spatial, tune_tiled
from repro.fdfd import (
    A_SI_H,
    SILVER,
    FieldState,
    Grid,
    PMLSpec,
    PlaneWaveSource,
    Scene,
    THIIMSolver,
    absorbed_power,
    field_energy,
    naive_sweep,
    poynting_flux_z,
)
from repro.machine import HASWELL_EP
from repro.resilience.checkpoint import CheckpointManager, solver_token

from conftest import run_ranks


@pytest.fixture(scope="module")
def problem():
    grid = Grid(nz=40, ny=12, nx=10)
    omega = 2 * np.pi / 10.0
    scene = Scene().add_layer(A_SI_H, 20, 30).add_layer(SILVER, 32, 40)
    solver = THIIMSolver(
        grid, omega, scene=scene,
        source=PlaneWaveSource(z_plane=10, z_width=2.0),
        pml={"z": PMLSpec(thickness=6)},
    )
    return grid, omega, scene, solver


class TestFullPipeline:
    def test_solve_and_observables(self, problem):
        grid, omega, scene, solver = problem
        solver.reset()
        result = solver.solve(tol=2e-4, max_steps=2500, check_every=100)
        assert result.converged
        # Physics sanity: bounded energy, positive absorber dissipation,
        # metal barely absorbs.
        assert np.isfinite(field_energy(solver.fields, eps=solver.eps))
        a_si = absorbed_power(solver.fields, solver.sigma, solver.material_mask("a-Si:H"))
        ag = absorbed_power(solver.fields, solver.sigma, solver.material_mask("Ag"))
        assert a_si > 0
        assert ag < 0.2 * a_si
        assert poynting_flux_z(solver.fields, 14) > 0

    def test_three_execution_paths_agree(self, problem):
        """Naive, wavefront-diamond and distributed runs of the same 12
        steps produce the same bits."""
        grid, omega, scene, _ = problem

        def fresh():
            return THIIMSolver(
                grid, omega, scene=scene,
                source=PlaneWaveSource(z_plane=10, z_width=2.0),
                pml={"z": PMLSpec(thickness=6)},
            )

        steps = 12
        ref = fresh()
        ref.run(steps)

        tiled = fresh()
        TiledTHIIM(tiled, dw=4, bz=2, chunk=steps).run(steps)
        assert ref.fields.max_abs_difference(tiled.fields) == 0.0

        dist = fresh()
        run_ranks(RankLayout(grid, 2, 2, 1), dist.fields, dist.coefficients,
                  steps)
        assert ref.fields.max_abs_difference(dist.fields) == 0.0

    def test_checkpoint_across_execution_paths(self, problem, tmp_path):
        """Checkpoint a naive run through the solves' checkpoint manager,
        restore into fresh fields, continue with the tiled executor: the
        trajectory is unchanged."""
        grid, omega, scene, _ = problem
        solver = THIIMSolver(
            grid, omega, scene=scene,
            source=PlaneWaveSource(z_plane=10, z_width=2.0),
            pml={"z": PMLSpec(thickness=6)},
        )
        straight = solver.fields.copy()
        naive_sweep(straight, solver.coefficients, 10)

        naive_sweep(solver.fields, solver.coefficients, 5)
        ckpt = CheckpointManager(str(tmp_path), "mid", strict=True,
                                 token=solver_token(solver))
        assert ckpt.save(solver.fields, 5, [[]]) is not None
        restored = FieldState(grid)
        assert ckpt.resume(restored).steps == 5
        plan = TilingPlan.build(ny=grid.ny, nz=grid.nz, timesteps=5, dw=4, bz=1)
        TiledExecutor(restored, solver.coefficients, plan).run()
        assert straight.max_abs_difference(restored) == 0.0

    def test_performance_projection(self):
        """The machine-model handoff a user makes at the end: how long
        would my production campaign take, spatial vs MWD?"""
        spatial = tune_spatial(HASWELL_EP, 128, HASWELL_EP.cores)
        mwd = tune_tiled(HASWELL_EP, 128, HASWELL_EP.cores)
        assert mwd.mlups > 2.0 * spatial.mlups
        lups = 128**3 * 500
        t_sp = lups / (spatial.mlups * 1e6)
        t_mwd = lups / (mwd.mlups * 1e6)
        assert t_mwd < t_sp
