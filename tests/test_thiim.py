"""Physics validation of the THIIM solver.

These tests exercise the full solver pipeline (scene -> coefficients ->
iteration -> observables) on small grids and verify the physical behaviour
the production code relies on: causal wave propagation, PML absorption,
stable back iteration in silver, and convergence of the inverse iteration
to the time-harmonic state.
"""

import numpy as np
import pytest

from repro.fdfd import (
    A_SI_H,
    SILVER,
    Grid,
    PMLSpec,
    PlaneWaveSource,
    Scene,
    THIIMSolver,
    absorbed_power,
    field_energy,
    poynting_flux_z,
)


def make_solver(nz=48, n_xy=6, scene=None, pml=True, wavelength=12.0, z_src=12,
                z_width=2.0, **kw):
    grid = Grid(nz=nz, ny=n_xy, nx=n_xy, periodic=(False, True, True))
    omega = 2 * np.pi / wavelength
    pml_spec = {"z": PMLSpec(thickness=8)} if pml else None
    src = PlaneWaveSource(z_plane=z_src, amplitude=1.0, z_width=z_width)
    return THIIMSolver(grid, omega, scene=scene, source=src, pml=pml_spec, **kw)


class TestPropagation:
    def test_causality_wavefront_speed(self):
        """Fields ahead of the numerical light cone must remain exactly
        zero.  The discrete domain of dependence expands by one cell per
        time step (via the H-then-E chain), so beyond ``z_src + nsteps + 1``
        nothing can be written."""
        solver = make_solver(pml=False, z_width=0.0)
        nsteps = 20
        solver.run(nsteps)
        front = 12 + nsteps + 1
        ex = solver.fields.combined("Ex")
        assert np.abs(ex[front:]).max() == 0.0
        # ...and nonzero behind the physical front c * t.
        behind = 12 + int(nsteps * solver.tau) - 1
        assert np.abs(ex[12:behind]).max() > 0

    def test_physical_front_dominates(self):
        """Amplitude beyond the physical light cone (numerical precursor)
        is small compared to the main wave."""
        solver = make_solver(pml=False, z_width=0.0)
        nsteps = 30
        solver.run(nsteps)
        ex = np.abs(solver.fields.combined("Ex"))
        physical_front = 12 + int(np.ceil(nsteps * solver.tau)) + 3
        precursor = ex[physical_front:].max()
        main = ex[12 : physical_front - 4].max()
        assert precursor < 0.12 * main

    def test_wave_reaches_bottom_with_time(self):
        solver = make_solver(pml=False)
        solver.run(200)
        ex = solver.fields.combined("Ex")
        assert np.abs(ex[-5]).max() > 1e-6


class TestPML:
    def test_pml_suppresses_standing_wave(self):
        """With PML the steady state below the source is a travelling wave
        (|Ex| roughly constant along z); with reflecting Dirichlet walls a
        standing-wave pattern appears (deep amplitude modulation)."""

        def modulation(pml: bool) -> float:
            solver = make_solver(pml=pml)
            solver.run(800)
            amp = np.abs(solver.fields.combined("Ex")[14:36].mean(axis=(1, 2)))
            return float(amp.std() / amp.mean())

        assert modulation(True) < 0.25
        assert modulation(False) > 2 * modulation(True)

    def test_pml_bounded_energy(self):
        solver = make_solver()
        energies = []
        for _ in range(6):
            solver.run(100)
            energies.append(field_energy(solver.fields, eps=solver.eps))
        # Energy must level off (absorbed at the boundaries), not grow.
        assert energies[-1] < 1.5 * energies[2]
        assert np.isfinite(energies[-1])

    def test_power_flows_downward_from_source(self):
        solver = make_solver()
        solver.run(800)
        # Below the source plane: net power toward +z.
        assert poynting_flux_z(solver.fields, 25) > 0


class TestSilverBackIteration:
    def _silver_scene(self, nz=48):
        return Scene().add_layer(SILVER, nz - 16, nz)

    def test_back_iteration_stable(self):
        scene = self._silver_scene()
        solver = make_solver(scene=scene)
        assert solver.coefficients.back_mask is not None
        norms = []
        for _ in range(5):
            solver.run(100)
            norms.append(solver.fields.norm())
        assert all(np.isfinite(n) for n in norms)
        # Bounded: no exponential growth between the last checkpoints.
        assert norms[-1] < 2.0 * norms[-3] + 1e-12

    def test_silver_reflects(self):
        """A silver mirror transmits almost nothing: the net downward flux
        just above the metal is a small fraction of the incident flux of a
        mirror-free reference run."""
        reference = make_solver()
        reference.run(1500)
        incident = poynting_flux_z(reference.fields, 30)

        solver = make_solver(scene=self._silver_scene())
        solver.run(1500)
        into_metal = poynting_flux_z(solver.fields, 30)
        assert abs(into_metal) < 0.35 * abs(incident)

    def test_field_decays_inside_metal(self):
        scene = self._silver_scene()
        solver = make_solver(scene=scene)
        solver.run(1000)
        ex = np.abs(solver.fields.combined("Ex")).mean(axis=(1, 2))
        surface = 48 - 16
        assert ex[surface + 6] < 0.3 * ex[surface - 4]


class TestAbsorber:
    def test_absorbing_layer_dissipates(self):
        scene = Scene().add_layer(A_SI_H, 24, 40)
        solver = make_solver(scene=scene)
        solver.run(800)
        mask = solver.material_mask("a-Si:H")
        p = absorbed_power(solver.fields, solver.sigma, mask=mask)
        assert p > 0

    def test_flux_decreases_through_absorber(self):
        scene = Scene().add_layer(A_SI_H, 24, 40)
        solver = make_solver(scene=scene)
        solver.run(1200)
        above = poynting_flux_z(solver.fields, 20)
        below = poynting_flux_z(solver.fields, 42)
        assert below < above


class TestConvergence:
    def test_solve_converges_with_absorber(self):
        scene = Scene().add_layer(A_SI_H, 24, 40)
        solver = make_solver(scene=scene)
        result = solver.solve(tol=1e-5, max_steps=4000, check_every=100)
        assert result.converged, f"residual history: {result.residual_history[-5:]}"
        assert result.residual < 1e-5
        # Residuals trend downward.
        h = result.residual_history
        assert h[-1] < h[0]

    def test_fixed_point_residual_decreases(self):
        scene = Scene().add_layer(A_SI_H, 24, 40)
        solver = make_solver(scene=scene)
        solver.run(100)
        r1 = solver.frequency_domain_residual()
        solver.run(900)
        r2 = solver.frequency_domain_residual()
        assert r2 < r1

    def test_residual_diagnostic_is_side_effect_free(self):
        solver = make_solver()
        solver.run(50)
        snap = solver.fields.copy()
        solver.frequency_domain_residual()
        assert solver.fields.allclose(snap, rtol=0, atol=0)

    def test_reset(self):
        solver = make_solver()
        solver.run(50)
        assert solver.fields.norm() > 0
        solver.reset()
        assert solver.fields.norm() == 0

    def test_solver_validation(self):
        solver = make_solver()
        with pytest.raises(ValueError):
            solver.solve(tol=0.0)
        with pytest.raises(ValueError):
            solver.solve(check_every=0)
        with pytest.raises(ValueError):
            solver.run(10, traversal="bogus")
        # A mistyped block size is an error, not a silently ignored word.
        with pytest.raises(TypeError):
            solver.run(10, traversal="spatial", block_yy=3)
        # The pre-progress-event hook is gone.
        with pytest.raises(TypeError):
            solver.solve(callback=print)

    def test_spatial_traversal_matches_naive(self):
        s1 = make_solver()
        s2 = make_solver()
        s1.run(60, traversal="naive")
        s2.run(60, traversal="spatial", block_y=3)
        assert s1.fields.allclose(s2.fields)
