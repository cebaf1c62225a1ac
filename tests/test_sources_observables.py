"""Tests for plane-wave sources and field observables."""

import numpy as np
import pytest

from repro.core.tiled_solver import BatchedTiledTHIIM, TiledTHIIM
from repro.fdfd import (
    E_COMPONENTS,
    BatchedTHIIMSolver,
    FieldState,
    Grid,
    PlaneWaveSource,
    PMLSpec,
    THIIMSolver,
    absorbed_power,
    absorption_density,
    field_energy,
    gaussian_beam_profile,
    naive_sweep,
    poynting_flux_z,
    poynting_z,
    relative_change,
)
from repro.fdfd.presets import preset_scene


class TestPlaneWaveSource:
    def test_x_polarized_pairs(self):
        g = Grid(nz=16, ny=4, nx=4)
        src = PlaneWaveSource(z_plane=3, amplitude=2.0).build(g)
        assert set(src) == {"SrcEx", "SrcHy"}
        assert np.all(src["SrcEx"][3] == 2.0)
        assert np.all(src["SrcHy"][3] == 2.0)
        assert not src["SrcEx"][4].any()

    def test_y_polarized_pairs(self):
        g = Grid(nz=16, ny=4, nx=4)
        src = PlaneWaveSource(z_plane=3, polarization="y").build(g)
        assert set(src) == {"SrcEy", "SrcHx"}
        assert np.all(src["SrcHx"][3] == -1.0)

    def test_direction_flips_h(self):
        g = Grid(nz=16, ny=4, nx=4)
        up = PlaneWaveSource(z_plane=3, direction=-1).build(g)
        down = PlaneWaveSource(z_plane=3, direction=+1).build(g)
        assert np.allclose(up["SrcHy"], -down["SrcHy"])
        assert np.allclose(up["SrcEx"], down["SrcEx"])

    def test_impedance_scales_h(self):
        g = Grid(nz=16, ny=4, nx=4)
        src = PlaneWaveSource(z_plane=3, impedance=2.0).build(g)
        assert np.all(src["SrcHy"][3] == 0.5)

    def test_profile(self):
        g = Grid(nz=16, ny=8, nx=8)
        prof = gaussian_beam_profile(g, waist_cells=2.0)
        src = PlaneWaveSource(z_plane=3, profile=prof).build(g)
        centre = src["SrcEx"][3, 3, 3]
        corner = src["SrcEx"][3, 0, 0]
        assert abs(centre) > abs(corner)

    def test_thick_source_envelope_and_phase(self):
        g = Grid(nz=32, ny=4, nx=4)
        src = PlaneWaveSource(z_plane=16, z_width=3.0, wavenumber=0.5).build(g)
        e = src["SrcEx"]
        # Peaked at the source plane, decaying away from it.
        assert abs(e[16, 0, 0]) > abs(e[19, 0, 0]) > abs(e[22, 0, 0])
        assert abs(e[16, 0, 0]) == pytest.approx(1.0)
        # Travelling-wave phasing: e^{-i k dz} between adjacent planes.
        ratio = e[17, 0, 0] / e[16, 0, 0]
        assert np.angle(ratio) == pytest.approx(-0.5, abs=1e-9)

    def test_thick_source_direction_reverses_phase(self):
        g = Grid(nz=32, ny=4, nx=4)
        up = PlaneWaveSource(z_plane=16, z_width=3.0, wavenumber=0.5, direction=-1).build(g)
        ratio = up["SrcEx"][17, 0, 0] / up["SrcEx"][16, 0, 0]
        assert np.angle(ratio) == pytest.approx(+0.5, abs=1e-9)

    def test_thick_source_needs_wavenumber(self):
        g = Grid(nz=16, ny=4, nx=4)
        with pytest.raises(ValueError):
            PlaneWaveSource(z_plane=8, z_width=2.0).build(g)

    def test_negative_z_width_rejected(self):
        with pytest.raises(ValueError):
            PlaneWaveSource(z_plane=8, z_width=-1.0)

    def test_validation(self):
        g = Grid(nz=16, ny=4, nx=4)
        with pytest.raises(ValueError):
            PlaneWaveSource(z_plane=99).build(g)
        with pytest.raises(ValueError):
            PlaneWaveSource(z_plane=3, polarization="z")
        with pytest.raises(ValueError):
            PlaneWaveSource(z_plane=3, direction=0)
        with pytest.raises(ValueError):
            PlaneWaveSource(z_plane=3, impedance=-1.0)
        with pytest.raises(ValueError):
            PlaneWaveSource(z_plane=3, profile=np.ones((2, 2))).build(g)
        with pytest.raises(ValueError):
            gaussian_beam_profile(g, waist_cells=0.0)


class TestObservables:
    def test_field_energy_positive_definite(self, rng):
        s = FieldState(Grid.cube(6)).fill_random(rng)
        assert field_energy(s) > 0
        assert field_energy(FieldState(Grid.cube(6))) == 0

    def test_energy_scales_quadratically(self, rng):
        s = FieldState(Grid.cube(6)).fill_random(rng)
        e1 = field_energy(s)
        for name in s:
            s[name] = s[name] * 2.0
        assert field_energy(s) == pytest.approx(4 * e1)

    def test_poynting_plane_wave_sign(self):
        """A +z travelling wave (Ex, Hy) in phase carries positive S_z."""
        g = Grid(nz=8, ny=4, nx=4)
        s = FieldState(g)
        s["Exy"][...] = 1.0
        s["Hyz"][...] = 1.0
        assert np.all(poynting_z(s) > 0)
        assert poynting_flux_z(s, 4) == pytest.approx(0.5 * 16)

    def test_poynting_reversed_wave(self):
        g = Grid(nz=8, ny=4, nx=4)
        s = FieldState(g)
        s["Exy"][...] = 1.0
        s["Hyz"][...] = -1.0
        assert np.all(poynting_z(s) < 0)

    def test_poynting_flux_bounds(self):
        s = FieldState(Grid.cube(6))
        with pytest.raises(IndexError):
            poynting_flux_z(s, 99)

    def test_absorption_zero_without_conductivity(self, rng):
        s = FieldState(Grid.cube(6)).fill_random(rng)
        assert absorbed_power(s, sigma=0.0) == 0.0

    def test_absorption_masked(self, rng):
        g = Grid.cube(6)
        s = FieldState(g).fill_random(rng)
        sigma = np.ones(g.shape)
        mask = np.zeros(g.shape)
        mask[:3] = 1.0
        total = absorbed_power(s, sigma)
        half = absorbed_power(s, sigma, mask=mask)
        assert 0 < half < total
        dens = absorption_density(s, sigma)
        assert dens.shape == g.shape and np.all(dens >= 0)

    def test_relative_change(self, rng):
        s = FieldState(Grid.cube(6)).fill_random(rng)
        same = s.copy()
        assert relative_change(s, same) == 0.0
        other = s.copy()
        for name in other:
            other[name] = other[name] * 1.01
        rc = relative_change(s, other)
        assert 0 < rc < 0.02

    def test_relative_change_zero_fields(self):
        a = FieldState(Grid.cube(4))
        b = FieldState(Grid.cube(4))
        assert relative_change(a, b) == 0.0


def oracle_relative_change(current, previous) -> float:
    """``relative_change`` as it was written before it moved into reused
    scratch buffers: fresh temporaries per component.  The bitwise oracle
    of every residual below."""
    num = 0.0
    den = 0.0
    for name in current:
        if not name.startswith("E"):
            continue
        d = current[name] - previous[name]
        num += float(np.sum(np.abs(d) ** 2))
        den += float(np.sum(np.abs(current[name]) ** 2))
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return float(np.sqrt(num / den))


def oracle_history(fields, advance, n, checks, slabs=None):
    """The loop as it was: a whole-state copy before every chunk, then the
    oracle residual per check.  With ``slabs`` (name -> region), also the
    per-region residual of every check."""
    history, per_slab = [], []
    for _ in range(checks):
        previous = fields.copy()
        advance(n)
        history.append(oracle_relative_change(fields, previous) / n)
        if slabs is not None:
            per_slab.append({
                key: oracle_relative_change(
                    {c: fields[c][own] for c in E_COMPONENTS},
                    {c: previous[c][own] for c in E_COMPONENTS}) / n
                for key, own in slabs.items()})
    return history, per_slab


class TestResidualOracle:
    """Every residual history the convergence loop records -- through the
    E-only snapshot refreshed in place and the scratch-buffer residual --
    is bit for bit the one the old loop (whole-state copies, fresh
    temporaries) computes."""

    CHECK = 20

    @staticmethod
    def _problem(periodic=(False, False, False), n=8):
        grid = Grid(nz=2 * n, ny=n, nx=n, periodic=periodic)
        return dict(grid=grid, scene=preset_scene("tandem", 2 * n),
                    source=PlaneWaveSource(z_plane=n, z_width=2.0),
                    pml={"z": PMLSpec(thickness=4)})

    def _solver(self, omega=2 * np.pi / 10.0, **kw):
        return THIIMSolver(omega=omega, **self._problem(**kw))

    def _naive_oracle(self, checks, **kw):
        s = self._solver(**kw)
        return oracle_history(
            s.fields, lambda n: naive_sweep(s.fields, s.coefficients, n),
            self.CHECK, checks)[0]

    def test_scalar_naive_solve(self, kernel_backend):
        result = self._solver().solve(tol=1e-30, max_steps=100,
                                      check_every=self.CHECK)
        assert len(result.residual_history) == 5
        assert result.residual_history == self._naive_oracle(5)

    def test_tiled_batch_staggered_and_compacted(self, kernel_backend):
        omegas = [2 * np.pi / w for w in (6.0, 10.0, 17.0)]
        chunk, checks = 4, 30
        oracles = []
        for omega in omegas:
            tiled = TiledTHIIM(self._solver(omega), dw=4, bz=2)
            oracles.append(oracle_history(tiled.solver.fields, tiled.run,
                                          chunk, checks)[0])
        # The smallest tolerance each lane reaches at a different check.
        tol = next(
            candidate for candidate in sorted({r for h in oracles for r in h})
            if len(set(next((i for i, r in enumerate(h) if r < candidate), -1)
                       for h in oracles) - {-1}) == 3)
        batch = BatchedTHIIMSolver(omegas=omegas, **self._problem())
        result = BatchedTiledTHIIM(batch, dw=4, bz=2).solve(
            tol=tol, max_steps=chunk * checks)
        assert len({r.iterations for r in result.results}) == 3
        for lane, oracle in zip(result.results, oracles):
            assert lane.converged
            assert lane.residual_history == oracle[:len(lane.residual_history)]

    def test_resumed_run(self, tmp_path):
        from repro.resilience import faults
        from repro.resilience.checkpoint import CheckpointManager, solver_token
        from repro.resilience.errors import InjectedFault

        def manager(solver):
            return CheckpointManager(
                str(tmp_path), "oracle", every=self.CHECK,
                token=solver_token(solver, check_every=self.CHECK))

        kw = dict(tol=1e-30, max_steps=120, check_every=self.CHECK)
        faults.install(faults.FaultPlan.parse("solver.sweep:raise:3"))
        try:
            crashed = self._solver()
            with pytest.raises(InjectedFault):
                crashed.solve(checkpoint=manager(crashed), **kw)
        finally:
            faults.uninstall()
        resumed = self._solver()
        mgr = manager(resumed)
        result = resumed.solve(checkpoint=mgr, **kw)
        assert mgr.resumed_from == 3 * self.CHECK
        assert result.residual_history == self._naive_oracle(6)

    def test_two_rank_distributed_with_rank_residuals(self):
        from repro import telemetry
        from repro.cluster import RankLayout
        from repro.cluster.runtime import run_distributed

        kw = dict(periodic=(False, True, True))
        solver = self._solver(**kw)
        layout = RankLayout(solver.grid, 2, 1, 1)
        job = "residual-oracle-ranks"
        with telemetry.switched_on(), \
                telemetry.use(telemetry.JobContext(job, "0ddba11")):
            result, _ = run_distributed(layout, solver, tol=1e-30,
                                        max_steps=60, check_every=self.CHECK)
        events, _, _ = telemetry.PROGRESS.events_since(job)
        telemetry.PROGRESS.forget(job)
        published = [e["rank_residuals"] for e in events
                     if e["kind"] == "cluster" and "rank_residuals" in e]

        oracle = self._solver(**kw)
        slabs = {",".join(map(str, c)): layout.subdomain(c).own
                 for c in layout.coords()}
        history, per_rank = oracle_history(
            oracle.fields,
            lambda n: naive_sweep(oracle.fields, oracle.coefficients, n),
            self.CHECK, 3, slabs=slabs)
        assert result.residual_history == history
        assert published == per_rank
