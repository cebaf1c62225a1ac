"""Tests for the THIIM coefficient builder: array accounting, stability
properties (forward vs. back iteration), PML folding, source handling."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fdfd import (
    ALL_COMPONENTS,
    SPECS,
    BatchedCoefficientSet,
    Grid,
    PMLSpec,
    PlaneWaveSource,
    Scene,
    build_coefficients,
    gaussian_beam_profile,
    kernels,
    random_coefficients,
    sinusoidal_texture,
)
from repro.fdfd.coefficients import CoefficientSet, _contracted
from repro.fdfd.materials import A_SI_H
from repro.fdfd.presets import PRESETS, preset_scene

from conftest import expanded, full_coefficients, service_solver, sphere_scene


@pytest.fixture
def grid():
    return Grid(nz=12, ny=6, nx=5)


class TestArrayAccounting:
    def test_exactly_28_arrays(self, grid):
        cs = build_coefficients(grid, omega=1.0, tau=0.1)
        assert len(cs.arrays) == 28
        names = set(cs.arrays)
        assert {"SrcEx", "SrcEy", "SrcHx", "SrcHy"} <= names
        for comp in ALL_COMPONENTS:
            assert f"t{comp}" in names and f"c{comp}" in names

    def test_all_domain_sized_complex(self, grid):
        """Every array is complex128 and broadcasts to the grid; the
        domain-sized layout is still a valid set."""
        cs = build_coefficients(grid, omega=1.0, tau=0.1)
        for name, arr in cs.arrays.items():
            assert np.broadcast_shapes(arr.shape, grid.shape) == grid.shape, name
            assert arr.dtype == np.complex128, name
        for name, arr in expanded(cs).arrays.items():
            assert arr.shape == grid.shape, name

    @pytest.mark.parametrize("scene", [
        {},                                               # scalar eps/sigma/mu
        {"eps": "mixed", "sigma": 0.3},                   # metal + dielectric
        {"pml": {"z": PMLSpec(thickness=3), "x": PMLSpec(thickness=2)}},
    ], ids=["scalars", "arrays", "pml"])
    def test_every_array_is_its_own_writable_contiguous_buffer(self, grid,
                                                               scene):
        """The kernel binds raw addresses and ``compact`` writes lanes in
        place, so no array may be a view, a broadcast or an alias."""
        scene = dict(scene)
        if scene.get("eps") == "mixed":
            scene["eps"] = np.ones(grid.shape)
            scene["eps"][8:] = -4.0
        raw = np.ones(grid.shape, dtype=np.complex128)
        cs = build_coefficients(grid, omega=0.9, tau=0.2,
                                sources={"SrcEx": raw, "SrcHy": raw}, **scene)
        arrays = list(cs.arrays.items())
        for i, (name, arr) in enumerate(arrays):
            assert arr.flags.c_contiguous and arr.flags.writeable, name
            assert arr.flags.owndata, name
            assert not np.shares_memory(arr, raw), name
            for other_name, other in arrays[i + 1:]:
                assert not np.shares_memory(arr, other), (name, other_name)

    def test_validation_missing_array(self, grid):
        cs = build_coefficients(grid, omega=1.0, tau=0.1)
        arrays = dict(cs.arrays)
        arrays.pop("tExy")
        with pytest.raises(KeyError):
            CoefficientSet(grid=grid, omega=1.0, tau=0.1, arrays=arrays)

    def test_validation_extra_array(self, grid):
        cs = build_coefficients(grid, omega=1.0, tau=0.1)
        arrays = dict(cs.arrays)
        arrays["tExy"] = arrays["tExy"]
        arrays["bogus"] = grid.zeros()
        arrays.pop("SrcHy")
        with pytest.raises(KeyError):
            CoefficientSet(grid=grid, omega=1.0, tau=0.1, arrays=arrays)

    def test_accessors(self, grid):
        cs = expanded(build_coefficients(grid, omega=1.0, tau=0.1))
        assert cs.t("Exy") is cs.arrays["tExy"]
        assert cs.c("Hzy") is cs.arrays["cHzy"]
        assert cs.src("Exz") is cs.arrays["SrcEx"]
        assert cs.src("Exy") is None
        assert cs["tExy"] is cs.arrays["tExy"]


class TestStability:
    """THIIM's raison d'etre: |c| <= 1 with the right iteration per cell."""

    def test_vacuum_is_neutrally_stable(self, grid):
        cs = build_coefficients(grid, omega=0.8, tau=0.2)
        assert cs.spectral_radius_bound() == pytest.approx(1.0, abs=1e-12)

    def test_lossy_material_contracts(self, grid):
        cs = build_coefficients(grid, omega=0.8, tau=0.2, eps=2.0, sigma=0.5)
        for name in ALL_COMPONENTS:
            if name.startswith("E"):
                assert np.all(np.abs(cs.c(name)) < 1.0)

    def test_back_iteration_selected_for_negative_eps(self, grid):
        eps = np.ones(grid.shape)
        eps[5:] = -9.0  # metal half-space
        cs = build_coefficients(grid, omega=0.8, tau=0.2, eps=eps, sigma=1.0)
        assert cs.back_mask is not None
        assert np.all(cs.back_mask[5:])
        assert not cs.back_mask[:5].any()
        # Back iteration damps the metal cells.
        for name in ALL_COMPONENTS:
            if name.startswith("E"):
                assert np.all(np.abs(cs.c(name)[5:]) < 1.0)

    def test_forward_iteration_would_amplify_metal(self, grid):
        """|c_forward| > 1 for sigma > 0, eps < 0 -- the instability the
        back iteration exists to avoid (Section I of the paper)."""
        omega, tau, eps, sigma = 0.8, 0.2, -9.0, 1.0
        denom_fwd = 1.0 + tau * sigma / eps
        assert abs(np.exp(-1j * omega * tau) / denom_fwd) > 1.0
        denom_back = 1.0 - tau * sigma / eps
        assert abs(np.exp(1j * omega * tau) / denom_back) < 1.0

    def test_no_back_mask_for_dielectrics(self, grid):
        cs = build_coefficients(grid, omega=0.8, tau=0.2, eps=2.25)
        assert cs.back_mask is None


class TestPMLFolding:
    def test_pml_damps_only_matching_axis_components(self, grid):
        cs = expanded(build_coefficients(
            grid, omega=0.8, tau=0.2, pml={"z": PMLSpec(thickness=4)}
        ))
        inside_pml = (0, 3, 2)  # z = 0 is deep in the PML
        centre = (6, 3, 2)
        for name in ALL_COMPONENTS:
            spec = SPECS[name]
            c_in = abs(cs.c(name)[inside_pml])
            c_mid = abs(cs.c(name)[centre])
            if spec.deriv_axis == 0:  # z-loss components are damped
                assert c_in < c_mid
            else:  # others untouched by a z-PML
                assert c_in == pytest.approx(c_mid, rel=1e-12)

    def test_pml_magnetic_matching(self, grid):
        """H split parts are damped too (matched PML)."""
        cs = expanded(build_coefficients(grid, omega=0.8, tau=0.2,
                                         pml={"z": PMLSpec(thickness=4)}))
        assert abs(cs.c("Hyz")[0, 0, 0]) < abs(cs.c("Hyz")[6, 0, 0])

    def test_multi_axis_pml(self, grid):
        cs = expanded(build_coefficients(
            grid,
            omega=0.8,
            tau=0.2,
            pml={"z": PMLSpec(thickness=4), "y": PMLSpec(thickness=2)},
        ))
        assert abs(cs.c("Exy")[6, 0, 2]) < abs(cs.c("Exy")[6, 3, 2])


class TestSources:
    def test_source_arrays_folded(self, grid):
        raw = np.zeros(grid.shape, dtype=np.complex128)
        raw[4, :, :] = 2.0
        cs = build_coefficients(grid, omega=0.8, tau=0.2, sources={"SrcEx": raw})
        src = cs.arrays["SrcEx"]
        assert src[4].all()
        assert not src[0].any() and not src[8].any()
        # Folded value = raw * tau * e^{-i w tau} / denom (vacuum: denom=1).
        expected = 2.0 * 0.2 * np.exp(-1j * 0.8 * 0.2)
        assert src[4, 0, 0] == pytest.approx(expected)

    def test_missing_sources_are_zero(self, grid):
        cs = build_coefficients(grid, omega=0.8, tau=0.2)
        for s in ("SrcEx", "SrcEy", "SrcHx", "SrcHy"):
            assert not cs.arrays[s].any()

    def test_wrong_source_shape_rejected(self, grid):
        with pytest.raises(ValueError):
            build_coefficients(
                grid, omega=0.8, tau=0.2, sources={"SrcEx": np.zeros((2, 2, 2))}
            )


class TestValidation:
    def test_bad_scalars(self, grid):
        with pytest.raises(ValueError):
            build_coefficients(grid, omega=0.0, tau=0.1)
        with pytest.raises(ValueError):
            build_coefficients(grid, omega=1.0, tau=-0.1)
        with pytest.raises(ValueError):
            build_coefficients(grid, omega=1.0, tau=0.1, eps=0.0)
        with pytest.raises(ValueError):
            build_coefficients(grid, omega=1.0, tau=0.1, sigma=-1.0)
        with pytest.raises(ValueError):
            build_coefficients(grid, omega=1.0, tau=0.1, mu=0.0)

    def test_random_coefficients_stable(self, grid):
        cs = random_coefficients(grid, seed=3, contraction=0.8)
        assert cs.spectral_radius_bound() < 0.8 + 1e-9
        with pytest.raises(ValueError):
            random_coefficients(grid, contraction=1.5)


@st.composite
def _scenes(draw):
    """Keyword arguments of one ``build_coefficients`` call: a preset,
    sphere or textured scene at a drawn omega, PML axes and source."""
    n = draw(st.integers(10, 12))  # the tandem stack needs nz >= 20
    grid = Grid(nz=2 * n, ny=draw(st.integers(5, 8)), nx=draw(st.integers(5, 8)),
                periodic=(False, True, True))
    omega = draw(st.floats(0.2, 1.5))
    kind = draw(st.sampled_from(PRESETS + ("sphere", "texture")))
    if kind == "sphere":
        scene = sphere_scene(grid)
    elif kind == "texture":
        scene = Scene().add_layer(A_SI_H, n, grid.nz - 2,
                                  texture=sinusoidal_texture(1.5, grid.ny, grid.nx))
    else:
        scene = preset_scene(kind, grid.nz, thickness=draw(
            st.none() | st.sampled_from([0.1, 0.25, 0.4])))
    eps, sigma = scene.rasterize(grid, omega) if scene else (1.0, 0.0)
    pml = {axis: PMLSpec(thickness=2) for axis in draw(st.sets(st.sampled_from("zyx")))}
    source = draw(st.sampled_from(["none", "plane", "thick", "beam"]))
    sources = None
    if source != "none":
        sources = PlaneWaveSource(
            z_plane=n // 2, z_width=2.0 if source == "thick" else 0.0,
            wavenumber=omega, polarization=draw(st.sampled_from("xy")),
            profile=gaussian_beam_profile(grid, 2.0) if source == "beam" else None,
        ).build(grid)
    return dict(grid=grid, omega=omega, tau=0.3, eps=eps, sigma=sigma,
                mu=draw(st.sampled_from([1.0, 1.5])), pml=pml, sources=sources)


def _varies(a, axis):
    return a.shape[axis] > 1 and not (a == np.take(a, [0], axis=axis)).all()


class TestContraction:
    """Each coefficient at the smallest shape it broadcasts from."""

    @given(kw=_scenes())
    @settings(max_examples=80, deadline=None)
    def test_contracted_build_equals_the_full_oracle_bitwise(self, kw):
        got = build_coefficients(**kw)
        want = full_coefficients(**kw)
        grid = kw["grid"]
        assert set(got.arrays) == set(want.arrays)
        for name, arr in got.arrays.items():
            full = np.broadcast_to(arr, grid.shape)
            assert arr.dtype == np.complex128, name
            assert full.tobytes() == want.arrays[name].tobytes(), name
        assert (got.back_mask is None) == (want.back_mask is None)
        if got.back_mask is not None:
            assert np.array_equal(np.broadcast_to(got.back_mask, grid.shape),
                                  want.back_mask)
        # The smallest shared shape: t, c and src of a component agree, and
        # each full axis is one along which one of them varies.
        for comp in ALL_COMPONENTS:
            arrays = [want.arrays[n] for n in SPECS[comp].coeff_names]
            shape = got.arrays[SPECS[comp].coeff_t].shape
            assert {got.arrays[n].shape for n in SPECS[comp].coeff_names} == {shape}
            for axis in range(3):
                assert (shape[axis] > 1) == any(_varies(a, axis) for a in arrays), (
                    comp, axis, shape)

    @given(grid_shape=st.tuples(*[st.integers(3, 6)] * 3),
           full=st.tuples(*[st.booleans()] * 3),
           uniform=st.tuples(*[st.booleans()] * 3), seed=st.integers(0, 2**16),
           special=st.sampled_from([None, -0.0, np.nan]), where=st.integers(0, 215))
    @settings(max_examples=120, deadline=None)
    def test_small_inputs_contract_as_big_ones(self, grid_shape, full, uniform, seed,
                                               special, where):
        """Below the gate a value is compared as ``bytes`` (no ufunc, so the
        GIL is kept), above it with a comparison ufunc: the same axes
        contract, to the same bits (-0.0 is not 0.0, a NaN equals its own
        bits)."""
        rng = np.random.default_rng(seed)
        shape = tuple(n if f else 1 for n, f in zip(grid_shape, full))
        base = rng.standard_normal(tuple(1 if u else n for u, n in zip(uniform, shape)))
        value = np.broadcast_to(base, shape).copy()
        if special is not None:
            value.flat[where % value.size] = special
        grid = Grid(*grid_shape)
        got = {}
        for small in (True, False):
            with mock.patch.object(kernels, "keeps_gil", lambda cells: small):
                got[small] = _contracted(value, grid, "value", np.float64)
        assert got[True].shape == got[False].shape
        assert got[True].tobytes() == got[False].tobytes()
        assert np.broadcast_to(got[True], shape).tobytes() == value.tobytes()

    @pytest.mark.parametrize("preset", PRESETS)
    def test_layered_presets_store_profiles_and_scalars(self, preset):
        """The service geometry at grid 24: every array ``(nz, 1, 1)`` or
        ``(1, 1, 1)``, for the lanes of a batch too."""
        batch = service_solver(preset, n=24, wavelengths=(10.0, 12.0, 14.0))
        nz = batch.grid.nz
        for solver in batch.lanes:
            shapes = [a.shape for a in solver.coefficients.arrays.values()]
            assert set(shapes) <= {(nz, 1, 1), (1, 1, 1)}
            assert sum(a.nbytes for a in solver.coefficients.arrays.values()) \
                <= 28 * nz * 16
        for name, a in batch.coefficients.arrays.items():
            assert a.shape == (3,) + batch.lanes[0].coefficients[name].shape, name

    def test_tandem_layout(self):
        """E: ``eps`` / ``sigma`` vary in z; H: only the z-PML profile does;
        sources follow their component's shape."""
        cs = service_solver("tandem", n=24).coefficients
        nz = cs.grid.nz
        profiles = sorted(n for n, a in cs.arrays.items() if a.shape == (nz, 1, 1))
        scalars = sorted(n for n, a in cs.arrays.items() if a.shape == (1, 1, 1))
        assert len(profiles) == 20 and len(scalars) == 8
        assert all(SPECS[n[1:]].field == "H" and SPECS[n[1:]].deriv_axis != 0
                   for n in scalars)
        assert sum(a.nbytes for a in cs.arrays.values()) == (20 * nz + 8) * 16

    def test_sphere_keeps_full_arrays_where_values_vary(self):
        cs = service_solver("sphere").coefficients
        for comp in ALL_COMPONENTS:
            full = cs.t(comp).shape == cs.grid.shape
            assert full == (SPECS[comp].field == "E"), comp

    def test_stack_takes_the_per_axis_maximum(self):
        grid = Grid(nz=8, ny=5, nx=4)
        contracted = build_coefficients(grid, omega=0.8, tau=0.2,
                                        pml={"z": PMLSpec(thickness=2)})
        batch = BatchedCoefficientSet.stack([contracted, expanded(contracted)])
        for name, a in batch.arrays.items():
            assert a.shape == (2,) + grid.shape, name
            assert a.flags.c_contiguous, name  # the kernel binds raw addresses
            assert a[0].tobytes() == a[1].tobytes(), name
        lanes = BatchedCoefficientSet.stack([contracted, contracted])
        for name, a in lanes.arrays.items():
            assert a.shape == (2,) + contracted[name].shape, name

    def test_shapes_that_do_not_broadcast_are_rejected(self):
        grid = Grid(nz=8, ny=5, nx=4)
        cs = build_coefficients(grid, omega=0.8, tau=0.2)
        for bad in (np.zeros((2, 1, 1), complex), np.zeros((8, 5), complex)):
            with pytest.raises(ValueError, match="broadcast"):
                CoefficientSet(grid, 0.8, 0.2, dict(cs.arrays, tExy=bad))
        with pytest.raises(ValueError, match="broadcast"):
            build_coefficients(grid, omega=0.8, tau=0.2, eps=np.ones((3, 5, 4)))
