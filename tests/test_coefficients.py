"""Tests for the THIIM coefficient builder: array accounting, stability
properties (forward vs. back iteration), PML folding, source handling."""

import numpy as np
import pytest

from repro.fdfd import (
    ALL_COMPONENTS,
    SPECS,
    Grid,
    PMLSpec,
    build_coefficients,
    random_coefficients,
)
from repro.fdfd.coefficients import CoefficientSet


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
        cs = build_coefficients(grid, omega=1.0, tau=0.1)
        for name, arr in cs.arrays.items():
            assert arr.shape == grid.shape, name
            assert arr.dtype == np.complex128, name

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
        cs = build_coefficients(grid, omega=1.0, tau=0.1)
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
        cs = build_coefficients(
            grid, omega=0.8, tau=0.2, pml={"z": PMLSpec(thickness=4)}
        )
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
        cs = build_coefficients(grid, omega=0.8, tau=0.2, pml={"z": PMLSpec(thickness=4)})
        assert abs(cs.c("Hyz")[0, 0, 0]) < abs(cs.c("Hyz")[6, 0, 0])

    def test_multi_axis_pml(self, grid):
        cs = build_coefficients(
            grid,
            omega=0.8,
            tau=0.2,
            pml={"z": PMLSpec(thickness=4), "y": PMLSpec(thickness=2)},
        )
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
