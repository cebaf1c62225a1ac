"""Kernel correctness: golden scalar reference, blocking equivalence,
boundary handling, periodic wrap-around."""

import ctypes
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import nativelib
from repro.fdfd import (
    ALL_COMPONENTS,
    BatchedCoefficientSet,
    BatchedFieldState,
    E_COMPONENTS,
    H_COMPONENTS,
    FieldState,
    Grid,
    clip_region,
    naive_sweep,
    random_coefficients,
    spatial_blocked_sweep,
    update_component,
    update_e,
    update_h,
)
from repro.fdfd import kernels
from repro.fdfd.kernels import BoundRegion, full_region, region_lups
from repro.fdfd.specs import SPECS
from repro.resilience import faults
from repro.resilience.errors import RESILIENCE_COUNTERS

from conftest import numpy_kernels, random_state

needs_native = pytest.mark.skipif(
    not kernels._native(), reason="compiled THIIM kernel unavailable")


# ---------------------------------------------------------------------------
# Golden reference: the twelve update equations written out longhand with
# explicit python loops, independently of the ComponentSpec table.  The
# differencing convention: H components read the driving E pair at +1 along
# the derivative axis (far - near), E components at -1 (near - far).
# Axis order of arrays is (z, y, x).
# ---------------------------------------------------------------------------

_REFERENCE = {
    # name: (read pair, shifted index offset (dz, dy, dx))
    "Hxy": (("Ezx", "Ezy"), (0, 1, 0)),
    "Hxz": (("Eyx", "Eyz"), (1, 0, 0)),
    "Hyz": (("Exy", "Exz"), (1, 0, 0)),
    "Hyx": (("Ezx", "Ezy"), (0, 0, 1)),
    "Hzx": (("Eyx", "Eyz"), (0, 0, 1)),
    "Hzy": (("Exy", "Exz"), (0, 1, 0)),
    "Exy": (("Hzx", "Hzy"), (0, -1, 0)),
    "Exz": (("Hyx", "Hyz"), (-1, 0, 0)),
    "Eyz": (("Hxy", "Hxz"), (-1, 0, 0)),
    "Eyx": (("Hzx", "Hzy"), (0, 0, -1)),
    "Ezx": (("Hyx", "Hyz"), (0, 0, -1)),
    "Ezy": (("Hxy", "Hxz"), (0, -1, 0)),
}


def _reference_half_step(fields, coeffs, names):
    """Scalar-loop reference for one half step on the interior."""
    grid = fields.grid
    nz, ny, nx = grid.shape
    for name in names:
        (ra, rb), (dz, dy, dx) = _REFERENCE[name]
        a = fields[ra]
        b = fields[rb]
        f = fields[name]
        t = coeffs.t(name)
        c = coeffs.c(name)
        src = coeffs.src(name)
        new = f.copy()
        is_h = name.startswith("H")
        for z in range(max(0, -dz), nz - max(0, dz)):
            for y in range(max(0, -dy), ny - max(0, dy)):
                for x in range(max(0, -dx), nx - max(0, dx)):
                    near = a[z, y, x] + b[z, y, x]
                    far = a[z + dz, y + dy, x + dx] + b[z + dz, y + dy, x + dx]
                    diff = (far - near) if is_h else (near - far)
                    val = t[z, y, x] * diff + c[z, y, x] * f[z, y, x]
                    if src is not None:
                        val += src[z, y, x]
                    new[z, y, x] = val
        f[...] = new


class TestGoldenReference:
    def test_one_step_matches_scalar_reference(self):
        grid = Grid(nz=5, ny=6, nx=4)
        coeffs = random_coefficients(grid, seed=3)
        fields = random_state(grid, seed=4)
        ref = fields.copy()

        update_h(fields, coeffs)
        update_e(fields, coeffs)

        _reference_half_step(ref, coeffs, H_COMPONENTS)
        _reference_half_step(ref, coeffs, E_COMPONENTS)

        assert fields.allclose(ref, rtol=1e-12, atol=1e-14)

    def test_two_steps_match_scalar_reference(self):
        grid = Grid(nz=4, ny=5, nx=4)
        coeffs = random_coefficients(grid, seed=9)
        fields = random_state(grid, seed=10)
        ref = fields.copy()

        naive_sweep(fields, coeffs, 2)
        for _ in range(2):
            _reference_half_step(ref, coeffs, H_COMPONENTS)
            _reference_half_step(ref, coeffs, E_COMPONENTS)

        assert fields.allclose(ref, rtol=1e-12, atol=1e-14)


class TestBoundaryHandling:
    def test_dirichlet_boundary_untouched(self, small_setup):
        fields, coeffs = small_setup
        grid = fields.grid
        # Boundary values along the derivative axis must never be written.
        before = {n: fields[n].copy() for n in fields}
        naive_sweep(fields, coeffs, 2)
        for name in fields:
            spec = SPECS[name]
            a = fields[name]
            b = before[name]
            if spec.shift > 0:  # H: last index along deriv axis is pinned
                idx = [slice(None)] * 3
                idx[spec.deriv_axis] = -1
                assert np.array_equal(a[tuple(idx)], b[tuple(idx)])
            else:  # E: first index pinned
                idx = [slice(None)] * 3
                idx[spec.deriv_axis] = 0
                assert np.array_equal(a[tuple(idx)], b[tuple(idx)])

    def test_clip_region_respects_shifts(self):
        grid = Grid(nz=10, ny=10, nx=10)
        h_spec = SPECS["Hxy"]  # +1 along y
        region = clip_region(grid, h_spec)
        assert region[1] == slice(0, 9)
        e_spec = SPECS["Exy"]  # -1 along y
        region = clip_region(grid, e_spec)
        assert region[1] == slice(1, 10)

    def test_clip_region_empty_returns_none(self):
        grid = Grid(nz=10, ny=10, nx=10)
        spec = SPECS["Hxy"]
        assert clip_region(grid, spec, y=(9, 10)) is None
        assert clip_region(grid, spec, y=(5, 5)) is None
        assert clip_region(grid, spec, y=(-3, 0)) is None

    def test_clip_region_periodic_full_axis(self):
        grid = Grid(nz=10, ny=10, nx=10, periodic=(False, True, False))
        region = clip_region(grid, SPECS["Hxy"])
        assert region[1] == slice(0, 10)

    def test_region_lups(self):
        assert region_lups((slice(0, 3), slice(1, 5), slice(2, 4))) == 3 * 4 * 2


class TestBlockingEquivalence:
    """Any spatial block decomposition must reproduce the naive sweep."""

    @pytest.mark.parametrize("block_y,block_z", [(1, 1), (2, 3), (3, None), (100, 100)])
    def test_spatial_blocking_equals_naive(self, block_y, block_z):
        grid = Grid(nz=7, ny=8, nx=6)
        coeffs = random_coefficients(grid, seed=21)
        f1 = random_state(grid, seed=22)
        f2 = f1.copy()
        naive_sweep(f1, coeffs, 3)
        spatial_blocked_sweep(f2, coeffs, 3, block_y=block_y, block_z=block_z)
        assert f1.allclose(f2, rtol=1e-12, atol=1e-14)

    def test_component_update_order_within_half_step_is_irrelevant(self):
        grid = Grid(nz=6, ny=6, nx=6)
        coeffs = random_coefficients(grid, seed=31)
        f1 = random_state(grid, seed=32)
        f2 = f1.copy()
        update_h(f1, coeffs)
        for name in reversed(H_COMPONENTS):
            region = clip_region(grid, SPECS[name])
            update_component(name, f2, coeffs, region)
        assert f1.allclose(f2, rtol=0, atol=0)

    def test_invalid_block_sizes_rejected(self, small_setup):
        fields, coeffs = small_setup
        with pytest.raises(ValueError):
            spatial_blocked_sweep(fields, coeffs, 1, block_y=0)
        with pytest.raises(ValueError):
            naive_sweep(fields, coeffs, -1)


class TestPeriodicBoundaries:
    def test_periodic_x_wraps(self):
        grid = Grid(nz=6, ny=6, nx=6, periodic=(False, False, True))
        coeffs = random_coefficients(grid, seed=41)
        fields = random_state(grid, seed=42)
        # Hyx differences along x with +1: at x = nx-1 the far read wraps
        # to x = 0.  Compute by hand for one cell.
        spec = SPECS["Hyx"]
        a = fields[spec.reads[0]].copy()
        b = fields[spec.reads[1]].copy()
        f0 = fields["Hyx"][2, 3, 5]
        t = coeffs.t("Hyx")[2, 3, 5]
        c = coeffs.c("Hyx")[2, 3, 5]
        expected = t * ((a[2, 3, 0] + b[2, 3, 0]) - (a[2, 3, 5] + b[2, 3, 5])) + c * f0
        update_component("Hyx", fields, coeffs, full_region(grid))
        assert fields["Hyx"][2, 3, 5] == pytest.approx(expected)

    def test_periodic_equals_manual_ghost_padding(self):
        """A periodic sweep equals a Dirichlet sweep on a domain padded
        with explicitly mirrored ghost planes, compared on the interior."""
        nz, ny, nx = 5, 6, 7
        grid_p = Grid(nz=nz, ny=ny, nx=nx, periodic=(False, False, True))
        coeffs_p = random_coefficients(grid_p, seed=51)
        fp = random_state(grid_p, seed=52)
        before = fp.copy()
        update_h(fp, coeffs_p)
        update_e(fp, coeffs_p)

        # Padded domain: one extra x plane replicating x=0 at the end.
        grid_d = Grid(nz=nz, ny=ny, nx=nx + 1)
        arrays = {}
        for name in before:
            arr = np.zeros(grid_d.shape, dtype=np.complex128)
            arr[:, :, :nx] = before[name]
            arr[:, :, nx] = before[name][:, :, 0]
            arrays[name] = arr
        fd = FieldState(grid_d, arrays)
        coeff_arrays = {}
        for cname, carr in coeffs_p.arrays.items():
            arr = np.zeros(grid_d.shape, dtype=np.complex128)
            arr[:, :, :nx] = carr
            arr[:, :, nx] = carr[:, :, 0]
            coeff_arrays[cname] = arr
        from repro.fdfd.coefficients import CoefficientSet

        coeffs_d = CoefficientSet(grid=grid_d, omega=1.0, tau=0.1, arrays=coeff_arrays)
        update_h(fd, coeffs_d)
        update_e(fd, coeffs_d)

        # x-shifted H components wrap at x = nx-1; compare those cells.
        for name in ("Hyx", "Hzx"):
            assert np.allclose(
                fp[name][:, :, nx - 1], fd[name][:, :, nx - 1], rtol=1e-12
            )
        # Interior away from the pad behaves identically everywhere.
        for name in before:
            assert np.allclose(fp[name][:, :, 1 : nx - 1], fd[name][:, :, 1 : nx - 1], rtol=1e-12)


def _bits(fields):
    return [fields[n].tobytes() for n in ALL_COMPONENTS]


def _problem(grid, k, seed):
    """A random (fields, coeffs) pair: plain for k = 1, stacked for k > 1
    (k = 1 also exercises a width-1 stack on odd seeds)."""
    coeffs = [random_coefficients(grid, seed=seed + i) for i in range(k)]
    states = [random_state(grid, seed=seed + 10 + i) for i in range(k)]
    if k == 1 and seed % 2 == 0:
        return states[0], coeffs[0]
    return BatchedFieldState.stack(states), BatchedCoefficientSet.stack(coeffs)


@st.composite
def _boxes(draw):
    """(grid, box): 1-cell, full-axis and wrap-crossing boxes included."""
    shape = [draw(st.integers(3, 7)) for _ in range(3)]
    periodic = tuple(draw(st.booleans()) for _ in range(3))
    box = []
    for n in shape:
        lo = draw(st.integers(0, n - 1))
        box.append((lo, draw(st.integers(lo + 1, n))))
    return Grid(*shape, periodic=periodic), box


@needs_native
class TestNativeEqualsNumpy:
    """The compiled pass against its oracle, as raw bits."""

    @given(problem=_boxes(), k=st.integers(1, 4), seed=st.integers(0, 50),
           prebound=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_every_component_bitwise(self, problem, k, seed, prebound):
        grid, (z, y, x) = problem
        fields, coeffs = _problem(grid, k, seed)
        oracle = fields.copy()
        for name in ALL_COMPONENTS:  # four with src, eight without
            region = clip_region(grid, SPECS[name], z=z, y=y, x=x)
            if region is None:
                continue
            with numpy_kernels():
                update_component(name, oracle, coeffs, region)
            update_component(name, fields, coeffs,
                             BoundRegion(region) if prebound else region)
        assert _bits(fields) == _bits(oracle)

    @pytest.mark.parametrize("periodic", [(False, True, True), (False,) * 3])
    def test_sweeps_bitwise(self, periodic):
        grid = Grid(nz=9, ny=8, nx=7, periodic=periodic)
        coeffs = random_coefficients(grid, seed=3)
        fields, oracle = random_state(grid, 4), random_state(grid, 4)
        lups = naive_sweep(fields, coeffs, 3)
        with numpy_kernels():
            assert naive_sweep(oracle, coeffs, 3) == lups
        assert _bits(fields) == _bits(oracle)

    def test_rebinds_when_an_array_is_replaced(self):
        """Lane compaction reassigns every array; a binding must follow."""
        grid = Grid(nz=6, ny=5, nx=7, periodic=(False, False, True))
        fields, coeffs = _problem(grid, 3, seed=1)
        oracle, ocoeffs = _problem(grid, 3, seed=1)
        for f, c in ((fields, coeffs), (oracle, ocoeffs)):
            with numpy_kernels() if f is oracle else nullcontext():
                update_h(f, c)
                f.compact([0, 2])
                c.compact([0, 2])
                update_e(f, c)
                # A replaced dict entry (no new dict) is seen too.
                f.components()["Hxy"] = f["Hxy"].copy()
                update_h(f, c)
        assert _bits(fields) == _bits(oracle)

    def test_bound_state_still_pickles(self):
        import pickle

        grid = Grid(nz=4, ny=5, nx=4)
        for fields, coeffs in (_problem(grid, 1, seed=2), _problem(grid, 2, seed=3)):
            update_h(fields, coeffs)  # binds raw addresses to the state
            clone = pickle.loads(pickle.dumps(fields))
            assert _bits(clone) == _bits(fields)
            update_e(clone, coeffs)
            update_e(fields, coeffs)
            assert _bits(clone) == _bits(fields)

    def test_unaddressable_arrays_take_the_numpy_body(self):
        grid = Grid(nz=5, ny=6, nx=4)
        coeffs = random_coefficients(grid, seed=2)
        fields, oracle = random_state(grid, 9), random_state(grid, 9)
        strided = np.zeros((5, 6, 8), dtype=np.complex128)[:, :, ::2]
        strided[...] = fields["Hxy"]
        fields.components()["Hxy"] = strided
        update_h(fields, coeffs)
        with numpy_kernels():
            update_h(oracle, coeffs)
        assert _bits(fields) == _bits(oracle)


class TestRegionValidity:
    """A far read off a non-periodic axis fails alike on both back ends,
    before anything is written."""

    @pytest.mark.parametrize("name, region", [
        ("Hxy", (slice(0, 5), slice(0, 6), slice(0, 4))),   # y + 1 == ny
        ("Exz", (slice(0, 5), slice(1, 5), slice(0, 4))),   # z - 1 == -1
        ("Hyx", (slice(1, 2), slice(1, 2), slice(3, 4))),   # x + 1 == nx
    ])
    def test_far_read_out_of_bounds(self, kernel_backend, name, region):
        grid = Grid(nz=5, ny=6, nx=4)
        coeffs = random_coefficients(grid, seed=1)
        fields = random_state(grid, 2)
        before = _bits(fields)
        with pytest.raises(IndexError, match="out of bounds on non-periodic axis"):
            update_component(name, fields, coeffs, region)
        with pytest.raises(IndexError, match="out of bounds on non-periodic axis"):
            update_component(name, fields, coeffs, BoundRegion(region))
        assert _bits(fields) == before

    @needs_native
    def test_box_outside_the_grid_is_refused(self):
        grid = Grid(nz=5, ny=6, nx=4, periodic=(True, True, True))
        coeffs = random_coefficients(grid, seed=1)
        fields = random_state(grid, 2)
        before = _bits(fields)
        for region in ((slice(0, 6), slice(0, 6), slice(0, 4)),
                       (slice(-1, 3), slice(0, 6), slice(0, 4)),
                       (slice(0, 5), slice(4, 2), slice(0, 4))):
            with pytest.raises(IndexError, match="leaves the grid"):
                update_component("Hxy", fields, coeffs, region)
        assert _bits(fields) == before

    @needs_native
    def test_lane_count_follows_the_stack(self):
        """The op's lane count is the stack's: after compaction no lane
        beyond the new width is addressed (the arrays end there)."""
        grid = Grid(nz=4, ny=4, nx=4)
        fields, coeffs = _problem(grid, 4, seed=1)
        update_h(fields, coeffs)
        fields.compact([1])
        coeffs.compact([1])
        update_h(fields, coeffs)
        assert all(op[0] is not None and op[1].shape[0] == 1
                   for op in fields._bound.values())


class TestScratchPool:
    def test_second_tiled_pass_allocates_no_scratch(self):
        from repro.core import TiledExecutor, TilingPlan

        grid = Grid(nz=12, ny=10, nx=5, periodic=(False, False, True))
        coeffs = random_coefficients(grid, seed=1)
        fields = random_state(grid, 2).zero_boundary()
        plan = TilingPlan.build(ny=10, nz=12, timesteps=4, dw=4, bz=2)
        with numpy_kernels():
            executor = TiledExecutor(fields, coeffs, plan)
            executor.run()
            pool = kernels._SCRATCH.pool
            warm = {slot: id(buf) for slot, buf in pool.items()}
            executor.run()
        assert len(pool) <= 4
        assert {slot: id(buf) for slot, buf in pool.items()} == warm


@pytest.fixture
def reload_kernel(monkeypatch):
    """``reload()`` makes the next kernel call load and probe the library
    again and returns the ``native_degraded`` count at that moment; the
    loaded state is put back afterwards."""
    monkeypatch.setattr(kernels, "_THIIM", kernels._THIIM)

    def reload():
        kernels._THIIM = None
        return _degraded()

    return reload


def _degraded():
    return RESILIENCE_COUNTERS.get("native_degraded")


class TestFallback:
    """Every way of not getting the compiled pass lands on the NumPy body
    with the same bits, and is counted once when it is a degradation."""

    def _checksum(self):
        grid = Grid(nz=6, ny=7, nx=5, periodic=(False, True, True))
        fields = random_state(grid, 3)
        naive_sweep(fields, random_coefficients(grid, seed=4), 2)
        naive_sweep(fields, random_coefficients(grid, seed=4), 2)
        return _bits(fields)

    @needs_native
    def test_failed_probe(self, reload_kernel):
        expected = self._checksum()
        fused = ctypes.c_int.in_dll(nativelib.load("_thiim_kernel"), "thiim_fused")
        saved = fused.value
        fused.value = 0 if saved else 1  # the multiply NumPy does not use
        try:
            before = reload_kernel()
            assert self._checksum() == expected
            assert kernels._THIIM is False
            assert _degraded() == before + 1
        finally:
            fused.value = saved

    def test_vetoed(self, reload_kernel, monkeypatch):
        expected = self._checksum()
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        before = reload_kernel()
        assert self._checksum() == expected
        assert kernels._THIIM is False
        assert _degraded() == before  # a veto is not a degradation

    def test_injected_load_fault(self, reload_kernel, monkeypatch):
        expected = self._checksum()
        monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
        before = reload_kernel()
        faults.install(faults.FaultPlan.parse("native.load:raise"))
        try:
            assert self._checksum() == expected
        finally:
            faults.uninstall()
        assert kernels._THIIM is False
        assert _degraded() == before + 1
