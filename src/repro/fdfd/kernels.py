"""The twelve THIIM component-update kernels.

Each kernel is the vectorized NumPy equivalent of the paper's Listings 1
and 2: a streaming update ``F = t * (A' + B' - A - B) + c * F (+ src)``
over a rectangular index region.  The same entry points serve

* the **naive sweep** (full-domain half steps, the paper's baseline),
* the **spatially blocked sweep** (identical arithmetic, blocked loop
  order), and
* the **tiled executor** of :mod:`repro.core.executor`, which drives the
  kernels row-range by row-range following a wavefront-diamond schedule.

Keeping a single implementation for all traversals is what makes the
"tiled == naive" correctness contract meaningful.  It has two
bit-identical bodies: NumPy (oracle and fallback) and the probe-gated
compiled pass ``_thiim_kernel.c`` (DESIGN.md section 2).

Region semantics
----------------
A region is a triple of ``slice`` objects ``(z, y, x)``.  Kernels assume
the *far* read (index ``i + shift`` along the derivative axis) is either in
bounds or wraps on a periodic axis; :func:`clip_region` produces the
largest valid sub-region of a requested range for a given component, and
both the naive and the tiled path obtain their regions through it.

Batch axis
----------
Every kernel also accepts *batched* state -- component arrays with one
leading scenario axis, shape ``(k,) + grid.shape`` (see
:class:`~repro.fdfd.fields.BatchedFieldState`).  Regions stay spatial
triples; the kernels detect the extra axis from ``arr.ndim`` and prefix a
full slice.  Because the update is purely elementwise in the stacked
axis (no reductions), each lane of a batched update is **bit-identical**
to running that lane alone -- the contract the batched campaign engine
is built on: one pass over the shared stencil working set updates all
``k`` wavelengths.
"""

from __future__ import annotations

import ctypes
import math
import threading
from typing import Iterable, Sequence

import numpy as np

from .. import nativelib
from ..resilience.errors import RESILIENCE_COUNTERS
from .coefficients import BatchedCoefficientSet, CoefficientSet
from .fields import BatchedFieldState, FieldState
from .grid import Grid
from .specs import ALL_COMPONENTS, E_COMPONENTS, H_COMPONENTS, SPECS, ComponentSpec

__all__ = [
    "Region",
    "BoundRegion",
    "clip_region",
    "full_region",
    "region_lups",
    "update_component",
    "update_h",
    "update_e",
    "step",
    "naive_sweep",
    "spatial_blocked_sweep",
]

Region = tuple[slice, slice, slice]


def full_region(grid: Grid) -> Region:
    return (slice(0, grid.nz), slice(0, grid.ny), slice(0, grid.nx))


def clip_region(
    grid: Grid,
    spec: ComponentSpec,
    z: tuple[int, int] | None = None,
    y: tuple[int, int] | None = None,
    x: tuple[int, int] | None = None,
) -> Region | None:
    """Largest valid update region of a component inside a requested box.

    Ranges default to the full axis.  Along the component's derivative
    axis the range is intersected with :meth:`Grid.interior_range` (on a
    non-periodic axis the far read must stay in bounds; the clipped
    boundary cells hold the homogeneous Dirichlet values).  Returns
    ``None`` if the clipped region is empty.
    """
    want = [z or (0, grid.nz), y or (0, grid.ny), x or (0, grid.nx)]
    out: list[slice] = []
    for axis in range(3):
        lo, hi = want[axis]
        lo, hi = max(lo, 0), min(hi, grid.axis_len(axis))
        if axis == spec.deriv_axis:
            ilo, ihi = grid.interior_range(axis, spec.shift)
            lo, hi = max(lo, ilo), min(hi, ihi)
        if lo >= hi:
            return None
        out.append(slice(lo, hi))
    return (out[0], out[1], out[2])


def region_lups(region: Region) -> int:
    """Grid cells covered by a region (one component update each)."""
    n = 1
    for sl in region:
        n *= sl.stop - sl.start
    return n


#: Reusable work buffers of the NumPy body: one flat buffer per slot (two
#: accumulators + two wrapped shifted reads alive at once), grown to the
#: largest region seen and handed out reshaped, so the hot path allocates
#: nothing.  Thread-local: an executor is single-threaded through a solve,
#: but a serve node with ``workers > 1`` (or several in-process node
#: schedulers) runs concurrent solves, and solves sharing one buffer
#: would race and corrupt each other's numerics.
_SCRATCH = threading.local()


def _scratch(shape: tuple, dtype, slot: int) -> np.ndarray:
    pool = getattr(_SCRATCH, "pool", None)
    if pool is None:
        pool = _SCRATCH.pool = {}
    n = math.prod(shape)
    buf = pool.get(slot)
    if buf is None or buf.size < n or buf.dtype != dtype:
        buf = pool[slot] = np.empty(n, dtype)
    return buf[:n].reshape(shape)


def _shifted_read(
    arr: np.ndarray,
    region: Region,
    axis: int,
    shift: int,
    periodic: bool,
    scratch_slot: int = 0,
) -> np.ndarray:
    """Read ``arr`` over ``region`` displaced by ``shift`` along ``axis``.

    In bounds this is a zero-copy view.  On a periodic axis the unit-shift
    far read crosses the boundary by at most one cell, so the wrapped read
    is the concatenation of two contiguous slices -- assembled into a
    reused scratch buffer (valid until the next ``scratch_slot`` reuse)
    instead of gathering through a modulo fancy index.

    ``arr`` may carry a leading batch axis (ndim 4): ``region``/``axis``
    stay spatial and the batch axis is read whole.
    """
    lead = arr.ndim - 3
    pre = (slice(None),) * lead
    lo = region[axis].start + shift
    hi = region[axis].stop + shift
    n = arr.shape[lead + axis]
    sl = list(region)
    if 0 <= lo and hi <= n:
        sl[axis] = slice(lo, hi)
        return arr[pre + tuple(sl)]
    if not periodic:
        raise IndexError(
            f"shifted read [{lo}, {hi}) out of bounds on non-periodic axis {axis}"
        )
    if lo < 0 and hi > n:  # |shift| > 1 never happens for these stencils
        sl[axis] = np.arange(lo, hi) % n
        return arr[pre + tuple(sl)]
    sl2 = list(region)
    if lo < 0:
        sl[axis] = slice(n + lo, n)
        sl2[axis] = slice(0, hi)
    else:
        sl[axis] = slice(lo, n)
        sl2[axis] = slice(0, hi - n)
    shape = arr.shape[:lead] + tuple(
        (hi - lo) if ax == axis else (s.stop - s.start) for ax, s in enumerate(region)
    )
    out = _scratch(shape, arr.dtype, 100 + scratch_slot)
    np.concatenate((arr[pre + tuple(sl)], arr[pre + tuple(sl2)]),
                   axis=lead + axis, out=out)
    return out


def update_component(
    name: str,
    fields: FieldState,
    coeffs: CoefficientSet,
    region: Region,
) -> None:
    """Apply one component update over ``region`` (in place).

    ``region`` must already be valid for this component (see
    :func:`clip_region`); this is the hot path and clips nothing -- a far
    read that leaves a non-periodic axis raises ``IndexError``.  Both
    back ends follow the operation order of the plain expression
    ``t * (A' + B' - A - B) + c * F (+ src)`` and are bit-identical.

    Batched state (arrays with a leading scenario axis) updates every
    lane in the same pass; the arithmetic per lane is the same elementwise
    sequence, so each lane stays bit-identical to an unbatched update.
    """
    call = _native() if _THIIM is None else _THIIM
    if call:
        _update_native(call, name, fields, coeffs, region)
    else:
        _update_numpy(name, fields, coeffs, region)


def _update_numpy(name, fields, coeffs, region: Region) -> None:
    """The oracle: NumPy ufunc passes through reused scratch buffers."""
    spec = SPECS[name]
    grid = fields.grid
    axis = spec.deriv_axis
    periodic = grid.periodic[axis]

    a = fields[spec.reads[0]]
    b = fields[spec.reads[1]]
    lead = a.ndim - 3
    reg = (slice(None),) * lead + region
    shape = a.shape[:lead] + tuple(sl.stop - sl.start for sl in region)
    s1 = _scratch(shape, a.dtype, 0)
    s2 = _scratch(shape, a.dtype, 1)
    near = np.add(a[reg], b[reg], out=s1)
    far = np.add(
        _shifted_read(a, region, axis, spec.shift, periodic, scratch_slot=0),
        _shifted_read(b, region, axis, spec.shift, periodic, scratch_slot=1),
        out=s2,
    )
    # H updates difference (far - near) = F[i+1] - F[i]; E updates
    # (near - far) = F[i] - F[i-1].  The 1/d factor lives in ``t``.
    if spec.shift > 0:
        diff = np.subtract(far, near, out=s2)
    else:
        diff = np.subtract(near, far, out=s2)

    f = fields[name]
    out = np.multiply(coeffs.t(name)[reg], diff, out=s1)
    out += np.multiply(coeffs.c(name)[reg], f[reg], out=s2)
    src = coeffs.src(name)
    if src is not None:
        out += src[reg]
    f[reg] = out


# -- the compiled back end ----------------------------------------------------


class _Op(ctypes.Structure):
    """``thiim_op`` of ``_thiim_kernel.c``: one component update bound to
    the base addresses of its six arrays."""

    _fields_ = [(k, ctypes.c_void_p) for k in ("f", "a", "b", "t", "c", "src")] + [
        ("n", ctypes.c_int64 * 3)] + [
        (k, ctypes.c_int64) for k in ("lanes", "axis", "shift", "periodic")]


#: component -> names of its operands: (read a, read b, t, c, src or None).
_OPERANDS = {n: (*s.reads, s.coeff_t, s.coeff_c, s.source) for n, s in SPECS.items()}

#: The compiled pass ``thiim_update(op, box)``; ``None`` until the first
#: kernel call, ``False`` when this process stays on the NumPy body.
_THIIM = None
_THIIM_LOCK = threading.Lock()


class BoundRegion(tuple):
    """A :data:`Region` carrying its box packed for the compiled pass, so
    a compiled tiling plan packs nothing when it is re-executed."""

    def __new__(cls, region: Region):
        self = super().__new__(cls, region)
        z, y, x = region
        self.box = ctypes.byref((ctypes.c_int64 * 6)(
            z.start, z.stop, y.start, y.stop, x.start, x.stop))
        return self


def _native():
    """Load and probe the compiled pass (once per process); the callable,
    or ``False`` (vetoed, no compiler, or not bit-identical here)."""
    global _THIIM
    with _THIIM_LOCK:
        if _THIIM is None:
            lib = nativelib.load("_thiim_kernel")
            call = lib is not None and lib.thiim_update
            if call:
                call.restype, call.argtypes = ctypes.c_int64, [ctypes.c_void_p] * 2
                if not _probe(call):
                    RESILIENCE_COUNTERS.bump("native_degraded")
                    call = False
            _THIIM = call
    return _THIIM


def _probe(call) -> bool:
    """Bitwise oracle, NumPy body against ``call``: every component (four
    carry ``src``) over the full box and a 1-cell-wide edge box as
    :func:`clip_region` leaves them on a periodic and on a bounded odd-sized
    grid, two lanes and one.  NumPy's complex multiply rounds as its CPU
    dispatch decides (fused on FMA hardware), so this is measured."""
    names = sorted({c for spec in SPECS.values() for c in spec.coeff_names})
    shape = (6, 7, 7)
    x = 0.37 * np.arange(1.0, 1 + (len(names) + 12) * 2 * math.prod(shape))
    # Full-mantissa filler without importing numpy.random: 28 + 12 two-lane stacks.
    data = (np.sin(x) + 1j * np.cos(1.7 * x)).reshape((-1, 2) + shape)
    constants, state = dict(zip(names, data)), dict(zip(ALL_COMPONENTS, data[len(names):]))
    for wrap in (True, False):
        grid = Grid(*shape, periodic=(wrap,) * 3)
        coeffs = BatchedCoefficientSet(grid, [1.0, 1.0], [0.1, 0.1], constants)
        oracle = BatchedFieldState(grid, arrays=state)  # evolves on across grids
        fields = oracle.copy()
        for want, got, cs in ((oracle, fields, coeffs),
                              (oracle.lane(0), fields.lane(0), coeffs.lane(0))):
            for name in ALL_COMPONENTS:
                for box in ((None,) * 3, ((0, 1), (2, 5), (6, 7))):
                    region = clip_region(grid, SPECS[name], *box)
                    if region:
                        _update_numpy(name, want, cs, region)
                        _update_native(call, name, got, cs, region)
        if any(oracle[f].tobytes() != fields[f].tobytes() for f in ALL_COMPONENTS):
            return False
    return True


def _bind(fields, coeffs) -> dict:
    """component -> (op reference, the six arrays it points into -- held,
    so no address is recycled while the binding lives).  Arrays the pass
    cannot address bind to ``None`` and take the NumPy body."""
    grid = fields.grid
    bound = {}
    for name, (ra, rb, t, c, src) in _OPERANDS.items():
        spec = SPECS[name]
        arrays = (fields[name], fields[ra], fields[rb], coeffs[t], coeffs[c],
                  coeffs[src] if src else None)
        shape = arrays[0].shape
        ref = None
        if (len(shape) in (3, 4) and shape[-3:] == grid.shape
                and arrays[0].flags.writeable
                and all(a is None or (a.shape == shape and a.dtype == np.complex128
                                      and a.flags.c_contiguous) for a in arrays)):
            ref = ctypes.byref(_Op(
                *(a.ctypes.data if a is not None else None for a in arrays),
                grid.shape, shape[0] if len(shape) == 4 else 1,
                spec.deriv_axis, spec.shift, grid.periodic[spec.deriv_axis]))
        bound[name] = (ref,) + arrays
    return bound


def _update_native(call, name, fields, coeffs, region: Region) -> None:
    fa, ca = fields.components(), coeffs.arrays
    ra, rb, t, c, src = _OPERANDS[name]
    bound = fields._bound
    op = bound[name] if bound else None
    if op is None or not (
            fa[name] is op[1] and fa[ra] is op[2] and fa[rb] is op[3]
            and ca[t] is op[4] and ca[c] is op[5]
            and (src is None or ca[src] is op[6])):
        # First use, or an array was replaced (lane compaction, a restore).
        bound = fields._bound = _bind(fields, coeffs)
        op = bound[name]
    if op[0] is None:
        return _update_numpy(name, fields, coeffs, region)
    if type(region) is not BoundRegion:
        region = BoundRegion(region)
    if call(op[0], region.box):
        # The pass refused the box and touched nothing; a far read off a
        # non-periodic axis fails in _shifted_read's words, as on NumPy.
        spec, grid = SPECS[name], fields.grid
        if not grid.periodic[spec.deriv_axis]:
            _shifted_read(fa[ra], region, spec.deriv_axis, spec.shift, False)
        raise IndexError(f"region {tuple(region)} leaves the grid {grid.shape}")


def _update_group(
    components: Sequence[str],
    fields: FieldState,
    coeffs: CoefficientSet,
    z: tuple[int, int] | None,
    y: tuple[int, int] | None,
    x: tuple[int, int] | None,
) -> int:
    """Update a group of components over a clipped box; returns cell-updates
    performed (for the performance counters).  Batched state counts every
    lane (``k`` LUPs per cell for a width-``k`` batch)."""
    grid = fields.grid
    width = fields.batch_width
    done = 0
    for name in components:
        region = clip_region(grid, SPECS[name], z=z, y=y, x=x)
        if region is not None:
            update_component(name, fields, coeffs, region)
            done += region_lups(region) * width
    return done


def update_h(
    fields: FieldState,
    coeffs: CoefficientSet,
    z: tuple[int, int] | None = None,
    y: tuple[int, int] | None = None,
    x: tuple[int, int] | None = None,
    components: Sequence[str] = H_COMPONENTS,
) -> int:
    """Magnetic half step ``H^{n-1/2} -> H^{n+1/2}`` over a box."""
    return _update_group(components, fields, coeffs, z, y, x)


def update_e(
    fields: FieldState,
    coeffs: CoefficientSet,
    z: tuple[int, int] | None = None,
    y: tuple[int, int] | None = None,
    x: tuple[int, int] | None = None,
    components: Sequence[str] = E_COMPONENTS,
) -> int:
    """Electric half step ``E^n -> E^{n+1}`` over a box."""
    return _update_group(components, fields, coeffs, z, y, x)


def step(fields: FieldState, coeffs: CoefficientSet) -> int:
    """One full THIIM time step (H half step then E half step)."""
    return update_h(fields, coeffs) + update_e(fields, coeffs)


def naive_sweep(fields: FieldState, coeffs: CoefficientSet, nsteps: int) -> int:
    """The reference traversal: ``nsteps`` full-domain time steps.

    This is the ground truth every blocked/tiled traversal must reproduce.
    """
    if nsteps < 0:
        raise ValueError("nsteps must be >= 0")
    total = 0
    for _ in range(nsteps):
        total += step(fields, coeffs)
    return total


def spatial_blocked_sweep(
    fields: FieldState,
    coeffs: CoefficientSet,
    nsteps: int,
    block_y: int,
    block_z: int | None = None,
) -> int:
    """Spatially blocked traversal (the paper's optimized baseline).

    Splits each half step into (z, y) blocks so two successive x-y layers
    of the z-shifted arrays fit in cache ("layer conditions", Section
    III-B).  Within one half step the component updates are independent,
    so any block order yields results identical to the naive sweep -- which
    the tests assert.
    """
    if block_y < 1 or (block_z is not None and block_z < 1):
        raise ValueError("block sizes must be >= 1")
    grid = fields.grid
    bz = block_z or grid.nz
    total = 0
    for _ in range(nsteps):
        for comps in (H_COMPONENTS, E_COMPONENTS):
            for z0 in range(0, grid.nz, bz):
                for y0 in range(0, grid.ny, block_y):
                    total += _update_group(
                        comps,
                        fields,
                        coeffs,
                        z=(z0, min(z0 + bz, grid.nz)),
                        y=(y0, min(y0 + block_y, grid.ny)),
                        x=None,
                    )
    return total
