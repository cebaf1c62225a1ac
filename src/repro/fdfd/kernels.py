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

Helper group
------------
The compiled pass runs one queue of jobs over a process-wide group of
helper threads, all inside the one :func:`update_component` call, and
every thread claims the next (job, part) from it, the caller included.
A box of at least ``thiim_split_min`` (16,384) cells x lanes is a job of
several parts: its ``(lane, z, y)`` rows cut into contiguous ranges, z
first -- the paper's wavefront dimension of intra-tile parallelism, run
on the host.  Outside :func:`stream` such a box borrows the group, is
queued alone and drained before the call returns; a smaller box runs on
the caller.  Every cell runs the same instructions on whichever thread
takes it, so the result is bit-identical by construction.  The group
lives in ``_thiim_kernel.c``; the NumPy body runs serial.

Inside :func:`stream` every compiled call of the calling thread is
checked and queued by value; the call returns while a box below the
gate, a one-part job, runs, so compiled compute runs beside the caller's
Python dispatch.  The parts of a job wait until the job before it is
done: ops run one at a time in submission order, and each reads what the
ops before it wrote, so a streamed pass is bit-identical to an immediate
one.  A drain -- a box at the gate, a refused box, a NumPy-body op, a
rebind, the end of the window -- is the caller claiming jobs until the
queue is empty, and a full queue makes it claim until there is room.  It
claims the parts of a big box at once and a one-part job once the queue
has stood still for a moment (while a helper runs one-part jobs back to
back, taking turns would only move the fields between cores); so the
caller waits only for a part another thread holds.

The GIL
-------
The pass is called through two ``ctypes`` handles of one library: the
``CDLL`` handle releases the GIL for the call, a ``PyDLL`` handle keeps
it.  A box below ``thiim_split_min`` -- one part, a few microseconds --
goes through the ``PyDLL`` handle: released, each of the ~500 calls of a
tiny solve could wait up to a switch interval (5 ms) to take the GIL back
from any CPU-bound Python thread (20 g10 sweeps beside one on a 2-vCPU
KVM guest: 1.2 s, not 1 ms).  A split box, and ``thiim_close`` /
``thiim_drain`` (they wait on the helper threads), go through the
``CDLL`` handle, so Python threads run while they do.  Both handles call
the same symbol with the same globals, so the result does not depend on
the handle.  The convergence residual (:func:`residual_sums`), the
snapshot refresh (:func:`refresh`) and the fields' zeroing
(:func:`zeros`) of a small solve take the ``PyDLL`` handle by the same
gate (:func:`keeps_gil`); at or above it they release the GIL as the
``CDLL`` handle and NumPy do.

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

import contextlib
import ctypes
import functools
import math
import threading
from typing import Sequence

import numpy as np

from .. import forksafe, nativelib, telemetry
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
    "stream",
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
#: nothing; the NumPy residual (:func:`_residual_numpy`) works in slots
#: 200 and 201.  Thread-local: an executor is
#: single-threaded through a solve, but a serve node with ``workers > 1``
#: (or several in-process node schedulers) runs concurrent solves, and
#: solves sharing one buffer would race and corrupt each other's numerics.
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
        _drain()  # the NumPy body reads what queued ops write
        _update_numpy(name, fields, coeffs, region)


@contextlib.contextmanager
def stream():
    """Stream the calling thread's compiled updates to the helper group
    until the block ends: each call returns once its box is checked and
    queued, and every update has been applied when the block exits (also
    on an exception).  No window opens on the NumPy body, on a host or in
    a forked child without helpers, or while another caller holds the
    group: calls are immediate there.  A nested block leaves the outer
    window to its owner."""
    call = _native() if _THIIM is None else _THIIM
    opened = bool(call) and _WINDOW[0]()
    try:
        yield
    finally:
        if opened:
            _WINDOW[1]()


def _drain() -> None:
    """Wait until the calling thread's window, if one is open, has run
    every op it queued."""
    if _WINDOW:
        _WINDOW[2]()


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
    out = np.multiply(_coeff_view(coeffs.t(name), reg), diff, out=s1)
    out += np.multiply(_coeff_view(coeffs.c(name), reg), f[reg], out=s2)
    src = coeffs.src(name)
    if src is not None:
        out += _coeff_view(src, reg)
    f[reg] = out


def _coeff_view(arr: np.ndarray, reg: tuple) -> np.ndarray:
    """A coefficient over ``reg``, read whole along its length-1 (broadcast)
    axes, so that it broadcasts against the region's field values."""
    return arr[tuple(sl if n > 1 else slice(None) for sl, n in zip(reg, arr.shape))]


# -- the compiled back end ----------------------------------------------------


class _Op(ctypes.Structure):
    """``thiim_op`` of ``_thiim_kernel.c``: one component update bound to
    the base addresses of its six arrays and the strides of its
    coefficients."""

    _fields_ = [(k, ctypes.c_void_p) for k in ("f", "a", "b", "t", "c", "src")] + [
        ("n", ctypes.c_int64 * 3)] + [
        (k, ctypes.c_int64) for k in ("lanes", "axis", "shift", "periodic")] + [
        ("cs", ctypes.c_int64 * 4)]


#: component -> names of its operands: (read a, read b, t, c, src or None).
_OPERANDS = {n: (*s.reads, s.coeff_t, s.coeff_c, s.source) for n, s in SPECS.items()}

#: The compiled pass ``thiim_update(op, box)`` through the ``CDLL``
#: handle (it releases the GIL); ``None`` until the first kernel call,
#: ``False`` on the NumPy body.  It mirrors the pass's entry in the
#: :func:`nativelib.load` memo, so a kernel call reads one global.
_THIIM = None
#: The same symbol through a ``PyDLL`` handle (it keeps the GIL): the
#: call of a box below :data:`_GATE` (module docstring, *The GIL*).
_HELD = None
#: The library's ``thiim_split_min``: a box of fewer cells x lanes runs
#: as one part.
_GATE = None
#: ``(thiim_open, thiim_close, thiim_drain)`` of the pass once it has
#: bound (:func:`stream`).
_WINDOW = None
#: ``thiim_residual`` through the ``CDLL`` and the ``PyDLL`` handle, in
#: that order (:func:`residual_sums` indexes it with "below the gate").
_RESIDUAL = None
#: ``thiim_copy`` through the ``PyDLL`` handle (:func:`refresh`,
#: :func:`zeros`).
_COPY = None


class BoundRegion(tuple):
    """A :data:`Region` carrying its box packed for the compiled pass, so
    a compiled tiling plan packs nothing when it is re-executed."""

    def __new__(cls, region: Region):
        self = super().__new__(cls, region)
        z, y, x = region
        self.box = ctypes.byref((ctypes.c_int64 * 6)(
            z.start, z.stop, y.start, y.stop, x.start, x.stop))
        self.cells = region_lups(region)
        return self


def _native():
    """The compiled pass (see :func:`_bind_pass`), or ``False``."""
    global _THIIM
    _THIIM = nativelib.load("_thiim_kernel", _bind_pass)
    return _THIIM


def _bind_pass(lib):
    """Declare and probe the pass (``False``: vetoed, no compiler, or not
    bit-identical here), then start its helper group, except in a forked
    child: it runs serial (the library's fork handler drops any helpers,
    and ``thiim_open`` opens no window without one).  Every argument is a
    ``byref``, which ctypes passes as a pointer with no ``argtypes``
    conversion: half the cost of a call.  The probes call through both
    handles, as :func:`_update_native` and :func:`residual_sums` pick
    them."""
    global _WINDOW, _HELD, _GATE, _RESIDUAL, _COPY
    held = nativelib.gil_kept(lib)
    call, _HELD = lib.thiim_update, held.thiim_update
    call.restype = _HELD.restype = ctypes.c_int64
    _RESIDUAL, _COPY = (lib.thiim_residual, held.thiim_residual), held.thiim_copy
    _RESIDUAL[0].restype = _RESIDUAL[1].restype = _COPY.restype = None
    _GATE = ctypes.c_int.in_dll(lib, "thiim_split_min")
    if not (_probe(call, lib) and _probe_residual()):
        telemetry.count_event("native_degraded")
        return False
    lib.thiim_open.restype = lib.thiim_start.restype = ctypes.c_int
    lib.thiim_close.restype = lib.thiim_drain.restype = None
    if not forksafe.forked:
        lib.thiim_start()
    _WINDOW = lib.thiim_open, lib.thiim_close, lib.thiim_drain
    return call


def _probe(call, lib) -> bool:
    """Bitwise oracle, NumPy body against ``call``: every component (four
    carry ``src``) over the full box and a 1-cell-wide edge box as
    :func:`clip_region` leaves them on a periodic and on a bounded odd-sized
    grid, two lanes and one; then once more on the periodic grid with the
    coefficients of each component contracted to ``(nz, 1, 1)``,
    ``(1, 1, 1)``, ``(1, 1, nx)`` or kept full, so a stride the pass
    misreads fails here; and every grid once more with every box split
    four ways (on the caller alone: the group starts after the probe), so
    a split whose rows overlap or leave gaps fails too.  Every op must
    have bound to the pass.  NumPy's complex multiply rounds as its CPU
    dispatch decides (fused on FMA hardware), so this is measured."""
    names = sorted({c for spec in SPECS.values() for c in spec.coeff_names})
    shape = (6, 7, 7)
    x = 0.37 * np.arange(1.0, 1 + (len(names) + 12) * 2 * math.prod(shape))
    # Full-mantissa filler without importing numpy.random: 28 + 12 two-lane stacks.
    data = (np.sin(x) + 1j * np.cos(1.7 * x)).reshape((-1, 2) + shape)
    constants, state = dict(zip(names, data)), dict(zip(ALL_COMPONENTS, data[len(names):]))
    contracted = {}
    for i, comp in enumerate(ALL_COMPONENTS):
        keep = ((True, False, False), (False,) * 3, (False, False, True), (True,) * 3)[i % 4]
        for cname in SPECS[comp].coeff_names:
            contracted[cname] = np.ascontiguousarray(constants[cname][
                (slice(None),) + tuple(slice(None) if k else slice(0, 1) for k in keep)])
    cap = ctypes.c_int.in_dll(lib, "thiim_helper_cap")
    saved = _GATE.value, cap.value
    try:
        for split in (saved, (0, 3)):
            _GATE.value, cap.value = split
            for wrap, consts in ((True, constants), (False, constants), (True, contracted)):
                grid = Grid(*shape, periodic=(wrap,) * 3)
                coeffs = BatchedCoefficientSet(grid, [1.0, 1.0], [0.1, 0.1], consts)
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
                    if any(op[0] is None for op in got._bound.values()):
                        return False  # an op fell back to NumPy: nothing was probed
                if any(oracle[f].tobytes() != fields[f].tobytes() for f in ALL_COMPONENTS):
                    return False
    finally:
        _GATE.value, cap.value = saved
    return True


def _probe_residual() -> bool:
    """Bitwise oracle of the compiled residual, the NumPy body against
    both handles: prefixes of every leaf shape of the pairwise tree
    (below 8 cells, 8 accumulators with and without a tail, one and two
    levels of halves) of full-mantissa values, equal values (a zero
    difference), and the values scaled to 1e-300 and 1e300, whose
    squares leave the doubles."""
    x = 0.37 * np.arange(1.0, 601.0)
    base = (np.sin(x) + 1j * np.cos(1.7 * x)).reshape(2, 300)
    for scale in (1.0, 1e-300, 1e300):
        now, prev = base[0] * scale, base[1] * scale
        for n in (1, 7, 8, 9, 15, 16, 127, 128, 129, 136, 257, 300):
            for a, b in ((now[:n], prev[:n]), (now[:n], now[:n].copy())):
                with np.errstate(over="ignore"):
                    want = _residual_numpy(a, b)
                if any(_residual_native(a, b, handle) != want for handle in _RESIDUAL):
                    return False
    return True


def _bind(fields, coeffs) -> dict:
    """component -> (op reference, the six arrays it points into -- held,
    so no address is recycled while the binding lives -- and the lanes
    of the fields).  The fields share
    one shape, ``t`` / ``c`` / ``src`` another that broadcasts to it;
    arrays the pass cannot address bind to ``None`` and take the NumPy
    body."""
    grid = fields.grid
    lanes = fields.batch_width
    bound = {}
    for name, (ra, rb, t, c, src) in _OPERANDS.items():
        spec = SPECS[name]
        arrays = (fields[name], fields[ra], fields[rb], coeffs[t], coeffs[c],
                  coeffs[src] if src else None)
        shape, cshape = arrays[0].shape, arrays[3].shape
        ref = None
        if (len(shape) in (3, 4) and shape[-3:] == grid.shape
                and arrays[0].flags.writeable
                and len(cshape) == len(shape)
                and all(n in (1, m) for n, m in zip(cshape, shape))
                and all(a is None or (a.shape == (cshape if i > 2 else shape)
                                      and a.dtype == np.complex128
                                      and a.flags.c_contiguous)
                        for i, a in enumerate(arrays))):
            # Strides in doubles, 0 on a broadcast axis; lane first.
            cs = (0,) * (4 - len(cshape)) + tuple(
                s // 8 if n > 1 else 0 for n, s in zip(cshape, arrays[3].strides))
            ref = ctypes.byref(_Op(
                *(a.ctypes.data if a is not None else None for a in arrays),
                grid.shape, lanes, spec.deriv_axis, spec.shift,
                grid.periodic[spec.deriv_axis], cs))
        bound[name] = (ref, *arrays, lanes)
    return bound


def _update_native(call, name, fields, coeffs, region: Region) -> None:
    """One compiled call through ``fields._bound``: every component is
    bound again first when an array its op points into was replaced (the
    six identity checks inline: this is the hot path).  A box that runs
    as one part goes through :data:`_HELD`, a split one through ``call``."""
    try:
        ref, f, a, b, t, c, s, lanes = fields._bound[name]
    except TypeError:  # never bound
        ref = f = None
    fa, ca = fields._arrays, coeffs.arrays
    ka, kb, kt, kc, ks = _OPERANDS[name]
    if not (fa[name] is f and fa[ka] is a and fa[kb] is b and ca[kt] is t
            and ca[kc] is c and (ks is None or ca[ks] is s)):
        # First use, or an array was replaced (lane compaction, a restore):
        # queued ops may point into arrays the old binding holds.
        _drain()
        bound = fields._bound = _bind(fields, coeffs)
        ref, lanes = bound[name][0], bound[name][-1]
    if ref is None:
        _drain()
        return _update_numpy(name, fields, coeffs, region)
    if type(region) is not BoundRegion:
        region = BoundRegion(region)
    if region.cells * lanes < _GATE.value:
        call = _HELD
    if call(ref, region.box):
        # The pass refused the box and touched nothing; a far read off a
        # non-periodic axis fails in _shifted_read's words, as on NumPy.
        spec, grid = SPECS[name], fields.grid
        if not grid.periodic[spec.deriv_axis]:
            _shifted_read(fields[spec.reads[0]], region, spec.deriv_axis,
                          spec.shift, False)
        raise IndexError(f"region {tuple(region)} leaves the grid {grid.shape}")


# -- the convergence residual and the snapshot ---------------------------------

#: Slots of the scratch pool the NumPy residual works in (the kernel
#: bodies use 0, 1, 100 and 101): one component's difference and its
#: squared magnitudes.
_DIFF_SLOT, _MAG_SLOT = 200, 201


def keeps_gil(cells: int) -> bool:
    """Whether work over ``cells`` cells x lanes goes through the handle
    that keeps the GIL: the compiled pass is in use (this loads nothing)
    and ``cells`` is below :data:`_GATE` (module docstring, *The GIL*).
    Work at or above the gate, or on the NumPy body, releases the GIL as
    NumPy, ``hashlib`` and ``CDLL`` calls do."""
    return bool(_THIIM) and cells < _GATE.value


def _contiguous(*arrays) -> bool:
    """Whether the compiled pass can read ``arrays`` as one run of
    complex128 cells each, all of one shape."""
    shape = arrays[0].shape
    return all(a.dtype == np.complex128 and a.shape == shape and a.flags.c_contiguous
               for a in arrays)


def residual_sums(now: np.ndarray, prev: np.ndarray) -> tuple[float, float]:
    """``(sum |now - prev|^2, sum |now|^2)`` of one component, each the bits
    of ``np.sum(np.square(np.abs(.)))``: the compiled ``thiim_residual``
    where both are C-contiguous complex128, through the handle that keeps
    the GIL below :data:`_GATE` (module docstring, *The GIL*); else the
    NumPy body, the oracle (slices, other dtypes, the NumPy kernels)."""
    call = _native() if _THIIM is None else _THIIM
    if call and _contiguous(now, prev):
        return _residual_native(now, prev, _RESIDUAL[now.size < _GATE.value])
    return _residual_numpy(now, prev)


def _residual_native(now, prev, handle) -> tuple[float, float]:
    sums = (ctypes.c_double * 2)()
    handle(ctypes.c_void_p(now.ctypes.data), ctypes.c_void_p(prev.ctypes.data),
           ctypes.c_int64(now.size), sums)
    return sums[0], sums[1]


def _residual_numpy(now, prev) -> tuple[float, float]:
    """The oracle: the elementwise ops and pairwise sums of
    ``np.sum(np.abs(now - prev) ** 2)`` (and of ``now``) in reused
    thread-local scratch, so it allocates nothing per call."""
    mag = _scratch(now.shape, np.float64, _MAG_SLOT)
    diff = np.subtract(now, prev, out=_scratch(now.shape, now.dtype, _DIFF_SLOT))
    num = float(np.sum(np.square(np.abs(diff, out=mag), out=mag)))
    return num, float(np.sum(np.square(np.abs(now, out=mag), out=mag)))


def refresh(dst: np.ndarray, src: np.ndarray) -> None:
    """``np.copyto(dst, src)``, a ``thiim_copy`` where :func:`keeps_gil`."""
    if keeps_gil(dst.size) and _contiguous(dst, src):
        _COPY(ctypes.c_void_p(dst.ctypes.data), ctypes.c_void_p(src.ctypes.data),
              ctypes.c_int64(2 * dst.size))
    else:
        np.copyto(dst, src)


def zeros(shape: tuple) -> np.ndarray:
    """``np.zeros(shape, complex128)``; where :func:`keeps_gil`, an empty
    array that ``thiim_copy`` zeroes (``np.zeros`` of 1 KiB or more
    releases the GIL around ``calloc``)."""
    if not keeps_gil(math.prod(shape)):
        return np.zeros(shape, np.complex128)
    a = np.empty(shape, np.complex128)
    _COPY(ctypes.c_void_p(a.ctypes.data), None, ctypes.c_int64(2 * a.size))
    return a


@functools.lru_cache(maxsize=256)
def _clipped_ops(grid: Grid, components: tuple, z, y, x) -> tuple:
    """``((component, BoundRegion), ...)`` of the components whose clip of
    the box is not empty, and the cells they cover (memoized: a sweep
    clips the same boxes every half step)."""
    ops = []
    for name in components:
        region = clip_region(grid, SPECS[name], z=z, y=y, x=x)
        if region is not None:
            ops.append((name, BoundRegion(region)))
    return tuple(ops), sum(region_lups(region) for _, region in ops)


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
    ops, cells = _clipped_ops(fields.grid, tuple(components), z, y, x)
    for name, region in ops:
        update_component(name, fields, coeffs, region)
    return cells * fields.batch_width


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
