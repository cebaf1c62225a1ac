"""Memory-access streams of THIIM schedules, at cache-row granularity.

This module turns a *row schedule* -- the arrays ``(recipe, y_lo, y_hi,
z_lo, z_hi)``, one kernel invocation per row, in execution order -- into
the chunk-access stream the LRU cache simulator consumes.  It is derived
*programmatically* from the kernel specs of :mod:`repro.fdfd.specs`, so
the traffic measurement and the numerics can never drift apart.

Array groups
------------
The 40 domain-sized arrays partition into eight *access-signature groups*:
arrays in one group are touched at exactly the same (dy, dz) offsets by
the same half-step class, so aggregating them into one cache chunk per
(y, z) row is lossless (it only shortens the simulated stream 3x):

* six field pairs -- ``(Exy, Exz)``, ``(Eyx, Eyz)``, ``(Ezx, Ezy)`` and
  the H counterparts; each is written by its own class at (0, 0) and read
  by the other class at the offsets induced by the curl structure;
* two coefficient bundles -- the 14 arrays of the H updates and the 14 of
  the E updates, streamed read-only at (0, 0).

A chunk is one x-row of one group: ``len(group) * 16 * nx`` bytes.

Layouts
-------
A :class:`Layout` says what a row of a schedule touches: :data:`FUSED`
(the eight groups, recipe 0/1 = the H/E half step of a tile's row job)
or :data:`PER_COMPONENT` (the 40 arrays one by one, recipe ``i`` = the
loop nest of component ``SWEEP_COMPONENTS[i]``).  Both emitters --
:class:`StreamEmitter`, the per-access reference, and
:class:`BatchStreamEmitter`, the one the measurements use -- take a
layout and replay a schedule through :meth:`emit_rows`.

Write counting follows the paper's Section III-A convention (see
:mod:`repro.machine.cache`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .. import forksafe
from ..fdfd.specs import (
    ALL_COMPONENTS,
    AXIS_Y,
    AXIS_Z,
    BYTES_PER_NUMBER,
    E_COMPONENTS,
    H_COMPONENTS,
    SPECS,
)
from .counters import SUBSTRATE_COUNTERS
from ..core.wavefront import RowJob

__all__ = [
    "ArrayGroup",
    "AccessOp",
    "ARRAY_GROUPS",
    "CLASS_RECIPES",
    "ALL_ARRAYS",
    "COMPONENT_RECIPES",
    "Layout",
    "FUSED",
    "PER_COMPONENT",
    "StreamEmitter",
    "BatchStreamEmitter",
    "SWEEP_COMPONENTS",
    "ShapeTable",
    "shape_codes",
    "shape_table",
    "clear_shape_table",
    "round_robin",
]


@dataclass(frozen=True)
class ArrayGroup:
    """A set of arrays with identical access signature."""

    gid: int
    name: str
    arrays: Tuple[str, ...]

    def row_bytes(self, nx: int) -> int:
        return len(self.arrays) * BYTES_PER_NUMBER * nx


@dataclass(frozen=True)
class AccessOp:
    """One chunk touch per (y, z) cell of a job: group ``gid`` displaced
    by ``(dy, dz)``, read or write."""

    gid: int
    dy: int
    dz: int
    write: bool


def _read_offsets(array: str) -> frozenset[Tuple[int, int]]:
    """All (dy, dz) offsets at which ``array`` is read by the other class."""
    offs = {(0, 0)}  # every pair array is read unshifted by two kernels
    for spec in SPECS.values():
        if array in spec.reads:
            if spec.deriv_axis == AXIS_Y:
                offs.add((spec.shift, 0))
            elif spec.deriv_axis == AXIS_Z:
                offs.add((0, spec.shift))
            # x-axis shifts stay inside the row: no extra chunk touch.
    return frozenset(offs)


def _build_groups() -> Tuple[Tuple[ArrayGroup, ...], Dict[str, ArrayGroup]]:
    """Partition the 40 arrays into access-signature groups."""
    groups: List[ArrayGroup] = []
    by_array: Dict[str, ArrayGroup] = {}

    # Field pairs: the two split parts of one physical component always
    # share a signature (they are read summed).
    pairs: Dict[str, List[str]] = {}
    for name in ALL_COMPONENTS:
        pairs.setdefault(name[:2], []).append(name)
    for phys, arrays in sorted(pairs.items()):
        sig0 = _read_offsets(arrays[0])
        for a in arrays[1:]:
            assert _read_offsets(a) == sig0, f"split pair {phys} signature mismatch"
        g = ArrayGroup(gid=len(groups), name=phys, arrays=tuple(sorted(arrays)))
        groups.append(g)
        for a in arrays:
            by_array[a] = g

    # Coefficient bundles per class.
    for cls, comps in (("H", H_COMPONENTS), ("E", E_COMPONENTS)):
        arrays = tuple(
            sorted(name for c in comps for name in SPECS[c].coeff_names)
        )
        g = ArrayGroup(gid=len(groups), name=f"coeff{cls}", arrays=arrays)
        groups.append(g)
        for a in arrays:
            by_array[a] = g
    return tuple(groups), by_array


def _build_recipes(
    groups: Tuple[ArrayGroup, ...], by_array: Dict[str, ArrayGroup]
) -> Dict[str, Tuple[AccessOp, ...]]:
    """Per half-step class, the deduplicated chunk touches per (y, z)."""
    recipes: Dict[str, Tuple[AccessOp, ...]] = {}
    for cls, comps in (("H", H_COMPONENTS), ("E", E_COMPONENTS)):
        reads: set[Tuple[int, int, int]] = set()
        writes: set[int] = set()
        for comp in comps:
            spec = SPECS[comp]
            own = by_array[comp]
            reads.add((own.gid, 0, 0))  # c * F_old
            writes.add(own.gid)
            for r in spec.reads:
                g = by_array[r]
                reads.add((g.gid, 0, 0))
                if spec.deriv_axis == AXIS_Y:
                    reads.add((g.gid, spec.shift, 0))
                elif spec.deriv_axis == AXIS_Z:
                    reads.add((g.gid, 0, spec.shift))
            cg = by_array[spec.coeff_t]
            reads.add((cg.gid, 0, 0))
        ops: List[AccessOp] = [
            AccessOp(gid, dy, dz, write=False) for gid, dy, dz in sorted(reads)
        ]
        # Reads before writes so a cold own-row charges load + write-back,
        # matching the paper's "own field read and written" counting.
        ops += [AccessOp(gid, 0, 0, write=True) for gid in sorted(writes)]
        recipes[cls] = tuple(ops)
    return recipes


ARRAY_GROUPS, _GROUP_OF = _build_groups()
CLASS_RECIPES = _build_recipes(ARRAY_GROUPS, _GROUP_OF)

# ---------------------------------------------------------------------------
# Per-component recipes at single-array granularity.
#
# The *baseline* code (naive and spatially blocked) runs one loop nest per
# component, exactly like the paper's Listings 1 and 2 -- so arrays shared
# by two components are streamed twice per half step, which is how Eq. 8
# arrives at 1344 bytes/LUP without deduplication.  The tiled kernels, by
# contrast, update all components of a half step while the rows sit in
# cache, which is the fused (group-level) model above.
# ---------------------------------------------------------------------------

#: Stable order of all 40 domain-sized arrays.
ALL_ARRAYS: Tuple[str, ...] = tuple(ALL_COMPONENTS) + tuple(
    sorted(name for s in SPECS.values() for name in s.coeff_names)
)
_ARRAY_INDEX = {name: i for i, name in enumerate(ALL_ARRAYS)}


def _build_component_recipes() -> Dict[str, Tuple[AccessOp, ...]]:
    recipes: Dict[str, Tuple[AccessOp, ...]] = {}
    for comp, spec in SPECS.items():
        ops: List[AccessOp] = []
        # Reads: own old value, the two pair arrays (near + far), coeffs.
        ops.append(AccessOp(_ARRAY_INDEX[comp], 0, 0, write=False))
        for r in spec.reads:
            ops.append(AccessOp(_ARRAY_INDEX[r], 0, 0, write=False))
            if spec.deriv_axis == AXIS_Y:
                ops.append(AccessOp(_ARRAY_INDEX[r], spec.shift, 0, write=False))
            elif spec.deriv_axis == AXIS_Z:
                ops.append(AccessOp(_ARRAY_INDEX[r], 0, spec.shift, write=False))
        for cname in spec.coeff_names:
            ops.append(AccessOp(_ARRAY_INDEX[cname], 0, 0, write=False))
        ops.append(AccessOp(_ARRAY_INDEX[comp], 0, 0, write=True))
        recipes[comp] = tuple(ops)
    return recipes


COMPONENT_RECIPES = _build_component_recipes()

#: Component order of one baseline time step: the six H loop nests, then
#: the six E loop nests (the paper's Listings).
SWEEP_COMPONENTS: Tuple[str, ...] = tuple(H_COMPONENTS) + tuple(E_COMPONENTS)


@dataclass(frozen=True)
class Layout:
    """What a row of a schedule touches: chunk group ``g`` holds
    ``group_arrays[g]`` arrays (its row is that many x-rows of complex
    numbers), a row with recipe ``r`` applies ``recipes[r]`` to every
    (y, z) cell of its box, and ``cells_per_lup`` cell updates make one
    lattice-site update per x-cell."""

    name: str
    group_arrays: Tuple[int, ...]
    recipes: Tuple[Tuple[AccessOp, ...], ...]
    cells_per_lup: float

    def key_space(self, ny: int, nz: int) -> int:
        """Upper bound (exclusive) of the dense chunk keys
        ``(gid * ny + y) * nz + z``."""
        return len(self.group_arrays) * ny * nz

    def row_bytes(self, nx: int) -> List[int]:
        return [n * BYTES_PER_NUMBER * nx for n in self.group_arrays]


#: Tiled kernels: all components of a half step while the rows sit in
#: cache -- recipe ``tau & 1`` of a row job (0 = H, 1 = E), 2 half steps
#: per LUP.
FUSED = Layout("fused", tuple(len(g.arrays) for g in ARRAY_GROUPS),
               (CLASS_RECIPES["H"], CLASS_RECIPES["E"]), 2.0)

#: Baseline sweeps: one loop nest per component (recipe ``i`` =
#: ``SWEEP_COMPONENTS[i]``), 12 per LUP.
PER_COMPONENT = Layout("per_component", (1,) * len(ALL_ARRAYS),
                       tuple(COMPONENT_RECIPES[c] for c in SWEEP_COMPONENTS),
                       12.0)


#: Bits of a box extent in a shape code; emitters refuse larger domains.
_EXTENT_BITS = 24


class StreamEmitter:
    """The reference: feeds a row schedule into an LRU cache one access
    at a time, in the order ``rows -> recipe ops -> y -> z`` -- the
    oracle every batched replay is held to.

    One emitter wraps one shared cache; concurrent thread groups are
    modelled by interleaving their rows in the schedule (they share the
    L3).
    """

    def __init__(self, cache, ny: int, nz: int, nx: int,
                 layout: Layout = FUSED):
        if ny < 1 or nz < 1 or nx < 1:
            raise ValueError("ny, nz, nx must be >= 1")
        if max(ny, nz) >= 1 << _EXTENT_BITS:
            raise ValueError(f"ny, nz must be < 2**{_EXTENT_BITS}")
        self.cache = cache
        self.ny = ny
        self.nz = nz
        self.nx = nx
        self.layout = layout
        self._row_bytes = layout.row_bytes(nx)
        self.cells = 0  # (y, z) cell updates emitted

    def emit_rows(self, recipe, y_lo, y_hi, z_lo, z_hi, repeat: int = 1) -> None:
        """Replay a row schedule -- row ``i`` applies recipe ``recipe[i]``
        to ``[y_lo[i], y_hi[i]) x [z_lo[i], z_hi[i])`` -- ``repeat`` times
        over."""
        cache, ny, nz = self.cache, self.ny, self.nz
        recipes, row_bytes = self.layout.recipes, self._row_bytes
        rows = list(zip(*(np.asarray(a).tolist()
                          for a in (recipe, y_lo, y_hi, z_lo, z_hi))))
        for _ in range(repeat):
            for r, ya, yb, za, zb in rows:
                for op in recipes[r]:
                    y0 = max(ya + op.dy, 0)
                    y1 = min(yb + op.dy, ny)
                    z0 = max(za + op.dz, 0)
                    z1 = min(zb + op.dz, nz)
                    if y0 >= y1 or z0 >= z1:
                        continue
                    size = row_bytes[op.gid]
                    write = op.write
                    base = op.gid * ny
                    for y in range(y0, y1):
                        row = (base + y) * nz
                        for z in range(z0, z1):
                            cache.access(row + z, size, write)
                self.cells += (yb - ya) * (zb - za)

    @property
    def lups(self) -> float:
        """Full lattice-site updates emitted (absolute, including x)."""
        return self.cells * self.nx / self.layout.cells_per_lup


# ---------------------------------------------------------------------------
# The batched emitter: whole schedules over one process-wide shape table.
#
# The reference emitter above regenerates every chunk key with nested
# Python loops and pushes them through the cache one call at a time.  But
# a schedule contains thousands of *congruent* rows -- same recipe, same
# box extents, same adjacency to the domain edges (:func:`shape_codes`)
# -- whose access streams are identical up to a translation by the row's
# (y_lo, z_lo) anchor, and every recipe op of such a row touches a
# *clipped rectangle* of chunk rows: the row-granular working set Eq. 11
# counts.  The batched emitter keeps one rectangle per op of a shape class
# in the shape table below, resolves a whole schedule (one band of
# interleaved tiles, one phase of a sweep) to ``(segment range, base)``
# job arrays and hands it to the engine's ``replay_jobs`` in one call.
# The engine walks each rectangle y-major -- exactly the reference loop
# order (recipe op, then y, then z) -- and row order is the schedule's,
# so the replay is access-for-access identical without a key ever being
# stored.
# ---------------------------------------------------------------------------


def _rect_rel_keys(ry0: int, ry1: int, rz0: int, rz1: int, nz: int) -> np.ndarray:
    """Relative keys ``ry * nz + rz`` of a rectangle, y-major like the
    reference emit loops: what the compiled replay walks without storing,
    materialized for the explicit-key consumers only."""
    rel = np.arange(ry0, ry1, dtype=np.int64) * nz
    return (rel[:, None] + np.arange(rz0, rz1, dtype=np.int64)[None, :]).ravel()


def _clipped_segments(recipe, y_lo: int, y_hi: int, z_lo: int, z_hi: int,
                      ny: int, nz: int) -> List[Tuple[int, bool, int, int, int, int]]:
    """``(group, write, ry0, ry1, rz0, rz1)`` per recipe op of a box: the
    op's rows clipped to the domain (ops clipped away entirely are left
    out), relative to the box anchor ``(y_lo, z_lo)``."""
    segments = []
    for op in recipe:
        y0 = max(y_lo + op.dy, 0)
        y1 = min(y_hi + op.dy, ny)
        z0 = max(z_lo + op.dz, 0)
        z1 = min(z_hi + op.dz, nz)
        if y0 >= y1 or z0 >= z1:
            continue
        segments.append((op.gid, op.write,
                         y0 - y_lo, y1 - y_lo, z0 - z_lo, z1 - z_lo))
    return segments


def shape_codes(recipe, y_lo, y_hi, z_lo, z_hi, ny: int, nz: int) -> np.ndarray:
    """One integer per row of a schedule naming its *shape class*: the
    recipe, the box extents and the adjacency to the four domain edges.
    Rows of one class produce identical chunk-access streams up to a
    translation by their ``(y_lo, z_lo)`` anchor -- the stencil offsets
    are all in {-1, 0, +1}, so nothing else can change the clipped access
    pattern -- and the code does not depend on ``ny``, so classes are
    shared by every domain of a tuning run."""
    edges = ((y_lo == 0) * 8 + (y_hi == ny) * 4
             + (z_lo == 0) * 2 + (z_hi == nz))
    return ((((recipe << _EXTENT_BITS) | (y_hi - y_lo)) << _EXTENT_BITS
             | (z_hi - z_lo)) << 4) | edges


#: Byte budget of the shape table.  A segment is six integers whatever its
#: rectangle covers, so the widest tune the service runs (24^3 / 18
#: threads, D_w up to 24: 1,784 shape classes, 25k segments) holds 1.6 MB
#: and is never regenerated mid-tune; entries depend on ``D_w``, ``B_z`` and
#: block sizes, not on the grid or ``nz``, so more points add little.  What can
#: outgrow the budget is the pure-Python engine's materialized key lists;
#: a table that does is replaced by an empty one, see :func:`shape_table`.
SHAPE_TABLE_MAX_BYTES = 32 * 2**20

#: Approximate bytes per key of a materialized Python key list (pointer
#: plus int object), for the byte accounting of :class:`ShapeTable`.
_PY_KEY_BYTES = 40

#: Guards every mutation of the shape table.  A child forked while another
#: thread held it starts from an empty table: that append may be torn.
_TABLE_LOCK = forksafe.lock("streams.table", if_held=lambda: clear_shape_table())


class ShapeTable:
    """Access streams of shape classes, shared by every batched emitter of
    the process.

    A *shape* is stored once as a run of segments ``[lo, hi)``, one row of
    :meth:`segments` each: an array group, a read/write flag and the
    rectangle ``[ry0, ry1) x [rz0, rz1)`` of rows it touches, relative to
    the row anchor (never empty).  Nothing in an entry depends on the
    emitter's ``ny`` or ``nx`` -- the group's plane offset and row size
    enter per replay call, like the row stride ``nz`` that turns a
    rectangle into keys ``ry * nz + rz`` -- so shapes are keyed by
    ``(layout name, shape code)`` alone and shared by all candidates of a
    tuning run, whatever their simulated ``nz``.  Only the materialized
    key lists of the pure-Python engine depend on ``nz``; they are kept
    per ``nz``.

    Entries are only ever appended, under :data:`_TABLE_LOCK`; readers take
    :meth:`segments` / :meth:`python_segments` after resolving their rows
    and hold that view for the duration of the replay, so a concurrent
    append (which may move the segment rows to a larger buffer) never
    invalidates it.
    """

    def __init__(self) -> None:
        #: ``(layout name, shape code) -> (lo, hi, n_accesses)``; read
        #: without the lock.
        self.shapes: Dict[tuple, Tuple[int, int, int]] = {}
        #: per segment ``(group, write, ry0, ry1, rz0, rz1)``.
        self._seg = np.empty((1 << 10, 6), dtype=np.int64)
        self.n_segments = 0
        # Per row stride ``nz``, per segment ``(group, write, key list)`` for
        # the consumers of explicit keys (the pure-Python engine),
        # materialized on demand.
        self._py: Dict[int, List[tuple | None]] = {}
        self._extra_bytes = 0

    @property
    def nbytes(self) -> int:
        return self._seg.nbytes + self._extra_bytes

    def add_shape(self, key: tuple,
                  segments: Sequence[Tuple[int, bool, int, int, int, int]]):
        """Store the segments of shape class ``key`` (unless another thread
        got there first) and return ``((lo, hi, n_accesses), inserted)``:
        only the call that inserted counts the shape as a miss."""
        with _TABLE_LOCK:
            entry = self.shapes.get(key)
            inserted = entry is None
            if inserted:
                lo, hi = self.n_segments, self.n_segments + len(segments)
                if hi > len(self._seg):
                    grown = np.empty((max(hi, 2 * len(self._seg)), 6),
                                     dtype=np.int64)
                    grown[:lo] = self._seg[:lo]
                    self._seg = grown
                if segments:
                    self._seg[lo:hi] = segments
                self.n_segments = hi
                n = sum((ry1 - ry0) * (rz1 - rz0)
                        for _, _, ry0, ry1, rz0, rz1 in segments)
                entry = self.shapes[key] = (lo, hi, n)
            return entry, inserted

    def segments(self) -> np.ndarray:
        """The segment rows, valid for every entry added before the call
        (growth copies into a new buffer and leaves the old one to its
        holders)."""
        return self._seg

    def python_segments(self, runs: Iterable[Tuple[int, int]],
                        nz: int) -> List[tuple]:
        """The per-segment ``(group, write, key list)`` table at row stride
        ``nz``, with every segment of ``runs`` expanded."""
        py = self._py.get(nz)
        if py is None or len(py) < self.n_segments:
            with _TABLE_LOCK:
                py = self._py.setdefault(nz, [])
                py.extend([None] * (self.n_segments - len(py)))
        for lo, hi in runs:
            if None in py[lo:hi]:
                with _TABLE_LOCK:
                    for s in range(lo, hi):
                        if py[s] is None:
                            group, write, *box = self._seg[s].tolist()
                            keys = _rect_rel_keys(*box, nz).tolist()
                            py[s] = (group, bool(write), keys)
                            self._extra_bytes += _PY_KEY_BYTES * len(keys)
        return py


_TABLE = ShapeTable()


def shape_table() -> ShapeTable:
    """The process-wide shape table.

    An emitter resolves one schedule against the table it got here and
    replays from that same object, so replacing an over-budget table with
    an empty one (here, or in :func:`clear_shape_table`) never invalidates
    indices in flight; the old table is freed with its last user.
    """
    global _TABLE
    table = _TABLE
    if table.nbytes > SHAPE_TABLE_MAX_BYTES:
        with _TABLE_LOCK:
            if _TABLE is table:
                _TABLE = ShapeTable()
            table = _TABLE
    return table


def clear_shape_table() -> None:
    """Drop every shared stream (cold-start benchmarks, tests)."""
    global _TABLE
    with _TABLE_LOCK:
        _TABLE = ShapeTable()


def round_robin(lengths: Sequence[int]) -> np.ndarray:
    """Order that interleaves concatenated streams of the given lengths
    round-robin -- every live stream's k-th item before any stream's
    (k+1)-th, a stream dropping out when it is exhausted: concurrent
    threads (or thread groups) sharing the L3."""
    lengths = np.asarray(lengths, dtype=np.int64)
    stream = np.repeat(np.arange(len(lengths)), lengths)
    ends = np.cumsum(lengths)
    step = np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - lengths, lengths)
    return np.lexsort((stream, step))


class BatchStreamEmitter(StreamEmitter):
    """The fast counterpart of :class:`StreamEmitter`: a whole row
    schedule resolved to shape-table runs and replayed in one call of a
    batched engine (``BatchLRU`` or ``NativeLRU``)."""

    def __init__(self, cache, ny: int, nz: int, nx: int,
                 layout: Layout = FUSED):
        super().__init__(cache, ny, nz, nx, layout)
        self._group_base = (np.arange(len(layout.group_arrays), dtype=np.int64)
                            * (ny * nz))
        self._group_size = np.array(self._row_bytes, dtype=np.int64)

    @staticmethod
    def key_space(ny: int, nz: int) -> int:
        """Upper bound (exclusive) of the dense chunk-key space of the
        default :data:`FUSED` layout (:meth:`Layout.key_space` for any)."""
        return FUSED.key_space(ny, nz)

    def raw_segments_for(self, job: RowJob):
        """Generic ``(prebase, size, write, rel_keys)`` segments of a row
        job (recipe ``tau & 1``) at this emitter's domain, regenerated
        every call (the form ``prepare`` / ``replay`` of the engines
        consume)."""
        plane = self.ny * self.nz
        return [
            (gid * plane, self._row_bytes[gid], write,
             _rect_rel_keys(*box, self.nz).tolist())
            for gid, write, *box in _clipped_segments(
                self.layout.recipes[job.tau & 1], job.y_lo, job.y_hi,
                job.z_lo, job.z_hi, self.ny, self.nz)
        ]

    def _runs(self, table: ShapeTable, recipe, y_lo, y_hi, z_lo, z_hi):
        """A row schedule resolved against ``table``: per row its run
        ``[lo, hi)`` of segments, the schedule's access count, and how
        many shape classes this call added (one lookup per class; a class
        another thread added first is a hit)."""
        ny, nz, layout = self.ny, self.nz, self.layout
        classes, first, inverse = np.unique(
            shape_codes(recipe, y_lo, y_hi, z_lo, z_hi, ny, nz),
            return_index=True, return_inverse=True)
        shapes = table.shapes
        entries, misses = [], 0
        for code, i in zip(classes.tolist(), first.tolist()):
            key = (layout.name, code)
            entry = shapes.get(key)
            if entry is None:
                entry, inserted = table.add_shape(key, _clipped_segments(
                    layout.recipes[recipe[i]], int(y_lo[i]), int(y_hi[i]),
                    int(z_lo[i]), int(z_hi[i]), ny, nz))
                misses += inserted
            entries.append(entry)
        runs = np.fromiter(itertools.chain.from_iterable(entries),
                           dtype=np.int64, count=3 * len(entries)).reshape(-1, 3)
        return (runs[inverse, 0], runs[inverse, 1],
                int(runs[inverse, 2].sum()), misses)

    def emit_rows(self, recipe, y_lo, y_hi, z_lo, z_hi, repeat: int = 1) -> None:
        """Replay a row schedule (see :meth:`StreamEmitter.emit_rows`)
        ``repeat`` times over, in one engine call."""
        recipe, y_lo, y_hi, z_lo, z_hi = (
            np.asarray(a, dtype=np.int64) for a in (recipe, y_lo, y_hi, z_lo, z_hi))
        if repeat < 1 or not len(recipe):
            return
        table = shape_table()
        lo, hi, accesses, misses = self._runs(table, recipe, y_lo, y_hi, z_lo, z_hi)
        base = y_lo * self.nz + z_lo
        if repeat != 1:
            lo, hi, base = (np.tile(a, repeat) for a in (lo, hi, base))
        self.cache.replay_jobs(table, self._group_base, self._group_size,
                               self.nz, lo, hi, base)
        self.cells += repeat * int(((y_hi - y_lo) * (z_hi - z_lo)).sum())
        # A class this call added missed once; every other row hit.
        SUBSTRATE_COUNTERS.count_replay(repeat * len(recipe), repeat * accesses, misses)
