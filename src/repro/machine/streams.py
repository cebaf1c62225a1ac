"""Memory-access streams of THIIM schedules, at cache-row granularity.

This module turns a stream of :class:`repro.core.wavefront.RowJob` s into
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

Write counting follows the paper's Section III-A convention (see
:mod:`repro.machine.cache`).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..fdfd.specs import (
    ALL_COMPONENTS,
    AXIS_Y,
    AXIS_Z,
    BYTES_PER_NUMBER,
    E_COMPONENTS,
    H_COMPONENTS,
    SPECS,
)
from .cache import LRUCache
from .counters import SUBSTRATE_COUNTERS
from ..core.wavefront import RowJob, tile_job_arrays

__all__ = [
    "ArrayGroup",
    "AccessOp",
    "ARRAY_GROUPS",
    "CLASS_RECIPES",
    "ALL_ARRAYS",
    "COMPONENT_RECIPES",
    "StreamEmitter",
    "ComponentStreamEmitter",
    "BatchStreamEmitter",
    "BatchComponentStreamEmitter",
    "SWEEP_COMPONENTS",
    "ShapeTable",
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


class StreamEmitter:
    """Feeds row-job streams into an LRU cache and accounts LUPs.

    One emitter wraps one shared cache; concurrent thread groups are
    modelled by interleaving their jobs through the same emitter (they
    share the L3).
    """

    def __init__(self, cache: LRUCache, ny: int, nz: int, nx: int):
        if ny < 1 or nz < 1 or nx < 1:
            raise ValueError("ny, nz, nx must be >= 1")
        self.cache = cache
        self.ny = ny
        self.nz = nz
        self.nx = nx
        self._row_bytes = [g.row_bytes(nx) for g in ARRAY_GROUPS]
        self.cells = 0  # (y, z) cell half-updates emitted

    def emit_job(self, job: RowJob) -> None:
        """Replay one row job's chunk accesses."""
        cache = self.cache
        ny, nz = self.ny, self.nz
        nzz = nz
        for op in CLASS_RECIPES[job.field]:
            y0 = max(job.y_lo + op.dy, 0)
            y1 = min(job.y_hi + op.dy, ny)
            z0 = max(job.z_lo + op.dz, 0)
            z1 = min(job.z_hi + op.dz, nz)
            if y0 >= y1 or z0 >= z1:
                continue
            size = self._row_bytes[op.gid]
            write = op.write
            base = op.gid * ny
            for y in range(y0, y1):
                row = (base + y) * nzz
                for z in range(z0, z1):
                    cache.access(row + z, size, write)
        self.cells += job.cells_per_x

    def emit_jobs(self, jobs: Iterable[RowJob]) -> None:
        for job in jobs:
            self.emit_job(job)

    @property
    def lups(self) -> float:
        """Full lattice-site updates emitted (absolute, including x)."""
        return self.cells * self.nx / 2.0


class ComponentStreamEmitter:
    """Single-array-granularity emitter for per-component loop nests.

    Models the baseline code structure: one full sweep per component per
    half step (the paper's Listings), without cross-component fusion.
    ``cells`` counts *component*-row-cells; 12 of them make one LUP per
    x-cell.
    """

    def __init__(self, cache: LRUCache, ny: int, nz: int, nx: int):
        if ny < 1 or nz < 1 or nx < 1:
            raise ValueError("ny, nz, nx must be >= 1")
        self.cache = cache
        self.ny = ny
        self.nz = nz
        self.nx = nx
        self._row_bytes = BYTES_PER_NUMBER * nx
        self.cells = 0

    def emit_component_rows(self, comp: str, y_lo: int, y_hi: int, z_lo: int, z_hi: int) -> None:
        cache = self.cache
        ny, nz = self.ny, self.nz
        size = self._row_bytes
        for op in COMPONENT_RECIPES[comp]:
            y0 = max(y_lo + op.dy, 0)
            y1 = min(y_hi + op.dy, ny)
            z0 = max(z_lo + op.dz, 0)
            z1 = min(z_hi + op.dz, nz)
            if y0 >= y1 or z0 >= z1:
                continue
            base = op.gid * ny
            write = op.write
            for y in range(y0, y1):
                row = (base + y) * nz
                for z in range(z0, z1):
                    cache.access(row + z, size, write)
        self.cells += (y_hi - y_lo) * (z_hi - z_lo)

    def emit_rows(self, comp, y_lo, y_hi, z_lo, z_hi, repeat: int = 1) -> None:
        """Replay a schedule of component rows (arrays; ``comp`` indexes
        :data:`SWEEP_COMPONENTS`) row by row, ``repeat`` times over."""
        rows = list(zip(comp.tolist(), y_lo.tolist(), y_hi.tolist(),
                        z_lo.tolist(), z_hi.tolist()))
        for _ in range(repeat):
            for c, ya, yb, za, zb in rows:
                self.emit_component_rows(SWEEP_COMPONENTS[c], ya, yb, za, zb)

    @property
    def lups(self) -> float:
        """Full LUPs: 12 component-cell updates each."""
        return self.cells * self.nx / 12.0


# ---------------------------------------------------------------------------
# Batched emitters: whole schedules over one process-wide shape table.
#
# The reference emitters above regenerate every chunk key with nested
# Python loops and push them through the cache one call at a time.  But a
# schedule contains thousands of *congruent* jobs -- same half-step class,
# same box extents, same adjacency to the domain edges -- whose access
# streams are identical up to a translation by the job's (y_lo, z_lo)
# anchor (see :meth:`repro.core.wavefront.RowJob.shape_key`), and every
# recipe op of such a job touches a *clipped rectangle* of rows: the
# row-granular working set Eq. 11 counts.  The batched emitters keep one
# rectangle per op of a shape class in the shape table below, resolve a
# whole schedule (one band of interleaved tiles, one phase of a sweep) to
# ``(segment range, base)`` job arrays and hand it to the engine's
# ``replay_jobs`` in one call.  The engine walks each rectangle y-major --
# exactly the reference loop order (recipe op, then y, then z) -- and job
# order is the reference interleave, so the replay is access-for-access
# identical without a key ever being stored.
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


#: Byte budget of the shape table.  A segment is six integers whatever its
#: rectangle covers and a tile stream three integers per job, so the widest
#: tune the service runs (24^3 / 18 threads, D_w up to 24: 7,949 shape
#: classes, 344 tile streams) holds 13 MB -- half segments, half tile
#: streams -- and is never regenerated mid-tune; entries depend on
#: ``D_w``, ``B_z`` and block sizes, not on the grid, so more points add
#: little.  (The pure-Python engine adds its materialized key lists on
#: top.)  A table that does outgrow the budget is replaced by an empty
#: one, see :func:`shape_table`.
SHAPE_TABLE_MAX_BYTES = 32 * 2**20

#: Approximate bytes per key of a materialized Python key list (pointer
#: plus int object), for the byte accounting of :class:`ShapeTable`.
_PY_KEY_BYTES = 40

#: Guards every mutation of the shape table and of the replay counters.
_TABLE_LOCK = threading.Lock()


class ShapeTable:
    """Access streams of shape classes and tile congruence classes, shared
    by every batched emitter of the process.

    A *shape* is stored once as a run of segments ``[lo, hi)``, one row of
    :meth:`segments` each: an array group, a read/write flag and the
    rectangle ``[ry0, ry1) x [rz0, rz1)`` of rows it touches, relative to
    the job anchor (never empty).  Nothing in an entry depends on the
    emitter's ``ny`` or ``nx`` -- the group's plane offset and row size
    enter per replay call, like the row stride ``nz`` that turns a
    rectangle into keys ``ry * nz + rz`` -- but shapes are keyed by
    ``(nz, shape_key)``, so a segment is only ever replayed at one ``nz``;
    they are shared by all candidates of a tuning run.  A *tile stream* is
    a tile's whole serialized job sequence resolved to such runs, keyed by
    the tile's congruence class.

    Entries are only ever appended, under :data:`_TABLE_LOCK`; readers take
    :meth:`segments` / :meth:`python_segments` after resolving their jobs
    and hold that view for the duration of the replay, so a concurrent
    append (which may move the segment rows to a larger buffer) never
    invalidates it.
    """

    def __init__(self) -> None:
        #: ``(nz, shape_key) -> (lo, hi, n_accesses)``; read without the lock.
        self.shapes: Dict[tuple, Tuple[int, int, int]] = {}
        #: tile congruence class -> ``(lo, hi, rel_base, accesses, cells)``.
        self.tiles: Dict[tuple, tuple] = {}
        #: per segment ``(group, write, ry0, ry1, rz0, rz1)``.
        self._seg = np.empty((1 << 10, 6), dtype=np.int64)
        self.n_segments = 0
        # Per segment ``(group, write, key list)`` for the consumers of
        # explicit keys (the pure-Python engine), materialized on demand.
        self._py: List[tuple | None] = []
        self._extra_bytes = 0

    @property
    def nbytes(self) -> int:
        return self._seg.nbytes + self._extra_bytes

    def add_shape(self, key: tuple,
                  segments: Sequence[Tuple[int, bool, int, int, int, int]]):
        """Store the segments of shape class ``key`` (unless another thread
        got there first) and return its ``(lo, hi, n_accesses)``."""
        with _TABLE_LOCK:
            entry = self.shapes.get(key)
            if entry is None:
                lo, hi = self.n_segments, self.n_segments + len(segments)
                if hi > len(self._seg):
                    grown = np.empty((max(hi, 2 * len(self._seg)), 6),
                                     dtype=np.int64)
                    grown[:lo] = self._seg[:lo]
                    self._seg = grown
                if segments:
                    self._seg[lo:hi] = segments
                self._py.extend([None] * len(segments))
                self.n_segments = hi
                n = sum((ry1 - ry0) * (rz1 - rz0)
                        for _, _, ry0, ry1, rz0, rz1 in segments)
                entry = self.shapes[key] = (lo, hi, n)
            return entry

    def add_tile(self, key: tuple, stream: tuple) -> tuple:
        """Store a tile congruence class's resolved job stream."""
        with _TABLE_LOCK:
            entry = self.tiles.get(key)
            if entry is None:
                entry = self.tiles[key] = stream
                self._extra_bytes += sum(a.nbytes for a in stream[:3])
            return entry

    def segments(self) -> np.ndarray:
        """The segment rows, valid for every entry added before the call
        (growth copies into a new buffer and leaves the old one to its
        holders)."""
        return self._seg

    def python_segments(self, runs: Iterable[Tuple[int, int]],
                        nz: int) -> List[tuple]:
        """The per-segment ``(group, write, key list)`` table with every
        segment of ``runs`` expanded at row stride ``nz``."""
        py = self._py
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


def _after_fork_in_child() -> None:
    # The forking thread never holds the lock, but a sibling thread may
    # have been mid-append: then the inherited table may be torn and the
    # inherited lock is held by a thread that does not exist here.
    global _TABLE, _TABLE_LOCK
    if _TABLE_LOCK.locked():
        _TABLE = ShapeTable()
    _TABLE_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_after_fork_in_child)


def _count_replay(jobs: int, accesses: int, misses: int) -> None:
    """Account one replayed schedule (emitters of concurrent tuning threads
    share the process-global counters)."""
    with _TABLE_LOCK:
        c = SUBSTRATE_COUNTERS
        c.jobs_replayed += jobs
        c.accesses_replayed += accesses
        c.stream_memo_misses += misses
        c.stream_memo_hits += jobs - misses


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


class BatchStreamEmitter:
    """Drop-in fast counterpart of :class:`StreamEmitter` over a batched
    replay engine (group granularity, fused half-step recipes)."""

    def __init__(self, cache, ny: int, nz: int, nx: int):
        if ny < 1 or nz < 1 or nx < 1:
            raise ValueError("ny, nz, nx must be >= 1")
        self.cache = cache
        self.ny = ny
        self.nz = nz
        self.nx = nx
        self._row_bytes = [g.row_bytes(nx) for g in ARRAY_GROUPS]
        self._group_base = np.arange(len(ARRAY_GROUPS), dtype=np.int64) * (ny * nz)
        self._group_size = np.array(self._row_bytes, dtype=np.int64)
        self.cells = 0

    @staticmethod
    def key_space(ny: int, nz: int) -> int:
        """Upper bound (exclusive) of the dense chunk-key space."""
        return len(ARRAY_GROUPS) * ny * nz

    def raw_segments_for(self, job: RowJob):
        """Generic ``(prebase, size, write, rel_keys)`` segments of a job
        at this emitter's domain, regenerated every call (the form
        ``prepare`` / ``replay`` of the engines consume)."""
        plane = self.ny * self.nz
        return [
            (gid * plane, self._row_bytes[gid], write,
             _rect_rel_keys(*box, self.nz).tolist())
            for gid, write, *box in _clipped_segments(
                CLASS_RECIPES[job.field], job.y_lo, job.y_hi,
                job.z_lo, job.z_hi, self.ny, self.nz)
        ]

    def _shape(self, table: ShapeTable, job: RowJob):
        """``((lo, hi, n), was_miss)`` of a job's shape class."""
        key = (self.nz, job.shape_key(self.ny, self.nz))
        entry = table.shapes.get(key)
        if entry is not None:
            return entry, 0
        return table.add_shape(key, _clipped_segments(
            CLASS_RECIPES[job.field], job.y_lo, job.y_hi,
            job.z_lo, job.z_hi, self.ny, self.nz)), 1

    def segments_for(self, job: RowJob):
        """The shared-table stream of a job's shape class, resolved to this
        emitter's domain in :meth:`raw_segments_for` form, and its access
        count (what a replay of the job consumes; diagnostics and tests)."""
        table = shape_table()
        (lo, hi, n), _ = self._shape(table, job)
        plane = self.ny * self.nz
        py = table.python_segments([(lo, hi)], self.nz)
        return [(g * plane, self._row_bytes[g], w, rel) for g, w, rel in py[lo:hi]], n

    def _resolve(self, table: ShapeTable, jobs: Iterable[RowJob], y0: int = 0):
        """A job sequence as ``(lo, hi, base)`` arrays over the table's
        shape runs (bases relative to row ``y0``), followed by its
        accesses, cells and the shape misses resolving it cost."""
        nz = self.nz
        runs, bases = [], []
        total = cells = misses = 0
        for job in jobs:
            (lo, hi, n), miss = self._shape(table, job)
            runs.append((lo, hi))
            bases.append((job.y_lo - y0) * nz + job.z_lo)
            total += n
            cells += job.cells_per_x
            misses += miss
        lohi = np.array(runs, dtype=np.int64).reshape(-1, 2)
        return (np.ascontiguousarray(lohi[:, 0]), np.ascontiguousarray(lohi[:, 1]),
                np.array(bases, dtype=np.int64), total, cells, misses)

    def _replay(self, table: ShapeTable, lo, hi, base) -> None:
        if len(lo):
            self.cache.replay_jobs(table, self._group_base, self._group_size,
                                   self.nz, lo, hi, base)

    def emit_job(self, job: RowJob) -> None:
        """Replay one row job's chunk accesses."""
        self.emit_jobs((job,))

    def emit_jobs(self, jobs: Iterable[RowJob]) -> None:
        """Replay a job sequence in one engine call."""
        table = shape_table()
        lo, hi, base, total, cells, misses = self._resolve(table, jobs)
        self._replay(table, lo, hi, base)
        self.cells += cells
        _count_replay(len(lo), total, misses)

    def _tile_stream(self, table: ShapeTable, tile, bz: int):
        """The tile's whole serialized job stream, resolved to shape runs,
        shared per tile *congruence class*: tiles whose rows agree up to a
        y translation (and in domain-boundary adjacency) produce identical
        job sequences up to the ``y0 * nz`` base shift.  Returns the
        stream, that shift, and the shape misses building it cost."""
        ny, nz = self.ny, self.nz
        y0 = min(r.y_lo for r in tile.rows)
        key = (
            nz, bz,
            tuple(
                (r.tau & 1, r.y_lo - y0, r.y_hi - y0, r.y_lo == 0, r.y_hi == ny)
                for r in tile.rows
            ),
        )
        stream = table.tiles.get(key)
        misses = 0
        if stream is None:
            rows = tile.rows
            level, z_lo, z_hi = tile_job_arrays(tile, nz, bz)
            dz = z_hi - z_lo
            # The jobs of one level differ in shape only by their z extent
            # and z-edge adjacency (a short first job, a clipped last one):
            # one table lookup per such class, in order of first occurrence
            # -- the order job-by-job resolution would add the shapes in.
            code = ((level * (nz + 1) + dz) * 2 + (z_lo == 0)) * 2 + (z_hi == nz)
            _, first, inverse = np.unique(code, return_index=True,
                                          return_inverse=True)
            runs = np.empty((len(first), 3), dtype=np.int64)
            for _, c, lv, a, b in sorted(zip(
                    first.tolist(), range(len(first)), level[first].tolist(),
                    z_lo[first].tolist(), z_hi[first].tolist())):
                row = rows[lv]
                runs[c], miss = self._shape(
                    table, RowJob(row.tau, row.y_lo, row.y_hi, a, b))
                misses += miss
            y_lo, width = np.array([(r.y_lo, r.width) for r in rows],
                                   dtype=np.int64).T
            stream = table.add_tile(key, (
                runs[inverse, 0], runs[inverse, 1],
                (y_lo[level] - y0) * nz + z_lo,
                int(runs[inverse, 2].sum()), int((width[level] * dz).sum())))
        return stream, y0 * nz, misses

    def emit_tiles_interleaved(self, tiles, bz: int) -> None:
        """Round-robin interleave the job streams of concurrently executing
        tiles (thread groups sharing the L3) and replay them in one engine
        call."""
        table = shape_table()
        los, his, bases, lengths = [], [], [], []
        total = cells = misses = 0
        for t in tiles:
            (lo, hi, rel, n, cl), shift, miss = self._tile_stream(table, t, bz)
            los.append(lo)
            his.append(hi)
            bases.append(rel + shift)
            lengths.append(len(lo))
            total += n
            cells += cl
            misses += miss
        if not los:
            return
        order = round_robin(lengths)
        self._replay(table, np.concatenate(los)[order],
                     np.concatenate(his)[order], np.concatenate(bases)[order])
        self.cells += cells
        _count_replay(len(order), total, misses)

    @property
    def lups(self) -> float:
        """Full lattice-site updates emitted (absolute, including x)."""
        return self.cells * self.nx / 2.0


class BatchComponentStreamEmitter:
    """Fast counterpart of :class:`ComponentStreamEmitter` (single-array
    granularity, per-component loop nests) replaying whole row schedules."""

    def __init__(self, cache, ny: int, nz: int, nx: int):
        if ny < 1 or nz < 1 or nx < 1:
            raise ValueError("ny, nz, nx must be >= 1")
        self.cache = cache
        self.ny = ny
        self.nz = nz
        self.nx = nx
        self._group_base = np.arange(len(ALL_ARRAYS), dtype=np.int64) * (ny * nz)
        self._group_size = np.full(len(ALL_ARRAYS), BYTES_PER_NUMBER * nx,
                                   dtype=np.int64)
        self.cells = 0

    @staticmethod
    def key_space(ny: int, nz: int) -> int:
        """Upper bound (exclusive) of the dense chunk-key space."""
        return len(ALL_ARRAYS) * ny * nz

    def emit_rows(self, comp, y_lo, y_hi, z_lo, z_hi, repeat: int = 1) -> None:
        """Replay a schedule of component rows -- row ``i`` is component
        ``SWEEP_COMPONENTS[comp[i]]`` over ``[y_lo[i], y_hi[i]) x
        [z_lo[i], z_hi[i])`` -- ``repeat`` times over, in one engine call."""
        if repeat < 1 or not len(comp):
            return
        ny, nz = self.ny, self.nz
        dy = y_hi - y_lo
        dz = z_hi - z_lo
        # One integer per shape class: component, extents and adjacency to
        # the four domain edges (cf. RowJob.shape_key).
        edges = ((y_lo == 0) * 8 + (y_hi == ny) * 4
                 + (z_lo == 0) * 2 + (z_hi == nz))
        code = ((comp * (ny + 1) + dy) * (nz + 1) + dz) * 16 + edges
        classes, first, inverse = np.unique(
            code, return_index=True, return_inverse=True)
        table = shape_table()
        runs = np.empty((len(classes), 3), dtype=np.int64)
        missed = np.zeros(len(classes), dtype=np.int64)
        for c, i in enumerate(first.tolist()):
            name = SWEEP_COMPONENTS[comp[i]]
            key = (nz, (name, int(dy[i]), int(dz[i]), int(edges[i])))
            entry = table.shapes.get(key)
            if entry is None:
                missed[c] = 1
                entry = table.add_shape(key, _clipped_segments(
                    COMPONENT_RECIPES[name], int(y_lo[i]), int(y_hi[i]),
                    int(z_lo[i]), int(z_hi[i]), ny, nz))
            runs[c] = entry
        per_class = np.bincount(inverse, minlength=len(classes))
        lo, hi = runs[inverse, 0], runs[inverse, 1]
        base = y_lo * nz + z_lo
        if repeat != 1:
            lo, hi, base = (np.tile(a, repeat) for a in (lo, hi, base))
        self.cache.replay_jobs(table, self._group_base, self._group_size,
                               nz, lo, hi, base)
        self.cells += repeat * int((dy * dz).sum())
        # A class generated by this call missed once; its other rows hit.
        _count_replay(repeat * len(code), repeat * int(per_class @ runs[:, 2]),
                      int(missed.sum()))

    @property
    def lups(self) -> float:
        """Full LUPs: 12 component-cell updates each."""
        return self.cells * self.nx / 12.0
