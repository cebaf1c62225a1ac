"""Native (ctypes) LRU replay engine with transparent fallback.

Loads the tight C loop of ``_lru_kernel.c`` (compiled on first use, see
:mod:`repro.nativelib`) and wraps it in :class:`NativeLRU`, an engine with
the same replay interface and byte-identical
:class:`~repro.machine.cache.CacheStats` accounting as the pure-Python
:class:`~repro.machine.cache.BatchLRU` -- which remains the fallback
whenever no compiler is available, the build fails, or the emitter's key
space is too large for direct mapping.

Selection is automatic (:func:`make_lru`); set ``REPRO_NO_NATIVE=1`` to
force the pure-Python engine.
"""

from __future__ import annotations

import ctypes
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .. import nativelib
from ..resilience.errors import EngineUnavailable
from .cache import BatchLRU, CacheStats

__all__ = ["NativeLRU", "make_lru", "native_available"]

#: Direct mapping allocates a few small arrays per key; cap the key space
#: so degenerate emitter domains cannot balloon memory (64M keys ~ 1.6 GB
#: would; this cap keeps it under ~200 MB).
MAX_KEY_SPACE = 8 * 1024 * 1024

_LIB = None
_LIB_TRIED = False


_P64 = ctypes.POINTER(ctypes.c_int64)
_PU8 = ctypes.POINTER(ctypes.c_uint8)


class _LruState(ctypes.Structure):
    _fields_ = [
        ("next", _P64),
        ("prev", _P64),
        ("size", _P64),
        ("flags", _PU8),
        ("capacity", ctypes.c_double),
        ("used", ctypes.c_int64),
        ("mru", ctypes.c_int64),
        ("lru", ctypes.c_int64),
        ("count", ctypes.c_int64),
        ("read_hits", ctypes.c_int64),
        ("read_misses", ctypes.c_int64),
        ("write_hits", ctypes.c_int64),
        ("write_misses", ctypes.c_int64),
        ("writebacks", ctypes.c_int64),
        ("mem_read_bytes", ctypes.c_int64),
        ("mem_write_bytes", ctypes.c_int64),
    ]


def _get_library():
    """Load (once; compiled on first use) the kernel: the CDLL or None."""
    global _LIB, _LIB_TRIED
    if not _LIB_TRIED:
        _LIB_TRIED = True
        lib = nativelib.load("_lru_kernel")
        if lib is not None:
            i64 = ctypes.c_int64
            lib.lru_replay.restype = i64
            lib.lru_replay.argtypes = [
                ctypes.POINTER(_LruState),
                _P64, _P64,  # rel, seg_start
                _P64, _P64, _PU8,  # seg_prebase, seg_size, seg_write
                i64, i64, i64,  # n_seg, base, key_space
                _P64,  # bad
            ]
            lib.lru_replay_jobs.restype = i64
            lib.lru_replay_jobs.argtypes = [
                ctypes.POINTER(_LruState),
                _P64,  # seg
                _P64, _P64, i64,  # group_base, group_size, n_groups
                i64, i64,  # nz, key_space
                _P64, _P64, _P64, i64,  # job_lo, job_hi, job_base, n_jobs
                _P64,  # bad
            ]
        _LIB = lib
    return _LIB


def native_available() -> bool:
    """Whether the compiled replay kernel can be used on this machine."""
    return _get_library() is not None


def _as_i64(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.int64)


class _Prepared(NamedTuple):
    """A packed segment table: the table arguments of one ``lru_replay``
    call (raw pointers, segment count) and the arrays that keep the
    pointers valid."""

    arrays: tuple
    args: tuple


class NativeLRU:
    """Direct-mapped exact-LRU replay engine backed by the C kernel.

    Keys must lie in ``[0, key_space)`` -- emitter chunk keys are dense by
    construction (``(gid * ny + y) * nz + z``), which is what makes direct
    mapping possible.  Interface and accounting match :class:`BatchLRU`.
    """

    def __init__(self, capacity_bytes: float, key_space: int):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if key_space < 1:
            raise ValueError("key_space must be >= 1")
        lib = _get_library()
        if lib is None:
            raise EngineUnavailable(
                "native LRU kernel unavailable "
                "(no compiler, build failure, or REPRO_NO_NATIVE)")
        self._lib = lib
        self.capacity_bytes = float(capacity_bytes)
        self.key_space = int(key_space)
        self._next = np.full(key_space, -1, dtype=np.int64)
        self._prev = np.full(key_space, -1, dtype=np.int64)
        self._size = np.zeros(key_space, dtype=np.int64)
        self._flags = np.zeros(key_space, dtype=np.uint8)
        self._st = _LruState()
        self._st.capacity = self.capacity_bytes
        self._st.mru = -1
        self._st.lru = -1
        self._st.next = self._next.ctypes.data_as(_P64)
        self._st.prev = self._prev.ctypes.data_as(_P64)
        self._st.size = self._size.ctypes.data_as(_P64)
        self._st.flags = self._flags.ctypes.data_as(_PU8)
        self._st_ref = ctypes.byref(self._st)
        self._lru_replay = lib.lru_replay
        # Where a refused replay names its out-of-range (job, segment).
        self._bad = (ctypes.c_int64 * 2)()

    # -- properties ---------------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        st = self._st
        return CacheStats(
            read_hits=st.read_hits,
            read_misses=st.read_misses,
            write_hits=st.write_hits,
            write_misses=st.write_misses,
            writebacks=st.writebacks,
            mem_read_bytes=st.mem_read_bytes,
            mem_write_bytes=st.mem_write_bytes,
        )

    @property
    def used_bytes(self) -> int:
        return int(self._st.used)

    def __len__(self) -> int:
        return int(self._st.count)

    def __contains__(self, key: int) -> bool:
        return 0 <= key < self.key_space and bool(self._flags[key] & 1)

    def keys_lru_to_mru(self) -> List[int]:
        """Resident keys in recency order (diagnostics / tests)."""
        out: List[int] = []
        k = int(self._st.lru)
        while k != -1:
            out.append(k)
            k = int(self._next[k])
        return out

    # -- the hot path -------------------------------------------------------

    def prepare(self, segments: Sequence[Tuple[int, int, bool, Sequence[int]]]):
        """Pack generic ``(prebase, size, write, rel_keys)`` segments into
        the flat arrays one kernel call consumes."""
        n_seg = len(segments)
        rels = [_as_i64(seg[3]) for seg in segments]
        rel = np.concatenate(rels) if rels else np.zeros(0, dtype=np.int64)
        seg_start = np.zeros(n_seg + 1, dtype=np.int64)
        np.cumsum(np.array([len(r) for r in rels], dtype=np.int64), out=seg_start[1:])
        arrays = (
            rel, seg_start,
            np.array([seg[0] for seg in segments], dtype=np.int64),
            np.array([seg[1] for seg in segments], dtype=np.int64),
            np.array([seg[2] for seg in segments], dtype=np.uint8),
        )
        return _Prepared(arrays, tuple(
            a.ctypes.data_as(_PU8 if a.dtype == np.uint8 else _P64) for a in arrays
        ) + (n_seg,))

    def replay(self, prepared, base: int = 0) -> int:
        """Replay a prepared segment table at an absolute base offset.
        A key outside ``[0, key_space)`` raises :class:`ValueError` before
        anything is replayed."""
        if type(prepared) is not _Prepared:
            prepared = self.prepare(prepared)
        n = int(self._lru_replay(self._st_ref, *prepared.args, base,
                                 self.key_space, self._bad))
        if n < 0:
            raise ValueError(
                f"segment {self._bad[1]} at base {base} leaves the key space "
                f"[0, {self.key_space})")
        return n

    def access(self, key: int, size: int, write: bool) -> bool:
        """Single-access compatibility shim (not the hot path)."""
        hit = key in self
        self.replay([(0, size, write, [key])])
        return hit

    def replay_jobs(self, table, group_base, group_size, nz,
                    job_lo, job_hi, job_base) -> int:
        """Replay a whole schedule in one kernel call: job ``j`` is the
        run ``[job_lo[j], job_hi[j])`` of the shared segment table (see
        :class:`repro.machine.streams.ShapeTable`) translated by
        ``job_base[j]``; ``group_base`` / ``group_size`` place a segment's
        array group in this cache's key space and give its chunk size,
        ``nz`` is the row stride of its boxes.  A box that leaves ``[0,
        key_space)`` raises :class:`ValueError` before anything is
        replayed."""
        seg = table.segments()
        gb, gs = _as_i64(group_base), _as_i64(group_size)
        jl, jh, jb = _as_i64(job_lo), _as_i64(job_hi), _as_i64(job_base)
        if not (len(jl) == len(jh) == len(jb)) or len(gb) != len(gs):
            raise ValueError("job / group arrays differ in length")
        if nz < 1:
            raise ValueError("nz must be >= 1")
        if len(jl) and (jl.min() < 0 or jh.max() > table.n_segments):
            raise ValueError("job run outside the segment table")
        n = int(
            self._lib.lru_replay_jobs(
                self._st_ref, seg.ctypes.data_as(_P64),
                gb.ctypes.data_as(_P64), gs.ctypes.data_as(_P64), len(gb),
                nz, self.key_space,
                jl.ctypes.data_as(_P64), jh.ctypes.data_as(_P64),
                jb.ctypes.data_as(_P64), len(jl), self._bad,
            )
        )
        if n < 0:
            job, s = self._bad
            raise ValueError(
                f"job {job} (base {jb[job]}): segment {s} "
                f"{tuple(seg[s].tolist())} leaves the key space "
                f"[0, {self.key_space})")
        return n

    # -- management ---------------------------------------------------------

    def flush(self) -> None:
        """Write back all dirty chunks and empty the cache."""
        dirty = self._flags == 3
        st = self._st
        st.writebacks += int(np.count_nonzero(dirty))
        st.mem_write_bytes += int(self._size[dirty].sum())
        self._flags[:] = 0
        self._next[:] = -1
        self._prev[:] = -1
        st.used = 0
        st.count = 0
        st.mru = -1
        st.lru = -1

    def reset_stats(self) -> CacheStats:
        """Return current stats and start a fresh counter epoch (cache
        contents are kept -- used to discard warm-up traffic)."""
        old = self.stats
        st = self._st
        st.read_hits = st.read_misses = st.write_hits = st.write_misses = 0
        st.writebacks = st.mem_read_bytes = st.mem_write_bytes = 0
        return old


def make_lru(capacity_bytes: float, key_space: int):
    """The fastest available exact-LRU engine for a dense key space."""
    if native_available() and key_space <= MAX_KEY_SPACE:
        return NativeLRU(capacity_bytes, key_space)
    return BatchLRU(capacity_bytes, key_space)
