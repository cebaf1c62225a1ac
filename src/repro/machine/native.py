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
from dataclasses import fields
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .. import nativelib
from ..resilience.errors import EngineUnavailable
from .cache import BatchLRU, CacheStats

__all__ = ["NativeLRU", "make_lru", "native_available"]

#: Direct mapping allocates one 16-byte node per key; cap the key space
#: so degenerate emitter domains cannot balloon memory (this cap keeps the
#: node table at 128 MB).
MAX_KEY_SPACE = 8 * 1024 * 1024

#: The kernel's ``LruNode``: recency links, chunk bytes and flags of one key;
#: all zero while the key is not resident (a zeroed table is an empty cache).
_NODE = np.dtype([("next", np.int32), ("prev", np.int32), ("size", np.int32),
                  ("flags", np.uint8), ("pad", np.uint8, 3)])

#: Links and chunk sizes are int32 in a node.
_INT32_MAX = 2**31 - 1

#: The counter fields, in :class:`CacheStats` order (``_LruState`` names
#: them alike).
_STATS = tuple(f.name for f in fields(CacheStats))

_P64 = ctypes.POINTER(ctypes.c_int64)
_PU8 = ctypes.POINTER(ctypes.c_uint8)


class _LruState(ctypes.Structure):
    _fields_ = [
        ("node", ctypes.c_void_p),
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


def _bind(lib):
    """Declare the kernel's two entry points (see :func:`nativelib.load`)."""
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
    return lib


def native_available() -> bool:
    """Whether the compiled replay kernel can be used on this machine."""
    return bool(nativelib.load("_lru_kernel", _bind))


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
        lib = nativelib.load("_lru_kernel", _bind)
        if not lib:
            raise EngineUnavailable(
                "native LRU kernel unavailable "
                "(no compiler, build failure, or REPRO_NO_NATIVE)")
        if key_space > _INT32_MAX:
            raise ValueError("key_space must fit in int32 (the node links)")
        self._lib = lib
        self.capacity_bytes = float(capacity_bytes)
        self.key_space = int(key_space)
        self._nodes = np.zeros(key_space, dtype=_NODE)
        self._st = _LruState()
        self._st.capacity = self.capacity_bytes
        self._st.mru = -1
        self._st.lru = -1
        self._st.node = self._nodes.ctypes.data
        self._st_ref = ctypes.byref(self._st)
        self._lru_replay = lib.lru_replay
        # Where a refused replay names its out-of-range (job, segment).
        self._bad = (ctypes.c_int64 * 2)()

    # -- properties ---------------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        st = self._st
        return CacheStats(*(getattr(st, name) for name in _STATS))

    @stats.setter
    def stats(self, stats: CacheStats) -> None:
        for name in _STATS:
            setattr(self._st, name, getattr(stats, name))

    @property
    def used_bytes(self) -> int:
        return int(self._st.used)

    def __len__(self) -> int:
        return int(self._st.count)

    def __contains__(self, key: int) -> bool:
        return 0 <= key < self.key_space and bool(self._nodes["flags"][key] & 1)

    def keys_lru_to_mru(self) -> List[int]:
        """Resident keys in recency order (diagnostics / tests)."""
        out: List[int] = []
        nxt = self._nodes["next"]
        k = int(self._st.lru)
        while k != -1:
            out.append(k)
            k = int(nxt[k])
        return out

    def snapshot(self) -> tuple:
        """The LRU state (not the counters): equal snapshots replay every
        stream alike.  Every node but the resident keys' is all zero, so
        the resident keys and their nodes stand for the whole table (and
        take a fraction of its bytes: the cache holds a few thousand
        chunks of a key space of up to millions)."""
        st = self._st
        resident = np.flatnonzero(self._nodes["flags"])
        return (st.mru, st.lru, st.used, st.count, resident.tobytes(),
                self._nodes[resident].tobytes())

    # -- the hot path -------------------------------------------------------

    def prepare(self, segments: Sequence[Tuple[int, int, bool, Sequence[int]]]):
        """Pack generic ``(prebase, size, write, rel_keys)`` segments into
        the flat arrays one kernel call consumes."""
        n_seg = len(segments)
        if any(seg[1] > _INT32_MAX for seg in segments):
            raise ValueError("a chunk size does not fit in int32")
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
        if len(gs) and gs.max() > _INT32_MAX:
            raise ValueError("a chunk size does not fit in int32")
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
        dirty = self._nodes["flags"] == 3
        st = self._st
        st.writebacks += int(np.count_nonzero(dirty))
        st.mem_write_bytes += int(self._nodes["size"][dirty].sum(dtype=np.int64))
        self._nodes.view(np.uint64).fill(0)
        st.used = 0
        st.count = 0
        st.mru = -1
        st.lru = -1

    def reset_stats(self) -> CacheStats:
        """Return current stats and start a fresh counter epoch (cache
        contents are kept -- used to discard warm-up traffic)."""
        old = self.stats
        self.stats = CacheStats()
        return old


def make_lru(capacity_bytes: float, key_space: int):
    """The fastest available exact-LRU engine for a dense key space."""
    if native_available() and key_space <= MAX_KEY_SPACE:
        return NativeLRU(capacity_bytes, key_space)
    return BatchLRU(capacity_bytes, key_space)
