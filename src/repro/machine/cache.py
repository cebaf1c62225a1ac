"""LRU cache simulator (the stand-in for LIKWID's memory counters).

The paper *measures* its code balance via hardware performance counters:
bytes moved between the L3 and main memory, divided by lattice-site
updates.  Our substitute replays the memory-access stream of the actual
schedule through an LRU model of the shared L3 and counts the same two
quantities.

Granularity
-----------
The unit of caching is one x-row of one *array group* at a given (y, z) --
see :mod:`repro.machine.streams` for the exact grouping.  The x dimension
is never tiled (its rows stream contiguously through the cache), so row
granularity captures precisely the reuse structure that the blocking
parameters control; this is the same abstraction level as the paper's
Eqs. 8-12.

Write counting follows the paper's convention (Section III-A): a store
costs one memory transfer (the eventual write-back); write misses do not
charge a read (no RFO / streaming-store assumption, matching Eq. 8's "18
numbers = 2 written + 16 read").
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

__all__ = ["CacheStats", "LRUCache", "BatchLRU"]


@dataclass
class CacheStats:
    """Byte and event counters accumulated by the cache simulator."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    writebacks: int = 0
    mem_read_bytes: int = 0
    mem_write_bytes: int = 0

    @property
    def mem_bytes(self) -> int:
        """Total main-memory traffic (the LIKWID "data volume")."""
        return self.mem_read_bytes + self.mem_write_bytes

    @property
    def accesses(self) -> int:
        return self.read_hits + self.read_misses + self.write_hits + self.write_misses

    @property
    def hit_rate(self) -> float:
        n = self.accesses
        return 1.0 if n == 0 else (self.read_hits + self.write_hits) / n


class LRUCache:
    """A capacity-managed LRU cache over variable-size chunks.

    Keys are opaque integers; each access carries the chunk's byte size
    (constant per chunk kind).  Dirty chunks charge a write-back when
    evicted or flushed.
    """

    __slots__ = ("capacity_bytes", "stats", "_entries", "_used_bytes")

    def __init__(self, capacity_bytes: float):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = float(capacity_bytes)
        self.stats = CacheStats()
        # key -> [size, dirty]
        self._entries: OrderedDict[int, list] = OrderedDict()
        self._used_bytes = 0

    # -- properties ---------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    # -- the hot path ---------------------------------------------------------

    def access(self, key: int, size: int, write: bool) -> bool:
        """Touch a chunk; returns True on hit."""
        entries = self._entries
        entry = entries.get(key)
        stats = self.stats
        if entry is not None:
            entries.move_to_end(key)
            if write:
                entry[1] = True
                stats.write_hits += 1
            else:
                stats.read_hits += 1
            return True
        # Miss: install (write misses charge only the eventual write-back,
        # read misses charge the memory read now).
        if write:
            stats.write_misses += 1
        else:
            stats.read_misses += 1
            stats.mem_read_bytes += size
        entries[key] = [size, write]
        self._used_bytes += size
        while self._used_bytes > self.capacity_bytes:
            _, (esize, dirty) = entries.popitem(last=False)
            self._used_bytes -= esize
            if dirty:
                stats.writebacks += 1
                stats.mem_write_bytes += esize
        return False

    def access_many(self, keys, size: int, write: bool) -> None:
        """Touch a sequence of chunks of uniform size."""
        for key in keys:
            self.access(key, size, write)

    # -- management ---------------------------------------------------------

    def flush(self) -> None:
        """Write back all dirty chunks and empty the cache."""
        for _, (size, dirty) in self._entries.items():
            if dirty:
                self.stats.writebacks += 1
                self.stats.mem_write_bytes += size
        self._entries.clear()
        self._used_bytes = 0

    def reset_stats(self) -> CacheStats:
        """Return current stats and start a fresh counter epoch (cache
        contents are kept -- used to discard warm-up traffic)."""
        old = self.stats
        self.stats = CacheStats()
        return old


class BatchLRU:
    """Batched replay engine: the LRU model consumed whole streams at a time.

    Semantically identical to :class:`LRUCache` -- same capacity rule, same
    hit/miss/write-back accounting, byte-identical :class:`CacheStats` on
    any access sequence (asserted by the property tests) -- but the unit of
    work is a *segment* of packed relative keys instead of one access, so
    the per-access Python overhead (method dispatch, dataclass counter
    updates, list-valued entries) disappears from the hot loop.  Whole
    schedules arrive through :meth:`replay_jobs`, as runs of the
    process-wide shape table shared with the native engine.

    Entries are stored as ``key -> (size << 1) | dirty`` in an ordered
    dict; statistics are accumulated in local integers for the duration of
    one replay call and folded into :attr:`stats` on exit, so
    :meth:`reset_stats` epochs (which the measurement campaigns place at
    job-stream boundaries) behave exactly as with the reference cache.

    Given a ``key_space`` (the emitter's dense chunk-key bound, which the
    native engine needs for its arrays), a replay that would touch a key
    outside ``[0, key_space)`` raises :class:`ValueError` before anything
    is replayed, as on the native engine.
    """

    __slots__ = ("capacity_bytes", "key_space", "stats", "_entries",
                 "_used_bytes")

    def __init__(self, capacity_bytes: float, key_space: int | None = None):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = float(capacity_bytes)
        self.key_space = key_space
        self.stats = CacheStats()
        # key -> (size << 1) | dirty
        self._entries: OrderedDict[int, int] = OrderedDict()
        self._used_bytes = 0

    # -- properties ---------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    # -- the hot path -------------------------------------------------------

    def prepare(self, segments):
        """Engine-specific packing of generic segments (identity here; the
        native engine flattens them into C-ready arrays)."""
        return tuple(segments)

    def replay(self, segments, base: int = 0) -> int:
        """Replay packed access segments; returns accesses processed.

        ``segments`` is a sequence of ``(prebase, size, write, rel_keys)``
        tuples: each segment touches chunks ``prebase + base + r`` for
        ``r`` in ``rel_keys`` (a plain list of ints), all with the same
        byte ``size`` and read/write direction.  ``base`` translates a
        relative stream to its absolute position (the job's anchor).
        """
        segments = tuple(segments)
        self._check(((segments, base),))
        return self._replay(((segments, base),))

    def replay_jobs(self, table, group_base, group_size, nz,
                    job_lo, job_hi, job_base) -> int:
        """Replay a whole schedule: job ``j`` is the run ``[job_lo[j],
        job_hi[j])`` of the shared segment table (see
        :class:`repro.machine.streams.ShapeTable`) translated by
        ``job_base[j]``; ``group_base`` / ``group_size`` place a segment's
        array group in the emitter's key space and give its chunk size,
        ``nz`` is the row stride its boxes expand to key lists with."""
        runs = list(zip(job_lo.tolist(), job_hi.tolist()))
        distinct = set(runs)
        segs = table.python_segments(distinct, nz)
        gbase, gsize = group_base.tolist(), group_size.tolist()
        placed = {
            (lo, hi): [(gbase[g], gsize[g], w, rel) for g, w, rel in segs[lo:hi]]
            for lo, hi in distinct
        }
        jobs = list(zip(map(placed.__getitem__, runs), job_base.tolist()))
        self._check(jobs)
        return self._replay(jobs)

    def _check(self, jobs) -> None:
        """Refuse ``(segments, base)`` jobs that leave the key space."""
        space = self.key_space
        if space is None:
            return
        extent = {}  # id(segments) -> lowest and highest unplaced key
        for j, (segments, base) in enumerate(jobs):
            ext = extent.get(id(segments))
            if ext is None:
                keys = [prebase + r for prebase, _, _, rel in segments if rel
                        for r in (min(rel), max(rel))] or [0]
                ext = extent[id(segments)] = (min(keys), max(keys))
            if base + ext[0] < 0 or base + ext[1] >= space:
                s = next(i for i, (prebase, _, _, rel) in enumerate(segments)
                         if rel and not (0 <= prebase + base + min(rel)
                                         and prebase + base + max(rel) < space))
                raise ValueError(
                    f"job {j} (base {base}): segment {s} leaves the key "
                    f"space [0, {space})")

    def _replay(self, jobs) -> int:
        """The LRU loop over ``(segments, base)`` jobs."""
        entries = self._entries
        get = entries.get
        move = entries.move_to_end
        pop = entries.popitem
        cap = self.capacity_bytes
        used = self._used_bytes
        rh = rm = wh = wm = wb = 0
        mrb = mwb = 0
        n = 0
        for segments, base in jobs:
            for prebase, size, write, rel in segments:
                b = prebase + base
                n += len(rel)
                if write:
                    dval = (size << 1) | 1
                    for r in rel:
                        k = b + r
                        if get(k) is not None:
                            move(k)
                            entries[k] = dval
                            wh += 1
                        else:
                            wm += 1
                            entries[k] = dval
                            used += size
                            while used > cap:
                                v = pop(False)[1]
                                es = v >> 1
                                used -= es
                                if v & 1:
                                    wb += 1
                                    mwb += es
                else:
                    cval = size << 1
                    for r in rel:
                        k = b + r
                        if get(k) is not None:
                            move(k)
                            rh += 1
                        else:
                            rm += 1
                            mrb += size
                            entries[k] = cval
                            used += size
                            while used > cap:
                                v = pop(False)[1]
                                es = v >> 1
                                used -= es
                                if v & 1:
                                    wb += 1
                                    mwb += es
        self._used_bytes = used
        s = self.stats
        s.read_hits += rh
        s.read_misses += rm
        s.write_hits += wh
        s.write_misses += wm
        s.writebacks += wb
        s.mem_read_bytes += mrb
        s.mem_write_bytes += mwb
        return n

    def access(self, key: int, size: int, write: bool) -> bool:
        """Single-access compatibility shim (not the hot path)."""
        hit = key in self._entries
        self.replay([(0, size, write, (key,))])
        return hit

    # -- management ---------------------------------------------------------

    def flush(self) -> None:
        """Write back all dirty chunks and empty the cache."""
        stats = self.stats
        for v in self._entries.values():
            if v & 1:
                stats.writebacks += 1
                stats.mem_write_bytes += v >> 1
        self._entries.clear()
        self._used_bytes = 0

    def reset_stats(self) -> CacheStats:
        """Return current stats and start a fresh counter epoch (cache
        contents are kept -- used to discard warm-up traffic)."""
        old = self.stats
        self.stats = CacheStats()
        return old
