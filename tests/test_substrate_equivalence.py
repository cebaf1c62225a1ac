"""Equivalence property tests for the batched replay engines.

The performance substrate has three interchangeable engines (see
:mod:`repro.machine.measure`): the reference per-access ``LRUCache``
loop, the pure-Python ``BatchLRU`` segment replay, and the compiled
``NativeLRU`` kernel.  Every measured number in the figures flows
through one of them, so the optimization contract is *byte-identical*
``CacheStats`` on any access sequence -- which hypothesis asserts here,
on random streams, random segment batches, full randomized tiling plans
and whole sweep schedules, alongside the shared-shape-table invariants.

The whole file must also pass under ``REPRO_NO_NATIVE=1`` (the fast
engine list then holds the pure-Python engine only).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.plan import TilingPlan
from repro.fdfd.specs import E_COMPONENTS, H_COMPONENTS
from repro.machine import (
    BatchComponentStreamEmitter,
    BatchLRU,
    BatchStreamEmitter,
    ComponentStreamEmitter,
    LRUCache,
    PerfRegion,
    StreamEmitter,
    measure_sweep_code_balance,
    measure_tiled_code_balance,
)
from repro.machine.measure import _interleave_band, _sweep_rows
from repro.machine.native import MAX_KEY_SPACE, NativeLRU, native_available
from repro.machine.spec import HASWELL_EP
from repro.machine.streams import ShapeTable

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: Chunk size as a function of key -- constant per chunk kind, like the
#: real emitters (one size per array group).
def _size_of(key: int) -> int:
    return 64 * (1 + key % 3)


def _stats_tuple(cache):
    s = cache.stats
    return (
        s.read_hits,
        s.read_misses,
        s.write_hits,
        s.write_misses,
        s.writebacks,
        s.mem_read_bytes,
        s.mem_write_bytes,
    )


def _lru_keys(cache):
    """Resident keys in LRU -> MRU order, any engine."""
    if isinstance(cache, (LRUCache, BatchLRU)):
        return list(cache._entries)
    return cache.keys_lru_to_mru()


def _fast_engines(capacity: float, key_space: int):
    engines = [BatchLRU(capacity)]
    if native_available() and key_space <= MAX_KEY_SPACE:
        engines.append(NativeLRU(capacity, key_space))
    return engines


def _assert_same_state(cache, oracle):
    assert _stats_tuple(cache) == _stats_tuple(oracle), type(cache).__name__
    assert cache.used_bytes == oracle.used_bytes
    assert len(cache) == len(oracle)
    assert _lru_keys(cache) == _lru_keys(oracle)


# ---------------------------------------------------------------------------
# Random access streams
# ---------------------------------------------------------------------------


@given(
    accesses=st.lists(
        st.tuples(st.integers(0, 40), st.booleans()), min_size=1, max_size=300
    ),
    capacity_chunks=st.integers(min_value=1, max_value=30),
    epoch_at=st.integers(min_value=0, max_value=300),
)
@settings(max_examples=60, **COMMON)
def test_engines_match_reference_on_random_streams(
    accesses, capacity_chunks, epoch_at
):
    """Per-access replay through every engine produces byte-identical
    CacheStats, occupancy and recency order -- across a reset_stats epoch
    and a final flush, exactly as the measurement campaigns use them."""
    capacity = capacity_chunks * 64
    oracle = LRUCache(capacity)
    engines = _fast_engines(capacity, key_space=41)

    def run(cache):
        for i, (key, write) in enumerate(accesses):
            if i == epoch_at:
                cache.reset_stats()
            cache.access(key, _size_of(key), write)

    run(oracle)
    for cache in engines:
        run(cache)
        _assert_same_state(cache, oracle)

    oracle.flush()
    for cache in engines:
        cache.flush()
        _assert_same_state(cache, oracle)


@given(
    segs=st.lists(
        st.tuples(
            st.integers(0, 3),  # prebase plane
            st.booleans(),
            st.lists(st.integers(0, 15), min_size=1, max_size=20),
        ),
        min_size=1,
        max_size=30,
    ),
    base=st.integers(0, 4),
    capacity_chunks=st.integers(min_value=1, max_value=24),
)
@settings(max_examples=60, **COMMON)
def test_segment_replay_matches_per_access(segs, base, capacity_chunks):
    """``replay(segments, base)`` is access-for-access identical to the
    reference loop over ``prebase + base + rel`` keys."""
    capacity = capacity_chunks * 64
    segments = [
        (plane * 16, _size_of(plane), write, rel) for plane, write, rel in segs
    ]
    oracle = LRUCache(capacity)
    for prebase, size, write, rel in segments:
        for r in rel:
            oracle.access(prebase + base + r, size, write)

    for cache in _fast_engines(capacity, key_space=4 * 16 + 4 + 16):
        n = cache.replay(cache.prepare(segments), base=base)
        assert n == sum(len(r) for _, _, _, r in segments)
        _assert_same_state(cache, oracle)


@given(
    table=st.lists(
        st.tuples(
            st.integers(0, 3),
            st.booleans(),
            st.lists(st.integers(0, 15), min_size=1, max_size=12),
        ),
        min_size=1,
        max_size=8,
    ),
    jobs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=20),
    capacity_chunks=st.integers(min_value=1, max_value=24),
)
@settings(max_examples=60, **COMMON)
def test_job_table_replay_matches_per_job(table, jobs, capacity_chunks):
    """A whole job schedule over the shared segment table (`replay_jobs`,
    one engine call for many jobs) equals replaying each job's table run
    access by access -- including empty runs and runs that straddle
    shapes."""
    capacity = capacity_chunks * 64
    # Groups 32 keys apart: a key (base + rel <= 30) belongs to one group,
    # so its chunk size is constant, as with the real emitters.
    group_base = np.arange(4, dtype=np.int64) * 32
    group_size = np.array([_size_of(g) for g in range(4)], dtype=np.int64)
    shapes = ShapeTable()
    for i, (group, write, rel) in enumerate(table):
        shapes.add_shape(("shape", i), [(group, write, np.array(rel, dtype=np.int64))])
    n_seg = shapes.n_segments
    assert n_seg == len(table)
    # Each job covers a random contiguous run of the table at a base.
    runs = [sorted((a % (n_seg + 1), b % (n_seg + 1))) for a, b in jobs]
    bases = [(a * 7 + b) % 16 for a, b in jobs]

    oracle = LRUCache(capacity)
    for (lo, hi), base in zip(runs, bases):
        for group, write, rel in table[lo:hi]:
            for r in rel:
                oracle.access(group * 32 + base + r, _size_of(group), write)

    for cache in _fast_engines(capacity, key_space=4 * 32):
        n = cache.replay_jobs(
            shapes, group_base, group_size,
            np.array([lo for lo, _ in runs], dtype=np.int64),
            np.array([hi for _, hi in runs], dtype=np.int64),
            np.array(bases, dtype=np.int64),
        )
        assert n == sum(len(t[2]) for lo, hi in runs for t in table[lo:hi])
        _assert_same_state(cache, oracle)


def test_shape_table_growth_keeps_earlier_views_valid():
    """Appending past the initial buffers moves the flat arrays; a view
    taken before still reads every entry it covered, and entries keep
    their indices."""
    shapes = ShapeTable()
    first = shapes.add_shape("a", [(0, False, np.arange(5, dtype=np.int64))])
    view = shapes.arrays()
    for i in range(3000):  # > 1024 segments and > 16384 keys
        shapes.add_shape(("b", i), [(1, True, np.arange(8, dtype=np.int64) + i)])
    assert shapes.arrays()[0] is not view[0]
    assert shapes.add_shape("a", []) == first == (0, 1, 5)
    rel, start, group, write = shapes.arrays()
    for arrays in (view, (rel, start, group, write)):
        assert arrays[0][arrays[1][0] : arrays[1][1]].tolist() == [0, 1, 2, 3, 4]
    lo, hi, n = shapes.shapes[("b", 2999)]
    assert (hi - lo, n) == (1, 8)
    assert rel[start[lo] : start[hi]].tolist() == list(range(2999, 3007))
    assert shapes.python_segments([(lo, hi)])[lo] == (1, True, list(range(2999, 3007)))
    assert shapes.nbytes > 3000 * 8 * 8


# ---------------------------------------------------------------------------
# Full schedules: randomized tiling plans through the real emitters
# ---------------------------------------------------------------------------


def _random_plan(draw_dw, draw_k, draw_nz, draw_bz, draw_steps):
    ny = draw_dw * draw_k
    return TilingPlan.build(
        ny=ny, nz=draw_nz, timesteps=draw_steps, dw=draw_dw, bz=draw_bz
    )


@given(
    dw=st.sampled_from((2, 4, 6)),
    k=st.integers(min_value=1, max_value=3),
    nz=st.integers(min_value=2, max_value=12),
    bz=st.integers(min_value=1, max_value=4),
    steps=st.integers(min_value=1, max_value=6),
    capacity_rows=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=25, **COMMON)
def test_tiled_plan_streams_identical_across_engines(
    dw, k, nz, bz, steps, capacity_rows
):
    """Every band of a randomized TilingPlan replayed through the batched
    emitters yields the same CacheStats and LUP count as the reference
    per-access emitter -- memoization, tile-congruence caching and the
    native job batch included."""
    plan = _random_plan(dw, k, nz, bz, steps)
    nx = 5
    capacity = capacity_rows * 16 * nx  # a few rows' worth

    ref_cache = LRUCache(capacity)
    ref = StreamEmitter(ref_cache, ny=plan.ny, nz=plan.nz, nx=nx)
    for band in plan.bands:
        ref.emit_jobs(_interleave_band(plan, band))

    key_space = BatchStreamEmitter.key_space(plan.ny, plan.nz)
    for cache in _fast_engines(capacity, key_space):
        em = BatchStreamEmitter(cache, ny=plan.ny, nz=plan.nz, nx=nx)
        for band in plan.bands:
            em.emit_tiles_interleaved(plan.band_tiles(band), plan.bz)
        assert _stats_tuple(cache) == _stats_tuple(ref_cache), type(cache).__name__
        assert em.cells == ref.cells
        assert em.lups == ref.lups


@given(
    dw=st.sampled_from((2, 4)),
    k=st.integers(min_value=1, max_value=3),
    nz=st.integers(min_value=2, max_value=10),
    bz=st.integers(min_value=1, max_value=3),
    steps=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=25, **COMMON)
def test_memoized_streams_equal_freshly_generated(dw, k, nz, bz, steps):
    """For every job of every tile of a randomized plan, the shared-table
    stream handed to the replay engine equals the one freshly generated
    from the job -- table hits (from this or any earlier emitter, on any
    ``ny`` / ``nx``) can never alter the stream."""
    plan = _random_plan(dw, k, nz, bz, steps)
    em = BatchStreamEmitter(BatchLRU(1 << 20), ny=plan.ny, nz=plan.nz, nx=4)
    for band in plan.bands:
        for job in _interleave_band(plan, band):
            memoized, n = em.segments_for(job)  # table hit after 1st congruent job
            fresh = em.raw_segments_for(job)
            assert memoized == fresh
            assert n == sum(len(s[3]) for s in fresh)
            em.emit_job(job)


# ---------------------------------------------------------------------------
# Whole-schedule sweeps against the per-row loop they replaced
# ---------------------------------------------------------------------------


def _per_row_sweep(emitter, ny, nz, timesteps, block_y, threads):
    """The baseline sweep as nested generators, one emitter call per row:
    the loop `_sweep_rows` + `emit_rows` replaced, kept as their oracle."""
    slab = -(-ny // threads)
    slabs = [(t * slab, min((t + 1) * slab, ny)) for t in range(threads)]
    slabs = [s for s in slabs if s[0] < s[1]]

    def slab_steps(y0, y1):
        if block_y is None:
            for z in range(nz):
                yield (y0, y1, z)
        else:
            for yb in range(y0, y1, block_y):
                for z in range(nz):
                    yield (yb, min(yb + block_y, y1), z)

    for _ in range(timesteps):
        for comp in tuple(H_COMPONENTS) + tuple(E_COMPONENTS):
            streams = [slab_steps(y0, y1) for y0, y1 in slabs]
            while streams:
                alive = []
                for stream in streams:
                    item = next(stream, None)
                    if item is not None:
                        emitter.emit_component_rows(comp, item[0], item[1],
                                                    item[2], item[2] + 1)
                        alive.append(stream)
                streams = alive


@given(
    ny=st.integers(min_value=1, max_value=20),
    nz=st.integers(min_value=1, max_value=5),
    block_y=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    threads=st.integers(min_value=1, max_value=6),
    timesteps=st.integers(min_value=2, max_value=3),
    capacity_rows=st.integers(min_value=1, max_value=400),
)
@settings(max_examples=40, **COMMON)
def test_whole_schedule_sweep_matches_per_row_reference(
    ny, nz, block_y, threads, timesteps, capacity_rows
):
    """Warm-up step + measured steps replayed as two whole schedules give
    the same CacheStats, PerfSample and final recency order as the
    per-row loop, on the reference, batch and native engines."""
    nx = 3
    capacity = capacity_rows * 16 * nx

    def measure(cache, emitter, emit):
        emit(emitter, 1)
        cache.reset_stats()
        region = PerfRegion("sweep")
        with region(cache, emitter):
            emit(emitter, timesteps - 1)
        return region.sample

    oracle = LRUCache(capacity)
    want = measure(
        oracle, ComponentStreamEmitter(oracle, ny=ny, nz=nz, nx=nx),
        lambda em, steps: _per_row_sweep(em, ny, nz, steps, block_y, threads),
    )
    assert want.cells == (timesteps - 1) * 12 * ny * nz

    rows = _sweep_rows(ny, nz, block_y, threads)
    key_space = BatchComponentStreamEmitter.key_space(ny, nz)
    engines = [(LRUCache(capacity), ComponentStreamEmitter)]
    engines += [(c, BatchComponentStreamEmitter)
                for c in _fast_engines(capacity, key_space)]
    for cache, emitter_cls in engines:
        got = measure(
            cache, emitter_cls(cache, ny=ny, nz=nz, nx=nx),
            lambda em, steps: em.emit_rows(*rows, repeat=steps),
        )
        assert got == want, type(cache).__name__
        _assert_same_state(cache, oracle)


# ---------------------------------------------------------------------------
# Measurement campaigns on paper-like configurations
# ---------------------------------------------------------------------------

FIG_TILED_CONFIGS = [
    # (nx, dw, bz, n_streams) -- Fig. 5/6-style MWD points.
    (384, 8, 4, 5),
    (384, 16, 2, 3),
    (960, 4, 6, 10),
    (384, 4, 1, 18),  # 1WD-style: one tile stream per thread
]

FIG_SWEEP_CONFIGS = [
    # (nx, ny, block_y, threads)
    (384, 400, None, 1),
    (384, 400, 16, 4),
]


@pytest.mark.parametrize("nx,dw,bz,n_streams", FIG_TILED_CONFIGS)
def test_measure_tiled_engines_agree(nx, dw, bz, n_streams):
    ref = measure_tiled_code_balance(
        HASWELL_EP, nx=nx, dw=dw, bz=bz, n_streams=n_streams, engine="reference"
    )
    for eng in ("batch", "native"):
        got = measure_tiled_code_balance(
            HASWELL_EP, nx=nx, dw=dw, bz=bz, n_streams=n_streams, engine=eng
        )
        assert got == ref, eng


@pytest.mark.parametrize("nx,ny,block_y,threads", FIG_SWEEP_CONFIGS)
def test_measure_sweep_engines_agree(nx, ny, block_y, threads):
    ref = measure_sweep_code_balance(
        HASWELL_EP, nx=nx, ny=ny, block_y=block_y, threads=threads, engine="reference"
    )
    for eng in ("batch", "native"):
        got = measure_sweep_code_balance(
            HASWELL_EP, nx=nx, ny=ny, block_y=block_y, threads=threads, engine=eng
        )
        assert got == ref, eng
