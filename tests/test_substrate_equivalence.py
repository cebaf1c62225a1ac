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
from hypothesis import HealthCheck, example, given, settings
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
from repro.core.wavefront import RowJob
from repro.machine.streams import (
    CLASS_RECIPES,
    COMPONENT_RECIPES,
    SWEEP_COMPONENTS,
    ShapeTable,
    _clipped_segments,
    shape_table,
)

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
    engines = [BatchLRU(capacity, key_space)]
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


#: A table rectangle: (ry0, height, rz0, width) with the -1 offsets the
#: recipes' shifted reads produce.
_BOXES = st.tuples(st.integers(-1, 2), st.integers(1, 3),
                   st.integers(-1, 3), st.integers(1, 4))


def _box_keys(ry0, ry1, rz0, rz1, nz):
    """A rectangle's relative keys in the reference emitters' loop order."""
    return [ry * nz + rz for ry in range(ry0, ry1) for rz in range(rz0, rz1)]


@given(
    table=st.lists(st.tuples(st.integers(0, 3), st.booleans(), _BOXES),
                   min_size=1, max_size=8),
    jobs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=20),
    nz=st.integers(4, 6),
    capacity_chunks=st.integers(min_value=1, max_value=24),
)
@settings(max_examples=60, **COMMON)
def test_job_table_replay_matches_per_job(table, jobs, nz, capacity_chunks):
    """A whole job schedule over the shared segment table (`replay_jobs`,
    one engine call for many jobs) equals replaying each job's table run
    access by access, every rectangle walked y-major -- including empty
    runs and runs that straddle shapes."""
    capacity = capacity_chunks * 64
    table = [(group, write, (ry0, ry0 + dy, rz0, rz0 + dz))
             for group, write, (ry0, dy, rz0, dz) in table]
    # Groups 64 keys apart and bases in [nz + 1, nz + 17): a key (base + rel,
    # rel in [-nz - 1, 4 nz + 5]) belongs to one group, so its chunk size
    # is constant, as with the real emitters.
    group_base = np.arange(4, dtype=np.int64) * 64
    group_size = np.array([_size_of(g) for g in range(4)], dtype=np.int64)
    shapes = ShapeTable()
    for i, (group, write, box) in enumerate(table):
        lo, hi, n = shapes.add_shape(("shape", i), [(group, write, *box)])
        assert (lo, hi, n) == (i, i + 1, len(_box_keys(*box, nz)))
    n_seg = shapes.n_segments
    assert n_seg == len(table)
    # Each job covers a random contiguous run of the table at a base.
    runs = [sorted((a % (n_seg + 1), b % (n_seg + 1))) for a, b in jobs]
    bases = [nz + 1 + (a * 7 + b) % 16 for a, b in jobs]

    oracle = LRUCache(capacity)
    for (lo, hi), base in zip(runs, bases):
        for group, write, box in table[lo:hi]:
            for r in _box_keys(*box, nz):
                oracle.access(group * 64 + base + r, _size_of(group), write)

    for cache in _fast_engines(capacity, key_space=4 * 64):
        n = cache.replay_jobs(
            shapes, group_base, group_size, nz,
            np.array([lo for lo, _ in runs], dtype=np.int64),
            np.array([hi for _, hi in runs], dtype=np.int64),
            np.array(bases, dtype=np.int64),
        )
        assert n == sum(len(_box_keys(*t[2], nz))
                        for lo, hi in runs for t in table[lo:hi])
        _assert_same_state(cache, oracle)


def test_shape_table_growth_keeps_earlier_views_valid():
    """Appending past the initial 1,024 segment rows moves them to a larger
    buffer; a view taken before still reads every entry it covered, and
    entries keep their indices, in the table and in a replay."""
    shapes = ShapeTable()
    first = shapes.add_shape("a", [(0, False, 0, 1, 0, 5)])
    view = shapes.segments()
    for i in range(3000):
        shapes.add_shape(("b", i), [(1, True, 0, 2, i, i + 4)])
    assert shapes.segments() is not view
    assert shapes.add_shape("a", []) == first == (0, 1, 5)
    for seg in (view, shapes.segments()):
        assert seg[0].tolist() == [0, 0, 0, 1, 0, 5]
    lo, hi, n = shapes.shapes[("b", 2999)]
    assert (lo, hi, n) == (3000, 3001, 8)
    assert shapes.segments()[lo].tolist() == [1, 1, 0, 2, 2999, 3003]
    nz = 4000
    keys = list(range(2999, 3003)) + list(range(nz + 2999, nz + 3003))
    assert shapes.python_segments([(lo, hi)], nz)[lo] == (1, True, keys)
    assert shapes.nbytes >= 3001 * 6 * 8
    # ... and a job over the last shape replays those very keys.
    for cache in _fast_engines(1 << 20, key_space=3 * nz):
        n = cache.replay_jobs(
            shapes, np.array([0, nz], dtype=np.int64),
            np.array([64, 64], dtype=np.int64), nz,
            *(np.array([v], dtype=np.int64) for v in (lo, hi, 7)))
        assert n == 8
        assert _lru_keys(cache) == [nz + 7 + k for k in keys]
        assert cache.stats.write_misses == 8


@pytest.mark.parametrize("row", (-1, 1), ids=("below", "above"))
def test_out_of_range_replay_is_refused(row):
    """A job base one row outside the domain would write past the native
    engine's arrays: both engines raise before touching anything, naming
    the job and the segment, on the job table and on explicit keys."""
    ny, nz = 6, 5
    plan = TilingPlan.build(ny=ny, nz=nz, timesteps=2, dw=2, bz=2)
    jobs = [job for band in plan.bands for job in _interleave_band(plan, band)]
    # Below the first group's first row, or (an E job reads the last group,
    # its coefficients) above the last group's last row.
    edge = next(j for j in jobs if (j.y_lo == 0 if row < 0 else
                                    j.field == "E" and j.y_hi == ny))
    key_space = BatchStreamEmitter.key_space(ny, nz)
    for cache in _fast_engines(1 << 12, key_space):
        em = BatchStreamEmitter(cache, ny=ny, nz=nz, nx=4)
        em.emit_jobs(jobs)
        before = (_stats_tuple(cache), cache.used_bytes, _lru_keys(cache))
        table = shape_table()
        lo, hi, base, *_ = em._resolve(table, [jobs[0], edge])
        base[1] += row * nz
        with pytest.raises(ValueError, match=r"job 1 .*segment \d+"):
            em._replay(table, lo, hi, base)
        with pytest.raises(ValueError, match=r"segment \d+"):
            cache.replay(cache.prepare(em.raw_segments_for(edge)),
                         base=int(base[1]))
        assert (_stats_tuple(cache), cache.used_bytes, _lru_keys(cache)) == before
        base[1] -= row * nz
        em._replay(table, lo, hi, base)  # back inside: replays
        assert _stats_tuple(cache) != before[0]


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


class _Recorder:
    """A cache that only writes down what it is asked for."""

    def __init__(self):
        self.log = []

    def access(self, key, size, write):
        self.log.append((key, size, write))


@st.composite
def _edge_boxes(draw):
    """A domain and a box in it, drawn so that every combination of the
    four domain edges is touched often (and 1-row boxes at an edge, whose
    shifted reads clip away entirely)."""
    ny, nz = draw(st.integers(1, 6)), draw(st.integers(1, 6))

    def span(n):
        lo = draw(st.sampled_from((0, 0, n - 1)) | st.integers(0, n - 1))
        hi = draw(st.just(n) | st.integers(lo + 1, n))
        return lo, hi

    return (ny, nz) + span(ny) + span(nz)


@given(case=_edge_boxes(), field=st.sampled_from(("H", "E")),
       comp=st.sampled_from(SWEEP_COMPONENTS))
@example(case=(3, 3, 2, 3, 2, 3), field="H", comp="Hxy")  # +1 reads clip away
@example(case=(3, 3, 0, 1, 0, 1), field="E", comp="Exy")  # -1 reads clip away
@example(case=(1, 1, 0, 1, 0, 1), field="E", comp="Hzy")  # all four edges
@settings(max_examples=200, **COMMON)
def test_clipped_boxes_expand_to_reference_loops(case, field, comp):
    """`_clipped_segments`' rectangles, walked y-major at the box anchor,
    are key for key the nested loops of the reference emitters."""
    ny, nz, y_lo, y_hi, z_lo, z_hi = case
    nx = 3

    def expand(recipe, size_of):
        boxes = _clipped_segments(recipe, y_lo, y_hi, z_lo, z_hi, ny, nz)
        assert all(ry0 < ry1 and rz0 < rz1 for _, _, ry0, ry1, rz0, rz1 in boxes)
        clipped = len(recipe) - len(boxes)
        return clipped, [
            (gid * ny * nz + y_lo * nz + z_lo + r, size_of(gid), write)
            for gid, write, *box in boxes for r in _box_keys(*box, nz)]

    ref = StreamEmitter(_Recorder(), ny=ny, nz=nz, nx=nx)
    ref.emit_job(RowJob(0 if field == "H" else 1, y_lo, y_hi, z_lo, z_hi))
    clipped, keys = expand(CLASS_RECIPES[field], ref._row_bytes.__getitem__)
    assert keys == ref.cache.log
    if y_hi - y_lo == 1 and ny > 1 and y_lo == (ny - 1 if field == "H" else 0):
        assert clipped  # the dy = +-1 reads fell off the domain

    ref = ComponentStreamEmitter(_Recorder(), ny=ny, nz=nz, nx=nx)
    ref.emit_component_rows(comp, y_lo, y_hi, z_lo, z_hi)
    _, keys = expand(COMPONENT_RECIPES[comp], lambda gid: ref._row_bytes)
    assert keys == ref.cache.log


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
