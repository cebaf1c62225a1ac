"""Equivalence property tests for the batched replay engines.

The performance substrate has three engines that must agree (see
:mod:`repro.machine.measure`): the reference per-access ``LRUCache``
loop, the pure-Python ``BatchLRU`` segment replay, and the compiled
``NativeLRU`` kernel -- the last two under the batched emitter, whichever
the host has.  Every measured number in the figures flows through one of
them, so the contract is *byte-identical* ``CacheStats``, ``PerfSample``
and LRU -> MRU order on any access sequence -- which hypothesis asserts
here, on random streams, random segment batches, full randomized tiling
plans and whole sweep schedules, alongside the shared-shape-table
invariants and the band order itself.

The whole file must also pass under ``REPRO_NO_NATIVE=1`` (the fast
engine list then holds the pure-Python engine only).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import REPLAY_ENGINES, front_stepping_jobs
from repro.core.plan import TilingPlan
from repro.core.wavefront import RowJob
from repro.fdfd.specs import E_COMPONENTS, H_COMPONENTS
from repro.machine import (
    FUSED,
    PER_COMPONENT,
    BatchLRU,
    BatchStreamEmitter,
    LRUCache,
    PMU,
    PerfRegion,
    StreamEmitter,
    measure,
    measure_sweep_code_balance,
    measure_tiled_code_balance,
)
from repro.machine.measure import _band_rows, _sweep_rows
from repro.machine.native import MAX_KEY_SPACE, NativeLRU, native_available
from repro.machine.spec import HASWELL_EP
from repro.machine.streams import (
    SWEEP_COMPONENTS,
    ShapeTable,
    _clipped_segments,
    clear_shape_table,
    shape_codes,
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
        (lo, hi, n), inserted = shapes.add_shape(("shape", i),
                                                 [(group, write, *box)])
        assert inserted and (lo, hi, n) == (i, i + 1, len(_box_keys(*box, nz)))
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
    first, inserted = shapes.add_shape("a", [(0, False, 0, 1, 0, 5)])
    assert inserted
    view = shapes.segments()
    for i in range(3000):
        shapes.add_shape(("b", i), [(1, True, 0, 2, i, i + 4)])
    assert shapes.segments() is not view
    assert shapes.add_shape("a", []) == (first, False)
    assert first == (0, 1, 5)
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
    schedule = _schedule(plan)
    jobs = [RowJob(*row_) for row_ in np.column_stack(schedule).tolist()]
    # Below the first group's first row, or (an E job reads the last group,
    # its coefficients) above the last group's last row.
    k = next(k for k, j in enumerate(jobs) if (j.y_lo == 0 if row < 0 else
                                               j.tau & 1 and j.y_hi == ny))
    key_space = BatchStreamEmitter.key_space(ny, nz)
    for cache in _fast_engines(1 << 12, key_space):
        em = BatchStreamEmitter(cache, ny=ny, nz=nz, nx=4)
        em.emit_rows(*schedule)
        before = (_stats_tuple(cache), cache.used_bytes, _lru_keys(cache))
        table = shape_table()
        lo, hi, *_ = em._runs(table, *(a[[0, k]] for a in schedule))
        base = np.array([0, jobs[k].y_lo * nz + jobs[k].z_lo], dtype=np.int64)
        base[1] += row * nz
        args = (table, em._group_base, em._group_size, nz, lo, hi)
        with pytest.raises(ValueError, match=r"job 1 .*segment \d+"):
            cache.replay_jobs(*args, base)
        with pytest.raises(ValueError, match=r"segment \d+"):
            cache.replay(cache.prepare(em.raw_segments_for(jobs[k])),
                         base=int(base[1]))
        assert (_stats_tuple(cache), cache.used_bytes, _lru_keys(cache)) == before
        base[1] -= row * nz
        cache.replay_jobs(*args, base)  # back inside: replays
        assert _stats_tuple(cache) != before[0]


# ---------------------------------------------------------------------------
# Full schedules: randomized tiling plans through the real emitters
# ---------------------------------------------------------------------------


def _interleave_band(plan, band):
    """The band order as nested generators, round-robin over the tiles'
    front-stepping oracles: the oracle of ``measure._band_rows``."""
    streams = [front_stepping_jobs(t, plan.nz, plan.bz)
               for t in plan.band_tiles(band)]
    while streams:
        alive = []
        for stream in streams:
            job = next(stream, None)
            if job is not None:
                yield job
                alive.append(stream)
        streams = alive


def _schedule(plan):
    """Every band of a plan as one row schedule, band after band."""
    bands = [_band_rows(plan, band) for band in plan.bands]
    return tuple(np.concatenate(column) for column in zip(*bands))


def _random_plan(draw_dw, draw_k, draw_nz, draw_bz, draw_steps):
    ny = draw_dw * draw_k
    return TilingPlan.build(
        ny=ny, nz=draw_nz, timesteps=draw_steps, dw=draw_dw, bz=draw_bz
    )


@given(
    dw=st.sampled_from((2, 4, 6, 8)),
    n_streams=st.integers(min_value=1, max_value=4),
    ny_offset=st.integers(min_value=-7, max_value=7),
    nz=st.integers(min_value=1, max_value=30),
    bz=st.integers(min_value=1, max_value=9),
    steps=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, **COMMON)
def test_band_rows_equal_the_interleaved_generators(dw, n_streams, ny_offset,
                                                    nz, bz, steps):
    """``_band_rows`` -- each tile through the memoized ``tile_rows``, the
    tiles interleaved by ``round_robin``, ``tau & 1`` as the recipe -- is
    the round-robin over the tiles' front-stepping oracles, row for row,
    on every band:
    clipped tiles at both y edges (``ny`` off a multiple of ``dw``) and at
    the first and last time step, ``nz < bz`` and ``nz % bz != 0``."""
    ny = max(1, n_streams * dw + ny_offset)
    plan = TilingPlan.build(ny=ny, nz=nz, timesteps=steps, dw=dw, bz=bz)
    for band in plan.bands:
        rows = _band_rows(plan, band)
        assert all(a.dtype == np.int64 for a in rows)
        assert np.column_stack(rows).tolist() == [
            [j.tau & 1, j.y_lo, j.y_hi, j.z_lo, j.z_hi]
            for j in _interleave_band(plan, band)]


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
    emitter yields the same CacheStats, LUP count and LRU -> MRU order as
    the reference per-access emitter -- the shared shape table and the
    native job batch included."""
    plan = _random_plan(dw, k, nz, bz, steps)
    nx = 5
    capacity = capacity_rows * 16 * nx  # a few rows' worth
    bands = [_band_rows(plan, band) for band in plan.bands]

    ref_cache = LRUCache(capacity)
    ref = StreamEmitter(ref_cache, ny=plan.ny, nz=plan.nz, nx=nx)
    for rows in bands:
        ref.emit_rows(*rows)

    key_space = BatchStreamEmitter.key_space(plan.ny, plan.nz)
    for cache in _fast_engines(capacity, key_space):
        em = BatchStreamEmitter(cache, ny=plan.ny, nz=plan.nz, nx=nx)
        for rows in bands:
            em.emit_rows(*rows)
        _assert_same_state(cache, ref_cache)
        assert em.cells == ref.cells
        assert em.lups == ref.lups


@given(
    dw=st.sampled_from((2, 4)),
    k=st.integers(min_value=1, max_value=3),
    nz=st.integers(min_value=2, max_value=12),
    other_nz=st.integers(min_value=2, max_value=12),
    bz=st.integers(min_value=1, max_value=4),
    steps=st.integers(min_value=1, max_value=5),
    capacity_rows=st.integers(min_value=1, max_value=64),
)
@example(dw=4, k=2, nz=12, other_nz=9, bz=3, steps=4, capacity_rows=20)
@settings(max_examples=25, **COMMON)
def test_a_shape_class_replays_alike_at_another_nz(
    dw, k, nz, other_nz, bz, steps, capacity_rows
):
    """Shape classes are keyed without ``nz``: a plan at ``other_nz``
    replayed after one at ``nz`` is handed the classes the first one
    built, and replays access for access as the reference emitter does
    at ``other_nz`` -- on every engine, the pure-Python engine's key
    lists (materialized per ``nz``) included."""
    plan, other = (_random_plan(dw, k, n, bz, steps) for n in (nz, other_nz))
    nx = 5
    capacity = capacity_rows * 16 * nx
    rows, other_rows = _schedule(plan), _schedule(other)
    ref_cache = LRUCache(capacity)
    ref = StreamEmitter(ref_cache, ny=other.ny, nz=other_nz, nx=nx)
    ref.emit_rows(*other_rows)

    clear_shape_table()
    built = None  # the classes the plan at ``nz`` built
    key_space = BatchStreamEmitter.key_space
    for first, cache in zip(_fast_engines(capacity, key_space(plan.ny, nz)),
                            _fast_engines(capacity, key_space(other.ny, other_nz))):
        BatchStreamEmitter(first, ny=plan.ny, nz=nz, nx=nx).emit_rows(*rows)
        if built is None:
            built = set(shape_table().shapes)
        em = BatchStreamEmitter(cache, ny=other.ny, nz=other_nz, nx=nx)
        em.emit_rows(*other_rows)
        _assert_same_state(cache, ref_cache)
        assert em.cells == ref.cells
    shared = built & {("fused", code) for code in shape_codes(
        *other_rows, other.ny, other_nz).tolist()}
    if min(nz, other_nz) >= 3 * bz:  # both have rows off the z edges
        assert shared


@given(
    dw=st.sampled_from((2, 4)),
    k=st.integers(min_value=1, max_value=3),
    nz=st.integers(min_value=2, max_value=10),
    bz=st.integers(min_value=1, max_value=3),
    steps=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=25, **COMMON)
def test_memoized_streams_equal_freshly_generated(dw, k, nz, bz, steps):
    """For every row of every band of a randomized plan, the shared-table
    stream the replay engine is handed equals the one freshly generated
    from the row -- table hits (from this or any earlier emitter, on any
    ``ny`` / ``nx``) can never alter the stream."""
    plan = _random_plan(dw, k, nz, bz, steps)
    em = BatchStreamEmitter(BatchLRU(1 << 20), ny=plan.ny, nz=plan.nz, nx=4)
    plane = plan.ny * plan.nz
    table = shape_table()
    for band in plan.bands:
        rows = _band_rows(plan, band)
        lo, hi, n, _ = em._runs(table, *rows)
        py = table.python_segments(set(zip(lo.tolist(), hi.tolist())), plan.nz)
        fresh = [em.raw_segments_for(RowJob(*row))
                 for row in np.column_stack(rows).tolist()]
        assert n == sum(len(seg[3]) for segs in fresh for seg in segs)
        for a, b, want in zip(lo.tolist(), hi.tolist(), fresh):
            memoized = [(g * plane, em._row_bytes[g], w, rel)
                        for g, w, rel in py[a:b]]
            assert memoized == want
        em.emit_rows(*rows)


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
    are key for key the nested loops of the reference emitter, on both
    layouts."""
    ny, nz, y_lo, y_hi, z_lo, z_hi = case
    nx = 3

    for layout, recipe in ((FUSED, "HE".index(field)),
                           (PER_COMPONENT, SWEEP_COMPONENTS.index(comp))):
        ref = StreamEmitter(_Recorder(), ny=ny, nz=nz, nx=nx, layout=layout)
        ref.emit_rows([recipe], [y_lo], [y_hi], [z_lo], [z_hi])
        boxes = _clipped_segments(layout.recipes[recipe], y_lo, y_hi,
                                  z_lo, z_hi, ny, nz)
        assert all(ry0 < ry1 and rz0 < rz1 for _, _, ry0, ry1, rz0, rz1 in boxes)
        assert ref.cache.log == [
            (gid * ny * nz + y_lo * nz + z_lo + r, ref._row_bytes[gid], write)
            for gid, write, *box in boxes for r in _box_keys(*box, nz)]
        if layout is FUSED and y_hi - y_lo == 1 and ny > 1 \
                and y_lo == (ny - 1 if field == "H" else 0):
            assert len(boxes) < len(layout.recipes[recipe])  # dy = +-1 clipped


# ---------------------------------------------------------------------------
# Whole-schedule sweeps against the per-row loop they replaced
# ---------------------------------------------------------------------------


def _per_row_sweep(emitter, ny, nz, timesteps, block_y, threads):
    """The baseline sweep as nested generators, one emitter call per row:
    the loop `_sweep_rows` + one `emit_rows` replaced, kept as their
    oracle."""
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
        for comp in range(len(H_COMPONENTS) + len(E_COMPONENTS)):
            streams = [slab_steps(y0, y1) for y0, y1 in slabs]
            while streams:
                alive = []
                for stream in streams:
                    item = next(stream, None)
                    if item is not None:
                        emitter.emit_rows([comp], [item[0]], [item[1]],
                                          [item[2]], [item[2] + 1])
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
        oracle, StreamEmitter(oracle, ny=ny, nz=nz, nx=nx, layout=PER_COMPONENT),
        lambda em, steps: _per_row_sweep(em, ny, nz, steps, block_y, threads),
    )
    assert want.cells == (timesteps - 1) * 12 * ny * nz

    rows = _sweep_rows(ny, nz, block_y, threads)
    key_space = PER_COMPONENT.key_space(ny, nz)
    engines = [(LRUCache(capacity), StreamEmitter)]
    engines += [(c, BatchStreamEmitter)
                for c in _fast_engines(capacity, key_space)]
    for cache, emitter_cls in engines:
        got = measure(
            cache, emitter_cls(cache, ny=ny, nz=nz, nx=nx, layout=PER_COMPONENT),
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

CAPACITY = HASWELL_EP.usable_l3_bytes


@pytest.mark.parametrize("nx,dw,bz,n_streams", FIG_TILED_CONFIGS)
def test_measure_tiled_engines_agree(nx, dw, bz, n_streams):
    got = {name: measure._measure_tiled(make, CAPACITY, nx, dw, bz, n_streams,
                                        None, 2)
           for name, make in REPLAY_ENGINES.items()}
    for name in ("batch", "native"):
        assert got[name] == got["reference"], name
    assert measure_tiled_code_balance(
        HASWELL_EP, nx=nx, dw=dw, bz=bz, n_streams=n_streams) == got["reference"]


@pytest.mark.parametrize("nx,ny,block_y,threads", FIG_SWEEP_CONFIGS)
def test_measure_sweep_engines_agree(nx, ny, block_y, threads):
    got = {name: measure._measure_sweep(make, CAPACITY, nx, ny, block_y,
                                        threads, 12, 3)
           for name, make in REPLAY_ENGINES.items()}
    for name in ("batch", "native"):
        assert got[name] == got["reference"], name
    assert measure_sweep_code_balance(
        HASWELL_EP, nx=nx, ny=ny, block_y=block_y, threads=threads
    ) == got["reference"]


def _full_replay(cache, emitter, rows, repeat):
    """What ``measure._emit_until_steady`` stands in for: every repetition
    replayed."""
    emitter.emit_rows(*rows, repeat=repeat)


def _counting(make, repeats):
    """``make``, with every repetition its emitters replay appended to
    ``repeats`` (as the ``repeat`` of a non-empty ``emit_rows``)."""
    def counted(*args):
        cache, emitter = make(*args)
        emit = emitter.emit_rows

        def emit_rows(*rows, repeat=1):
            if len(rows[0]):
                repeats.append(repeat)
            emit(*rows, repeat=repeat)

        emitter.emit_rows = emit_rows
        return cache, emitter
    return counted


def _measured(measurement, *args, full=False):
    """``measurement(*args)`` (a ``measure._measure_*`` or ``measure._replay``
    body) and the ``GLOBAL_PMU`` it fed; ``full``: with every repetition
    replayed."""
    pmu = PMU()
    emit = _full_replay if full else measure._emit_until_steady
    with mock.patch.object(measure, "GLOBAL_PMU", pmu), \
            mock.patch.object(measure, "_emit_until_steady", emit):
        result = measurement(*args)
    return result, pmu.to_json()


@given(
    ny=st.integers(min_value=1, max_value=20),
    nz=st.integers(min_value=1, max_value=5),
    block_y=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    threads=st.integers(min_value=1, max_value=6),
    timesteps=st.integers(min_value=2, max_value=4),
    # Up to 400 rows spill; from 4,000 (40 arrays x 20 x 5) the domain fits.
    capacity_rows=st.integers(1, 400) | st.integers(4000, 5000),
)
@example(ny=20, nz=5, block_y=4, threads=3, timesteps=3, capacity_rows=4000)
@settings(max_examples=40, **COMMON)
def test_a_sweep_stopped_at_the_steady_state_equals_the_full_replay(
    ny, nz, block_y, threads, timesteps, capacity_rows
):
    """A sweep measurement that stops once a measured step leaves the
    cache as it found it gives the TrafficResult (PerfSample and cells
    included) and the PMU sample of the replay of every step, on the
    reference, batch and native engines -- domains that spill and
    domains that fit in the cache."""
    nx = 3
    args = (16 * nx * capacity_rows, nx, ny, block_y, threads, nz, timesteps)
    for name, make in REPLAY_ENGINES.items():
        assert (_measured(measure._measure_sweep, make, *args)
                == _measured(measure._measure_sweep, make, *args, full=True)), name


#: The sweeps a cold pass over the pinned figure points measures:
#: ``tune_spatial``'s five block sizes at Fig. 6 (384^3 at 1, 9 and 18
#: threads), Fig. 7 (256^3 at 18) and the held-back point (352^3 at 12).
PINNED_SWEEPS = [(grid, threads, block_y)
                 for grid, threads in ((384, 1), (384, 9), (384, 18),
                                       (256, 18), (352, 12))
                 for block_y in (4, 8, 16, 32, 64)]


@pytest.mark.parametrize("grid,threads,block_y", PINNED_SWEEPS)
def test_a_pinned_sweep_stops_after_one_measured_step(grid, threads, block_y):
    """Every pinned sweep is periodic after the warm-up step: on the host's
    engine it replays the warm-up and one measured step, and its result is
    the full replay's."""
    repeats = []
    args = (_counting(measure._host_emitter, repeats), CAPACITY, grid, grid,
            block_y, threads, 12, 3)
    steady = _measured(measure._measure_sweep, *args)
    assert repeats == [1, 1]
    assert steady == _measured(measure._measure_sweep, *args, full=True)


def test_a_state_that_still_moves_replays_in_full():
    """Measured from a cold cache (no warm-up), the first repetition ends
    in a state other than the one it began in, so every repetition is
    replayed -- and the result is the full replay's, on every engine."""
    ny, nz, nx = 8, 3, 3
    rows = _sweep_rows(ny, nz, 2, 2)
    cold = tuple(a[:0] for a in rows)
    for name, make in REPLAY_ENGINES.items():
        repeats = []
        args = (_counting(make, repeats), PER_COMPONENT, 16 * nx * 50, ny, nz,
                nx, "measure.sweep", "cold", {}, lambda: (cold, rows, 3))
        got = _measured(measure._replay, *args)
        assert repeats == [1, 2], name
        assert got == _measured(measure._replay, *args, full=True), name


@pytest.mark.parametrize("case", [
    dict(sweep=True, block_y=None, timesteps=1),
    dict(sweep=True, block_y=-4),
    dict(sweep=True, block_y=0),
    dict(sweep=False, measure_bands=0),
], ids=["one-sweep-step", "negative-block", "zero-block", "no-measured-band"])
def test_degenerate_measurement_is_refused(case):
    """A window with nothing measured used to come back as 0 bytes over 0
    LUPs at hit rate 1.0 (and ``block_y=0`` as the naive sweep): each is
    an error now."""
    case = dict(case)
    if case.pop("sweep"):
        call = measure_sweep_code_balance
        case.update(nx=64, ny=64)
    else:
        call = measure_tiled_code_balance
        case.update(nx=64, dw=4, bz=2, n_streams=1)
    with pytest.raises(ValueError):
        call(HASWELL_EP, **case)
