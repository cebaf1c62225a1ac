"""Tests for the LRU cache simulator and the access-stream generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diamond import enumerate_tiles
from repro.core import wavefront
from repro.core.wavefront import tile_rows
from repro.machine import (
    ALL_ARRAYS,
    ARRAY_GROUPS,
    BatchStreamEmitter,
    CLASS_RECIPES,
    COMPONENT_RECIPES,
    PER_COMPONENT,
    LRUCache,
    StreamEmitter,
)
from repro.machine.streams import SWEEP_COMPONENTS, ShapeTable, _clipped_segments
from repro.fdfd.specs import ALL_COMPONENTS, SPECS

from conftest import front_stepping_jobs


def _job(em, tau, y_lo, y_hi, z_lo, z_hi):
    """Replay one row job (the fused layout's recipe is ``tau & 1``)."""
    em.emit_rows([tau & 1], [y_lo], [y_hi], [z_lo], [z_hi])


def _component(em, comp, y_lo, y_hi, z_lo, z_hi):
    """Replay one loop nest of a per-component sweep."""
    em.emit_rows([SWEEP_COMPONENTS.index(comp)], [y_lo], [y_hi], [z_lo], [z_hi])


class TestLRUCache:
    def test_miss_then_hit(self):
        c = LRUCache(1000)
        assert not c.access(1, 100, write=False)
        assert c.access(1, 100, write=False)
        assert c.stats.read_misses == 1 and c.stats.read_hits == 1
        assert c.stats.mem_read_bytes == 100

    def test_capacity_eviction_lru_order(self):
        c = LRUCache(300)
        c.access(1, 100, False)
        c.access(2, 100, False)
        c.access(3, 100, False)
        c.access(1, 100, False)  # refresh 1; LRU order now 2,3,1
        c.access(4, 100, False)  # evicts 2
        assert 2 not in c and 1 in c and 3 in c and 4 in c

    def test_write_miss_charges_no_read(self):
        c = LRUCache(1000)
        c.access(1, 100, write=True)
        assert c.stats.mem_read_bytes == 0
        assert c.stats.write_misses == 1

    def test_dirty_eviction_charges_writeback(self):
        c = LRUCache(100)
        c.access(1, 100, write=True)
        c.access(2, 100, write=False)  # evicts dirty 1
        assert c.stats.mem_write_bytes == 100
        assert c.stats.writebacks == 1

    def test_clean_eviction_free(self):
        c = LRUCache(100)
        c.access(1, 100, write=False)
        c.access(2, 100, write=False)
        assert c.stats.mem_write_bytes == 0

    def test_read_then_write_one_load_one_writeback(self):
        """The paper's own-field accounting: read + eventual write-back."""
        c = LRUCache(100)
        c.access(1, 100, write=False)
        c.access(1, 100, write=True)
        c.flush()
        assert c.stats.mem_read_bytes == 100
        assert c.stats.mem_write_bytes == 100

    def test_flush(self):
        c = LRUCache(1000)
        c.access(1, 100, True)
        c.access(2, 100, False)
        c.flush()
        assert len(c) == 0 and c.used_bytes == 0
        assert c.stats.mem_write_bytes == 100

    def test_reset_stats_keeps_contents(self):
        c = LRUCache(1000)
        c.access(1, 100, False)
        old = c.reset_stats()
        assert old.read_misses == 1
        assert c.access(1, 100, False)  # still cached
        assert c.stats.read_hits == 1 and c.stats.read_misses == 0

    def test_hit_rate(self):
        c = LRUCache(1000)
        assert c.stats.hit_rate == 1.0
        c.access(1, 10, False)
        c.access(1, 10, False)
        assert c.stats.hit_rate == 0.5

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestArrayGroups:
    def test_all_40_arrays_grouped_once(self):
        grouped = [a for g in ARRAY_GROUPS for a in g.arrays]
        assert len(grouped) == 40
        assert len(set(grouped)) == 40

    def test_eight_groups(self):
        # 6 field pairs + 2 coefficient bundles.
        assert len(ARRAY_GROUPS) == 8
        names = {g.name for g in ARRAY_GROUPS}
        assert {"Ex", "Ey", "Ez", "Hx", "Hy", "Hz", "coeffH", "coeffE"} == names

    def test_coeff_bundles_have_14_arrays(self):
        for g in ARRAY_GROUPS:
            if g.name.startswith("coeff"):
                assert len(g.arrays) == 14
            else:
                assert len(g.arrays) == 2

    def test_row_bytes(self):
        for g in ARRAY_GROUPS:
            assert g.row_bytes(nx=100) == len(g.arrays) * 16 * 100

    def test_recipes_touch_all_field_groups(self):
        for cls in ("H", "E"):
            ops = CLASS_RECIPES[cls]
            gids = {op.gid for op in ops}
            # All six field pairs + own coefficient bundle.
            assert len(gids) == 7
            writes = [op for op in ops if op.write]
            assert len(writes) == 3  # the three own-field pairs

    def test_recipe_offsets_match_dependency_directions(self):
        h_ops = CLASS_RECIPES["H"]
        # H reads E at +1 only, E reads H at -1 only.
        for op in h_ops:
            assert op.dy in (0, 1) and op.dz in (0, 1)
        for op in CLASS_RECIPES["E"]:
            assert op.dy in (0, -1) and op.dz in (0, -1)

    def test_component_recipes_sizes(self):
        # Listing-1 components touch 3 coeffs, Listing-2 touch 2; plus own
        # (read+write) and pair near/far.
        for comp in ALL_COMPONENTS:
            ops = COMPONENT_RECIPES[comp]
            n_coeff = len(SPECS[comp].coeff_names)
            has_far = SPECS[comp].deriv_axis != 2  # x shifts stay in-row
            expected = 1 + 2 + (2 if has_far else 0) + n_coeff + 1
            assert len(ops) == expected, comp

    def test_all_arrays_index_stable(self):
        assert len(ALL_ARRAYS) == 40
        assert ALL_ARRAYS[:12] == ALL_COMPONENTS


class TestStreamEmitter:
    def test_lups_accounting(self):
        cache = LRUCache(10**9)
        em = StreamEmitter(cache, ny=8, nz=8, nx=10)
        _job(em, 0, 0, 8, 0, 8)  # H half step, whole plane
        _job(em, 1, 0, 8, 0, 8)
        assert em.lups == 8 * 8 * 10  # one full step over the slab

    def test_infinite_cache_traffic_is_compulsory(self):
        """With infinite capacity, repeated steps only pay the first-touch
        traffic: per extra step only write-backs ... nothing, since no
        evictions happen before the flush."""
        cache = LRUCache(10**12)
        em = StreamEmitter(cache, ny=8, nz=8, nx=4)
        for tau in range(8):
            _job(em, tau, 0, 8, 0, 8)
        first_epoch = cache.stats.mem_bytes
        cache.reset_stats()
        for tau in range(8, 16):
            _job(em, tau, 0, 8, 0, 8)
        assert cache.stats.mem_bytes == 0  # everything resident
        assert first_epoch > 0

    def test_tiny_cache_traffic_is_streaming(self):
        """With a tiny cache every group row is re-fetched."""
        big = LRUCache(10**12)
        em_big = StreamEmitter(big, ny=16, nz=16, nx=4)
        small = LRUCache(4 * 16 * 40 * 2)  # ~2 rows worth
        em_small = StreamEmitter(small, ny=16, nz=16, nx=4)
        for tau in range(4):
            _job(em_big, tau, 0, 16, 0, 16)
            _job(em_small, tau, 0, 16, 0, 16)
        assert small.stats.mem_bytes > big.stats.mem_bytes

    def test_boundary_clipping(self):
        cache = LRUCache(10**9)
        em = StreamEmitter(cache, ny=4, nz=4, nx=2)
        # A job at the top edge: the (y+1) far reads must be clipped, not
        # wrap or crash.
        _job(em, 0, 3, 4, 0, 4)
        gids = set()
        # no key may decode to y >= 4
        # keys are (gid*ny + y)*nz + z
        for key in list(cache._entries):
            rest, z = divmod(key, 4)
            gid, y = divmod(rest, 4)
            assert 0 <= y < 4 and 0 <= z < 4
            gids.add(gid)

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamEmitter(LRUCache(10), ny=0, nz=4, nx=4)
        for emitter in (StreamEmitter, BatchStreamEmitter):
            with pytest.raises(ValueError):
                emitter(LRUCache(10), ny=4, nz=0, nx=4, layout=PER_COMPONENT)
            with pytest.raises(ValueError):  # beyond what a shape code holds
                emitter(LRUCache(10), ny=1 << 24, nz=4, nx=4)


class TestPerComponentLayout:
    def test_lups_is_one_twelfth_of_component_cells(self):
        cache = LRUCache(10**9)
        em = StreamEmitter(cache, ny=4, nz=4, nx=6, layout=PER_COMPONENT)
        for comp in ALL_COMPONENTS:
            _component(em, comp, 0, 4, 0, 4)
        assert em.lups == 4 * 4 * 6  # 12 component updates = 1 LUP/cell

    def test_per_component_streams_do_not_dedupe(self):
        """Two components sharing a pair array stream it twice (the
        paper's Eq. 8 counting) when the cache is too small."""
        tiny = LRUCache(16 * 6 * 3)  # a few rows only
        em = StreamEmitter(tiny, ny=64, nz=1, nx=6, layout=PER_COMPONENT)
        _component(em, "Hyz", 0, 64, 0, 1)
        bytes_a = tiny.stats.mem_bytes
        _component(em, "Hzy", 0, 64, 0, 1)
        assert tiny.stats.mem_bytes > 1.5 * bytes_a


def _decode(code):
    """What a shape code names: ``(tau & 1, height, width, y_lo == 0,
    y_hi == ny, z_lo == 0, z_hi == nz)``."""
    extent = (1 << 24) - 1
    return (code >> 52, (code >> 28) & extent, (code >> 4) & extent,
            *(bool(code >> bit & 1) for bit in (3, 2, 1, 0)))


class TestTileStreamResolve:
    """A tile's row schedule (``tile_rows``, memoized per congruence
    class) with ``tau & 1`` as the recipe is what the batched emitter
    resolves, with one table lookup per shape class; job-by-job
    resolution is what it must equal."""

    @given(ny=st.integers(1, 36), timesteps=st.integers(1, 9),
           dw=st.sampled_from([2, 4, 6, 8, 12]), nz=st.integers(1, 26),
           bz=st.integers(1, 11))
    @settings(max_examples=60, deadline=None)
    def test_equals_job_by_job_resolve(self, ny, timesteps, dw, nz, bz):
        """Over a whole tessellation (interior and clipped tiles, ``nz <
        bz``, ``nz % bz != 0``), two tables filling side by side: the
        same shapes enter both, every row's run holds its own clipped
        segments, and its key names the row's shape class."""
        emitter = BatchStreamEmitter(None, ny=ny, nz=nz, nx=8)
        by_rows, by_jobs = ShapeTable(), ShapeTable()
        for tile in enumerate_tiles(ny, timesteps, dw).values():
            jobs = list(front_stepping_jobs(tile, nz, bz))
            rows = tile_rows(tile, nz, bz)
            rows[0] &= 1
            assert np.column_stack(rows).tolist() == [
                [j.tau & 1, j.y_lo, j.y_hi, j.z_lo, j.z_hi] for j in jobs]
            lo, hi, accesses, misses = emitter._runs(by_rows, *rows)
            one_by_one = [emitter._runs(by_jobs, *(a[k:k + 1] for a in rows))
                          for k in range(len(jobs))]
            assert accesses == sum(r[2] for r in one_by_one)
            assert misses == sum(r[3] for r in one_by_one)
            key_of = {run[:2]: key for key, run in by_rows.shapes.items()}
            segments = by_rows.segments()
            for job, a, b in zip(jobs, lo.tolist(), hi.tolist()):
                layout, code = key_of[(a, b)]
                assert layout == "fused"
                assert _decode(code) == (
                    job.tau & 1, job.y_hi - job.y_lo, job.z_hi - job.z_lo,
                    job.y_lo == 0, job.y_hi == ny, job.z_lo == 0, job.z_hi == nz)
                assert segments[a:b].tolist() == [
                    [g, int(w), *box] for g, w, *box in _clipped_segments(
                        CLASS_RECIPES["HE"[job.tau & 1]], job.y_lo, job.y_hi,
                        job.z_lo, job.z_hi, ny, nz)]
        assert by_rows.shapes.keys() == by_jobs.shapes.keys()

    def test_congruent_tile_reuses_the_stream(self):
        """A (tau, y) translation of a tile is one memoized schedule
        shifted in both and, resolved after it, adds no shape and gets
        its runs."""
        emitter = BatchStreamEmitter(None, ny=48, nz=20, nx=8)
        table = ShapeTable()
        a, *rest = [t for t in enumerate_tiles(48, 12, 4).values()
                    if t.is_interior and 0 < t.y_footprint[0]
                    and t.y_footprint[1] < 48]
        b = next(t for t in rest
                 if t.band != a.band and t.i - t.j != a.i - a.j)
        rows_a = tile_rows(a, 20, 3)
        hits = wavefront._congruent_rows.cache_info().hits
        rows_b = tile_rows(b, 20, 3)
        assert wavefront._congruent_rows.cache_info().hits == hits + 1
        (tau_a, y_a, _), (tau_b, y_b, _) = a.congruence, b.congruence
        assert tau_b != tau_a and y_b != y_a
        np.testing.assert_array_equal(rows_b, rows_a + np.array(
            [[tau_b - tau_a], [y_b - y_a], [y_b - y_a], [0], [0]]))
        rows_a[0] &= 1
        rows_b[0] &= 1
        *first, misses = emitter._runs(table, *rows_a)
        *again, none = emitter._runs(table, *rows_b)
        assert misses > 0 and none == 0
        for x, y in zip(first, again):
            np.testing.assert_array_equal(x, y)
