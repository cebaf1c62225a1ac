"""Tests for substrate counter merging and re-entrant timed sections.

Covers the fork-pool telemetry path: ``REPRO_TUNE_WORKERS`` workers
count in copy-on-write copies of :data:`SUBSTRATE_COUNTERS`; per-
candidate snapshots ride back with the results and are merged into the
parent, so no telemetry is lost to process boundaries.
"""

import time

import pytest

from repro.machine.counters import (
    SUBSTRATE_COUNTERS,
    SubstrateCounters,
    timed_section,
)


class TestMerge:
    def test_merge_counters_object(self):
        a = SubstrateCounters(jobs_replayed=2, accesses_replayed=10,
                              stream_memo_hits=1, stream_memo_misses=3)
        a.section_seconds["x"] = 0.5
        b = SubstrateCounters(jobs_replayed=5, accesses_replayed=20,
                              stream_memo_hits=4, stream_memo_misses=0)
        b.section_seconds.update({"x": 0.25, "y": 1.0})
        a.merge(b)
        assert a.jobs_replayed == 7
        assert a.accesses_replayed == 30
        assert a.stream_memo_hits == 5 and a.stream_memo_misses == 3
        assert a.section_seconds == {"x": 0.75, "y": 1.0}

    def test_merge_snapshot_dict(self):
        a = SubstrateCounters(jobs_replayed=1)
        b = SubstrateCounters(jobs_replayed=2, stream_memo_hits=3)
        b.section_seconds["replay"] = 0.125
        a.merge(b.snapshot())
        assert a.jobs_replayed == 3
        assert a.stream_memo_hits == 3
        assert a.section_seconds == {"replay": 0.125}

    def test_snapshot_excludes_bookkeeping(self):
        c = SubstrateCounters()
        with timed_section("s", c):
            pass
        snap = c.snapshot()
        assert set(snap) == {"jobs_replayed", "accesses_replayed",
                             "stream_memo_hits", "stream_memo_misses",
                             "section_seconds", "stream_memo_rate"}

    def test_sections_by_time_sorted_descending(self):
        c = SubstrateCounters()
        c.section_seconds.update({"fast": 0.1, "slow": 2.0, "mid": 0.7})
        assert [n for n, _ in c.sections_by_time()] == ["slow", "mid", "fast"]


class TestTimedSection:
    def test_nested_same_name_counts_once(self):
        c = SubstrateCounters()
        with timed_section("outer", c):
            t0 = time.perf_counter()
            with timed_section("outer", c):
                time.sleep(0.02)
            inner_elapsed = time.perf_counter() - t0
            assert c.section_seconds.get("outer") is None  # still open
        total = c.section_seconds["outer"]
        # accumulated once, spanning the whole outer frame -- not doubled
        assert total >= inner_elapsed
        assert total < 2 * inner_elapsed + 0.05
        assert c._section_depth == {}

    def test_different_names_nest_independently(self):
        c = SubstrateCounters()
        with timed_section("a", c):
            with timed_section("b", c):
                pass
        assert set(c.section_seconds) == {"a", "b"}
        assert c.section_seconds["a"] >= c.section_seconds["b"]

    def test_exception_still_records(self):
        c = SubstrateCounters()
        with pytest.raises(RuntimeError):
            with timed_section("boom", c):
                time.sleep(0.01)
                raise RuntimeError("kaboom")
        assert c.section_seconds["boom"] >= 0.01
        assert c._section_depth == {}

    def test_exception_inside_nested_unwinds_cleanly(self):
        c = SubstrateCounters()
        with pytest.raises(ValueError):
            with timed_section("s", c):
                with timed_section("s", c):
                    raise ValueError
        assert "s" in c.section_seconds
        assert c._section_depth == {}

    def test_reset_clears_depth(self):
        c = SubstrateCounters()
        with timed_section("s", c):
            c.reset()
        # The unwinding frame repopulates section_seconds after reset --
        # acceptable; depth bookkeeping must not leak negative counts.
        with timed_section("s", c):
            pass
        assert c._section_depth == {}


def _tune(machine, grid, threads):
    """One spatial + one 1WD tune: every candidate is a distinct
    measurement, so replay counts add up the same however they are
    scheduled."""
    from repro.core import autotuner

    return (
        autotuner.tune_spatial(machine, grid, threads),
        autotuner.tune_tiled(machine, grid, threads, tg_size=1, variant="1WD"),
    )


def _cold_tune(grid, threads):
    """``(points, jobs_replayed, accesses_replayed)`` of a cold tune."""
    from repro.machine import HASWELL_EP, clear_substrate_caches

    clear_substrate_caches()
    SUBSTRATE_COUNTERS.reset()
    points = _tune(HASWELL_EP, grid, threads)
    return (points, SUBSTRATE_COUNTERS.jobs_replayed,
            SUBSTRATE_COUNTERS.accesses_replayed)


@pytest.fixture
def cold_substrate(monkeypatch):
    from repro.machine import clear_substrate_caches

    monkeypatch.delenv("REPRO_TUNE_CACHE", raising=False)
    monkeypatch.setenv("REPRO_TUNE_WORKERS", "1")
    yield
    # leave no tuned points or streams behind for other tests
    clear_substrate_caches()
    SUBSTRATE_COUNTERS.reset()


class TestSharedShapeTable:
    """The process-wide shape table is shared by every candidate, emitter
    and thread; none of that may show in a tuned point or a replay count."""

    POINTS = ((96, 6), (128, 8), (160, 9), (192, 12))

    def test_tuning_order_does_not_matter(self, cold_substrate):
        from repro.machine import HASWELL_EP, clear_substrate_caches
        from repro.machine.streams import shape_table

        a, b = self.POINTS[:2]
        alone = {p: _cold_tune(*p) for p in (a, b)}
        for order in ((a, b), (b, a)):
            clear_substrate_caches()
            SUBSTRATE_COUNTERS.reset()
            assert not shape_table().shapes
            got = {p: _tune(HASWELL_EP, *p) for p in order}
            # the second tune found the first one's streams in the table
            assert shape_table().shapes
            for p in order:
                assert got[p] == alone[p][0], (order, p)
            assert SUBSTRATE_COUNTERS.jobs_replayed == alone[a][1] + alone[b][1]
            assert SUBSTRATE_COUNTERS.accesses_replayed == alone[a][2] + alone[b][2]

    def test_second_cold_pass_repeats_the_first(self, cold_substrate):
        """``clear_substrate_caches()`` cold-starts every memo -- tuned
        points, measurements, enumerations, tile DAGs with their packed
        form, the shape table -- so the pass after it replays, hits and
        misses exactly what the first one did."""
        from repro.core import autotuner, plan
        from repro.machine import HASWELL_EP, clear_substrate_caches
        from repro.machine.streams import shape_table

        def cold_pass():
            clear_substrate_caches()
            SUBSTRATE_COUNTERS.reset()
            points = [_tune(HASWELL_EP, *self.POINTS[0]),
                      autotuner.tune_tiled(HASWELL_EP, *self.POINTS[0])]
            counters = SUBSTRATE_COUNTERS.snapshot()
            del counters["section_seconds"]
            return points, counters

        first = cold_pass()
        assert first[1]["stream_memo_misses"] > 0
        assert plan._tile_dag.cache_info().currsize > 0 and shape_table().tiles
        clear_substrate_caches()
        assert plan._tile_dag.cache_info().currsize == 0
        assert not shape_table().tiles and not shape_table().shapes
        assert cold_pass() == first

    def test_bandwidth_variants_share_measurements(self, cold_substrate):
        """Traffic depends on the machine through its cache capacity only:
        a bandwidth variant re-scores without replaying anything."""
        from repro.machine import HASWELL_EP

        grid, threads = self.POINTS[0]
        base, jobs, accesses = _cold_tune(grid, threads)
        starved = _tune(HASWELL_EP.with_bandwidth(5.0), grid, threads)
        assert (SUBSTRATE_COUNTERS.jobs_replayed,
                SUBSTRATE_COUNTERS.accesses_replayed) == (jobs, accesses)
        assert starved[0].mlups < base[0].mlups

    def test_concurrent_tunes_equal_serial(self, cold_substrate):
        """Four threads tuning different points at once, on a shortened
        switch interval, give the serial points and the serial totals: a
        lost counter update or a torn table entry would break either."""
        from conftest import run_concurrently
        from repro.machine import HASWELL_EP, clear_substrate_caches

        serial = {p: _cold_tune(*p) for p in self.POINTS}
        clear_substrate_caches()
        SUBSTRATE_COUNTERS.reset()
        got = {}

        def work(point):
            got[point] = _tune(HASWELL_EP, *point)

        run_concurrently(work, self.POINTS)
        for p in self.POINTS:
            assert got[p] == serial[p][0], p
        assert SUBSTRATE_COUNTERS.jobs_replayed == sum(s[1] for s in serial.values())
        assert SUBSTRATE_COUNTERS.accesses_replayed == sum(s[2] for s in serial.values())

    def test_table_is_replaced_when_over_budget(self, cold_substrate, monkeypatch):
        """Past its byte budget the table starts over; a tune under a
        budget every schedule exceeds still gives the same point."""
        from repro.machine import HASWELL_EP, clear_substrate_caches, streams

        point = self.POINTS[0]
        want = _cold_tune(*point)
        clear_substrate_caches()
        SUBSTRATE_COUNTERS.reset()
        monkeypatch.setattr(streams, "SHAPE_TABLE_MAX_BYTES", 1)
        first = streams.shape_table()
        assert _tune(HASWELL_EP, *point) == want[0]
        assert streams.shape_table() is not first
        assert (SUBSTRATE_COUNTERS.jobs_replayed,
                SUBSTRATE_COUNTERS.accesses_replayed) == want[1:]


class TestForkPoolTelemetry:
    def test_worker_counters_reach_parent(self, cold_substrate, monkeypatch):
        """With REPRO_TUNE_WORKERS=2 the replay happens in fork children;
        the merged parent counters must see exactly the serial jobs."""
        point = TestSharedShapeTable.POINTS[0]
        serial = _cold_tune(*point)
        monkeypatch.setenv("REPRO_TUNE_WORKERS", "2")
        parallel = _cold_tune(*point)
        assert parallel == serial
        assert serial[1] > 0 and serial[2] > 0
        assert "tune.score" in SUBSTRATE_COUNTERS.section_seconds

    def test_serial_and_parallel_pick_same_winner(self, cold_substrate, monkeypatch):
        from repro.core import autotuner
        from repro.machine.spec import HASWELL_EP

        serial = autotuner.tune_tiled(HASWELL_EP, 64, 4)
        monkeypatch.setenv("REPRO_TUNE_WORKERS", "2")
        autotuner.tune_tiled.cache_clear()
        parallel = autotuner.tune_tiled(HASWELL_EP, 64, 4)
        assert serial == parallel
