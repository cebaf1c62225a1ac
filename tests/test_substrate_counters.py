"""Tests for the substrate counters, re-entrant timed sections and the
purity contract of the tuner's shared memos (``TestSharedShapeTable``:
whatever order, thread or cold pass scores a candidate, the point and
the replay counts are the same -- which is what lets the search be one
serial function over process-wide state).
"""

import time

import pytest

from repro.machine.counters import (
    SUBSTRATE_COUNTERS,
    SubstrateCounters,
    timed_section,
)


class TestMerge:
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
def cold_substrate():
    from repro.machine import clear_substrate_caches

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

    def test_widest_registry_tune_fits_the_table(self, cold_substrate):
        """The 24^3 / 18-thread registry tune (D_w up to 24: the most
        shape classes of any tune the ledger runs, behind ``setup_s`` @
        ``tiled_campaign``) finishes on the table it started with -- no
        shape is generated twice, with room to spare in the budget."""
        from repro.core import autotuner
        from repro.machine import (HASWELL_EP, clear_substrate_caches,
                                   native_available, streams)

        if not native_available():
            pytest.skip("sized for the native engine (no Python key lists)")
        clear_substrate_caches()
        SUBSTRATE_COUNTERS.reset()
        table = streams.shape_table()
        point = autotuner.tune_variant(HASWELL_EP, 24, 18)
        assert (point.dw, point.bz) == (24, 4)
        assert streams.shape_table() is table
        assert SUBSTRATE_COUNTERS.stream_memo_misses == len(table.shapes) > 5000
        assert table.nbytes < streams.SHAPE_TABLE_MAX_BYTES // 2

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
