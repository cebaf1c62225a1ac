"""Tests for the simulated PMU (likwid-style marker regions + groups).

The headline contract: all three replay engines report *identical* MEM,
CACHE and WORK group values for the same schedule -- asserted on the
Fig. 6 fixed point (MWD at 18 threads, 384^3: D_w=8, B_z=9, one stream
per group sharing the L3) through the uncached measurement body, which
takes each engine's emitter factory.
"""

import pytest

from conftest import REPLAY_ENGINES
from repro.machine import measure
from repro.machine.cache import LRUCache
from repro.machine.measure import measure_tiled_code_balance
from repro.machine.pmu import (
    GLOBAL_PMU,
    PERF_GROUPS,
    PMU,
    PerfRegion,
    PerfSample,
    resolve_groups,
)
from repro.machine.spec import HASWELL_EP
from repro.machine.streams import PER_COMPONENT, SWEEP_COMPONENTS, StreamEmitter

#: Fig. 6 fixed point (MWD@18t at 384^3 tunes to dw=8, bz=9, tg_size=18).
FIG6_POINT = dict(nx=384, dw=8, bz=9, n_streams=1)

#: Recipe index of the ``Exy`` loop nest in a per-component row schedule.
EXY = SWEEP_COMPONENTS.index("Exy")


def _emitter(cache, ny, nz, nx):
    return StreamEmitter(cache, ny=ny, nz=nz, nx=nx, layout=PER_COMPONENT)


class TestEngineEquivalence:
    @pytest.fixture(scope="class")
    def samples(self):
        p = FIG6_POINT
        return {
            eng: measure._measure_tiled(
                make, HASWELL_EP.usable_l3_bytes, p["nx"], p["dw"], p["bz"],
                p["n_streams"], None, 2).perf
            for eng, make in REPLAY_ENGINES.items()
        }

    @pytest.mark.parametrize("group", ("MEM", "CACHE", "WORK"))
    def test_groups_identical_across_engines(self, samples, group):
        ref = samples["reference"].group_values(group)
        assert ref, group
        for eng in ("batch", "native"):
            assert samples[eng].group_values(group) == ref, eng

    def test_sample_consistent_with_traffic_result(self):
        res = measure_tiled_code_balance(HASWELL_EP, **FIG6_POINT)
        perf = res.perf
        assert perf is not None
        assert perf.mem_bytes == res.mem_bytes
        assert perf.lups == res.lups
        assert perf.cells == res.cells
        assert perf.hit_rate == res.hit_rate
        assert perf.code_balance == pytest.approx(res.bytes_per_lup)


class TestPerfRegion:
    def _workload(self):
        cache = LRUCache(4 * 2**20)
        emitter = _emitter(cache, 8, 8, 16)
        return cache, emitter

    def test_delta_matches_stats(self):
        cache, emitter = self._workload()
        region = PerfRegion("r")
        with region(cache, emitter):
            emitter.emit_rows([EXY], [0], [4], [0], [8])
        s = region.sample
        st = cache.stats
        assert s.read_hits == st.read_hits
        assert s.read_misses == st.read_misses
        assert s.mem_read_bytes == st.mem_read_bytes
        assert s.mem_write_bytes == st.mem_write_bytes
        assert s.cells == emitter.cells
        assert s.lups == emitter.lups
        assert s.resident_bytes == cache.used_bytes
        assert s.calls == 1

    def test_region_excludes_warmup_epoch(self):
        """A region opened after reset_stats counts only the epoch."""
        cache, emitter = self._workload()
        emitter.emit_rows([EXY], [0], [8], [0], [8])  # warm-up
        cache.reset_stats()
        cells0, lups0 = emitter.cells, emitter.lups
        region = PerfRegion("epoch")
        with region(cache, emitter):
            emitter.emit_rows([EXY], [0], [8], [0], [8])
        s = region.sample
        assert s.mem_bytes == cache.stats.mem_bytes
        assert s.cells == emitter.cells - cells0
        assert s.lups == emitter.lups - lups0
        # the warm cache means this epoch has hits the cold pass lacked
        assert s.read_hits == cache.stats.read_hits

    def test_multiple_calls_accumulate(self):
        cache, emitter = self._workload()
        region = PerfRegion("r")
        for _ in range(3):
            with region(cache, emitter):
                emitter.emit_rows([EXY], [0], [2], [0], [4])
        assert region.sample.calls == 3
        assert region.sample.mem_bytes == cache.stats.mem_bytes

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            PerfRegion("r").stop()


class TestPerfSample:
    def test_merged_sums_counters_and_maxes_resident(self):
        a = PerfSample(read_hits=1, mem_read_bytes=100, resident_bytes=50,
                       cells=2, lups=3.0, calls=1)
        b = PerfSample(read_hits=2, mem_read_bytes=200, resident_bytes=40,
                       cells=4, lups=5.0, calls=2)
        m = a.merged(b)
        assert m.read_hits == 3
        assert m.mem_read_bytes == 300
        assert m.resident_bytes == 50  # max, not sum
        assert m.cells == 6 and m.lups == 8.0 and m.calls == 3

    def test_derived_metrics(self):
        s = PerfSample(mem_read_bytes=60, mem_write_bytes=40, lups=10.0,
                       read_hits=3, read_misses=1, write_hits=0, write_misses=0)
        assert s.mem_bytes == 100
        assert s.code_balance == pytest.approx(10.0)
        assert s.hit_rate == pytest.approx(0.75)
        from repro.fdfd.specs import FLOPS_PER_LUP
        assert s.flops == pytest.approx(10.0 * FLOPS_PER_LUP)

    def test_group_values_cover_events_and_metrics(self):
        s = PerfSample(lups=1.0)
        for name, g in PERF_GROUPS.items():
            vals = s.group_values(name)
            assert set(vals) == set(g.events) | set(g.metrics)

    def test_to_dict_round_trips_fields(self):
        d = PerfSample(read_hits=7, lups=2.0).to_dict()
        assert d["read_hits"] == 7
        assert d["derived"]["code_balance_B_per_LUP"] == 0.0


class TestResolveGroups:
    def test_all_and_none(self):
        assert resolve_groups(None) == ("MEM", "CACHE", "WORK")
        assert resolve_groups("ALL") == ("MEM", "CACHE", "WORK")

    def test_comma_list_dedup_case(self):
        assert resolve_groups("mem, MEM ,cache") == ("MEM", "CACHE")

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown perf group"):
            resolve_groups("L2")


class TestPMUReporting:
    def test_report_tables(self):
        pmu = PMU()
        cache = LRUCache(1 << 20)
        emitter = _emitter(cache, 4, 4, 8)
        with pmu.region("steady", cache, emitter):
            emitter.emit_rows([EXY], [0], [4], [0], [4])
        text = pmu.report(groups="MEM")
        assert "Region steady, Group MEM" in text
        assert "Code balance [B/LUP]" in text
        assert "DRAM_READ_BYTES" in text

    def test_empty_report(self):
        assert PMU().report() == "(no perf regions recorded)"

    def test_global_pmu_fed_by_measurement(self):
        measure._measure_tiled_cached.cache_clear()
        GLOBAL_PMU.reset()
        measure_tiled_code_balance(HASWELL_EP, nx=32, dw=4, bz=2, n_streams=1)
        assert "measure.tiled" in GLOBAL_PMU
        assert GLOBAL_PMU.sample("measure.tiled").lups > 0
        assert "measure.tiled" in GLOBAL_PMU.to_json()
