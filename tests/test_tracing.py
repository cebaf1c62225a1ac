"""Tests for the structured trace recorder (Chrome trace + JSONL).

Validates the two serialized schemas, the disabled-mode fast path, the
DES per-simulation process lanes, and the ``REPRO_TRACE`` env-driven CLI
activation the CI observability job relies on.
"""

import json

import pytest

from repro import telemetry
from repro.telemetry.trace import (
    WALL_PID,
    TraceRecorder,
    _NULL_SPAN,
    jsonl_path_for,
)


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    """Every test starts and ends with tracing disabled."""
    telemetry.stop_trace()
    yield
    telemetry.stop_trace()


def _clear_measure_caches():
    from repro.machine import measure

    measure._measure_tiled_cached.cache_clear()
    measure._measure_sweep_cached.cache_clear()


class TestDisabledMode:
    def test_span_is_shared_null_singleton(self):
        assert telemetry.recorder() is None
        s = telemetry.span("anything", "cat", args={"k": 1})
        assert s is _NULL_SPAN
        with s as sp:
            sp.set(result=42)  # must be a silent no-op

    def test_instrumented_code_records_nothing(self):
        _clear_measure_caches()
        from repro.machine.measure import measure_tiled_code_balance
        from repro.machine.spec import HASWELL_EP

        measure_tiled_code_balance(HASWELL_EP, nx=32, dw=4, bz=2, n_streams=1)
        assert telemetry.recorder() is None


class TestRecorder:
    def test_span_records_complete_event(self):
        rec = telemetry.start_trace()
        with telemetry.span("work", "test", args={"n": 3}) as sp:
            sp.set(out=7)
        assert len(rec) == 1
        ev = rec._events[0]
        assert ev["type"] == "span" and ev["name"] == "work"
        assert ev["cat"] == "test" and ev["pid"] == WALL_PID
        assert ev["args"] == {"n": 3, "out": 7}
        assert ev["dur_us"] >= 0

    def test_summary_counts_by_category(self):
        rec = telemetry.start_trace()
        with telemetry.span("a", "x"):
            pass
        with telemetry.span("b", "x"):
            pass
        rec.instant("mark", "y")
        assert rec.summary() == {"x": 2, "y": 1}

    def test_new_process_allocates_distinct_pids(self):
        rec = TraceRecorder()
        p1 = rec.new_process("sim one")
        p2 = rec.new_process("sim two")
        assert WALL_PID < p1 < p2


class TestChromeFormat:
    def _sample_recorder(self):
        rec = telemetry.start_trace()
        with telemetry.span("wall work", "measure", args={"dw": 4}):
            pass
        pid = rec.new_process("DES test")
        rec.name_thread(pid, 0, "thread group 0")
        rec.complete("tile", "sim.tile", ts_us=0.0, dur_us=5.0, pid=pid, tid=0)
        rec.instant("event", "marks")
        rec.counter("mlups", {"value": 123.0})
        telemetry.stop_trace()
        return rec, pid

    def test_chrome_events_schema(self, tmp_path):
        rec, pid = self._sample_recorder()
        path = str(tmp_path / "trace.json")
        rec.dump_chrome(path)
        doc = json.load(open(path))
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "i", "C"}
        for e in events:
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
            if e["ph"] == "X":
                assert isinstance(e["ts"], float) and isinstance(e["dur"], float)
                assert e["cat"]
        names = [e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"]
        assert "wall clock" in names and "DES test" in names

    def test_jsonl_schema(self, tmp_path):
        rec, pid = self._sample_recorder()
        path = str(tmp_path / "trace.jsonl")
        rec.dump_jsonl(path)
        lines = [json.loads(l) for l in open(path)]
        types = {l["type"] for l in lines}
        assert types == {"meta", "span", "instant", "counter"}
        for l in lines:
            if l["type"] == "meta":
                assert l["kind"] in ("process_name", "thread_name")
                assert isinstance(l["name"], str)
            elif l["type"] == "counter":
                assert isinstance(l["values"], dict)
            else:
                assert {"name", "cat", "ts_us", "pid", "tid"} <= set(l)
                if l["type"] == "span":
                    assert l["dur_us"] >= 0
        # metas first (wall clock + DES process + thread name), then events
        assert [l["type"] for l in lines[:3]] == ["meta"] * 3

    def test_jsonl_path_for(self):
        assert jsonl_path_for("a/b.json") == "a/b.jsonl"
        assert jsonl_path_for("a/b.trace") == "a/b.trace.jsonl"


class TestDesTimeline:
    def test_simulation_gets_own_process_with_group_lanes(self):
        from repro.core.plan import TilingPlan
        from repro.core.threadgroups import ThreadGroupConfig
        from repro.machine.simulator import simulate_tiled
        from repro.machine.spec import HASWELL_EP

        rec = telemetry.start_trace()
        plan = TilingPlan.build(ny=16, nz=24, timesteps=8, dw=4, bz=2)
        cfg = ThreadGroupConfig(wavefront_threads=1, x_threads=3,
                                component_threads=2)
        res = simulate_tiled(HASWELL_EP, plan, nx=48, tg_config=cfg,
                             code_balance=100.0)
        telemetry.stop_trace()
        tiles = [e for e in rec._events if e["cat"] == "sim.tile"]
        assert len(tiles) == len(plan.tiles)
        pids = {e["pid"] for e in tiles}
        assert pids and WALL_PID not in pids
        # lanes are thread groups; 18 cores / 6 threads per group = 3 lanes
        assert {e["tid"] for e in tiles} <= set(range(3))
        # simulated timestamps: last tile ends at the simulated makespan
        end = max(e["ts_us"] + e["dur_us"] for e in tiles)
        assert end == pytest.approx(res.seconds * 1e6, rel=1e-9)

    def test_executor_tile_spans(self):
        import numpy as np

        from repro.core.executor import TiledExecutor
        from repro.core.plan import TilingPlan
        from repro.fdfd import FieldState, Grid, random_coefficients

        grid = Grid(nz=8, ny=8, nx=4, periodic=(False, False, True))
        coeffs = random_coefficients(grid, seed=3)
        fields = FieldState(grid).fill_random(np.random.default_rng(4))
        plan = TilingPlan.build(ny=8, nz=8, timesteps=4, dw=4, bz=2)
        rec = telemetry.start_trace()
        TiledExecutor(fields, coeffs, plan).run()
        telemetry.stop_trace()
        cats = rec.summary()
        assert cats.get("exec.run") == 1
        assert cats.get("exec.tile") == len(plan.tiles)
        total_lups = sum(e["args"]["lups"] for e in rec._events
                        if e["cat"] == "exec.tile")
        assert total_lups > 0


class TestEnvActivation:
    def test_cli_records_and_writes_trace(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        _clear_measure_caches()
        path = tmp_path / "run.json"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        rc = main(["figures", "--which", "fig5", "--quick"])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"trace -> {path}" in out
        doc = json.load(open(path))
        cats = {e.get("cat") for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "measure" in cats and "figure" in cats
        jsonl = tmp_path / "run.jsonl"
        assert jsonl.exists()
        for line in open(jsonl):
            json.loads(line)
