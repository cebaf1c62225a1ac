"""Error taxonomy, divergence guard, counters, checksummed JSON."""

import json
import os

import numpy as np
import pytest

from repro import telemetry
from repro.fdfd import Grid, PlaneWaveSource, THIIMSolver
from repro.fdfd.thiim import divergence_reason
from repro.ioutil import (
    atomic_write_json,
    corrupt_file,
    json_checksum,
    read_json_checked,
)
from repro.telemetry import MetricsRegistry
from repro.resilience.errors import (
    CheckpointMismatch,
    CorruptArtifact,
    EngineUnavailable,
    InjectedFault,
    ReproError,
    SolverDiverged,
    error_from_kind,
)


class TestTaxonomy:
    @pytest.mark.parametrize("cls,status,retryable", [
        (ReproError, 500, True),
        (SolverDiverged, 422, False),
        (CorruptArtifact, 500, True),
        (EngineUnavailable, 503, True),
        (CheckpointMismatch, 409, False),
        (InjectedFault, 500, True),
    ])
    def test_status_and_retry_semantics(self, cls, status, retryable):
        exc = cls("boom")
        assert exc.http_status == status
        assert exc.retryable is retryable
        assert isinstance(exc, RuntimeError)  # legacy handlers still catch

    def test_payload_carries_details(self):
        exc = SolverDiverged("blew up", steps=40, residual=1e9)
        assert exc.payload() == {
            "error": "blew up", "kind": "SolverDiverged",
            "details": {"steps": 40, "residual": 1e9},
        }
        assert ReproError("plain").payload() == {"error": "plain",
                                                 "kind": "ReproError"}

    def test_error_from_kind_round_trips(self):
        for cls in (SolverDiverged, CorruptArtifact, EngineUnavailable,
                    CheckpointMismatch, InjectedFault):
            back = error_from_kind(cls.__name__, "m")
            assert type(back) is cls and str(back) == "m"

    def test_unknown_kind_degrades_to_runtime_error(self):
        for kind in (None, "", "SomethingForeign"):
            back = error_from_kind(kind, "m")
            assert type(back) is RuntimeError
            assert not getattr(back, "retryable", True) is False


class TestDivergenceGuard:
    def test_healthy_history_is_none(self):
        assert divergence_reason(0.5, [1.0, 0.8, 0.5]) is None

    def test_non_finite_residual(self):
        assert "non-finite" in divergence_reason(float("nan"), [1.0])
        assert "non-finite" in divergence_reason(float("inf"), [1.0])

    def test_monotone_blowup(self):
        history = [1e-6, 1e-4, 1e-2, 1.0, 100.0]
        assert "blow-up" in divergence_reason(100.0, history)

    def test_growth_below_factor_is_tolerated(self):
        history = [1e-6, 2e-6, 4e-6, 8e-6, 9e-6]
        assert divergence_reason(9e-6, history) is None

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_unstable_solve_raises_with_diagnostics(self):
        # tau far beyond the CFL limit: the leapfrog iteration blows up.
        grid = Grid(nz=16, ny=4, nx=4, periodic=(False, True, True))
        solver = THIIMSolver(grid, 2 * np.pi / 8.0,
                             source=PlaneWaveSource(z_plane=4), tau=5.0)
        with pytest.raises(SolverDiverged) as exc:
            solver.solve(tol=1e-8, max_steps=400, check_every=5,
                         on_divergence="raise")
        details = exc.value.details
        assert details["steps"] < 400  # failed fast, not at max_steps
        assert len(details["history_tail"]) <= 6

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_unstable_solve_legacy_return_mode(self):
        grid = Grid(nz=16, ny=4, nx=4, periodic=(False, True, True))
        solver = THIIMSolver(grid, 2 * np.pi / 8.0,
                             source=PlaneWaveSource(z_plane=4), tau=5.0)
        result = solver.solve(tol=1e-8, max_steps=400, check_every=5)
        assert not result.converged and result.iterations < 400

    def test_on_divergence_is_validated(self):
        grid = Grid(nz=16, ny=4, nx=4, periodic=(False, True, True))
        solver = THIIMSolver(grid, 2 * np.pi / 8.0)
        with pytest.raises(ValueError):
            solver.solve(on_divergence="explode")


class TestCounters:
    """Resilience events are one labelled family of ``telemetry.METRICS``,
    counted whether or not the telemetry gate is on."""

    def test_bump_get_snapshot(self, monkeypatch):
        monkeypatch.setattr(telemetry._STATE, "on", False)
        before = telemetry.resilience_counts().get("test_event", 0)
        telemetry.count_event("test_event")
        telemetry.count_event("test_event", path="x.json")
        after = telemetry.resilience_counts()
        assert after["test_event"] == before + 2
        assert "test_missing" not in after
        assert telemetry.METRICS.get_value(
            "resilience_events_total", ("test_event",)) == before + 2

    def test_merge_folds_child_deltas(self):
        before = telemetry.resilience_counts().get("test_merged", 0)
        child = MetricsRegistry()
        child.counter("resilience_events_total", "",
                      ("event",)).labels(event="test_merged").inc(2)
        telemetry.merge_child({"trace": None, "metrics": child.snapshot()},
                              label="worker")
        telemetry.merge_child(None, label="worker")
        assert telemetry.resilience_counts()["test_merged"] == before + 2

    def test_reset(self):
        """A forked child starts from zero, so what it hands home is its
        own delta, not the counts it inherited."""
        import multiprocessing as mp

        telemetry.count_event("test_inherited")

        def child(conn):
            telemetry.fork_child()
            inherited = telemetry.resilience_counts()
            telemetry.count_event("test_child")
            conn.send((inherited, telemetry.child_report()))
            conn.close()

        ctx = mp.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=child, args=(child_conn,))
        proc.start()
        inherited, report = parent_conn.recv()
        proc.join(timeout=30)
        assert inherited == {}
        before = telemetry.resilience_counts()
        telemetry.merge_child(report, label="worker")
        after = telemetry.resilience_counts()
        assert after["test_child"] == before.get("test_child", 0) + 1
        assert after["test_inherited"] == before["test_inherited"]


class TestChecksummedJson:
    def test_checksum_roundtrip(self, tmp_path):
        path = str(tmp_path / "doc.json")
        atomic_write_json(path, {"x": 1, "y": [2, 3]}, checksum=True)
        doc = read_json_checked(path)
        assert doc == {"x": 1, "y": [2, 3]}
        assert "_sha256" not in doc

    def test_checksum_is_canonical(self):
        assert json_checksum({"a": 1, "b": 2}) == json_checksum({"b": 2, "a": 1})
        assert json_checksum({"a": 1}) != json_checksum({"a": 2})

    def test_missing_file_is_none(self, tmp_path):
        assert read_json_checked(str(tmp_path / "absent.json")) is None

    def test_torn_write_quarantined(self, tmp_path):
        path = str(tmp_path / "doc.json")
        atomic_write_json(path, {"x": 1}, checksum=True)
        corrupt_file(path)
        assert read_json_checked(path) is None
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")

    def test_bit_flip_detected_by_checksum(self, tmp_path):
        path = str(tmp_path / "doc.json")
        atomic_write_json(path, {"x": 1}, checksum=True)
        doc = json.load(open(path))
        doc["x"] = 2  # valid JSON, wrong content
        with open(path, "w") as f:
            json.dump(doc, f)
        assert read_json_checked(path) is None
        assert os.path.exists(path + ".corrupt")

    def test_unchecksummed_legacy_doc_still_reads(self, tmp_path):
        # Pre-resilience cache files have no _sha256: accepted as-is.
        path = str(tmp_path / "doc.json")
        with open(path, "w") as f:
            json.dump({"x": 1}, f)
        assert read_json_checked(path) == {"x": 1}
