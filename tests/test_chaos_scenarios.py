"""Tier-1 owns the chaos scenario table (``repro.resilience.scenarios``).

Every row must hold at CI's seed (the worker-fault rows at three more),
the harnesses must be able to *fail* -- a fault that never fires, a
quarantine that never happens -- and a harness that raises must cost
one row of the report, not the report.
"""

import dataclasses
import json
import os
import tempfile

import pytest

from repro import ioutil, telemetry
from repro.cli import main
from repro.resilience import faults, scenarios
from repro.resilience.scenarios import INVARIANTS, SCENARIOS, Scenario, run

CI_SEED = 20260806
WORKER_ROWS = [name for name, row in SCENARIOS.items()
               if row.harness is scenarios.worker_fault]
CASES = [(name, CI_SEED) for name in SCENARIOS] + [
    (name, seed) for name in WORKER_ROWS for seed in (3, 11, 2026)]

#: What each scenario's ``CHAOS {...}`` line carried before the table
#: existed; log scrapers read these, so a row may add keys, never drop one.
_WORKER = {"seed", "schedule", "crashes", "attempts", "resumed_from", "state",
           "bit_identical"}
_CORRUPT = {"which", "artifact", "quarantined", "bit_identical"}
REPORTED = {
    "crash-resume": _WORKER | {"checksum"},
    "batch-resume": _WORKER | {"points"},
    "rank-crash": _WORKER | {"checksum", "rank", "distributed_matches_scalar"},
    "node-crash": {"seed", "victim", "points", "failovers", "shard_version",
                   "victim_state", "mismatched", "bit_identical"},
    "node-reboot-warm": {"seed", "victim", "points", "mismatched",
                         "dead_state", "revived_state", "warm_reads",
                         "executed_after_reboot", "expected_executed",
                         "store_hits", "bit_identical"},
    "replica-promote": {"seed", "owner", "replications", "replica_puts",
                        "status_after_kill", "replica_executed_delta",
                        "shard_version", "replicated", "bit_identical",
                        "from_store"},
    "corrupt-registry": _CORRUPT,
    "corrupt-store": _CORRUPT,
}


@pytest.fixture(autouse=True)
def hermetic(monkeypatch, tmp_path):
    """No schedule leaks in or out, the telemetry gate is left as found,
    and every directory a harness makes lands under ``tmp_path`` -- where
    it must be gone again afterwards."""
    for var in ("REPRO_FAULTS", "REPRO_CHECKPOINT_EVERY",
                "REPRO_CHECKPOINT_DIR"):
        monkeypatch.delenv(var, raising=False)
    flags_before = {var for var in os.environ if var.startswith("REPRO_")}
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    faults.uninstall()
    monkeypatch.setattr(telemetry._STATE, "on", False)
    yield
    faults.uninstall()
    assert not telemetry.enabled()
    assert [var for var in os.environ if var.startswith("REPRO_")
            and var not in flags_before] == []
    assert [d for d in os.listdir(tmp_path)
            if d.startswith("repro-chaos-")] == []


class TestTable:
    def test_three_harnesses_and_every_invariant_has_a_row(self):
        assert {row.harness for row in SCENARIOS.values()} == {
            scenarios.worker_fault, scenarios.fleet, scenarios.corrupt}
        named = {name for row in SCENARIOS.values()
                 for name in row.invariants}
        assert named == set(INVARIANTS)
        assert set(scenarios.REPORTED_AS) <= set(INVARIANTS)
        assert set(REPORTED) == set(SCENARIOS)

    @pytest.mark.parametrize("name,seed", CASES)
    def test_row_holds(self, name, seed):
        ok, detail = run(SCENARIOS[name], seed=seed)
        assert ok, detail
        assert "failed_invariants" not in detail and "error" not in detail
        assert REPORTED[name] <= set(detail)
        json.dumps(detail)  # the CHAOS line must serialize


class TestHarnessesCanFail:
    def test_a_fault_that_never_fires_fails_crashed_at_least_once(self):
        """An unknown site is inert.  Seed 2 schedules pass 0, before any
        snapshot, so a run nothing interrupted misses no other invariant."""
        row = SCENARIOS["crash-resume"]
        inert = dataclasses.replace(
            row, params=dict(row.params, site="no.such.site"))
        ok, detail = run(inert, seed=2)
        assert not ok
        assert detail["failed_invariants"] == ["crashed_at_least_once"]
        assert detail["crashes"] == 0 and detail["attempts"] == 1
        assert detail["bit_identical"] is True

    def test_without_quarantine_corrupt_fails_quarantined(self, monkeypatch):
        monkeypatch.setattr(ioutil, "quarantine", lambda path: None)
        ok, detail = run(SCENARIOS["corrupt-store"])
        assert not ok
        assert detail["failed_invariants"] == ["quarantined"]
        assert detail["quarantined"] is False


class TestRunnerSurvivesTheHarness:
    @staticmethod
    def _boom(params, seed, grid, say):
        raise TimeoutError("job abc still 'running'")

    def test_a_raising_harness_is_a_failed_row(self):
        said = []
        ok, detail = run(Scenario(self._boom, {}, ()), seed=5,
                         say=said.append)
        assert not ok
        assert detail == {
            "seed": 5, "error": "TimeoutError: job abc still 'running'"}
        assert "Traceback" in said[0]

    def test_an_invariant_over_a_missing_observation_is_a_failed_row(self):
        ok, detail = run(Scenario(lambda *a: {"seed": 0}, {},
                                  ("crashed_at_least_once",)))
        assert not ok and detail["error"] == "KeyError: 'crashes'"

    def test_the_report_continues_past_it(self, monkeypatch, capsys):
        monkeypatch.setattr(scenarios, "SCENARIOS", {
            "boom": Scenario(self._boom, {}, ()),
            "corrupt-store": SCENARIOS["corrupt-store"]})
        assert main(["chaos", "--seed", "7"]) == 1
        lines = capsys.readouterr().out.splitlines()
        boom, store = [json.loads(line[len("CHAOS "):])
                       for line in lines if line.startswith("CHAOS {")]
        assert boom == {"scenario": "boom", "ok": False, "seed": 7,
                        "error": "TimeoutError: job abc still 'running'"}
        assert store["scenario"] == "corrupt-store" and store["ok"] is True
        assert ('CHAOS-SUMMARY {"failed": ["boom"], "ok": false, '
                '"scenarios": 2}') in lines
