"""Resilience through the service stack: crash/resume, drain, spool.

The seeded worker-crash property itself (kill at a seeded sweep, retry
resumes from the checkpoint, bit-identical, exactly once) is a row of
the scenario table -- ``tests/test_chaos_scenarios.py`` runs it; this
module covers what surrounds it: an unfaulted checkpointed run, the rate
gauges after a resume, drain, spool and fail-fast.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.resilience import faults
from repro.resilience.checkpoint import take_report
from repro.resilience.errors import InjectedFault, SolverDiverged
from repro.service import JobSpec, PlanRegistry, ResultStore, Scheduler, run_job
from repro.service.jobs import JobState

CHAOS_SOLVE = dict(kind="solve", preset="vacuum", grid=10, wavelength=10.0,
                   tol=1e-12, max_steps=120, max_retries=2)
FAST_TUNE = dict(kind="tune", grid=8, threads=2)


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    for var in ("REPRO_FAULTS", "REPRO_CHECKPOINT_EVERY",
                "REPRO_CHECKPOINT_DIR"):
        monkeypatch.delenv(var, raising=False)
    faults.uninstall()
    take_report()
    yield
    faults.uninstall()
    take_report()


class TestCrashResume:
    def test_unchaosed_run_with_checkpoints_is_unchanged(
            self, tmp_path, monkeypatch):
        """Checkpointing alone (no fault) must not perturb the result."""
        clean = run_job(JobSpec(**CHAOS_SOLVE))
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "40")
        sched = Scheduler(workers=1, mode="process", retry_base_s=0.001,
                          checkpoint_dir=str(tmp_path)).start()
        try:
            job = sched.submit(JobSpec(**CHAOS_SOLVE))
            sched.wait(job.id, timeout=120.0)
            assert job.state == JobState.DONE
            assert job.result == clean
            assert job.attempts == 1 and job.resumed_from is None
            # The snapshot is cleared once the result is stored.
            assert [f for f in os.listdir(tmp_path)
                    if f.startswith("ckpt-")] == []
        finally:
            sched.stop()


    @pytest.mark.parametrize("kind", ["solve", "batch", "distributed"])
    def test_rates_count_only_the_sweeps_this_attempt_ran(
            self, kind, tmp_path, monkeypatch):
        """Resume at sweep 40 of 60: the rate gauges divide this
        attempt's wall time into the 20 sweeps it ran, not the 60 the
        result reports."""
        from types import SimpleNamespace

        from repro import telemetry
        from repro.service import jobs

        extra = {"solve": {}, "distributed": {"ranks": "2x1x1"},
                 "batch": {"wavelengths": (10.0,)}}[kind]
        spec = JobSpec(kind=kind, preset="vacuum", grid=10, wavelength=10.0,
                       tol=1e-12, max_steps=60, **extra)
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "20")
        faults.install(faults.FaultPlan.parse("solver.sweep:raise:2"))
        with pytest.raises(InjectedFault):
            run_job(spec, checkpoint_dir=str(tmp_path))
        faults.uninstall()

        # Every solve takes exactly one second on this clock.
        ticks = iter(range(1000))
        monkeypatch.setattr(jobs, "time", SimpleNamespace(
            perf_counter=lambda: float(next(ticks)), time=time.time))
        was_on = telemetry.enabled()
        telemetry.enable(force=True)
        value = telemetry.METRICS.get_value
        telemetry.sweeps_total()  # exists before the first read
        sweeps_before = value("solver_sweeps_total")
        try:
            doc = run_job(spec, checkpoint_dir=str(tmp_path))
            point = doc["points"][0]["result"] if kind == "batch" else doc
            assert point["iterations"] == 60
            assert take_report()["resumed_from"] == 40
            assert value("solver_sweeps_per_second") == 20.0
            assert value("solver_mlups") == 20.0 * 20 * 10 * 10 / 1e6
            assert value("solver_sweeps_total") - sweeps_before == 20
        finally:
            if not was_on:
                telemetry.disable()


class TestFailFast:
    def test_non_retryable_error_skips_the_retry_budget(self, monkeypatch):
        def diverge(spec, **kw):
            raise SolverDiverged("blew up", steps=40)

        from repro.service import scheduler as sched_mod
        monkeypatch.setattr(sched_mod, "run_job", diverge)
        sched = Scheduler(workers=1, retry_base_s=0.001).start()
        try:
            job = sched.submit(JobSpec(**CHAOS_SOLVE))
            sched.wait(job.id, timeout=30.0)
            assert job.state == JobState.FAILED
            assert job.attempts == 1  # no retries burned
            assert job.error_kind == "SolverDiverged"
            assert "not retryable" in job.error
            assert sched.stats()["retries"] == 0
        finally:
            sched.stop()

    def test_retryable_kind_survives_the_process_boundary(
            self, monkeypatch):
        """An InjectedFault raised in the child comes back typed (via the
        envelope's error kind) and is retried until the budget runs out."""
        monkeypatch.setenv("REPRO_FAULTS", "job.run:raise:0:*")
        spec = JobSpec(**dict(FAST_TUNE, max_retries=1))
        sched = Scheduler(workers=1, mode="process",
                          retry_base_s=0.001).start()
        try:
            job = sched.submit(spec)
            sched.wait(job.id, timeout=60.0)
            assert job.state == JobState.FAILED
            assert job.attempts == 2  # budget of 1 retry was spent
            assert job.error_kind == "InjectedFault"
            assert "retry budget 1 exhausted" in job.error
        finally:
            sched.stop()


class TestDrainAndSpool:
    def test_drain_finishes_running_and_keeps_queued(self):
        sched = Scheduler(workers=1, retry_base_s=0.001).start()
        try:
            first = sched.submit(JobSpec(**dict(CHAOS_SOLVE, max_steps=400)))
            second = sched.submit(JobSpec(**FAST_TUNE))
            # Wait for the solve to actually start before draining.
            deadline = time.monotonic() + 30.0
            while first.state == JobState.QUEUED:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert sched.drain(timeout=60.0) is True
            assert sched.draining is True
            assert first.state == JobState.DONE
            assert second.state == JobState.QUEUED  # never dispatched
            assert sched.queue_depth() == 1
        finally:
            sched.stop()

    def test_persist_and_restore_round_trip(self, tmp_path):
        spool = str(tmp_path / "queue.json")
        cold = Scheduler(workers=1)  # never started: everything queues
        a = cold.submit(JobSpec(**FAST_TUNE))
        b = cold.submit(JobSpec(**dict(FAST_TUNE, grid=10, priority=2)))
        assert cold.persist_queue(spool) == 2

        warm = Scheduler(workers=2, retry_base_s=0.001).start()
        try:
            assert warm.restore_queue(spool) == 2
            assert not os.path.exists(spool)  # consumed
            warm.join(timeout=60.0)
            for job_id in (a.id, b.id):
                assert warm.get(job_id).state == JobState.DONE
        finally:
            warm.stop()

    def test_corrupt_spool_restores_nothing(self, tmp_path):
        from repro.ioutil import corrupt_file

        spool = str(tmp_path / "queue.json")
        cold = Scheduler(workers=1)
        cold.submit(JobSpec(**FAST_TUNE))
        cold.persist_queue(spool)
        corrupt_file(spool)
        warm = Scheduler(workers=1)
        assert warm.restore_queue(spool) == 0
        assert os.path.exists(spool + ".corrupt")

    def test_persist_preserves_priority_order(self, tmp_path):
        from repro.ioutil import read_json_checked

        spool = str(tmp_path / "queue.json")
        cold = Scheduler(workers=1)
        low = cold.submit(JobSpec(**dict(FAST_TUNE, priority=0)))
        high = cold.submit(JobSpec(**dict(FAST_TUNE, grid=10, priority=5)))
        cold.persist_queue(spool)
        doc = read_json_checked(spool)
        grids = [e["spec"]["grid"] for e in doc["jobs"]]
        assert grids == [10, 8]  # high priority first
        assert low.id != high.id

    def test_a_spool_entry_is_its_spec_and_older_entries_restore(
            self, tmp_path):
        from repro.ioutil import atomic_write_json, read_json_checked
        from repro.service.scheduler import QUEUE_SPOOL_VERSION

        spool = str(tmp_path / "queue.json")
        cold = Scheduler(workers=1)
        cold.submit(JobSpec(**FAST_TUNE))
        cold.persist_queue(spool)
        assert [set(e) for e in read_json_checked(spool)["jobs"]] == [{"spec"}]
        # A spool written with the former per-entry attempt count.
        atomic_write_json(spool, {"version": QUEUE_SPOOL_VERSION, "jobs": [
            {"spec": JobSpec(**FAST_TUNE).to_dict(), "attempts": 2}]},
            checksum=True)
        assert Scheduler(workers=1).restore_queue(spool) == 1


def _serve(data_dir, env=None, mode=None):
    """A `repro serve` process over one data root (the default worker
    mode unless ``mode`` names one), its startup lines read:
    ``(proc, lines)``, the last line the service banner."""
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "1", "--data-dir", str(data_dir),
         "--drain-timeout", "30"] + (["--mode", mode] if mode else []),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))),
    )
    lines = [proc.stdout.readline()]
    while lines[-1].startswith("restored "):
        lines.append(proc.stdout.readline())
    return proc, lines


def _sigterm(proc):
    """SIGTERM a serve process; its remaining output once it exited."""
    try:
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60.0)
    except Exception:
        proc.kill()
        raise
    assert proc.returncode == 0, out
    return out


class TestServeGracefulShutdown:
    def test_sigterm_drains_spools_and_exits_zero(self, tmp_path):
        """End-to-end: `repro serve` under SIGTERM finishes in-flight
        work, spools the queue, and exits 0."""
        proc, lines = _serve(tmp_path / "node")
        assert "repro service on http://" in lines[-1]
        out = _sigterm(proc)
        assert "shutdown: drained" in out

    def test_data_dir_holds_every_piece_of_node_state(self, tmp_path):
        """--data-dir is the node's one state root: the registry, the
        results and the checkpoints land under it, and it spools its
        queue there and restores it on the next start."""
        import json
        import urllib.request

        root = tmp_path / "node"
        spool = str(root / "queue.json")
        # A solve long enough to be running at SIGTERM (checkpointed),
        # and a tune queued behind it.
        slow = JobSpec(kind="solve", preset="vacuum", grid=20,
                       wavelength=10.0, tol=1e-12, max_steps=3000,
                       priority=1)
        tune = JobSpec(**FAST_TUNE)
        seed = Scheduler(workers=1)
        seed.submit(slow)
        seed.submit(tune)
        assert seed.persist_queue(spool) == 2

        proc, lines = _serve(root, env={"REPRO_CHECKPOINT_EVERY": "1000"},
                             mode="thread")
        assert lines[0] == f"restored 2 queued job(s) from {spool}\n"
        out = _sigterm(proc)
        assert f"shutdown: drained; spooled 1 queued job(s) -> {spool}" in out

        proc, lines = _serve(root, mode="thread")
        assert lines[0] == f"restored 1 queued job(s) from {spool}\n"
        base = lines[-1].split(" on ")[1].split()[0]
        deadline = time.monotonic() + 60.0
        while True:
            with urllib.request.urlopen(f"{base}/jobs/{tune.job_id}") as r:
                if json.load(r)["state"] == "done":
                    break
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert "shutdown: drained" in _sigterm(proc)

        assert sorted(os.listdir(root)) == [
            "checkpoints", "queue.json", "registry", "results"]
        assert os.listdir(root / "checkpoints") == []  # cleared once stored
        assert ResultStore(str(root / "results")).ids() == sorted(
            [slow.job_id, tune.job_id])
        assert PlanRegistry(str(root / "registry")).counters()["entries"] == 1
        assert Scheduler(workers=1).restore_queue(spool) == 0
