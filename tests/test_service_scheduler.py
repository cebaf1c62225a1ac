"""Tests for the priority-FIFO scheduler: dedup, backpressure, retry,
and crash recovery."""

import os
import struct
import tempfile

import pytest

from repro import telemetry
from repro.resilience import faults
from repro.service import (
    JobSpec,
    JobState,
    PlanRegistry,
    QueueFullError,
    ResultStore,
    Scheduler,
    run_job,
)
from repro.service import scheduler as scheduler_module
from repro.service.scheduler import WorkerCrash

FAST_SOLVE = dict(kind="solve", preset="vacuum", grid=10, wavelength=10.0,
                  tol=1e-4, max_steps=20)
#: grid 8 makes the tuner bail instantly (infeasible) -- the cheapest
#: real job for exercising the scheduler machinery.
FAST_TUNE = dict(kind="tune", grid=8, threads=2)
FAST_BATCH = dict(kind="batch", preset="absorber", grid=10, tol=1e-4,
                  max_steps=40, threads=2, wavelengths=(10.0, 12.0))

#: Fault plans on the ``job.run`` site.  A spec fires once, at one pass
#: count: thread workers count passes across attempts, while each forked
#: worker counts from its parent's (which runs no job), so "always" is
#: one raise per pass -- each firing on any attempt -- and holds in both
#: modes.
FAIL_ONCE = "job.run:raise:0:1"
CRASH_ONCE = "job.run:crash:0:1"
ALWAYS_FAIL = ",".join(f"job.run:raise:{n}:*" for n in range(3))


@pytest.fixture(autouse=True)
def _no_plan():
    faults.uninstall()
    yield
    faults.uninstall()


def _plan(text):
    faults.install(faults.FaultPlan.parse(text))


def _sched(**kw):
    kw.setdefault("retry_base_s", 0.001)
    return Scheduler(**kw)


class TestDedup:
    def test_identical_specs_execute_once(self):
        sched = _sched(workers=2).start()
        try:
            a = sched.submit(JobSpec(**FAST_SOLVE))
            b = sched.submit(JobSpec(**FAST_SOLVE, priority=9))  # same id
            assert b is a and a.dedup_count == 1
            done = sched.wait(a.id, timeout=60.0)
            assert done.state == JobState.DONE
        finally:
            sched.stop()
        st = sched.stats()
        assert st["submitted"] == 2
        assert st["deduplicated"] == 1
        assert st["executed"] == 1
        assert st["completed"] == 1

    def test_store_hit_completes_without_execution(self):
        store = ResultStore()
        spec = JobSpec(**FAST_TUNE)
        store.put(spec.job_id, run_job(spec))
        sched = _sched(workers=1, store=store)  # never started
        job = sched.submit(spec)
        assert job.state == JobState.DONE and job.from_store
        assert job.result == run_job(spec)  # served bit-identically
        st = sched.stats()
        assert st["store_hits"] == 1 and st["executed"] == 0

    def test_failed_job_can_be_resubmitted(self):
        _plan(ALWAYS_FAIL)
        sched = _sched(workers=1).start()
        try:
            spec = JobSpec(**FAST_TUNE, max_retries=0)
            job = sched.submit(spec)
            assert sched.wait(job.id, timeout=30.0).state == JobState.FAILED
            retry = sched.submit(spec)
            assert retry is not job  # a fresh Job record, same id
            assert sched.wait(retry.id, timeout=30.0).state == JobState.FAILED
        finally:
            sched.stop()
        assert len(sched.jobs()) == 1  # listing stays deduplicated by id


class TestOrdering:
    def test_priority_then_fifo(self):
        sched = _sched(workers=1, queue_size=8)  # not started: inspect queue
        lo = sched.submit(JobSpec(**FAST_TUNE, priority=0))
        hi1 = sched.submit(JobSpec(**{**FAST_TUNE, 'grid': 10}, priority=5))
        hi2 = sched.submit(JobSpec(**{**FAST_TUNE, 'grid': 12}, priority=5))
        with sched._cv:
            order = [sched._next_job() for _ in range(3)]
        assert [j.id for j in order] == [hi1.id, hi2.id, lo.id]

    def test_popped_jobs_skip_cancelled(self):
        sched = _sched(workers=1, queue_size=8)
        a = sched.submit(JobSpec(**FAST_TUNE))
        b = sched.submit(JobSpec(**{**FAST_TUNE, 'grid': 10}))
        sched.cancel(a.id)
        with sched._cv:
            nxt = sched._next_job()
        assert nxt.id == b.id


class TestBackpressure:
    def test_queue_full_rejects_with_reason(self):
        sched = _sched(workers=1, queue_size=1)  # not started: jobs stay queued
        sched.submit(JobSpec(**FAST_TUNE))
        with pytest.raises(QueueFullError) as err:
            sched.submit(JobSpec(**{**FAST_TUNE, 'grid': 10}))
        assert "queue full (1/1" in err.value.reason
        assert sched.stats()["rejected"] == 1

    def test_dedup_bypasses_backpressure(self):
        sched = _sched(workers=1, queue_size=1)
        job = sched.submit(JobSpec(**FAST_TUNE))
        # A duplicate of the queued job coalesces instead of rejecting.
        assert sched.submit(JobSpec(**FAST_TUNE)) is job

    def test_cancelled_jobs_free_queue_slots(self):
        sched = _sched(workers=1, queue_size=1)
        job = sched.submit(JobSpec(**FAST_TUNE))
        sched.cancel(job.id)
        sched.submit(JobSpec(**{**FAST_TUNE, 'grid': 10}))  # no raise


class TestCancel:
    def test_cancel_queued(self):
        sched = _sched(workers=1)
        job = sched.submit(JobSpec(**FAST_TUNE))
        sched.cancel(job.id)
        assert job.state == JobState.CANCELLED
        assert sched.stats()["cancelled"] == 1

    def test_a_cancelled_spec_runs_when_resubmitted(self):
        sched = _sched(workers=1)
        spec = JobSpec(**FAST_TUNE)
        job = sched.submit(spec)
        sched.cancel(job.id)
        sched.start()
        try:
            again = sched.submit(spec)
            assert again is not job  # a fresh Job record, same id
            assert sched.wait(again.id, timeout=30.0).state == JobState.DONE
        finally:
            sched.stop()
        assert job.state == JobState.CANCELLED
        assert sched.stats()["executed"] == 1
        assert len(sched.jobs()) == 1  # listing stays deduplicated by id

    def test_a_resubmitted_cancelled_spec_is_queued_once(self, tmp_path):
        sched = _sched(workers=1)  # not started: inspect the queue
        spec = JobSpec(**FAST_TUNE)
        sched.cancel(sched.submit(spec).id)
        assert sched.submit(spec).state == JobState.QUEUED
        assert sched.persist_queue(str(tmp_path / "queue.json")) == 1

    def test_a_stopped_scheduler_starts_again(self):
        sched = _sched(workers=1).start()
        sched.stop()
        sched.start()
        try:
            job = sched.submit(JobSpec(**FAST_TUNE))
            assert sched.wait(job.id, timeout=30.0).state == JobState.DONE
        finally:
            sched.stop()

    def test_cancel_terminal_raises(self):
        sched = _sched(workers=1)
        job = sched.submit(JobSpec(**FAST_TUNE))
        sched.cancel(job.id)
        with pytest.raises(ValueError, match="not cancellable"):
            sched.cancel(job.id)


class TestRetry:
    def _fail_once(self, mode):
        _plan(FAIL_ONCE)
        sched = _sched(workers=1, mode=mode).start()
        try:
            job = sched.submit(JobSpec(**FAST_TUNE, max_retries=2))
            done = sched.wait(job.id, timeout=60.0)
            assert done.state == JobState.DONE
            assert done.attempts == 2
            assert done.result["kind"] == "tune"
        finally:
            sched.stop()
        st = sched.stats()
        assert st["retries"] == 1 and st["worker_crashes"] == 0

    def _always_fail(self, mode):
        _plan(ALWAYS_FAIL)
        sched = _sched(workers=1, mode=mode).start()
        try:
            job = sched.submit(JobSpec(**FAST_TUNE, max_retries=2))
            done = sched.wait(job.id, timeout=60.0)
        finally:
            sched.stop()
        assert done.state == JobState.FAILED
        assert done.attempts == 3  # initial + 2 retries
        assert "retry budget 2 exhausted" in done.error
        assert sched.stats()["retries"] == 2

    def test_fail_once_retries_to_success(self):
        self._fail_once("thread")

    def test_fail_once_retries_to_success_in_forked_workers(self):
        self._fail_once("process")

    def test_always_fail_exhausts_budget(self):
        self._always_fail("thread")

    def test_always_fail_exhausts_budget_in_forked_workers(self):
        self._always_fail("process")

    def test_zero_budget_fails_first_error(self):
        _plan(FAIL_ONCE)
        sched = _sched(workers=1).start()
        try:
            job = sched.submit(JobSpec(**FAST_TUNE, max_retries=0))
            done = sched.wait(job.id, timeout=30.0)
        finally:
            sched.stop()
        assert done.state == JobState.FAILED and done.attempts == 1


class TestCrashRecovery:
    def test_killed_worker_requeues_and_completes(self):
        # The acceptance-criteria scenario: the worker process dies
        # mid-job (os._exit in the child -- no result, nonzero exit); the
        # dispatcher must count a crash and requeue until the job lands.
        _plan(CRASH_ONCE)
        sched = _sched(workers=1, mode="process").start()
        try:
            job = sched.submit(JobSpec(**FAST_TUNE, max_retries=2))
            done = sched.wait(job.id, timeout=60.0)
            assert done.state == JobState.DONE
            assert done.attempts == 2
            assert "worker died mid-job" in done.error  # attempt-1 record
        finally:
            sched.stop()
        st = sched.stats()
        assert st["worker_crashes"] == 1
        assert st["retries"] == 1
        assert st["completed"] == 1

    def test_process_mode_runs_clean_jobs(self):
        sched = _sched(workers=2, mode="process").start()
        try:
            job = sched.submit(JobSpec(**FAST_SOLVE))
            done = sched.wait(job.id, timeout=60.0)
            assert done.state == JobState.DONE
        finally:
            sched.stop()
        # The result the worker sent home matches an in-process run exactly.
        assert done.result == run_job(JobSpec(**FAST_SOLVE))

    def test_deterministic_failure_in_child_is_not_a_crash(self):
        _plan(ALWAYS_FAIL)
        sched = _sched(workers=1, mode="process").start()
        try:
            job = sched.submit(JobSpec(**FAST_TUNE, max_retries=0))
            done = sched.wait(job.id, timeout=30.0)
        finally:
            sched.stop()
        assert done.state == JobState.FAILED
        assert "injected failure at job.run" in done.error
        assert sched.stats()["worker_crashes"] == 0


class TestForkedWorkerBody:
    """A forked worker runs a thread worker's attempt over the objects it
    inherits: the node's registry and store, not copies rebuilt from
    their roots."""

    def test_a_tuned_plan_names_the_node(self, tmp_path):
        registry = PlanRegistry(str(tmp_path), node_id="nodeA")
        sched = _sched(workers=1, mode="process", registry=registry).start()
        try:
            job = sched.submit(JobSpec(**FAST_TUNE))
            assert sched.wait(job.id, timeout=60.0).state == JobState.DONE
        finally:
            sched.stop()
        assert [e["meta"].get("node") for e in registry.entries()] == ["nodeA"]
        assert registry.counters()["misses"] == 1  # the child's delta came home

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_a_batch_dedups_against_an_in_memory_store(self, mode):
        spec = JobSpec(**FAST_BATCH)
        first = spec.point_spec(FAST_BATCH["wavelengths"][0])
        store = ResultStore()
        store.put(first.job_id, run_job(first))
        sched = _sched(workers=1, mode=mode, store=store).start()
        try:
            job = sched.submit(spec)
            done = sched.wait(job.id, timeout=120.0)
        finally:
            sched.stop()
        assert done.state == JobState.DONE, done.error
        assert (done.result["dedup_hits"], done.result["solved"]) == (1, 1)

    def test_a_plan_a_worker_tuned_serves_the_next_job(self):
        """The plan document comes home in the envelope: the tiled solve
        after the tune hits an in-memory registry in process mode too."""
        registry = PlanRegistry()
        sched = _sched(workers=1, mode="process", registry=registry).start()
        try:
            for spec in (JobSpec(kind="tune", grid=10, threads=2),
                         JobSpec(**dict(FAST_SOLVE, max_steps=8, tiled=True,
                                        threads=2, tuning="registry"))):
                done = sched.wait(sched.submit(spec).id, timeout=60.0)
                assert done.state == JobState.DONE, done.error
        finally:
            sched.stop()
        assert registry.counters() == {"hits": 1, "misses": 1, "stores": 1,
                                       "entries": 1}

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_a_batch_counts_its_store_lookups(self, mode):
        """The batch's own lookup misses here; its points' lookups (one
        hit, one miss) are counted wherever the worker runs."""
        spec = JobSpec(**FAST_BATCH)
        first = spec.point_spec(FAST_BATCH["wavelengths"][0])
        store = ResultStore()
        store.put(first.job_id, run_job(first))
        sched = _sched(workers=1, mode=mode, store=store).start()
        try:
            done = sched.wait(sched.submit(spec).id, timeout=120.0)
        finally:
            sched.stop()
        assert done.state == JobState.DONE, done.error
        counters = store.counters()
        assert (counters["hits"], counters["misses"], counters["puts"]) == (1, 2, 3)

    def test_a_process_worker_makes_no_temp_dir(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a temp dir was made")

        monkeypatch.setattr(tempfile, "mkdtemp", refuse)
        sched = _sched(workers=1, mode="process").start()
        try:
            job = sched.submit(JobSpec(**FAST_SOLVE))
            assert sched.wait(job.id, timeout=60.0).state == JobState.DONE
        finally:
            sched.stop()


class TestHandOff:
    """A forked worker's one pipe home: its events while it runs, then
    one envelope; an exit without a whole envelope is a crash."""

    def test_more_than_the_pipe_holds_arrives_whole(self, monkeypatch):
        spec = JobSpec(**FAST_TUNE)
        blob = "x" * 4096

        def flood(sched, spec, attempt):  # 256 x 4 KiB: 1 MiB of events
            for i in range(256):
                telemetry.PROGRESS.publish(spec.job_id, "progress", i=i,
                                           blob=blob)
            return {"kind": "tune"}, None, {"saves": 0}

        monkeypatch.setattr(Scheduler, "_attempt", flood)
        telemetry.PROGRESS.forget(spec.job_id)
        try:
            outcome = Scheduler(mode="process")._execute_in_child(spec, 1)
            events, _, missed = telemetry.PROGRESS.events_since(spec.job_id)
        finally:
            telemetry.PROGRESS.forget(spec.job_id)
        assert outcome == ({"kind": "tune"}, None, {"saves": 0})
        assert [e["i"] for e in events] == list(range(256)) and missed == 0
        assert all(e["blob"] == blob for e in events)

    def test_an_exit_without_an_envelope_is_a_crash(self, monkeypatch):
        monkeypatch.setattr(Scheduler, "_attempt",
                            lambda sched, spec, attempt: os._exit(3))
        with pytest.raises(WorkerCrash, match="exit code 3"):
            Scheduler(mode="process")._execute_in_child(
                JobSpec(**FAST_TUNE), 1)

    def test_an_exit_mid_send_is_a_crash(self, monkeypatch):
        def torn(conn, sched, spec, attempt):
            # A message header announcing 1 MiB, then 64 bytes of it.
            os.write(conn.fileno(), struct.pack("!i", 1 << 20) + b"x" * 64)
            os._exit(0)

        monkeypatch.setattr(scheduler_module, "_child_entry", torn)
        with pytest.raises(WorkerCrash, match="no result"):
            Scheduler(mode="process")._execute_in_child(
                JobSpec(**FAST_TUNE), 1)


class TestWaiting:
    def test_wait_timeout(self):
        sched = _sched(workers=1)  # not started: job never runs
        job = sched.submit(JobSpec(**FAST_TUNE))
        with pytest.raises(TimeoutError):
            sched.wait(job.id, timeout=0.05)

    def test_join_drains_everything(self):
        sched = _sched(workers=2).start()
        try:
            jobs = [sched.submit(JobSpec(**{**FAST_TUNE, 'grid': g}))
                    for g in (8, 10, 12)]
            sched.join(timeout=60.0)
        finally:
            sched.stop()
        assert all(j.state == JobState.DONE for j in jobs)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Scheduler(workers=0)
        with pytest.raises(ValueError):
            Scheduler(queue_size=0)
        with pytest.raises(ValueError):
            Scheduler(mode="coroutine")


class TestCheckpointDir:
    def test_the_dir_a_scheduler_made_goes_with_stop(self, monkeypatch,
                                                     tmp_path):
        """Checkpointing on with no directory named: each start makes a
        fresh ``repro-ckpt-*`` dir and its stop removes it, while a
        directory the caller named is left alone."""
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "10")
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        os.mkdir(tmp_path / "tmp")
        sched = _sched(workers=1)
        made = []
        for _ in range(3):
            sched.start()
            made.append(sched.checkpoint_dir)
            assert os.path.isdir(made[-1])
            sched.stop()
        assert len(set(made)) == 3
        assert os.listdir(tmp_path / "tmp") == []
        named = _sched(workers=1, checkpoint_dir=str(tmp_path))
        named.start().stop()
        assert named.checkpoint_dir == str(tmp_path)
        assert os.path.isdir(tmp_path)


class TestAllocatorPolicy:
    def test_start_pins_the_malloc_thresholds(self, monkeypatch):
        """A serving process does not leave job latency to whatever block
        it freed last: ``start`` asks libc to keep its heap (once -- a
        second ``start`` is a no-op), and on glibc that succeeds."""
        import platform

        from repro import nativelib

        if platform.libc_ver()[0] == "glibc":
            assert nativelib.retain_heap() is True
        calls = []
        monkeypatch.setattr(nativelib, "retain_heap",
                            lambda: calls.append(1) or True)
        sched = _sched(workers=1).start()
        try:
            sched.start()
        finally:
            sched.stop()
        assert calls == [1]
