"""Tests for the priority-FIFO scheduler: dedup, backpressure, retry,
and crash recovery."""

import pytest

from repro.service import (
    JobSpec,
    JobState,
    QueueFullError,
    ResultStore,
    Scheduler,
    run_job,
)

FAST_SOLVE = dict(kind="solve", preset="vacuum", grid=10, wavelength=10.0,
                  tol=1e-4, max_steps=20)
#: grid 8 makes the tuner bail instantly (infeasible) -- the cheapest
#: real job for exercising the scheduler machinery.
FAST_TUNE = dict(kind="tune", grid=8, threads=2)


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
        sched = _sched(workers=1).start()
        try:
            spec = JobSpec(**FAST_TUNE, fault="always_fail", max_retries=0)
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

    def test_cancel_terminal_raises(self):
        sched = _sched(workers=1)
        job = sched.submit(JobSpec(**FAST_TUNE))
        sched.cancel(job.id)
        with pytest.raises(ValueError, match="not cancellable"):
            sched.cancel(job.id)


class TestRetry:
    def test_fail_once_retries_to_success(self):
        sched = _sched(workers=1).start()
        try:
            job = sched.submit(JobSpec(**FAST_TUNE, fault="fail_once",
                                       max_retries=2))
            done = sched.wait(job.id, timeout=30.0)
            assert done.state == JobState.DONE
            assert done.attempts == 2
            assert done.result["kind"] == "tune"
        finally:
            sched.stop()
        st = sched.stats()
        assert st["retries"] == 1 and st["worker_crashes"] == 0

    def test_always_fail_exhausts_budget(self):
        sched = _sched(workers=1).start()
        try:
            job = sched.submit(JobSpec(**FAST_TUNE, fault="always_fail",
                                       max_retries=2))
            done = sched.wait(job.id, timeout=30.0)
        finally:
            sched.stop()
        assert done.state == JobState.FAILED
        assert done.attempts == 3  # initial + 2 retries
        assert "retry budget 2 exhausted" in done.error
        assert sched.stats()["retries"] == 2

    def test_zero_budget_fails_first_error(self):
        sched = _sched(workers=1).start()
        try:
            job = sched.submit(JobSpec(**FAST_TUNE, fault="fail_once",
                                       max_retries=0))
            done = sched.wait(job.id, timeout=30.0)
        finally:
            sched.stop()
        assert done.state == JobState.FAILED and done.attempts == 1


class TestCrashRecovery:
    def test_killed_worker_requeues_and_completes(self):
        # The acceptance-criteria scenario: the worker process dies
        # mid-job (os._exit in the child -- no result, nonzero exit); the
        # dispatcher must count a crash and requeue until the job lands.
        sched = _sched(workers=1, mode="process").start()
        try:
            job = sched.submit(JobSpec(**FAST_TUNE, fault="crash_once",
                                       max_retries=2))
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
        # The spooled result matches an in-process execution exactly.
        assert done.result == run_job(JobSpec(**FAST_SOLVE))

    def test_deterministic_failure_in_child_is_not_a_crash(self):
        sched = _sched(workers=1, mode="process").start()
        try:
            job = sched.submit(JobSpec(**FAST_TUNE, fault="always_fail",
                                       max_retries=0))
            done = sched.wait(job.id, timeout=30.0)
        finally:
            sched.stop()
        assert done.state == JobState.FAILED
        assert "always_fail" in done.error
        assert sched.stats()["worker_crashes"] == 0


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
