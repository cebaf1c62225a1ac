"""Priority-FIFO job scheduler with worker pool, backpressure and retry.

Submission path
---------------
``submit(spec)`` coalesces aggressively before any work happens:

1. an in-flight or completed job with the same content-addressed id
   absorbs the submission (dedup -- one execution per unique spec);
2. a result already in the persistent store completes the job instantly
   (served bit-identically, no execution);
3. otherwise the job enters a *bounded* priority queue -- when full the
   submission is rejected with a reason (:class:`QueueFullError`), which
   the HTTP layer surfaces as 503 backpressure.

Ordering is (higher ``priority`` first, FIFO within a priority level),
implemented as a heap keyed ``(-priority, seq)``.

Execution path
--------------
``workers`` dispatcher threads pop jobs and execute them either inline
(``mode="thread"``) or in a forked child process (``mode="process"``).
Both run one attempt body (:meth:`Scheduler._attempt`): :func:`run_job`
over the scheduler's registry, store and checkpoint directory, then the
checkpoint report.  A forked worker is a :class:`~repro.forksafe.Child`
(the package's one fork site, shared with cluster ranks): it inherits
those objects and reports home over the child's pipe -- each progress
event as it publishes it, then one envelope with the outcome.  A child
that dies mid-job (nonzero exit, signal, timeout) sends no envelope;
the dispatcher counts it as a crash and *requeues* the job with
exponential backoff until the spec's retry budget is spent -- the
crash-recovery contract.  Deterministic job failures (exceptions)
consume the same budget.

Telemetry: every attempt runs under its job's
:class:`~repro.telemetry.JobContext` in a trace span, retries/rejections
emit instants, and ``stats()`` exposes the counter set ``GET /metrics``
serves.
"""

from __future__ import annotations

import heapq
import os
import shutil
import tempfile
import threading
import time
from typing import Dict, List, Optional

from .. import telemetry
from ..forksafe import Child
from ..ioutil import atomic_write_json, read_json_checked
from ..resilience.checkpoint import latest_lag_s, take_report
from ..resilience.errors import RankCrash, ReproError, error_from_kind
from .jobs import Job, JobSpec, JobState, run_job
from .registry import PlanRegistry
from .store import ResultStore

__all__ = ["Scheduler", "QueueFullError", "WorkerCrash"]

#: Queue-spool payload format (graceful-restart persistence).
QUEUE_SPOOL_VERSION = 1


class QueueFullError(RuntimeError):
    """Backpressure: the bounded queue rejected a submission."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class WorkerCrash(RuntimeError):
    """A worker process died mid-job (no result produced)."""


def _child_entry(conn, sched: "Scheduler", spec: JobSpec,
                 attempt: int) -> None:
    """Forked worker body (a :class:`~repro.forksafe.Child`): a thread
    worker's attempt, reported home in one envelope.

    The fork inherits the scheduler, so the child runs
    :meth:`Scheduler._attempt` over the same registry, store and
    checkpoint directory a thread worker uses; its progress events go
    home as it publishes them.  The envelope carries the result or the
    typed error (kind and message, rehydrated via
    :func:`~repro.resilience.errors.error_from_kind`), the checkpoint
    report (how crashed jobs get resumed), the registry's and the
    store's counter deltas since the fork and the documents they added
    (a plan the child tuned, the points of a batch: an in-memory
    registry or store has them nowhere else) and
    :func:`telemetry.child_report`.  Only a genuine crash (or an
    injected ``crash`` fault) sends no envelope.
    """
    marks = sched.registry.fork_mark(), sched.store.fork_mark()
    result, error, report = sched._attempt(spec, attempt)
    conn.send({
        "type": "envelope",
        "result": result,
        "error": None if error is None else (
            type(error).__name__, f"{type(error).__name__}: {error}"),
        "checkpoint": report,
        "registry": sched.registry.fork_report(marks[0]),
        "store": sched.store.fork_report(marks[1]),
        "telemetry": telemetry.child_report(),
    })


class Scheduler:
    """Bounded priority-FIFO scheduler over a pool of workers."""

    def __init__(
        self,
        workers: int = 2,
        queue_size: int = 64,
        registry: Optional[PlanRegistry] = None,
        store: Optional[ResultStore] = None,
        mode: str = "thread",
        retry_base_s: float = 0.05,
        checkpoint_dir: Optional[str] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if mode not in ("thread", "process"):
            raise ValueError("mode must be 'thread' or 'process'")
        self.registry = registry if registry is not None else PlanRegistry()
        self.store = store if store is not None else ResultStore()
        self.workers = workers
        self.queue_size = queue_size
        self.mode = mode
        self.retry_base_s = retry_base_s
        self.checkpoint_dir = checkpoint_dir
        self._own_checkpoint_dir: Optional[str] = None
        self._heap: List[tuple] = []  # (-priority, seq, job_id)
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []  # submission order (listing)
        self._cv = threading.Condition()
        self._seq = 0
        self._stopping = False
        self._draining = False
        self._threads: List[threading.Thread] = []
        self._collector = None
        # -- counters (all guarded by _cv) --
        self.n_submitted = 0
        self.n_dedup = 0
        self.n_store_hits = 0
        self.n_rejected = 0
        self.n_executed = 0
        self.n_retries = 0
        self.n_crashes = 0
        self.n_completed = 0
        self.n_failed = 0
        self.n_cancelled = 0
        self.n_resumed = 0

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "Scheduler":
        from .. import config, nativelib

        if self._threads:
            return self
        self._stopping = False  # a stopped scheduler starts again
        # Job latency must not depend on what the process freed before.
        nativelib.retain_heap()
        # Serving implies telemetry (REPRO_TELEMETRY=0 still vetoes).
        telemetry.enable()
        if telemetry.enabled():
            self._register_metrics()
        if (self.checkpoint_dir is None
                and config.get("REPRO_CHECKPOINT_EVERY") > 0):
            self.checkpoint_dir = config.get("REPRO_CHECKPOINT_DIR")
            if not self.checkpoint_dir:  # ours: stop() removes it
                self.checkpoint_dir = self._own_checkpoint_dir = (
                    tempfile.mkdtemp(prefix="repro-ckpt-"))
        for i in range(self.workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"repro-worker-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)
        return self

    def stop(self, timeout: float = 10.0) -> None:
        with self._cv:
            self._stopping = True
            self._cv.notify_all()
        for t in self._threads:
            t.join(timeout=timeout)
        self._threads = []
        if self._collector is not None:
            telemetry.METRICS.unregister_collector(self._collector)
            self._collector = None
        if self._own_checkpoint_dir is not None:
            shutil.rmtree(self._own_checkpoint_dir, ignore_errors=True)
            self.checkpoint_dir = self._own_checkpoint_dir = None

    def _register_metrics(self) -> None:
        """Reflect existing counter sources into gauges at scrape time.

        The scheduler, registry and store already keep their own
        counters; rather than double-counting on the hot path, a
        collector mirrors them into the metrics registry whenever
        ``/metrics`` renders.
        """
        m = telemetry.METRICS
        queue_depth = m.gauge(
            "queue_depth", "Jobs waiting in the bounded priority queue")
        running = m.gauge("jobs_running", "Jobs currently executing")
        by_state = m.gauge("jobs_by_state",
                           "Jobs known to the scheduler, by lifecycle state",
                           labelnames=("state",))
        workers_g = m.gauge("scheduler_workers",
                            "Dispatcher threads in the worker pool")
        hit_ratio = m.gauge(
            "plan_registry_hit_ratio",
            "Fraction of plan lookups served without re-tuning")
        lookups = m.gauge("plan_registry_lookups",
                          "Plan-registry lookup counters, by outcome",
                          labelnames=("outcome",))
        store_ops = m.gauge("result_store_ops",
                            "Result-store counters, by operation",
                            labelnames=("op",))
        ckpt_lag = m.gauge(
            "checkpoint_lag_seconds",
            "Age of the newest checkpoint snapshot (-1 when none exists)")
        dropped = m.gauge(
            "progress_events_dropped",
            "Progress events evicted from full ring buffers (oldest first)")

        def collect() -> None:
            stats = self.stats()
            states = stats["states"]
            queue_depth.set(states.get(JobState.QUEUED, 0))
            running.set(states.get(JobState.RUNNING, 0))
            for state, n in states.items():
                by_state.labels(state=state).set(n)
            workers_g.set(self.workers)
            reg = self.registry.counters()
            total = reg.get("hits", 0) + reg.get("misses", 0)
            hit_ratio.set(reg.get("hits", 0) / total if total else 0.0)
            for outcome in ("hits", "misses", "stores"):
                lookups.labels(outcome=outcome).set(reg.get(outcome, 0))
            sto = self.store.counters()
            for op in ("hits", "misses", "puts"):
                store_ops.labels(op=op).set(sto.get(op, 0))
            store_ops.labels(op="entries").set(sto.get("entries", 0))
            lag = latest_lag_s(self.checkpoint_dir)
            ckpt_lag.set(-1.0 if lag is None else lag)
            dropped.set(telemetry.PROGRESS.dropped_total())

        self._collector = collect
        m.register_collector(collect)

    # -- graceful shutdown -------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def queue_depth(self) -> int:
        with self._cv:
            return sum(1 for j in self._jobs.values()
                       if j.state == JobState.QUEUED)

    def running_count(self) -> int:
        with self._cv:
            return sum(1 for j in self._jobs.values()
                       if j.state == JobState.RUNNING)

    def drain(self, timeout: float = 10.0) -> bool:
        """Stop dispatching queued jobs, wait for the running ones.

        Returns True when every in-flight job reached a terminal or
        queued (requeued-on-failure) state within ``timeout``; queued
        jobs are left queued, for :meth:`persist_queue`.
        """
        with self._cv:
            self._draining = True
            self._cv.notify_all()
        telemetry.instant("scheduler.drain", "service",
                          args={"queued": self.queue_depth()})
        deadline = time.monotonic() + timeout
        with self._cv:
            while any(j.state == JobState.RUNNING
                      for j in self._jobs.values()):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cv.wait(timeout=min(remaining, 0.2))
        return True

    def persist_queue(self, path: str) -> int:
        """Spool the still-queued specs to ``path`` (atomic, checksummed)
        so a graceful restart can resubmit them; returns how many."""
        with self._cv:
            queued = [self._jobs[job_id]
                      for _, _, job_id in sorted(self._heap)
                      if self._jobs[job_id].state == JobState.QUEUED]
        docs = [{"spec": j.spec.to_dict()} for j in queued]
        atomic_write_json(
            path, {"version": QUEUE_SPOOL_VERSION, "jobs": docs},
            checksum=True)
        return len(docs)

    def restore_queue(self, path: str) -> int:
        """Resubmit the specs a previous process spooled at ``path``
        (corrupt spools quarantine and restore nothing); returns how
        many were accepted."""
        doc = read_json_checked(path)
        if not doc or doc.get("version") != QUEUE_SPOOL_VERSION:
            return 0
        restored = 0
        for entry in doc.get("jobs") or []:
            try:
                self.submit(JobSpec.from_dict(entry["spec"]))
                restored += 1
            except (QueueFullError, ValueError, KeyError, TypeError):
                continue  # a full queue or foreign entry drops the job
        try:
            os.unlink(path)
        except OSError:
            pass
        return restored

    # -- submission ------------------------------------------------------------

    def submit(self, spec: JobSpec,
               trace_id: Optional[str] = None) -> Job:
        """Queue a spec; dedups, serves from store, or rejects when full.

        ``trace_id`` (optional) adopts a caller-minted trace id -- the
        fleet gateway forwards its span's id over the HTTP hop so one
        trace covers gateway routing and node-side execution.
        """
        with self._cv:
            self.n_submitted += 1
            if telemetry.enabled():
                telemetry.jobs_submitted().inc()
            existing = self._jobs.get(spec.job_id)
            if existing is not None and existing.state not in (
                    JobState.FAILED, JobState.CANCELLED):
                existing.dedup_count += 1
                self.n_dedup += 1
                if telemetry.enabled():
                    telemetry.job_outcomes().labels(outcome="dedup").inc()
                return existing
            cached = self.store.get(spec.job_id)
            job = Job(spec)
            if trace_id:
                job.trace_id = trace_id
            if cached is not None:
                job.state = JobState.DONE
                job.result = cached
                job.from_store = True
                job.finished_at = time.time()
                self.n_store_hits += 1
                self.n_completed += 1
                self._register(job)
                if telemetry.enabled():
                    telemetry.job_outcomes().labels(outcome="store_hit").inc()
                telemetry.publish_for(job.id, "end", state=JobState.DONE,
                                      from_store=True)
                return job
            queued = sum(
                1 for j in self._jobs.values() if j.state == JobState.QUEUED
            )
            if queued >= self.queue_size:
                self.n_rejected += 1
                if telemetry.enabled():
                    telemetry.job_outcomes().labels(outcome="rejected").inc()
                reason = (
                    f"queue full ({queued}/{self.queue_size} jobs queued); "
                    f"retry after in-flight jobs drain"
                )
                telemetry.instant("job.rejected", "service",
                                  args={"id": spec.job_id[:12]})
                raise QueueFullError(reason)
            self._register(job)
            self._push(job)
            self._mark_queued(job)
            # Job ids are content hashes, so a fresh submission of a spec
            # an earlier scheduler ran still keys the old ring: reset it,
            # or event streams would replay the previous run first.
            telemetry.PROGRESS.forget(job.id)
            telemetry.publish_for(job.id, "state", state=JobState.QUEUED,
                                  trace_id=job.trace_id)
            self._cv.notify()
            return job

    def _mark_queued(self, job: Job) -> None:
        """Remember when a job entered the queue, for the queue-wait
        histogram and the ``queued`` span in the merged trace."""
        job.queued_mono = time.monotonic()
        rec = telemetry.recorder()
        job.queued_ts_us = rec.now_us() if rec is not None else None

    def _register(self, job: Job) -> None:
        if job.id not in self._jobs:  # a failed or cancelled job may be resubmitted
            self._order.append(job.id)
        self._jobs[job.id] = job

    def _push(self, job: Job) -> None:
        heapq.heappush(self._heap, (-job.spec.priority, self._seq, job.id))
        self._seq += 1

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job (running/terminal jobs are not cancellable)."""
        with self._cv:
            job = self._jobs[job_id]
            if job.state != JobState.QUEUED:
                raise ValueError(f"job {job_id} is {job.state}, not cancellable")
            job.transition(JobState.CANCELLED)
            self.n_cancelled += 1
            # Its heap entry goes too: a resubmitted spec is a new entry.
            self._heap = [e for e in self._heap if e[2] != job_id]
            heapq.heapify(self._heap)
            return job

    # -- queries ---------------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._cv:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._cv:
            return [self._jobs[i] for i in self._order]

    def wait(self, job_id: str, timeout: float = 60.0) -> Job:
        """Block until a job reaches a terminal state."""
        deadline = time.monotonic() + timeout
        with self._cv:
            while True:
                job = self._jobs[job_id]
                if job.terminal:
                    return job
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(f"job {job_id} still {job.state}")
                self._cv.wait(timeout=min(remaining, 0.5))

    def join(self, timeout: float = 120.0) -> None:
        """Block until every submitted job is terminal."""
        deadline = time.monotonic() + timeout
        with self._cv:
            while any(not j.terminal for j in self._jobs.values()):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("jobs still in flight")
                self._cv.wait(timeout=min(remaining, 0.5))

    def stats(self) -> Dict[str, object]:
        with self._cv:
            states: Dict[str, int] = {s: 0 for s in JobState.ALL}
            for j in self._jobs.values():
                states[j.state] += 1
            return {
                "mode": self.mode,
                "workers": self.workers,
                "queue_size": self.queue_size,
                "submitted": self.n_submitted,
                "deduplicated": self.n_dedup,
                "store_hits": self.n_store_hits,
                "rejected": self.n_rejected,
                "executed": self.n_executed,
                "retries": self.n_retries,
                "worker_crashes": self.n_crashes,
                "completed": self.n_completed,
                "failed": self.n_failed,
                "cancelled": self.n_cancelled,
                "resumed": self.n_resumed,
                "draining": self._draining,
                "states": states,
            }

    # -- execution -------------------------------------------------------------

    def _next_job(self) -> Optional[Job]:
        """Pop the highest-priority queued job (caller holds the lock)."""
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            job = self._jobs[job_id]
            if job.state == JobState.QUEUED:
                return job
        return None

    def _worker_loop(self) -> None:
        while True:
            with self._cv:
                # While draining, queued jobs stay queued (they get
                # spooled for the next process) and workers retire.
                job = None if self._draining else self._next_job()
                while job is None and not (self._stopping or self._draining):
                    self._cv.wait(timeout=0.2)
                    job = self._next_job()
                if job is None:  # stopping/draining and nothing popped
                    return
                job.transition(JobState.RUNNING)
                job.attempts += 1
                attempt = job.attempts
                self.n_executed += 1
                queued_mono, queued_ts = job.queued_mono, job.queued_ts_us
                job.queued_mono = job.queued_ts_us = None
            if telemetry.enabled() and queued_mono is not None:
                telemetry.queue_wait().observe(
                    time.monotonic() - queued_mono)
            with telemetry.use(telemetry.JobContext(job.id, job.trace_id,
                                                    attempt)):
                if queued_ts is not None:
                    # Retroactive span covering the time spent queued, so
                    # the merged trace shows submit -> queue -> attempt.
                    telemetry.complete(f"queued {job.id[:12]}", "service",
                                       queued_ts, args={"attempt": attempt})
                telemetry.publish_for(job.id, "state",
                                      state=JobState.RUNNING, attempt=attempt)
                self._run_attempt(job, attempt)

    def _attempt(self, spec: JobSpec, attempt: int):
        """One attempt's body, in a worker thread or a forked child:
        ``(result, error, checkpoint report)``, ``error`` being what the
        job raised (``None`` on success)."""
        try:
            result, error = run_job(spec, registry=self.registry,
                                    attempt=attempt,
                                    checkpoint_dir=self.checkpoint_dir,
                                    store=self.store), None
        except Exception as exc:  # noqa: BLE001 - converted to job outcome
            result, error = None, exc
        return result, error, take_report()

    def _run_attempt(self, job: Job, attempt: int) -> None:
        t0 = time.perf_counter()
        try:
            with telemetry.span(
                f"attempt {job.id[:12]}#{attempt}", "service",
                args={"kind": job.spec.kind, "mode": self.mode},
            ):
                run = (self._execute_in_child if self.mode == "process"
                       else self._attempt)
                result, error, report = run(job.spec, attempt)
        except Exception as exc:  # noqa: BLE001 - a worker that died or never started
            result, error, report = None, exc, None
        if telemetry.enabled():
            telemetry.solve_latency().labels(kind=job.spec.kind).observe(
                time.perf_counter() - t0)
        if error is not None:
            self._note_checkpoint(job, report)
            self._on_failure(job, attempt, error)
            return
        with telemetry.span(f"store {job.id[:12]}", "service"):
            self.store.put(job.id, result)
        with self._cv:
            job.result = result
            job.transition(JobState.DONE)
            self.n_completed += 1
            self._note_checkpoint_locked(job, report)
            self._cv.notify_all()
        if telemetry.enabled():
            telemetry.job_outcomes().labels(outcome="done").inc()
        telemetry.publish_for(job.id, "end", state=JobState.DONE,
                              attempts=attempt,
                              resumed_from=job.resumed_from)

    def _note_checkpoint(self, job: Job, report: Optional[dict]) -> None:
        with self._cv:
            self._note_checkpoint_locked(job, report)

    def _note_checkpoint_locked(self, job: Job, report: Optional[dict]) -> None:
        """Record an attempt's checkpoint provenance on the Job (caller
        holds the lock)."""
        if not report:
            return
        job.checkpoint = report
        if report.get("resumed_from") is not None:
            job.resumed_from = report["resumed_from"]
            self.n_resumed += 1

    def _execute_in_child(self, spec: JobSpec, attempt: int):
        """:meth:`_attempt` in a forked child: the same triple, from its
        envelope; :class:`WorkerCrash` when the child sends none."""
        deadline = (None if spec.timeout_s is None
                    else time.monotonic() + spec.timeout_s)
        child = Child(_child_entry, self, spec, attempt, name="worker",
                      crash=WorkerCrash)
        try:
            envelope = child.recv(deadline)
        finally:
            child.stop()
        self.registry.merge_report(envelope["registry"])
        self.store.merge_report(envelope["store"])
        # The merged Chrome trace shows the forked solve on its own
        # process lane, re-based onto the parent timeline.
        telemetry.merge_child(envelope["telemetry"],
                              label=f"worker {spec.job_id[:12]}#{attempt}")
        # A rehydrated typed error keeps its retryability across the
        # process boundary (a diverged solve must not burn retries).
        error = (None if envelope["error"] is None
                 else error_from_kind(*envelope["error"]))
        return envelope["result"], error, envelope["checkpoint"]

    def _on_failure(self, job: Job, attempt: int, exc: Exception) -> None:
        # A dead rank process is a crash like a dead worker: the retry
        # resumes the job's one snapshot, as after any crash.
        crashed = isinstance(exc, (WorkerCrash, RankCrash))
        retryable = attempt <= job.spec.max_retries
        if isinstance(exc, ReproError) and not exc.retryable:
            # Deterministic failures (diverged solve, checkpoint token
            # mismatch) reproduce on every attempt -- fail fast instead
            # of burning the retry budget.
            retryable = False
        telemetry.instant("job.crash" if crashed else "job.error", "service",
                          args={"id": job.id[:12], "attempt": attempt,
                                "retry": retryable})
        with self._cv:
            job.error_kind = type(exc).__name__
        if retryable:
            # Exponential backoff before the requeue; sleeping outside the
            # lock keeps the other workers dispatching.
            time.sleep(self.retry_base_s * (2 ** (attempt - 1)))
        with self._cv:
            if crashed:
                self.n_crashes += 1
            if retryable:
                self.n_retries += 1
                job.error = f"attempt {attempt}: {exc}"
                job.transition(JobState.QUEUED)
                self._push(job)
                self._mark_queued(job)
                self._cv.notify()
            else:
                if isinstance(exc, ReproError) and not exc.retryable:
                    why = "not retryable"
                else:
                    why = f"retry budget {job.spec.max_retries} exhausted"
                job.error = f"attempt {attempt}: {exc} ({why})"
                job.transition(JobState.FAILED)
                self.n_failed += 1
                self._cv.notify_all()
        if retryable:
            telemetry.publish_for(job.id, "state", state=JobState.QUEUED,
                                  requeued=True, attempt=attempt,
                                  crashed=crashed, error=str(exc))
        else:
            if telemetry.enabled():
                telemetry.job_outcomes().labels(outcome="failed").inc()
            telemetry.publish_for(job.id, "end", state=JobState.FAILED,
                                  attempts=attempt, error=job.error)
