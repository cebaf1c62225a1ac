"""Solve service: job scheduling, plan registry, result store, HTTP API.

The paper's economics are compile-once/serve-many: an autotuned MWD plan
is expensive to find (a full candidate sweep through the machine model)
but cheap to reuse.  This subsystem gives that shape a serving layer:

``jobs``
    Declarative :class:`~repro.service.jobs.JobSpec` (scene, grid,
    machine, tuning policy) with content-addressed job ids, the job
    lifecycle (queued/running/done/failed/cancelled) and bounded retry.
``registry``
    Persistent plan registry memoizing autotuner winners keyed by
    (grid, machine-spec hash, thread count) -- repeat jobs skip tuning.
``store``
    Content-addressed result store: identical job specs dedup to one
    execution and serve cached results bit-identically.  Its
    ``DocumentStore`` is how a node persists any keyed, immutable JSON
    document -- results and tuned plans alike.
``scheduler``
    Priority-FIFO scheduler over thread or process workers with a
    bounded queue (backpressure), crash recovery (crashed solves resume
    from their latest checkpoint), retry backoff that fails fast on
    non-retryable :class:`~repro.resilience.errors.ReproError` kinds,
    and graceful drain + queue spooling for zero-loss restarts.
``server``
    Stdlib ``ThreadingHTTPServer`` JSON API: ``POST /jobs``,
    ``GET /jobs/<id>``, ``GET /metrics``, ``GET /registry``,
    ``GET /healthz`` -- typed failures map to their HTTP status.

Everything is stdlib + the existing repro stack; no new dependencies.
"""

from .jobs import Job, JobSpec, JobState, run_job
from .registry import PlanRegistry
from .scheduler import QueueFullError, Scheduler
from .server import make_server
from .store import ResultStore

__all__ = [
    "Job",
    "JobSpec",
    "JobState",
    "PlanRegistry",
    "QueueFullError",
    "ResultStore",
    "Scheduler",
    "make_server",
    "run_job",
]
