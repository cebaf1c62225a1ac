"""End-to-end telemetry: spans, metrics, live progress, one fork hand-off.

The one owner of program telemetry; every other layer goes through it:

* :func:`span` / :func:`instant` / :func:`complete` -- events on the
  trace recorder (:mod:`.trace`), opt-in through ``REPRO_TRACE`` or
  :func:`start_trace`; each stamps the current job's trace id itself,
  and costs one ``None`` check while no recorder is live;
  :func:`counter_track` samples a Chrome counter track.
* :func:`enabled` / :func:`enable` / :func:`disable` /
  :func:`switched_on` -- the metrics and progress gate.
  Default comes from ``REPRO_TELEMETRY`` (unset = off); the serving
  stack (``Scheduler.start`` / ``repro serve``) enables it explicitly
  unless the environment forces it off with ``REPRO_TELEMETRY=0``.
  When off, every gated hook is a single attribute load plus a boolean
  check -- the <2%-overhead contract the tests assert.
* :data:`METRICS` -- the process-global :class:`MetricsRegistry`
  rendered by ``GET /metrics`` (Prometheus text) and its JSON fallback.
  :func:`count_event` counts into its ``resilience_events_total{event}``
  family whether or not the gate is on: those events are rare.
* :data:`PROGRESS` -- the process-global :class:`ProgressHub` behind
  ``GET /jobs/<id>/events`` and ``repro tail``.
* :func:`publish` -- record a progress event for the current job
  context (no-op without a context or with telemetry off).
* :func:`fork_child` / :func:`child_report` / :func:`merge_child` --
  how a forked scheduler worker or rank process hands its spans and
  counts home.

Solvers, the scheduler and the checkpoint manager never import the
metrics classes directly; they call the helpers here, which keeps the
disabled path out of their hot loops and the bit-identity contract
trivially intact (telemetry only ever *reads* solver state).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Optional

from .. import config
from .context import JobContext, current, new_trace_id, set_current, use
from .metrics import (
    PROMETHEUS_CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .progress import ProgressHub, RingBuffer, event_file
from .trace import (
    WALL_PID,
    TraceRecorder,
    complete,
    counter_track,
    instant,
    recorder,
    span,
    start_trace,
    stop_trace,
)

__all__ = [
    "METRICS",
    "PROGRESS",
    "PROMETHEUS_CONTENT_TYPE",
    "WALL_PID",
    "JobContext",
    "MetricsRegistry",
    "ProgressHub",
    "RingBuffer",
    "TraceRecorder",
    "child_report",
    "complete",
    "count_event",
    "counter_track",
    "current",
    "disable",
    "enable",
    "enabled",
    "event_file",
    "fork_child",
    "instant",
    "merge_child",
    "new_trace_id",
    "publish",
    "recorder",
    "resilience_counts",
    "set_current",
    "span",
    "start_trace",
    "stop_trace",
    "switched_on",
    "use",
]

#: Process-global registries (children after a fork mutate their own
#: copy-on-write copies; progress crosses back via the file sink).
METRICS = MetricsRegistry()
PROGRESS = ProgressHub()

class _State:
    """One-attribute gate so the disabled hot path is a load + compare."""

    __slots__ = ("on", "forced")

    def __init__(self):
        mode = config.get("REPRO_TELEMETRY")
        self.forced = mode is not None
        self.on = bool(mode)


_STATE = _State()


def enabled() -> bool:
    return _STATE.on


def enable(force: bool = False) -> bool:
    """Turn telemetry on (the serving stack calls this at startup).

    An explicit ``REPRO_TELEMETRY=0`` in the environment wins unless
    ``force`` is given -- operators can veto serving-layer telemetry.
    Returns the resulting state.
    """
    if force or not (_STATE.forced and not _env_truthy()):
        _STATE.on = True
    return _STATE.on


def disable() -> None:
    _STATE.on = False


@contextmanager
def switched_on():
    """:func:`enable` for the enclosed block, the previous state after it
    (in-process harnesses and fixtures must not leave the gate open)."""
    was_on = _STATE.on
    enable()
    try:
        yield
    finally:
        _STATE.on = was_on


def _env_truthy() -> bool:
    return bool(config.get("REPRO_TELEMETRY"))


def refresh_from_env() -> None:
    """Re-read ``REPRO_TELEMETRY`` (tests mutate the environment)."""
    global _STATE
    _STATE = _State()


# -- progress ------------------------------------------------------------------


def publish(kind: str, **payload) -> None:
    """Record a progress event for the current job context.

    The disabled path is one attribute load and a ``return``; with no
    job context (direct library use) it is two.
    """
    if not _STATE.on:
        return
    ctx = current()
    if ctx is None:
        return
    PROGRESS.publish(ctx.job_id, kind, **payload)
    events_published().inc()


def publish_for(job_id: str, kind: str, **payload) -> None:
    """Record an event for an explicit job id (scheduler lifecycle)."""
    if not _STATE.on:
        return
    PROGRESS.publish(job_id, kind, **payload)
    events_published().inc()


# -- resilience events ---------------------------------------------------------


def count_event(event: str, **args) -> None:
    """Count one resilience event (a probe veto, a fired fault, a
    checkpoint save or resume, a quarantine) whether or not the gate is
    on, and mark it on a live trace; ``args`` annotate that instant."""
    resilience_events().labels(event=event).inc()
    instant(f"resilience.{event}", "resilience", args=args or None)


def resilience_counts() -> Dict[str, int]:
    """``event -> count`` of the ``resilience_events_total`` family."""
    return {key[0]: int(child.value)
            for key, child in resilience_events()._series()}


# -- the fork hand-off ---------------------------------------------------------


def fork_child(events_dir: Optional[str] = None) -> None:
    """Child side of a fork, first thing after it.

    Drops the inherited metrics and progress rings, so what
    :func:`child_report` hands home is this child's own delta; mirrors
    progress into ``events_dir`` (when the parent publishes) so the
    parent's readers can tail a live child; and records spans into a
    private recorder when the parent was tracing.
    """
    METRICS.reset()
    PROGRESS.reset()
    if _STATE.on and events_dir is not None:
        PROGRESS.configure_sink(events_dir)
    if recorder() is not None:
        start_trace(None)


def child_report() -> dict:
    """What a forked child hands home at exit (JSON-able)."""
    PROGRESS.close_sink()
    rec = recorder()
    return {"trace": rec.export() if rec is not None else None,
            "metrics": METRICS.snapshot()}


def merge_child(report: Optional[dict], label: str) -> None:
    """Parent side: fold a :func:`child_report` in -- the child's trace
    lanes re-based onto the live recorder under ``label``, its metrics
    delta (resilience counts included) added to :data:`METRICS`."""
    if not report:
        return
    rec = recorder()
    if rec is not None and report.get("trace"):
        rec.merge_child(report["trace"], label=label)
    METRICS.merge_snapshot(report.get("metrics") or {})


# -- the standard instrument set -----------------------------------------------
# Accessors create-or-return by name, so they survive METRICS.reset() in
# tests and cost one dict lookup on the hot path.


def jobs_submitted() -> Counter:
    return METRICS.counter("jobs_submitted_total",
                           "Job submissions accepted by the scheduler")


def job_outcomes() -> Counter:
    return METRICS.counter(
        "job_outcomes_total",
        "Terminal job outcomes plus coalesced submissions",
        labelnames=("outcome",))


def queue_wait() -> Histogram:
    return METRICS.histogram(
        "queue_wait_seconds",
        "Time jobs spent queued before a worker picked them up")


def solve_latency() -> Histogram:
    return METRICS.histogram(
        "solve_latency_seconds",
        "Wall-clock of one job attempt, by job kind",
        labelnames=("kind",))


def sweeps_total() -> Counter:
    return METRICS.counter("solver_sweeps_total",
                           "THIIM time steps advanced by solver loops")


def solve_rate() -> Gauge:
    return METRICS.gauge(
        "solver_mlups",
        "Lattice updates per second of the last finished solve, in MLUP/s")


def sweep_rate() -> Gauge:
    return METRICS.gauge("solver_sweeps_per_second",
                         "Sweep rate of the last finished solve")


def events_published() -> Counter:
    return METRICS.counter("progress_events_total",
                           "Progress events published into ring buffers")


def resilience_events() -> Counter:
    return METRICS.counter(
        "resilience_events_total",
        "Resilience-layer events (checkpoint saves and resumes, "
        "quarantines, fired faults, native fallbacks), by event",
        labelnames=("event",))


def cluster_ranks() -> Gauge:
    return METRICS.gauge("cluster_ranks",
                         "Rank processes of the most recent distributed solve")


def cluster_halo_bytes() -> Counter:
    return METRICS.counter("cluster_halo_bytes_total",
                           "Halo bytes exchanged by distributed solves",
                           labelnames=("axis",))


def cluster_halo_messages() -> Counter:
    return METRICS.counter("cluster_halo_messages_total",
                           "Halo messages exchanged by distributed solves")


def cluster_rank_failures() -> Counter:
    return METRICS.counter("cluster_rank_failures_total",
                           "Rank processes that died mid-solve")


def fleet_requests() -> Counter:
    return METRICS.counter("fleet_requests_total",
                           "Requests the fleet gateway forwarded to nodes",
                           labelnames=("route", "outcome"))


def fleet_failovers() -> Counter:
    return METRICS.counter(
        "fleet_failovers_total",
        "Requests re-routed to a replica after the home node failed")


def fleet_resubmits() -> Counter:
    return METRICS.counter(
        "fleet_resubmits_total",
        "Jobs the gateway resubmitted to a replica after losing "
        "their home node mid-flight")


def fleet_replications() -> Counter:
    return METRICS.counter(
        "fleet_replications_total",
        "Result documents the gateway pushed to replica stores, by "
        "outcome (ok, dedup, error)",
        labelnames=("outcome",))


def fleet_quota_rejections() -> Counter:
    return METRICS.counter(
        "fleet_quota_rejections_total",
        "Submits the gateway rejected with 429 for an over-quota tenant")


def fleet_retry_budget_spent() -> Counter:
    return METRICS.counter(
        "fleet_retry_budget_spent_total",
        "Failover/resubmit retries that drew from the gateway's global "
        "retry budget")


def fleet_spec_cache_evictions() -> Counter:
    return METRICS.counter(
        "fleet_spec_cache_evictions_total",
        "Specs evicted from the gateway's LRU resubmission cache")


def fleet_nodes() -> Gauge:
    return METRICS.gauge("fleet_nodes",
                         "Fleet nodes by liveness state",
                         labelnames=("state",))


def fleet_shard_version() -> Gauge:
    return METRICS.gauge("fleet_shard_version",
                         "Current shard-map version of the gateway")


def batch_occupancy() -> Gauge:
    return METRICS.gauge(
        "batch_lane_occupancy",
        "Active lanes of the most recent batched convergence check")


def lanes_compacted() -> Counter:
    return METRICS.counter(
        "batch_lanes_compacted_total",
        "Batch lanes frozen (converged/diverged) and compacted away")
