"""What the four workloads share: op accounting, checks, pins, spans."""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "pinned.json")


def load_json(path: str, default=None):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return default


class Workload:
    """One workload inside its child process.

    ``setup`` builds the system under test, ``repeat(i)`` runs one
    fixed-size repeat and returns its wall times, ``finish`` runs the
    end-of-run checks, ``probes`` (traced runs only) measures the layers
    this workload owns.  Operations are recorded through :meth:`op`;
    a raised exception or a failed :meth:`check` inside one counts the
    operation as failed.
    """

    name = ""

    def __init__(self, consts: dict, seed: int, workdir: str, smoke: bool,
                 pin: bool, tracer=None):
        self.c = consts
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.pin = pin
        self.tracer = tracer
        self.latencies: Dict[str, List[float]] = {"primary": [],
                                                  "secondary": []}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.counts: Dict[str, float] = {}
        self.pins: Dict[str, object] = {}
        # serve_small's clients are threads: the failed flag of the op in
        # flight is per thread, the totals are guarded.
        self._local = threading.local()
        self._lock = threading.Lock()
        pinned = (load_json(PINNED_PATH) or {}).get(self.name) or {}
        #: Pins hold at the pinned seed only; other seeds are checked for
        #: internal consistency.
        self.pinned = pinned.get("smoke" if smoke else "full", {}) if (
            not pin and pinned.get("seed") == seed) else {}

    # -- accounting ------------------------------------------------------------

    def fail(self, what: str) -> None:
        self._local.failed = True
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.fail(what)
        return ok

    def check_pinned(self, key: str, value) -> None:
        """Compare against the committed pin (or record it with --pin)."""
        self.pins[key] = value
        if key in self.pinned:
            self.check(self.pinned[key] == value,
                       f"{key}: {value!r} != pinned {self.pinned[key]!r}")

    @contextmanager
    def op(self, kind: Optional[str], req: Optional[str] = None,
           start: Optional[float] = None, latency: Optional[float] = None):
        """One operation: timed (from ``start`` when it was issued before
        this block; ``latency`` when it was measured outside it) into
        ``latencies[kind]`` (``None`` records no latency, e.g. reads),
        counted as attempted, failed on any exception or failed check
        inside.  Yields the op's ledger span when tracing."""
        self._local.failed = False
        t0 = time.perf_counter() if start is None else start
        span = None
        if self.tracer is not None and self.tracer.enabled:
            span = self.tracer.begin(f"ledger.op.{kind or 'read'}",
                                     "ledger", req=req)
            span.start = t0
        try:
            yield span
        except Exception as exc:  # noqa: BLE001 - a failed op, reported
            self.fail(f"{kind} op raised {type(exc).__name__}: {exc}")
        finally:
            dt = latency if latency is not None else (
                time.perf_counter() - t0)
            if span is not None:
                self.tracer.finish(span)
                span.end = t0 + dt
            with self._lock:
                self.attempted += 1
                if self._local.failed:
                    self.failed += 1
                elif kind is not None:
                    self.latencies[kind].append(dt)

    def verify(self, ok: bool, what: str) -> None:
        """An end-of-run check that is not tied to one operation."""
        with self._lock:
            self.attempted += 1
            self.failed += 0 if ok else 1
        if not ok:
            self.fail(what)

    # -- protocol --------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def repeat(self, i: int) -> Dict[str, float]:
        """Run repeat ``i``; returns ``{"primary": n, "primary_wall": s,
        "secondary": n, "secondary_wall": s, "ops": n, "wall": s}``."""
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def probes(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


def scheduler_ops(wl: Workload, sched, specs, kind: str, on_done=None,
                  together: bool = False, timeout: float = 120.0):
    """Run ``specs`` through the scheduler, one op each.

    ``together`` submits them all at once (queue depth ``len(specs)``:
    a job's latency then includes the wait behind its siblings);
    otherwise the client is a closed loop with one job in flight.
    Returns ``(jobs, wall)``: the finished Job records and the phase wall
    time, first submit -> last done.  ``on_done(job)`` runs inside the
    op, so its checks count against it.
    """
    t_first = time.perf_counter()
    queued = [(sched.submit(spec), time.perf_counter())
              for spec in specs] if together else None
    jobs = []
    for i, spec in enumerate(specs):
        job, t_submit = queued[i] if together else (
            sched.submit(spec), time.perf_counter())
        with wl.op(kind, req=job.id, start=t_submit):
            done = sched.wait(job.id, timeout=timeout)
            jobs.append(done)
            if wl.check(done.state == "done",
                        f"{kind} job {job.id[:12]} ended {done.state}: "
                        f"{done.error}") and on_done is not None:
                on_done(done)
    return jobs, time.perf_counter() - t_first
