"""Deterministic fault-injection registry.

One seedable, schedule-based mechanism is the only way to inject a
fault anywhere in the stack (a job spec carries none): a
:class:`FaultPlan` is a list of :class:`FaultSpec` schedules, each
naming a **site** (a stable string a
code path passes to :func:`hit`), a **kind** (what happens when it
fires) and **when** it fires (the ``after_n``-th pass through the site,
on a given job attempt).  The plan is parsed from the ``REPRO_FAULTS``
environment variable so it crosses process boundaries for free -- forked
service workers and ``repro serve`` subprocesses inherit the schedule.

Syntax::

    REPRO_FAULTS="site:kind[:after_n[:attempt]][,site:kind...]"

* ``site`` -- one of :data:`SITES` (or any string; unknown sites simply
  never fire, which lets schedules target sites added later).
* ``kind`` -- ``raise`` (raise :class:`InjectedFault`), ``crash``
  (``os._exit`` in a forked worker, degrade to ``raise`` inline), or
  ``corrupt`` (returned to the site, which scribbles over the artifact
  it was about to read/write).
* ``after_n`` -- fire on the ``after_n``-th pass through the site,
  counting from 0 (default 0: the first pass).
* ``attempt`` -- only fire on this job attempt (default 1, so retries
  recover; ``*`` fires on every attempt).

Determinism: site counters are plain per-process integers and every
execution path through the stack is deterministic in the spec, so a
schedule fires at exactly the same point on every run --
the property the bit-identical crash/resume tests are built on.
:meth:`FaultPlan.seeded` derives ``after_n`` from an integer seed for
property-style chaos tests that want *arbitrary but reproducible*
injection points.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional

from .. import config, forksafe, telemetry
from .errors import InjectedFault

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "SITES",
    "KINDS",
    "active",
    "install",
    "uninstall",
    "hit",
    "trigger",
    "set_attempt",
    "fired_summary",
    "patched_env",
]

#: The named injection sites wired through the stack (documentation /
#: ``repro chaos --list-sites``; unknown sites are legal and inert).
SITES = (
    "native.load",       # compiled library build/load (LRU replay, THIIM kernel)
    "registry.read",     # plan-registry file lookup
    "registry.write",    # plan-registry file store
    "store.read",        # result-store file lookup
    "store.write",       # result-store file store
    "checkpoint.write",  # solver checkpoint snapshot
    "checkpoint.read",   # solver checkpoint resume
    "solver.sweep",      # each THIIM convergence-check block (scalar + batched)
    "tile.execute",      # each wavefront-diamond tile
    "job.run",           # top of run_job (any worker, incl. batch jobs)
    "cluster.rank",      # each rank's sweep block ("cluster.rank.N" targets rank N)
    "http.request",      # top of every HTTP handler
    "fleet.replicate",   # gateway push of a result to the ring's replica
    "fleet.lease",       # node heartbeat lease-file write
)

KINDS = ("raise", "crash", "corrupt")

#: Exit code of an injected worker crash (post-mortems tell it apart
#: from a real one).
CRASH_EXIT_CODE = 43


@dataclass
class FaultSpec:
    """One scheduled fault: fire ``kind`` at pass ``after_n`` through
    ``site``, on job attempt ``attempt`` (None = every attempt)."""

    site: str
    kind: str
    after_n: int = 0
    attempt: Optional[int] = 1

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        parts = text.strip().split(":")
        if len(parts) < 2 or len(parts) > 4 or not parts[0]:
            raise ValueError(
                f"bad fault spec {text!r}, expected site:kind[:after_n[:attempt]]"
            )
        site, kind = parts[0], parts[1]
        if kind not in KINDS:
            raise ValueError(f"bad fault kind {kind!r}, expected one of {KINDS}")
        after_n = int(parts[2]) if len(parts) > 2 and parts[2] else 0
        if after_n < 0:
            raise ValueError("after_n must be >= 0")
        attempt: Optional[int] = 1
        if len(parts) > 3 and parts[3]:
            attempt = None if parts[3] == "*" else int(parts[3])
        return cls(site=site, kind=kind, after_n=after_n, attempt=attempt)

    def describe(self) -> str:
        att = "*" if self.attempt is None else str(self.attempt)
        return f"{self.site}:{self.kind}:{self.after_n}:{att}"


class FaultPlan:
    """A parsed schedule plus its per-site pass counters."""

    def __init__(self, specs: List[FaultSpec]):
        self.specs = specs
        self._counts: Dict[str, int] = {}
        self._fired: List[str] = []
        self._lock = forksafe.lock("faults.plan")

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        specs = [FaultSpec.parse(p) for p in text.split(",") if p.strip()]
        return cls(specs)

    @classmethod
    def seeded(cls, seed: int, site: str, kind: str, max_after: int,
               attempt: Optional[int] = 1) -> "FaultPlan":
        """A single-fault plan whose injection point is derived
        deterministically from ``seed`` (uniform in ``[0, max_after)``)."""
        import random

        after_n = random.Random(seed).randrange(max(max_after, 1))
        return cls([FaultSpec(site=site, kind=kind, after_n=after_n,
                              attempt=attempt)])

    def env_value(self) -> str:
        """Serialize back to ``REPRO_FAULTS`` syntax (crosses forks and
        subprocess boundaries)."""
        return ",".join(s.describe() for s in self.specs)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def fired(self) -> List[str]:
        with self._lock:
            return list(self._fired)

    def hit(self, site: str) -> Optional[str]:
        """Count one pass through ``site``; fire any due fault.

        ``raise``/``crash`` kinds are applied here; other kinds
        (``corrupt``) are returned for the site to apply to the artifact
        it owns.  Returns ``None`` when nothing fired.
        """
        due: Optional[FaultSpec] = None
        with self._lock:
            n = self._counts.get(site, 0)
            self._counts[site] = n + 1
            for spec in self.specs:
                if (spec.site == site and spec.after_n == n
                        and (spec.attempt is None or spec.attempt == _ATTEMPT.n)):
                    due = spec
                    self._fired.append(spec.describe())
                    break
        if due is None:
            return None
        telemetry.count_event("faults_fired", site=site)
        return trigger(site, due.kind, reason=f"pass {due.after_n}")


# -- process-global plan -------------------------------------------------------

_INSTALLED: Optional[FaultPlan] = None
_ENV_PLAN: Optional[FaultPlan] = None
_ENV_SRC: Optional[str] = None


class _Attempt(threading.local):
    n = 1


_ATTEMPT = _Attempt()


def install(plan: FaultPlan) -> FaultPlan:
    """Pin a plan programmatically (overrides ``REPRO_FAULTS``)."""
    global _INSTALLED
    _INSTALLED = plan
    return plan


def uninstall() -> None:
    global _INSTALLED, _ENV_PLAN, _ENV_SRC
    _INSTALLED = None
    _ENV_PLAN = None
    _ENV_SRC = None


def active() -> Optional[FaultPlan]:
    """The live plan: the installed one, else ``REPRO_FAULTS`` (re-parsed
    whenever the variable changes, with fresh counters)."""
    global _ENV_PLAN, _ENV_SRC
    if _INSTALLED is not None:
        return _INSTALLED
    src = config.get("REPRO_FAULTS")
    if src != _ENV_SRC:
        _ENV_SRC = src
        _ENV_PLAN = FaultPlan.parse(src) if src else None
    return _ENV_PLAN


def hit(site: str) -> Optional[str]:
    """Pass through a named site (near-free when no plan is active)."""
    plan = active()
    if plan is None:
        return None
    return plan.hit(site)


def set_attempt(n: int) -> None:
    """Record the current job attempt (thread-local) for attempt-scoped
    fault specs."""
    _ATTEMPT.n = n


def trigger(site: str, kind: str, reason: str = "") -> Optional[str]:
    """Apply a fault action -- what a scheduled fault does when it fires.

    ``raise`` raises :class:`InjectedFault`; ``crash`` kills a forked
    worker or rank outright (no cleanup, no spool file -- indistinguishable
    from SIGKILL) and degrades to ``raise`` in a process nobody forked;
    anything else is returned for the call site to apply.
    """
    suffix = f" ({reason})" if reason else ""
    if kind == "crash":
        if forksafe.forked:
            os._exit(CRASH_EXIT_CODE)
        raise InjectedFault(f"injected crash at {site}{suffix} (inline worker)",
                            site=site)
    if kind == "raise":
        raise InjectedFault(f"injected failure at {site}{suffix}", site=site)
    return kind


@contextmanager
def patched_env(**updates: Optional[str]) -> Iterator[None]:
    """Set environment variables (``None`` unsets) and restore them on
    exit: a fault schedule must never leak into the caller's process."""
    def put(values: Mapping[str, Optional[str]]) -> None:
        for key in values:
            os.environ.pop(key, None)
        os.environ.update({k: v for k, v in values.items() if v is not None})

    saved = {key: os.environ.get(key) for key in updates}
    put(updates)
    try:
        yield
    finally:
        put(saved)


def fired_summary() -> Dict[str, object]:
    """What the active plan has done so far (``GET /metrics``)."""
    plan = active()
    if plan is None:
        return {"active": False, "specs": [], "fired": []}
    return {"active": True,
            "specs": [s.describe() for s in plan.specs],
            "fired": plan.fired()}
