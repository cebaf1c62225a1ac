"""Job-scoped telemetry context: which job (and trace id) is running.

The scheduler sets a :class:`JobContext` around every attempt and
``run_job`` around the work itself; progress events read it, and the
trace recorder's spans stamp its id, so one Chrome trace shows submit ->
queue -> tune -> sweep -> checkpoint -> store under a single ``trace``
argument.

Thread-local on purpose: concurrent worker threads each run a different
job, and a fork (a process-mode worker, a rank) inherits the forking
thread's value.
"""

from __future__ import annotations

import threading
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

__all__ = ["JobContext", "current", "use", "new_trace_id"]


@dataclass(frozen=True)
class JobContext:
    """Identity of the unit of work the current thread is executing."""

    job_id: str
    trace_id: str
    #: Attempt number (1-based) -- lets events distinguish retries.
    attempt: int = 1


class _Holder(threading.local):
    value: Optional[JobContext] = None


_HOLDER = _Holder()


def new_trace_id() -> str:
    """A fresh 16-hex trace id (one per submitted job)."""
    return uuid.uuid4().hex[:16]


def current() -> Optional[JobContext]:
    return _HOLDER.value


def set_current(ctx: Optional[JobContext]) -> None:
    """Install a context without scoping (tests and benchmarks)."""
    _HOLDER.value = ctx


@contextmanager
def use(ctx: JobContext):
    """Scope ``ctx`` to the current thread for the duration."""
    prev = _HOLDER.value
    _HOLDER.value = ctx
    try:
        yield ctx
    finally:
        _HOLDER.value = prev
