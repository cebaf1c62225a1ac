"""Live solve-progress events: bounded ring buffers, one per job.

Solvers publish one event per convergence check (sweep count, per-lane
residuals, frozen/compacted lanes), the scheduler publishes lifecycle
events (queued/running/done), and the checkpoint manager publishes save
and resume events.  Every event lands in a per-job **bounded ring
buffer** (:class:`RingBuffer`): publishing is O(1), takes one small
lock, and when the buffer is full the *oldest* event is dropped -- the
solver is never blocked or slowed by a slow (or absent) reader.  Readers
poll with a sequence cursor and are told how many events they missed.

A forked process worker cannot reach the parent's buffers, so its hub
carries a *forward hook* (:attr:`ProgressHub.forward`, installed by
:func:`repro.telemetry.fork_child`): every publish also goes to the
hook, which sends it home over the worker's pipe, and the parent
republishes it into its own ring as it arrives -- so the HTTP event
stream and ``repro tail`` read one source whether the job ran in a
thread or a forked process.

Event schema: every event is a JSON object with ``seq`` (per-job,
monotonic), ``t`` (unix seconds), ``kind`` (``state`` | ``progress`` |
``checkpoint`` | ``batch`` | ``end``) and kind-specific fields.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from .. import forksafe

__all__ = ["RingBuffer", "ProgressHub"]

#: Default per-job ring capacity (a 3000-step solve at cadence 20 is 150
#: progress events, so 512 keeps whole solves around with headroom).
DEFAULT_CAPACITY = 512


class RingBuffer:
    """Bounded, seq-numbered event buffer (oldest dropped on overflow)."""

    __slots__ = ("_lock", "_events", "_next_seq", "dropped", "closed")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._lock = forksafe.lock("progress.ring")
        self._events: deque = deque(maxlen=capacity)
        self._next_seq = 0
        #: Events discarded because the ring was full.
        self.dropped = 0
        #: True once a terminal event was appended (readers may stop).
        self.closed = False

    def append(self, event: dict) -> dict:
        """Stamp ``seq`` and store; never blocks beyond the tiny lock."""
        with self._lock:
            event = dict(event)
            event["seq"] = self._next_seq
            self._next_seq += 1
            if len(self._events) == self._events.maxlen:
                self.dropped += 1
            self._events.append(event)
            if event.get("kind") == "end":
                self.closed = True
        return event

    def since(self, cursor: int = -1) -> Tuple[List[dict], int, int]:
        """Events with ``seq > cursor``: ``(events, new_cursor, missed)``.

        ``missed`` counts events that fell off the ring before this
        reader saw them (0 for a keeping-up reader).
        """
        with self._lock:
            events = [e for e in self._events if e["seq"] > cursor]
            if events:
                missed = max(events[0]["seq"] - cursor - 1, 0)
                return events, events[-1]["seq"], missed
            return [], max(cursor, self._next_seq - 1), 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class ProgressHub:
    """Job-id keyed ring buffers, with an optional forward hook."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self._lock = forksafe.lock("progress.hub")
        self._buffers: Dict[str, RingBuffer] = {}
        #: ``forward(job_id, event)`` after every publish (a forked
        #: worker's pipe home); ``None`` in the parent.
        self.forward: Optional[Callable[[str, dict], None]] = None
        # -- counters --
        self.published = 0

    # -- buffer plumbing -------------------------------------------------------

    def buffer(self, job_id: str) -> RingBuffer:
        buf = self._buffers.get(job_id)
        if buf is None:
            with self._lock:
                buf = self._buffers.setdefault(job_id,
                                               RingBuffer(self.capacity))
        return buf

    def known(self, job_id: str) -> bool:
        return job_id in self._buffers

    # -- publishing ------------------------------------------------------------

    def publish(self, job_id: str, kind: str, **payload) -> dict:
        """Record one event; O(1), never blocks the caller on readers."""
        event = {"kind": kind, "t": time.time(), **payload}
        event = self.buffer(job_id).append(event)
        self.published += 1
        if self.forward is not None:
            self.forward(job_id, event)
        return event

    # -- reading ---------------------------------------------------------------

    def events_since(self, job_id: str, cursor: int = -1,
                     ) -> Tuple[List[dict], int, int]:
        """Events of ``job_id`` after ``cursor`` (see :meth:`RingBuffer.since`)."""
        return self.buffer(job_id).since(cursor)

    def end(self, job_id: str, **payload) -> None:
        """Publish the terminal event readers stop on."""
        self.publish(job_id, "end", **payload)

    def dropped_total(self) -> int:
        """Events evicted across all rings (the overflow gauge)."""
        with self._lock:
            return sum(b.dropped for b in self._buffers.values())

    def forget(self, job_id: str) -> None:
        with self._lock:
            self._buffers.pop(job_id, None)

    def reset(self) -> None:
        with self._lock:
            self._buffers.clear()
        self.forward = None
        self.published = 0
