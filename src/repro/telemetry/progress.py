"""Live solve-progress events: bounded ring buffers + forked-worker sink.

Solvers publish one event per convergence check (sweep count, per-lane
residuals, frozen/compacted lanes), the scheduler publishes lifecycle
events (queued/running/done), and the checkpoint manager publishes save
and resume events.  Every event lands in a per-job **bounded ring
buffer** (:class:`RingBuffer`): publishing is O(1), takes one small
lock, and when the buffer is full the *oldest* event is dropped -- the
solver is never blocked or slowed by a slow (or absent) reader.  Readers
poll with a sequence cursor and are told how many events they missed.

Forked process workers cannot reach the parent's buffers, so a child
hub is configured with a *sink directory*
(:meth:`ProgressHub.configure_sink`): every publish appends one JSON
line to ``events-<job_id>.jsonl`` (line-buffered, best-effort).  The
parent's hub tails those files on demand (:meth:`ProgressHub.sync_job`),
republishing new lines into its own ring, so the HTTP event stream and
``repro tail`` read one uniform source whether the job ran in a thread
or a forked process.

Event schema: every event is a JSON object with ``seq`` (per-job,
monotonic), ``t`` (unix seconds), ``kind`` (``state`` | ``progress`` |
``checkpoint`` | ``batch`` | ``end``) and kind-specific fields.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

from .. import forksafe

__all__ = ["RingBuffer", "ProgressHub", "event_file"]

#: Default per-job ring capacity (a 3000-step solve at cadence 20 is 150
#: progress events, so 512 keeps whole solves around with headroom).
DEFAULT_CAPACITY = 512


def event_file(directory: str, job_id: str) -> str:
    """The sink file a forked worker appends a job's events to."""
    return os.path.join(directory, f"events-{job_id}.jsonl")


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
    """Job-id keyed ring buffers, with an optional child-process sink."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self._lock = forksafe.lock("progress.hub")
        self._buffers: Dict[str, RingBuffer] = {}
        # -- child (sink) side --
        self._sink_dir: Optional[str] = None
        self._sink_files: Dict[str, object] = {}
        # -- parent (tail) side --
        self._tail_dir: Optional[str] = None
        self._tail_offsets: Dict[str, int] = {}
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
        if self._sink_dir is not None:
            self._sink_write(job_id, event)
        return event

    # -- child-process sink ----------------------------------------------------

    def configure_sink(self, directory: Optional[str]) -> None:
        """Mirror every publish into ``events-<job>.jsonl`` under
        ``directory`` (how forked workers reach the parent's readers)."""
        self._sink_dir = directory
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    def _sink_write(self, job_id: str, event: dict) -> None:
        try:
            f = self._sink_files.get(job_id)
            if f is None:
                f = open(event_file(self._sink_dir, job_id), "a",
                         encoding="utf-8")
                self._sink_files[job_id] = f
            f.write(json.dumps(event, sort_keys=True) + "\n")
            f.flush()
        except OSError:
            pass  # telemetry is best-effort; the solve must not care

    def close_sink(self) -> None:
        for f in self._sink_files.values():
            try:
                f.close()
            except OSError:
                pass
        self._sink_files.clear()

    # -- parent-side file tailing ----------------------------------------------

    def configure_tail(self, directory: Optional[str]) -> None:
        """Where to look for child-written event files when syncing."""
        self._tail_dir = directory

    def sync_job(self, job_id: str) -> int:
        """Pull any new child-written events for ``job_id`` into the
        parent ring; returns how many lines were ingested."""
        if self._tail_dir is None:
            return 0
        path = event_file(self._tail_dir, job_id)
        try:
            size = os.path.getsize(path)
        except OSError:
            return 0
        offset = self._tail_offsets.get(job_id, 0)
        if size <= offset:
            return 0
        ingested = 0
        try:
            with open(path, "r", encoding="utf-8") as f:
                f.seek(offset)
                for line in f:
                    if not line.endswith("\n"):
                        break  # torn tail: re-read it next sync
                    offset += len(line.encode("utf-8"))
                    try:
                        event = json.loads(line)
                    except ValueError:
                        continue
                    event.pop("seq", None)  # parent ring re-stamps
                    kind = event.pop("kind", "progress")
                    self.publish(job_id, kind, **event)
                    ingested += 1
        except OSError:
            return ingested
        self._tail_offsets[job_id] = offset
        return ingested

    # -- reading ---------------------------------------------------------------

    def events_since(self, job_id: str, cursor: int = -1,
                     ) -> Tuple[List[dict], int, int]:
        """Uniform read path: sync any child file, then drain the ring."""
        self.sync_job(job_id)
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
            self._tail_offsets.pop(job_id, None)

    def reset(self) -> None:
        self.close_sink()
        with self._lock:
            self._buffers.clear()
            self._tail_offsets.clear()
        self._sink_dir = None
        self._tail_dir = None
        self.published = 0
