"""Structured trace recorder (Chrome tracing / Perfetto + JSONL).

Records spans for wavefront steps, diamond tiles, measurement phases,
auto-tuner candidates and the DES thread-group schedule, and writes them
in two formats at once:

* **Chrome trace format** -- a ``{"traceEvents": [...]}`` JSON loadable
  in ``chrome://tracing`` or https://ui.perfetto.dev; wall-clock spans
  live in the "wall clock" process, each discrete-event simulation gets
  its own process whose thread lanes are the simulated thread groups.
* **JSONL** -- one structured event object per line (schema below), the
  machine-readable form CI archives and tests validate.

Activation
----------
Tracing is off by default and costs one module-attribute load plus a
``None`` check per instrumentation site when disabled.  Enable either
programmatically::

    from repro import telemetry
    telemetry.start_trace("run.json")
    ...             # instrumented code records spans
    telemetry.stop_trace()   # writes run.json (Chrome) + run.jsonl

or by environment: ``REPRO_TRACE=path.json`` makes the ``repro`` CLI
trace the whole command and write both files on exit.

Instrumentation goes through the module-level :func:`span`,
:func:`instant` and :func:`complete`: while a recorder is live they add
``trace`` -- the current :class:`~repro.telemetry.context.JobContext`'s
trace id -- to the event's args, so every event recorded on behalf of a
job carries its id without the call site passing it.
:func:`counter_track` samples stay unstamped: their values are the
series a viewer plots.

JSONL schema
------------
Every line is one JSON object with a ``type`` key:

* ``{"type": "meta", "kind": "process_name"|"thread_name", "pid": int,
  "tid": int, "name": str}``
* ``{"type": "span", "name": str, "cat": str, "ts_us": float,
  "dur_us": float, "pid": int, "tid": int, "args": {...}}``
* ``{"type": "instant", "name": str, "cat": str, "ts_us": float,
  "pid": int, "tid": int, "args": {...}}``
* ``{"type": "counter", "name": str, "ts_us": float, "pid": int,
  "values": {series: number}}``

Timestamps are microseconds; wall-clock events are relative to recorder
start, simulated events to their simulation's t=0.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Tuple

from .context import current

__all__ = [
    "TraceRecorder",
    "complete",
    "counter_track",
    "instant",
    "recorder",
    "start_trace",
    "stop_trace",
    "span",
    "WALL_PID",
]

#: The wall-clock process id in the trace (simulations allocate from 2).
WALL_PID = 1


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **args) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """An open wall-clock span; appended to the recorder on exit."""

    __slots__ = ("_rec", "name", "cat", "tid", "args", "_t0")

    def __init__(self, rec: "TraceRecorder", name: str, cat: str, tid: int, args):
        self._rec = rec
        self.name = name
        self.cat = cat
        self.tid = tid
        self.args = dict(args) if args else {}
        self._t0 = rec.now_us()

    def set(self, **args) -> None:
        """Attach result arguments discovered while the span is open."""
        self.args.update(args)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        rec = self._rec
        rec.complete(self.name, self.cat, self._t0, rec.now_us() - self._t0,
                     pid=WALL_PID, tid=self.tid, args=self.args or None)
        return False


class TraceRecorder:
    """In-memory event buffer with Chrome-trace and JSONL writers."""

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._wall0 = time.perf_counter()
        #: Unix time of recorder start -- what lets a forked child's
        #: events (relative to *its* start) be re-based onto this
        #: recorder's timeline in :meth:`merge_child`.
        self.epoch = time.time()
        self._events: List[dict] = []
        self._meta: List[dict] = []
        self._next_pid = WALL_PID + 1
        self._set_name("process_name", WALL_PID, 0, "wall clock")

    # -- clocks / processes ----------------------------------------------------

    def now_us(self) -> float:
        return (time.perf_counter() - self._wall0) * 1e6

    def _set_name(self, kind: str, pid: int, tid: int, name: str) -> None:
        self._meta.append({"kind": kind, "pid": pid, "tid": tid, "name": name})

    def new_process(self, name: str) -> int:
        """Allocate a trace process (one per DES run) and label it."""
        pid = self._next_pid
        self._next_pid += 1
        self._set_name("process_name", pid, 0, name)
        return pid

    def name_thread(self, pid: int, tid: int, name: str) -> None:
        self._set_name("thread_name", pid, tid, name)

    # -- event emission --------------------------------------------------------

    def span(self, name: str, cat: str = "", tid: int = 0, args=None) -> _Span:
        """Open a wall-clock span (use as a context manager)."""
        return _Span(self, name, cat, tid, args)

    def complete(self, name: str, cat: str, ts_us: float, dur_us: float,
                 pid: int = WALL_PID, tid: int = 0, args=None) -> None:
        """Record a finished span at explicit timestamps (DES spans pass
        simulated time here)."""
        ev = {"type": "span", "name": name, "cat": cat, "ts_us": ts_us,
              "dur_us": dur_us, "pid": pid, "tid": tid}
        if args:
            ev["args"] = args
        self._events.append(ev)

    def instant(self, name: str, cat: str = "", ts_us: Optional[float] = None,
                pid: int = WALL_PID, tid: int = 0, args=None) -> None:
        ev = {"type": "instant", "name": name, "cat": cat,
              "ts_us": self.now_us() if ts_us is None else ts_us,
              "pid": pid, "tid": tid}
        if args:
            ev["args"] = args
        self._events.append(ev)

    def counter(self, name: str, values: Dict[str, float],
                ts_us: Optional[float] = None, pid: int = WALL_PID) -> None:
        self._events.append({"type": "counter", "name": name,
                             "ts_us": self.now_us() if ts_us is None else ts_us,
                             "pid": pid, "values": dict(values)})

    # -- cross-process merge ---------------------------------------------------

    def export(self) -> dict:
        """Everything a parent needs to merge this recorder's events:
        the epoch plus raw meta/event lists (a forked child ships this
        home in its ``telemetry.child_report()``)."""
        return {"epoch": self.epoch, "meta": list(self._meta),
                "events": list(self._events)}

    def merge_child(self, payload: dict, label: str = "forked worker") -> int:
        """Fold an :meth:`export` payload from a child process into this
        recorder.  Child timestamps are re-based via the epoch delta and
        every child pid is remapped to a fresh process here (the child's
        wall-clock process is renamed ``label``), so the merged Chrome
        trace shows the worker's spans on their own lane with correct
        absolute placement.  Returns the pid the child's wall clock got.
        """
        offset_us = (float(payload.get("epoch", self.epoch)) - self.epoch) * 1e6
        names = {m["pid"]: m["name"]
                 for m in payload.get("meta") or []
                 if m.get("kind") == "process_name"}
        pid_map: Dict[int, int] = {}

        def mapped(pid: int) -> int:
            new = pid_map.get(pid)
            if new is None:
                name = label if pid == WALL_PID else (
                    names.get(pid) or f"{label} pid {pid}")
                new = pid_map[pid] = self.new_process(name)
            return new

        wall_pid = mapped(WALL_PID)
        for m in payload.get("meta") or []:
            if m.get("kind") == "thread_name":
                self._set_name("thread_name", mapped(m["pid"]),
                               m["tid"], m["name"])
        for ev in payload.get("events") or []:
            ev = dict(ev)
            ev["pid"] = mapped(ev.get("pid", WALL_PID))
            ev["ts_us"] = float(ev.get("ts_us", 0.0)) + offset_us
            self._events.append(ev)
        return wall_pid

    # -- readout ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def summary(self) -> Dict[str, int]:
        """Event counts per category (spans/instants) -- the CLI digest."""
        out: Dict[str, int] = {}
        for ev in self._events:
            key = ev.get("cat") or ev["type"]
            out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items()))

    def chrome_events(self) -> List[dict]:
        out: List[dict] = []
        for m in self._meta:
            out.append({"name": m["kind"], "ph": "M", "pid": m["pid"],
                        "tid": m["tid"], "args": {"name": m["name"]}})
        for ev in self._events:
            if ev["type"] == "span":
                ch = {"name": ev["name"], "cat": ev["cat"] or "default",
                      "ph": "X", "ts": ev["ts_us"], "dur": ev["dur_us"],
                      "pid": ev["pid"], "tid": ev["tid"]}
            elif ev["type"] == "instant":
                ch = {"name": ev["name"], "cat": ev["cat"] or "default",
                      "ph": "i", "ts": ev["ts_us"], "s": "t",
                      "pid": ev["pid"], "tid": ev["tid"]}
            else:  # counter
                ch = {"name": ev["name"], "ph": "C", "ts": ev["ts_us"],
                      "pid": ev["pid"], "tid": 0, "args": ev["values"]}
            if "args" in ev and ev["type"] != "counter":
                ch["args"] = ev["args"]
            out.append(ch)
        return out

    def dump_chrome(self, path: str) -> str:
        """Write Chrome trace format (open in chrome://tracing / Perfetto)."""
        doc = {"traceEvents": self.chrome_events(), "displayTimeUnit": "ms"}
        _ensure_parent(path)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def dump_jsonl(self, path: str) -> str:
        """Write the structured JSONL form (one event object per line)."""
        _ensure_parent(path)
        with open(path, "w", encoding="utf-8") as f:
            for m in self._meta:
                f.write(json.dumps({"type": "meta", **m}) + "\n")
            for ev in self._events:
                f.write(json.dumps(ev) + "\n")
        return path


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)


def jsonl_path_for(path: str) -> str:
    """The JSONL sibling of a Chrome-trace path (.json -> .jsonl)."""
    root, ext = os.path.splitext(path)
    return f"{root}.jsonl" if ext.lower() == ".json" else f"{path}.jsonl"


#: The active recorder, or None.  Instrumentation sites go through
#: :func:`span` / :func:`instant` / :func:`complete`, which cost a None
#: check when disabled.
_RECORDER: Optional[TraceRecorder] = None


def recorder() -> Optional[TraceRecorder]:
    return _RECORDER


def _stamped(args):
    """``args`` plus the current job's trace id (when a job is running)."""
    ctx = current()
    if ctx is None:
        return args
    return {**args, "trace": ctx.trace_id} if args else {"trace": ctx.trace_id}


def span(name: str, cat: str = "", tid: int = 0, args=None):
    """A wall-clock span on the active recorder, or a shared no-op."""
    rec = _RECORDER
    if rec is None:
        return _NULL_SPAN
    return rec.span(name, cat, tid=tid, args=_stamped(args))


def instant(name: str, cat: str = "", args=None) -> None:
    """A point event on the active recorder's wall clock."""
    rec = _RECORDER
    if rec is not None:
        rec.instant(name, cat, args=_stamped(args))


def counter_track(name: str, values: Dict[str, float]) -> None:
    """A sample on the active recorder's counter track ``name`` (Chrome
    draws it as a graph).  Unstamped: its values are the plotted series."""
    rec = _RECORDER
    if rec is not None:
        rec.counter(name, values)


def complete(name: str, cat: str, ts_us: float, dur_us: Optional[float] = None,
             pid: int = WALL_PID, tid: int = 0, args=None) -> None:
    """A finished span at explicit timestamps (``dur_us=None``: until
    now) -- retroactive wall-clock spans and simulated DES tiles."""
    rec = _RECORDER
    if rec is not None:
        if dur_us is None:
            dur_us = rec.now_us() - ts_us
        rec.complete(name, cat, ts_us, dur_us, pid=pid, tid=tid,
                     args=_stamped(args))


def start_trace(path: Optional[str] = None) -> TraceRecorder:
    """Install a fresh recorder (replacing any active one)."""
    global _RECORDER
    _RECORDER = TraceRecorder(path)
    return _RECORDER


def stop_trace() -> Tuple[Optional[TraceRecorder], List[str]]:
    """Deactivate tracing; if the recorder was given a path, write the
    Chrome trace there and the JSONL next to it.  Returns the recorder
    and the list of files written."""
    global _RECORDER
    rec, _RECORDER = _RECORDER, None
    written: List[str] = []
    if rec is not None and rec.path:
        written.append(rec.dump_chrome(rec.path))
        written.append(rec.dump_jsonl(jsonl_path_for(rec.path)))
    return rec, written
