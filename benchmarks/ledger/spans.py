"""In-memory span recorder for the traced run.

The ledger may not edit ``src/``, so the traced run wraps the public
entry points of each layer from here (:mod:`instrument` holds the
table).  A span records name, layer, start, end, the span that caused it
and a request id shared by every span of one job.  Functions called far
too often for one span each (a kernel region update, a tile) are *hot*:
their calls are summed into the innermost open span and written out as
one aggregated child span when that span closes.

A span's self time is its duration minus what its children cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Dict, Iterable, Iterator, List, Optional


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "req",
                 "tid", "calls", "agg", "inclusive", "hot", "args")

    def __init__(self, id_, name, layer, start, parent, req, tid):
        self.id = id_
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.req = req
        self.tid = tid
        #: An aggregate of ``calls`` hot calls rather than one real call.
        self.agg = False
        self.calls = 1
        #: Aggregates only: summed duration of the calls including hot
        #: calls nested in them (``dur`` is the exclusive sum).
        self.inclusive = 0.0
        #: raw key -> [calls, seconds] of hot calls made while this span
        #: was innermost.
        self.hot: Optional[Dict[object, list]] = None
        #: Counts recorded at this boundary (tiles, bytes, steps, ...).
        self.args: Optional[dict] = None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread of the process."""

    def __init__(self):
        self.enabled = False
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        #: raw hot key -> (span name, layer, enclosing hot span name or
        #: None); set by :func:`instrument.instrument`.
        self.hot_names = lambda key: (str(key), "ledger", None)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def hot(self, key, seconds: float) -> None:
        """Account one hot call: summed per thread under its raw key, and
        folded into the innermost span whenever that span changes, so the
        hot path never looks the stack up."""
        local = self._local
        try:
            pending = local.pending
        except AttributeError:
            pending = local.pending = {}
        entry = pending.get(key)
        if entry is None:
            pending[key] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def _flush_hot(self, stack: list) -> None:
        """Move this thread's pending hot-call sums into the innermost
        open span (called whenever that span is about to change)."""
        pending = self._local.__dict__.pop("pending", None)
        if not pending or not stack:
            return
        span = stack[-1]
        if span.hot is None:
            span.hot = {}
        for key, (calls, total) in pending.items():
            entry = span.hot.setdefault(key, [0, 0.0])
            entry[0] += calls
            entry[1] += total

    def begin(self, name: str, layer: str, req: Optional[str] = None) -> Span:
        stack = self._stack()
        self._flush_hot(stack)
        parent = stack[-1] if stack else None
        span = Span(next(self._ids), name, layer, time.perf_counter(),
                    parent.id if parent else None,
                    req or (parent.req if parent else None),
                    threading.get_ident())
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        self._flush_hot(stack)
        stack.pop()
        self.spans.append(span)
        if not span.hot:
            return
        # Fold raw keys into span names; a hot function that encloses
        # another (a tile around its region updates) keeps only its
        # exclusive time as duration, so aggregates never overlap.
        merged: Dict[str, list] = {}
        for key, (calls, total) in span.hot.items():
            name, layer, _ = self.hot_names(key)
            entry = merged.setdefault(name, [layer, 0, 0.0, 0.0])
            entry[1] += calls
            entry[2] += total
            entry[3] += total
        for key in span.hot:
            name, _, inside = self.hot_names(key)
            if inside in merged:
                merged[inside][3] -= span.hot[key][1]
        # Aggregated children, laid back to back from the parent's start
        # (their real positions were never recorded).
        at = span.start
        for name, (layer, calls, incl, excl) in merged.items():
            agg = Span(next(self._ids), name, layer, at, span.id,
                       span.req, span.tid)
            agg.end = at + max(excl, 0.0)
            agg.agg = True
            agg.calls = calls
            agg.inclusive = incl
            self.spans.append(agg)
            at = agg.end

    # -- readout ---------------------------------------------------------------

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def durations(self, name: str) -> List[float]:
        return [s.dur for s in self.spans if s.name == name]

    def clear(self) -> None:
        self.spans = []


def children(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    """Span id -> the spans it caused."""
    out: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out


def ancestors(span: Span, by_id: Dict[int, Span]) -> Iterator[Span]:
    """The spans that caused ``span``, innermost first (the last one is
    its request's root)."""
    while span.parent is not None and span.parent in by_id:
        span = by_id[span.parent]
        yield span


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> self time: duration minus the part of it the span's
    children cover.  Real children may overlap each other (they do not
    here, one thread each, but the union is what "cover" means);
    aggregated children are exclusive sums and simply subtract."""
    spans = list(spans)
    caused = children(spans)
    out: Dict[int, float] = {}
    for s in spans:
        covered = 0.0
        kids = caused.get(s.id, ())
        edge = s.start
        for c in sorted((c for c in kids if not c.agg),
                        key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        covered += sum(c.dur for c in kids if c.agg)
        out[s.id] = max(s.dur - covered, 0.0)
    return out


def self_by_layer(spans: Iterable[Span]) -> Dict[str, float]:
    spans = list(spans)
    own = self_times(spans)
    out: Dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + own[s.id]
    return out


def write_chrome_trace(spans: Iterable[Span], path: str) -> None:
    """Chrome-trace ("X" complete events, microseconds)."""
    spans = list(spans)
    t0 = min((s.start for s in spans), default=0.0)
    events = [{
        "name": s.name, "cat": s.layer, "ph": "X", "pid": 1, "tid": s.tid,
        "ts": (s.start - t0) * 1e6, "dur": s.dur * 1e6,
        "args": dict(s.args or {}, id=s.id, parent=s.parent, req=s.req,
                     calls=s.calls, aggregated=s.agg),
    } for s in spans]
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
