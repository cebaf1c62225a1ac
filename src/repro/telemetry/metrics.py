"""Lock-cheap metrics registry with Prometheus text exposition.

Three instrument kinds, modelled on the Prometheus client data model but
dependency-free:

* :class:`Counter` -- a monotonically increasing float (``inc``);
* :class:`Gauge`   -- a float that goes up and down (``set``/``inc``);
* :class:`Histogram` -- fixed cumulative buckets plus ``_sum``/``_count``
  (``observe``); bucket edges are chosen at creation and never change, so
  scrapes are always comparable.

Instruments are created through a :class:`MetricsRegistry` and support
labels via :meth:`~_Instrument.labels` (one child per label-value tuple).
Mutation takes one small per-instrument lock -- no global lock is ever
held while counting, which is what keeps the solver-side cost down to a
dict lookup and a guarded ``+=``.

Two readouts:

* :meth:`MetricsRegistry.render` -- the Prometheus text exposition
  format (``text/plain; version=0.0.4``): ``# HELP``/``# TYPE`` headers,
  escaped label values, ``_bucket{le="..."}`` series ending in ``+Inf``.
* :meth:`MetricsRegistry.snapshot` -- a plain JSON-able dict (the
  ``/metrics?format=json`` fallback and what the tests assert on).

Scrape-time *collectors* (:meth:`MetricsRegistry.register_collector`)
let subsystems that already keep their own counters (scheduler stats,
plan registry, result store) be reflected into gauges at render
time instead of double-counting on every event.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import forksafe

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "DEFAULT_LATENCY_BUCKETS",
]

#: The exposition content type (version 0.0.4 is the text format).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Seconds buckets spanning sub-millisecond checks to multi-minute solves.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0, 120.0, 300.0,
)


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _format_value(v: float) -> str:
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


class _Child:
    """One labelled series of an instrument."""

    __slots__ = ("_lock", "value", "sum", "count", "buckets")

    def __init__(self, edges: Optional[Tuple[float, ...]] = None):
        self._lock = forksafe.lock("metrics.series")
        self.value = 0.0
        self.sum = 0.0
        self.count = 0
        #: Per-edge (non-cumulative) bucket counts; cumulated at render.
        self.buckets = [0] * (len(edges) + 1) if edges is not None else None


class _Instrument:
    """Shared machinery of the three metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str,
                 labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], _Child] = {}
        self._lock = forksafe.lock("metrics.instrument")
        self._edges: Optional[Tuple[float, ...]] = None
        if not self.labelnames:
            # Unlabelled instruments get their single child eagerly so the
            # hot path is one attribute load.
            self._default = self._child(())
        else:
            self._default = None

    def _child(self, key: Tuple[str, ...]) -> _Child:
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, _Child(self._edges))
        return child

    def labels(self, *values, **kv) -> "_Bound":
        if kv:
            if values:
                raise ValueError("pass label values positionally or by name")
            values = tuple(kv[name] for name in self.labelnames)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {values}")
        return _Bound(self, self._child(tuple(str(v) for v in values)))

    # -- readout ---------------------------------------------------------------

    def _series(self) -> List[Tuple[Tuple[str, ...], _Child]]:
        with self._lock:
            return sorted(self._children.items())

    def _labelstr(self, key: Tuple[str, ...], extra: str = "") -> str:
        parts = [f'{n}="{_escape_label(v)}"'
                 for n, v in zip(self.labelnames, key)]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""


class _Bound:
    """An instrument bound to one labelled child."""

    __slots__ = ("_inst", "_child")

    def __init__(self, inst: _Instrument, child: _Child):
        self._inst = inst
        self._child = child

    def inc(self, amount: float = 1.0) -> None:
        self._inst._inc(self._child, amount)

    def set(self, value: float) -> None:
        self._inst._set(self._child, value)

    def observe(self, value: float) -> None:
        self._inst._observe(self._child, value)


class Counter(_Instrument):
    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        self._inc(self._default, amount)

    def _inc(self, child: _Child, amount: float) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with child._lock:
            child.value += amount

    def _set(self, child, value) -> None:
        raise TypeError("counters cannot be set")

    def _observe(self, child, value) -> None:
        raise TypeError("counters cannot observe")


class Gauge(_Instrument):
    kind = "gauge"

    def set(self, value: float) -> None:
        self._set(self._default, value)

    def inc(self, amount: float = 1.0) -> None:
        self._inc(self._default, amount)

    def _set(self, child: _Child, value: float) -> None:
        with child._lock:
            child.value = float(value)

    def _inc(self, child: _Child, amount: float) -> None:
        with child._lock:
            child.value += amount

    def _observe(self, child, value) -> None:
        raise TypeError("gauges cannot observe")


class Histogram(_Instrument):
    """Fixed-bucket histogram; edges are upper bounds, ``+Inf`` implied."""

    kind = "histogram"

    def __init__(self, name: str, help: str,
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        edges = tuple(sorted(float(b) for b in buckets))
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if len(set(edges)) != len(edges):
            raise ValueError("histogram bucket edges must be unique")
        self._pre_edges = edges
        super().__init__(name, help, labelnames)
        self._edges = edges
        if self._default is not None:
            # The eager default child was built before _edges was set.
            self._default.buckets = [0] * (len(edges) + 1)

    @property
    def edges(self) -> Tuple[float, ...]:
        return self._pre_edges

    def observe(self, value: float) -> None:
        self._observe(self._default, value)

    def _observe(self, child: _Child, value: float) -> None:
        v = float(value)
        idx = len(self._pre_edges)
        for i, edge in enumerate(self._pre_edges):
            if v <= edge:
                idx = i
                break
        with child._lock:
            child.buckets[idx] += 1
            child.sum += v
            child.count += 1

    def _inc(self, child, amount) -> None:
        raise TypeError("histograms cannot inc")

    def _set(self, child, value) -> None:
        raise TypeError("histograms cannot be set")


class MetricsRegistry:
    """Named instruments plus scrape-time collectors."""

    def __init__(self, prefix: str = "repro"):
        self.prefix = prefix
        self._instruments: Dict[str, _Instrument] = {}
        self._lock = forksafe.lock("metrics.registry")
        self._collectors: List[Callable[[], None]] = []

    # -- creation (idempotent by name) -----------------------------------------

    def _register(self, cls, name: str, help: str, labelnames=(),
                  **kw) -> _Instrument:
        full = name if name.startswith(self.prefix) else f"{self.prefix}_{name}"
        with self._lock:
            inst = self._instruments.get(full)
            if inst is None:
                inst = cls(full, help, labelnames, **kw)
                self._instruments[full] = inst
            elif not isinstance(inst, cls):
                raise ValueError(f"{full} already registered as {inst.kind}")
            return inst

    def counter(self, name: str, help: str, labelnames=()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str, labelnames=()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str, labelnames=(),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  ) -> Histogram:
        return self._register(Histogram, name, help, labelnames,
                              buckets=buckets)

    # -- collectors ------------------------------------------------------------

    def register_collector(self, fn: Callable[[], None]) -> Callable[[], None]:
        """Run ``fn`` before every render/snapshot (it sets gauges from
        external counter sources).  Returns ``fn`` as the unregister
        handle."""
        with self._lock:
            if fn not in self._collectors:
                self._collectors.append(fn)
        return fn

    def unregister_collector(self, fn: Callable[[], None]) -> None:
        with self._lock:
            if fn in self._collectors:
                self._collectors.remove(fn)

    def _collect(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for fn in collectors:
            try:
                fn()
            except Exception:  # a broken collector must not break scrapes
                pass

    # -- readout ---------------------------------------------------------------

    def render(self) -> str:
        """The Prometheus text exposition (``version=0.0.4``)."""
        self._collect()
        lines: List[str] = []
        with self._lock:
            instruments = sorted(self._instruments.items())
        for name, inst in instruments:
            lines.append(f"# HELP {name} {inst.help}")
            lines.append(f"# TYPE {name} {inst.kind}")
            for key, child in inst._series():
                with child._lock:
                    value = child.value
                    total = child.count
                    vsum = child.sum
                    buckets = list(child.buckets) if child.buckets else None
                if buckets is not None:
                    cum = 0
                    for edge, n in zip(inst.edges + (math.inf,), buckets):
                        cum += n
                        le = inst._labelstr(
                            key, f'le="{_format_value(edge)}"')
                        lines.append(f"{name}_bucket{le} {cum}")
                    lines.append(
                        f"{name}_sum{inst._labelstr(key)} "
                        f"{_format_value(vsum)}")
                    lines.append(
                        f"{name}_count{inst._labelstr(key)} {total}")
                else:
                    lines.append(
                        f"{name}{inst._labelstr(key)} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, object]:
        """JSON-able form: name -> {kind, help, series: [...]}."""
        self._collect()
        out: Dict[str, object] = {}
        with self._lock:
            instruments = sorted(self._instruments.items())
        for name, inst in instruments:
            series = []
            for key, child in inst._series():
                with child._lock:
                    entry: Dict[str, object] = {
                        "labels": dict(zip(inst.labelnames, key)),
                    }
                    if child.buckets is not None:
                        cum, cum_counts = 0, []
                        for n in child.buckets:
                            cum += n
                            cum_counts.append(cum)
                        entry["buckets"] = dict(
                            zip([_format_value(e)
                                 for e in inst.edges + (math.inf,)],
                                cum_counts))
                        entry["sum"] = child.sum
                        entry["count"] = child.count
                    else:
                        entry["value"] = child.value
                series.append(entry)
            out[name] = {"kind": inst.kind, "help": inst.help,
                         "series": series}
        return out

    def merge_snapshot(self, snap: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        Forked workers reset their (copy-on-write) registry at entry, so
        the snapshot they spool home is a pure delta: counters and
        histogram buckets add, gauges adopt the child's last value --
        the metrics analogue of ``TraceRecorder.merge_child``.
        """
        makers = {"counter": self.counter, "gauge": self.gauge,
                  "histogram": self.histogram}
        for name, doc in snap.items():
            maker = makers.get(doc.get("kind"))
            if maker is None:
                continue
            first = (doc.get("series") or [{}])[0]
            labelnames = tuple(first.get("labels") or {})
            if doc["kind"] == "histogram":
                edges = tuple(float(e) for e in first.get("buckets", {})
                              if e != "+Inf")
                inst = self.histogram(name, doc.get("help", ""), labelnames,
                                      buckets=edges or DEFAULT_LATENCY_BUCKETS)
            else:
                inst = maker(name, doc.get("help", ""), labelnames)
            for series in doc.get("series") or []:
                key = tuple(str(series.get("labels", {}).get(n, ""))
                            for n in labelnames)
                child = inst._child(key)
                with child._lock:
                    if doc["kind"] == "histogram":
                        # Snapshot buckets are cumulative; store per-edge.
                        prev = 0
                        for i, cum in enumerate(series["buckets"].values()):
                            child.buckets[i] += cum - prev
                            prev = cum
                        child.sum += series.get("sum", 0.0)
                        child.count += series.get("count", 0)
                    elif doc["kind"] == "counter":
                        child.value += series.get("value", 0.0)
                    else:  # gauge: the child's latest reading wins
                        child.value = series.get("value", 0.0)

    def get_value(self, name: str, labels: Tuple[str, ...] = ()) -> float:
        """Test helper: current value (or count) of one series."""
        full = name if name.startswith(self.prefix) else f"{self.prefix}_{name}"
        inst = self._instruments[full]
        child = inst._children.get(tuple(str(v) for v in labels))
        if child is None:
            return 0.0
        with child._lock:
            return float(child.count if child.buckets is not None
                         else child.value)

    def reset(self) -> None:
        """Drop every instrument and collector (a forked child's first
        step, so what it reports home is its own delta)."""
        with self._lock:
            self._instruments.clear()
            self._collectors.clear()
