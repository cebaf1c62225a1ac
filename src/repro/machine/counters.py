"""Lightweight performance counters for the machine substrate itself.

The simulated machine *produces* performance numbers; this module counts
the cost of producing them: how many chunk accesses were replayed through
the LRU model, how often the stream-signature memoization hit, and how
much wall-clock the replay consumed.  The substrate speed benchmark
(``benchmarks/bench_substrate_speed.py``) and ``repro bench`` surface
these so perf regressions in the substrate are visible as data, not
anecdotes.

Counting is deliberately coarse (one update per replayed *schedule*,
never per access) so the counters themselves stay out of the hot loop.

The counters are per process: the tuner scores in the calling process,
so one :data:`SUBSTRATE_COUNTERS` sees a whole tuning pass; forked
scheduler workers and ranks count in their own copy-on-write copies.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["SubstrateCounters", "SUBSTRATE_COUNTERS", "timed_section"]

#: The integer counter fields (snapshot and reset walk these).
_COUNTER_FIELDS = (
    "jobs_replayed",
    "accesses_replayed",
    "stream_memo_hits",
    "stream_memo_misses",
)


@dataclass
class SubstrateCounters:
    """Aggregate telemetry of the stream/replay substrate."""

    #: RowJob / component-row batches replayed through a batched engine.
    jobs_replayed: int = 0
    #: Individual chunk accesses those batches expanded to.
    accesses_replayed: int = 0
    #: Stream-signature memo hits (a congruent job reused a packed stream).
    stream_memo_hits: int = 0
    #: Stream-signature memo misses (a packed stream had to be generated).
    stream_memo_misses: int = 0
    #: Wall-clock seconds spent inside named sections (see timed_section).
    section_seconds: dict = field(default_factory=dict)
    #: Open nesting depth per section name (bookkeeping for re-entrant
    #: timed_section; never serialized).
    _section_depth: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def stream_memo_rate(self) -> float:
        n = self.stream_memo_hits + self.stream_memo_misses
        return self.stream_memo_hits / n if n else 0.0

    def snapshot(self) -> dict:
        d = {f: getattr(self, f) for f in _COUNTER_FIELDS}
        d["section_seconds"] = dict(self.section_seconds)
        d["stream_memo_rate"] = round(self.stream_memo_rate, 4)
        return d

    def sections_by_time(self) -> list:
        """``(name, seconds)`` pairs, most expensive first."""
        return sorted(self.section_seconds.items(), key=lambda kv: -kv[1])

    def reset(self) -> None:
        for f in _COUNTER_FIELDS:
            setattr(self, f, 0)
        self.section_seconds = {}
        self._section_depth = {}


#: Process-global counters.  The batched emitters add a replayed schedule's
#: totals under the shape-table lock of :mod:`repro.machine.streams`, so
#: concurrent tuning threads lose no update.
SUBSTRATE_COUNTERS = SubstrateCounters()


@contextmanager
def timed_section(name: str, counters: SubstrateCounters = SUBSTRATE_COUNTERS):
    """Accumulate the wall-clock of a code section under ``name``.

    Re-entrant: when sections of the same name nest (recursive callers,
    a measurement inside a tuner sweep), only the outermost frame
    accumulates, so nested use never double-counts.  Exception-safe: the
    time up to the raise is still recorded on unwind.
    """
    depth = counters._section_depth
    depth[name] = depth.get(name, 0) + 1
    t0 = time.perf_counter()
    try:
        yield
    finally:
        remaining = depth.get(name, 1) - 1
        if remaining > 0:
            depth[name] = remaining
        else:
            depth.pop(name, None)
            counters.section_seconds[name] = (
                counters.section_seconds.get(name, 0.0) + time.perf_counter() - t0
            )
