"""Simulated performance-monitoring unit (the likwid-perfctr substitute).

The paper establishes its headline claims (38-80% memory-traffic savings,
code balance matching Eq. 12) with likwid-perfctr hardware counter groups
on the Haswell socket.  This module gives the simulated machine the same
observability surface: *counter groups* read out of the LRU cache model
and the stream-replay engines, exposed through a marker-region API
modeled on ``LIKWID_MARKER_START`` / ``LIKWID_MARKER_STOP``.

Counter groups
--------------
``MEM``
    Bytes in and out of the modeled main memory, and the derived code
    balance in bytes per lattice-site update -- the quantity of Figs.
    5c/6c/7d/8d.
``CACHE``
    Hit/miss/write-back event counts of the modeled shared L3 (the one
    cache level the substrate simulates) plus the resident working set.
``WORK``
    Cell half-updates, LUPs, and retired flops at
    :data:`repro.fdfd.specs.FLOPS_PER_LUP` flops per LUP.

Every replay engine -- the reference per-access :class:`~repro.machine.
cache.LRUCache`, the batched :class:`~repro.machine.cache.BatchLRU`, and
the compiled :class:`~repro.machine.native.NativeLRU` -- exposes the same
``stats`` / ``used_bytes`` surface with byte-identical accounting, so a
:class:`PerfRegion` wrapped around any of them reports identical group
values (asserted by ``tests/test_pmu.py``).

Usage, likwid marker style, around a row schedule ``rows`` -- the
arrays ``(recipe, y_lo, y_hi, z_lo, z_hi)`` an emitter replays::

    pmu = PMU()
    with pmu.region("steady-state", cache, emitter):
        emitter.emit_rows(*rows)
    print(pmu.report(groups=("MEM", "CACHE")))

The measurement campaigns of :mod:`repro.machine.measure` run their
measured phase inside such a region and attach the resulting
:class:`PerfSample` to every :class:`~repro.machine.measure.TrafficResult`,
feeding the process-global :data:`GLOBAL_PMU` (surfaced by ``repro
counters`` and the ``--perf-group`` CLI flags).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from ..fdfd.specs import FLOPS_PER_LUP

__all__ = [
    "PerfGroup",
    "PerfSample",
    "PerfRegion",
    "PMU",
    "PERF_GROUPS",
    "GLOBAL_PMU",
    "resolve_groups",
]


@dataclass(frozen=True)
class PerfGroup:
    """A named set of events + derived metrics (a likwid counter group)."""

    name: str
    title: str
    events: Tuple[str, ...]
    metrics: Tuple[str, ...]


#: The three counter groups of the simulated PMU, keyed likwid-style.
PERF_GROUPS: Dict[str, PerfGroup] = {
    "MEM": PerfGroup(
        name="MEM",
        title="Main memory traffic",
        events=("DRAM_READ_BYTES", "DRAM_WRITE_BYTES"),
        metrics=(
            "Memory read data volume [MByte]",
            "Memory write data volume [MByte]",
            "Memory data volume [MByte]",
            "Code balance [B/LUP]",
        ),
    ),
    "CACHE": PerfGroup(
        name="CACHE",
        title="Shared L3 cache (the one simulated level)",
        events=(
            "L3_READ_HITS",
            "L3_READ_MISSES",
            "L3_WRITE_HITS",
            "L3_WRITE_MISSES",
            "L3_EVICT_WRITEBACKS",
            "L3_RESIDENT_BYTES",
        ),
        metrics=("L3 accesses", "L3 hit rate", "L3 resident set [MiB]"),
    ),
    "WORK": PerfGroup(
        name="WORK",
        title="Lattice-site update work",
        events=("CELL_UPDATES", "LUPS", "RETIRED_FLOPS"),
        metrics=("Flops per LUP", "Region calls"),
    ),
}


def resolve_groups(selector: str | Sequence[str] | None) -> Tuple[str, ...]:
    """Normalize a group selector (``"MEM"``, ``"MEM,CACHE"``, ``"ALL"``,
    a sequence, or ``None`` for all) to canonical group names."""
    if selector is None:
        return tuple(PERF_GROUPS)
    if isinstance(selector, str):
        selector = selector.split(",")
    out: List[str] = []
    for g in selector:
        g = g.strip().upper()
        if g == "ALL":
            return tuple(PERF_GROUPS)
        if g not in PERF_GROUPS:
            raise ValueError(
                f"unknown perf group {g!r}, expected one of {tuple(PERF_GROUPS)}"
            )
        if g not in out:
            out.append(g)
    return tuple(out)


def _stats_tuple(cache) -> Tuple[int, ...]:
    """Point-in-time copy of an engine's seven counter fields (the live
    ``CacheStats`` of the Python engines mutates in place)."""
    s = cache.stats
    return (
        s.read_hits,
        s.read_misses,
        s.write_hits,
        s.write_misses,
        s.writebacks,
        s.mem_read_bytes,
        s.mem_write_bytes,
    )


@dataclass(frozen=True)
class PerfSample:
    """One region's accumulated counter values (all groups at once).

    The simulated PMU has no multiplexing: unlike real hardware, every
    group is available from a single run, so a sample carries the union
    of the three groups' raw events.
    """

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    writebacks: int = 0
    mem_read_bytes: int = 0
    mem_write_bytes: int = 0
    #: Resident bytes at region close (max over calls, not a sum).
    resident_bytes: int = 0
    #: Emitter cell half-updates (engine-specific granularity).
    cells: int = 0
    #: Full lattice-site updates.
    lups: float = 0.0
    #: Marker region enter/exit pairs accumulated into this sample.
    calls: int = 0

    # -- derived metrics -----------------------------------------------------

    @property
    def mem_bytes(self) -> int:
        return self.mem_read_bytes + self.mem_write_bytes

    @property
    def accesses(self) -> int:
        return self.read_hits + self.read_misses + self.write_hits + self.write_misses

    @property
    def hit_rate(self) -> float:
        n = self.accesses
        return 1.0 if n == 0 else (self.read_hits + self.write_hits) / n

    @property
    def code_balance(self) -> float:
        """Measured bytes per LUP (the likwid 'data volume / LUPs')."""
        return self.mem_bytes / self.lups if self.lups else 0.0

    @property
    def flops(self) -> float:
        return self.lups * FLOPS_PER_LUP

    # -- construction / combination ------------------------------------------

    @staticmethod
    def from_deltas(
        stats_before: Tuple[int, ...],
        stats_after: Tuple[int, ...],
        cells: int,
        lups: float,
        resident_bytes: int,
    ) -> "PerfSample":
        d = tuple(a - b for a, b in zip(stats_after, stats_before))
        return PerfSample(
            read_hits=d[0],
            read_misses=d[1],
            write_hits=d[2],
            write_misses=d[3],
            writebacks=d[4],
            mem_read_bytes=d[5],
            mem_write_bytes=d[6],
            resident_bytes=resident_bytes,
            cells=cells,
            lups=lups,
            calls=1,
        )

    def merged(self, other: "PerfSample") -> "PerfSample":
        """Accumulate another sample (counter sums; resident is a max)."""
        return PerfSample(
            read_hits=self.read_hits + other.read_hits,
            read_misses=self.read_misses + other.read_misses,
            write_hits=self.write_hits + other.write_hits,
            write_misses=self.write_misses + other.write_misses,
            writebacks=self.writebacks + other.writebacks,
            mem_read_bytes=self.mem_read_bytes + other.mem_read_bytes,
            mem_write_bytes=self.mem_write_bytes + other.mem_write_bytes,
            resident_bytes=max(self.resident_bytes, other.resident_bytes),
            cells=self.cells + other.cells,
            lups=self.lups + other.lups,
            calls=self.calls + other.calls,
        )

    # -- readout ---------------------------------------------------------------

    def event(self, name: str) -> float:
        """Raw event value by its group-table name."""
        table = {
            "DRAM_READ_BYTES": self.mem_read_bytes,
            "DRAM_WRITE_BYTES": self.mem_write_bytes,
            "L3_READ_HITS": self.read_hits,
            "L3_READ_MISSES": self.read_misses,
            "L3_WRITE_HITS": self.write_hits,
            "L3_WRITE_MISSES": self.write_misses,
            "L3_EVICT_WRITEBACKS": self.writebacks,
            "L3_RESIDENT_BYTES": self.resident_bytes,
            "CELL_UPDATES": self.cells,
            "LUPS": self.lups,
            "RETIRED_FLOPS": self.flops,
        }
        return table[name]

    def metric(self, name: str) -> float:
        table = {
            "Memory read data volume [MByte]": self.mem_read_bytes / 1e6,
            "Memory write data volume [MByte]": self.mem_write_bytes / 1e6,
            "Memory data volume [MByte]": self.mem_bytes / 1e6,
            "Code balance [B/LUP]": self.code_balance,
            "L3 accesses": self.accesses,
            "L3 hit rate": self.hit_rate,
            "L3 resident set [MiB]": self.resident_bytes / 2**20,
            "Flops per LUP": FLOPS_PER_LUP,
            "Region calls": self.calls,
        }
        return table[name]

    def group_values(self, group: str) -> Dict[str, float]:
        """Events + metrics of one group as a flat dict (tests, JSON)."""
        g = PERF_GROUPS[group]
        out: Dict[str, float] = {e: self.event(e) for e in g.events}
        out.update({m: self.metric(m) for m in g.metrics})
        return out

    def to_dict(self) -> Dict[str, object]:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["derived"] = {
            "mem_bytes": self.mem_bytes,
            "accesses": self.accesses,
            "hit_rate": self.hit_rate,
            "code_balance_B_per_LUP": self.code_balance,
            "flops": self.flops,
        }
        return d


class PerfRegion:
    """A named marker region accumulating :class:`PerfSample` deltas.

    Modeled on likwid marker regions: a region may be entered many times
    (the sample accumulates and counts calls) and nests safely -- each
    enter snapshots independently, so overlapping enters of the *same*
    region object simply accumulate both deltas.
    """

    __slots__ = ("name", "sample", "_stack")

    def __init__(self, name: str):
        self.name = name
        self.sample = PerfSample()
        self._stack: List[tuple] = []

    def start(self, cache, emitter) -> None:
        self._stack.append((cache, emitter, _stats_tuple(cache), emitter.cells, emitter.lups))

    def stop(self) -> PerfSample:
        """Close the innermost open marker; returns this call's delta."""
        if not self._stack:
            raise RuntimeError(f"perf region {self.name!r} stopped but never started")
        cache, emitter, stats0, cells0, lups0 = self._stack.pop()
        delta = PerfSample.from_deltas(
            stats0,
            _stats_tuple(cache),
            cells=emitter.cells - cells0,
            lups=emitter.lups - lups0,
            resident_bytes=cache.used_bytes,
        )
        self.sample = self.sample.merged(delta)
        return delta

    @contextmanager
    def __call__(self, cache, emitter):
        self.start(cache, emitter)
        try:
            yield self
        finally:
            self.stop()


class PMU:
    """A set of named marker regions plus likwid-style reporting."""

    def __init__(self):
        self.regions: Dict[str, PerfRegion] = {}

    def __contains__(self, name: str) -> bool:
        return name in self.regions

    def __getitem__(self, name: str) -> PerfRegion:
        return self.regions[name]

    def _region(self, name: str) -> PerfRegion:
        r = self.regions.get(name)
        if r is None:
            r = self.regions[name] = PerfRegion(name)
        return r

    @contextmanager
    def region(self, name: str, cache, emitter):
        """Marker-region context: counts the enclosed replay traffic."""
        r = self._region(name)
        r.start(cache, emitter)
        try:
            yield r
        finally:
            r.stop()

    def add_sample(self, name: str, sample: PerfSample) -> None:
        """Fold an externally captured sample into a named region."""
        r = self._region(name)
        r.sample = r.sample.merged(sample)

    def sample(self, name: str) -> PerfSample:
        return self.regions[name].sample

    def reset(self) -> None:
        self.regions.clear()

    # -- reporting -------------------------------------------------------------

    @staticmethod
    def _fmt(v: float) -> str:
        if isinstance(v, float) and not v.is_integer():
            return f"{v:.4f}" if abs(v) < 100 else f"{v:,.1f}"
        return f"{int(v):,}"

    def _group_table(self, region: PerfRegion, group: PerfGroup) -> str:
        rows: List[Tuple[str, str]] = [(e, self._fmt(region.sample.event(e)))
                                       for e in group.events]
        rows += [(m, self._fmt(region.sample.metric(m))) for m in group.metrics]
        wname = max(len("Event/Metric"), *(len(r[0]) for r in rows))
        wval = max(len("Value"), *(len(r[1]) for r in rows))
        bar = f"+-{'-' * wname}-+-{'-' * wval}-+"
        head = f"Region {region.name}, Group {group.name}: {group.title}"
        lines = ["-" * max(len(head), len(bar)), head, "-" * max(len(head), len(bar)),
                 bar, f"| {'Event/Metric'.ljust(wname)} | {'Value'.rjust(wval)} |", bar]
        for name, val in rows:
            lines.append(f"| {name.ljust(wname)} | {val.rjust(wval)} |")
        lines.append(bar)
        return "\n".join(lines)

    def report(
        self,
        groups: str | Sequence[str] | None = None,
        regions: Iterable[str] | None = None,
    ) -> str:
        """likwid-perfctr-style readout of marker regions x counter groups."""
        names = list(regions) if regions is not None else list(self.regions)
        gsel = resolve_groups(groups)
        if not names:
            return "(no perf regions recorded)"
        blocks: List[str] = []
        for name in names:
            region = self.regions[name]
            for g in gsel:
                blocks.append(self._group_table(region, PERF_GROUPS[g]))
        return "\n\n".join(blocks)

    def to_json(self) -> Dict[str, Mapping[str, object]]:
        return {name: r.sample.to_dict() for name, r in self.regions.items()}


#: Process-global PMU: the measurement campaigns feed it, the CLI
#: ``--perf-group`` flags and ``repro counters`` read it.
GLOBAL_PMU = PMU()
