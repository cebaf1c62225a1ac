"""Code-balance measurement campaigns (the LIKWID substitute).

Each function replays a *representative steady-state window* of a real
schedule through the LRU model of the shared L3 and reports bytes of main
memory traffic per lattice-site update -- the quantity plotted in Figs. 5c,
6c, 7d and 8d of the paper.

Reduction to a representative window (documented in DESIGN.md):

* **Tiled traversals**: traffic per LUP is periodic in the diamond bands,
  so we build a plan that is ``n_streams`` diamond columns wide (the
  number of concurrently executing thread groups -- they share the L3, so
  their job streams are interleaved round-robin), execute one warm-up
  band, and measure the next bands.  The z extent is shortened to a few
  wavefront widths (steady state along z sets in after one window).
* **Sweeps** (naive / spatially blocked): one warm-up time step, then
  measured time steps, with the real ``ny`` (the layer condition depends
  on it) and a shortened z extent.

Results are memoized: the auto-tuner and the figure benchmarks revisit
the same configurations many times.  Traffic depends on the machine only
through its usable L3 capacity, so that is what the memo is keyed on:
bandwidth- and core-count variants of one machine share measurements.

Replay engines
--------------
Three interchangeable engines produce byte-identical traffic counts
(asserted by the equivalence property tests):

* ``"reference"`` -- the original per-access Python loop
  (:class:`~repro.machine.streams.StreamEmitter` over
  :class:`~repro.machine.cache.LRUCache`), one emitter call per row job;
  the correctness oracle.
* ``"batch"`` -- whole schedules replayed through the pure-Python
  :class:`~repro.machine.cache.BatchLRU`.
* ``"native"`` -- the same schedules through the compiled kernel of
  :mod:`repro.machine.native` (falls back to ``"batch"`` transparently).

The two fast engines never see a single job: a measurement resolves each
phase of its schedule -- a band of interleaved tiles, the warm-up step or
all measured steps of a sweep -- to job arrays over the process-wide
:class:`~repro.machine.streams.ShapeTable` and replays it in one engine
call, in exactly the reference's access order.  The table holds the
stream of every shape class and tile congruence class once for all
candidates of a tuning run.

The default ``"auto"`` picks the fastest available; override per call or
process-wide via ``REPRO_STREAM_ENGINE``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Tuple

import numpy as np

from .. import config
from ..core import tracing
from ..core.plan import TilingPlan
from ..core.wavefront import RowJob, tile_row_jobs, wavefront_width
from .cache import BatchLRU, LRUCache
from .counters import timed_section
from .native import make_lru
from .pmu import GLOBAL_PMU, PerfRegion, PerfSample
from .spec import MachineSpec
from .streams import (
    BatchComponentStreamEmitter,
    BatchStreamEmitter,
    ComponentStreamEmitter,
    StreamEmitter,
    SWEEP_COMPONENTS,
    clear_shape_table,
    round_robin,
)

__all__ = [
    "TrafficResult",
    "clear_substrate_caches",
    "measure_tiled_code_balance",
    "measure_sweep_code_balance",
    "resolve_engine",
]

ENGINES = ("reference", "batch", "native")


def resolve_engine(engine: str | None = None) -> str:
    """Resolve an engine name (or ``None`` / ``"auto"``) to a concrete one."""
    e = engine or config.get("REPRO_STREAM_ENGINE")
    if e == "auto":
        return "native"
    if e not in ENGINES:
        raise ValueError(f"unknown stream engine {e!r}, expected one of {ENGINES}")
    return e


def _make_group_emitter(engine: str, capacity: float, ny: int, nz: int, nx: int):
    if engine == "reference":
        cache = LRUCache(capacity)
        return cache, StreamEmitter(cache, ny=ny, nz=nz, nx=nx)
    key_space = BatchStreamEmitter.key_space(ny, nz)
    if engine == "batch":
        cache = BatchLRU(capacity, key_space)
    else:  # native (falls back to BatchLRU when the kernel is unavailable)
        cache = make_lru(capacity, key_space)
    return cache, BatchStreamEmitter(cache, ny=ny, nz=nz, nx=nx)


def _make_component_emitter(engine: str, capacity: float, ny: int, nz: int, nx: int):
    if engine == "reference":
        cache = LRUCache(capacity)
        return cache, ComponentStreamEmitter(cache, ny=ny, nz=nz, nx=nx)
    key_space = BatchComponentStreamEmitter.key_space(ny, nz)
    if engine == "batch":
        cache = BatchLRU(capacity, key_space)
    else:
        cache = make_lru(capacity, key_space)
    return cache, BatchComponentStreamEmitter(cache, ny=ny, nz=nz, nx=nx)


@dataclass(frozen=True)
class TrafficResult:
    """Outcome of one traffic measurement."""

    mem_bytes: float
    lups: float
    cells: int
    hit_rate: float
    #: Full PMU counter sample of the measured phase (all groups); see
    #: :mod:`repro.machine.pmu`.  Compared fields above stay the
    #: authoritative figure inputs; ``perf`` adds the per-event readout.
    perf: PerfSample | None = None

    @property
    def bytes_per_lup(self) -> float:
        return self.mem_bytes / self.lups if self.lups else 0.0


def _interleave_band(plan: TilingPlan, band: int) -> Iterator[RowJob]:
    """Round-robin interleave the job streams of one band's tiles,
    emulating concurrent thread groups sharing the L3."""
    streams: List[Iterator[RowJob]] = [
        tile_row_jobs(t, plan.nz, plan.bz) for t in plan.band_tiles(band)
    ]
    while streams:
        alive: List[Iterator[RowJob]] = []
        for s in streams:
            job = next(s, None)
            if job is not None:
                yield job
                alive.append(s)
        streams = alive


def measure_tiled_code_balance(
    spec: MachineSpec,
    nx: int,
    dw: int,
    bz: int,
    n_streams: int,
    nz_sim: int | None = None,
    measure_bands: int = 2,
    engine: str | None = None,
) -> TrafficResult:
    """Measured bytes/LUP of a wavefront-diamond schedule.

    Parameters
    ----------
    spec:
        Machine model (provides the effective L3 capacity).
    nx:
        Real inner-dimension extent (sets the row size in bytes -- the
        cache pressure scales with it, Eq. 11).
    dw, bz:
        Diamond width and wavefront block width.
    n_streams:
        Concurrently executing thread groups whose tile streams share the
        cache (``threads // tg_size`` in MWD, ``threads`` in 1WD).
    nz_sim:
        Simulated z extent; defaults to a few wavefront windows.
    engine:
        Replay engine (see module docstring); default: fastest available.
    """
    return _measure_tiled_cached(
        spec.usable_l3_bytes, nx, dw, bz, n_streams, nz_sim, measure_bands,
        resolve_engine(engine),
    )


@lru_cache(maxsize=4096)
def _measure_tiled_cached(
    capacity: float,
    nx: int,
    dw: int,
    bz: int,
    n_streams: int,
    nz_sim: int | None,
    measure_bands: int,
    engine: str,
) -> TrafficResult:
    if n_streams < 1:
        raise ValueError("n_streams must be >= 1")
    if nz_sim is None:
        nz_sim = max(4 * wavefront_width(dw, bz), 48)
    ny_sim = n_streams * dw
    # Enough steps for one warm-up band plus the measured bands.
    timesteps = max(dw * (measure_bands + 2) // 2, dw)
    plan = TilingPlan.build(ny=ny_sim, nz=nz_sim, timesteps=timesteps, dw=dw, bz=bz)

    cache, emitter = _make_group_emitter(
        engine, capacity, ny=ny_sim, nz=nz_sim, nx=nx
    )

    def emit_band(band: int) -> None:
        if hasattr(emitter, "emit_tiles_interleaved"):
            emitter.emit_tiles_interleaved(plan.band_tiles(band), plan.bz)
        else:
            emitter.emit_jobs(_interleave_band(plan, band))

    bands = plan.bands
    region = PerfRegion("measure.tiled")
    with timed_section("measure.tiled"), tracing.span(
        f"measure.tiled dw={dw} bz={bz} nx={nx}", "measure",
        args={"dw": dw, "bz": bz, "nx": nx, "n_streams": n_streams,
              "engine": engine},
    ):
        with tracing.span("warmup band", "measure"):
            emit_band(bands[0])  # warm-up
        cache.reset_stats()
        cells0 = emitter.cells
        with region(cache, emitter), tracing.span("measured bands", "measure"):
            for band in bands[1 : 1 + measure_bands]:
                emit_band(band)
    stats = cache.stats
    cells = emitter.cells - cells0
    GLOBAL_PMU.add_sample("measure.tiled", region.sample)
    return TrafficResult(
        mem_bytes=float(stats.mem_bytes),
        lups=cells * nx / 2.0,
        cells=cells,
        hit_rate=stats.hit_rate,
        perf=region.sample,
    )


def _sweep_rows(
    ny: int, nz: int, block_y: int | None, threads: int
) -> Tuple[np.ndarray, ...]:
    """The row schedule of one baseline time step, as ``(comp, y_lo, y_hi,
    z_lo, z_hi)`` arrays (``comp`` indexes :data:`SWEEP_COMPONENTS`): one
    loop nest per component per half step (the paper's Listings), with
    ``threads`` static y-slabs interleaved round-robin, a slab dropping
    out when its loop nest is done.

    Naive order (``block_y=None``) is z-outer / y-inner: the z-shifted
    far rows are evicted before reuse at large grids.  Spatial blocking
    makes the y-block the outer loop and sweeps z inside it, so a block's
    rows stay resident between consecutive z planes -- the "layer
    condition" of Section III-B.
    """
    slab = -(-ny // threads)
    y_lo, y_hi, z = [], [], []
    for t in range(threads):
        y0, y1 = t * slab, min((t + 1) * slab, ny)
        if y0 >= y1:
            continue
        by = block_y or y1 - y0
        blocks = np.arange(y0, y1, by, dtype=np.int64)
        y_lo.append(np.repeat(blocks, nz))
        y_hi.append(np.repeat(np.minimum(blocks + by, y1), nz))
        z.append(np.tile(np.arange(nz, dtype=np.int64), len(blocks)))
    order = round_robin([len(a) for a in z])
    y_lo, y_hi, z = (np.concatenate(a)[order] for a in (y_lo, y_hi, z))
    n_comp = len(SWEEP_COMPONENTS)
    comp = np.repeat(np.arange(n_comp, dtype=np.int64), len(z))
    y_lo, y_hi, z = (np.tile(a, n_comp) for a in (y_lo, y_hi, z))
    return comp, y_lo, y_hi, z, z + 1


def measure_sweep_code_balance(
    spec: MachineSpec,
    nx: int,
    ny: int,
    block_y: int | None,
    threads: int = 1,
    nz_sim: int = 12,
    timesteps: int = 3,
    engine: str | None = None,
) -> TrafficResult:
    """Measured bytes/LUP of the naive or spatially blocked sweep."""
    return _measure_sweep_cached(
        spec.usable_l3_bytes, nx, ny, block_y, threads, nz_sim, timesteps,
        resolve_engine(engine),
    )


@lru_cache(maxsize=1024)
def _measure_sweep_cached(
    capacity: float,
    nx: int,
    ny: int,
    block_y: int | None,
    threads: int,
    nz_sim: int,
    timesteps: int,
    engine: str,
) -> TrafficResult:
    if threads < 1:
        raise ValueError("threads must be >= 1")
    cache, emitter = _make_component_emitter(
        engine, capacity, ny=ny, nz=nz_sim, nx=nx
    )
    region = PerfRegion("measure.sweep")
    with timed_section("measure.sweep"), tracing.span(
        f"measure.sweep by={block_y} nx={nx}", "measure",
        args={"nx": nx, "ny": ny, "block_y": block_y, "threads": threads,
              "engine": engine},
    ):
        rows = _sweep_rows(ny, nz_sim, block_y, threads)
        with tracing.span("warmup step", "measure"):
            emitter.emit_rows(*rows)
        cache.reset_stats()
        cells0 = emitter.cells
        with region(cache, emitter), tracing.span("measured steps", "measure"):
            emitter.emit_rows(*rows, repeat=timesteps - 1)
    stats = cache.stats
    cells = emitter.cells - cells0
    GLOBAL_PMU.add_sample("measure.sweep", region.sample)
    return TrafficResult(
        mem_bytes=float(stats.mem_bytes),
        lups=cells * nx / 12.0,
        cells=cells,
        hit_rate=stats.hit_rate,
        perf=region.sample,
    )


def clear_substrate_caches() -> None:
    """Cold-start every memoization layer of the substrate and the tuner
    on top of it: tuned points, measurements, tile enumerations, tile DAGs
    (with the packed form the compiled DES walks) and the shared shape
    table.  What cold-path benchmarks, ``repro bench`` and
    order-independence tests call between runs."""
    from ..core import autotuner, diamond, plan

    autotuner.tune_tiled.cache_clear()
    autotuner.tune_spatial.cache_clear()
    _measure_tiled_cached.cache_clear()
    _measure_sweep_cached.cache_clear()
    diamond._enumerate_tiles_cached.cache_clear()
    plan._tile_dag.cache_clear()
    clear_shape_table()
