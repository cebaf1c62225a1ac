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
  on it) and a shortened z extent.  A measured step that leaves the
  cache's LRU state as it found it is the steady state: the later steps
  are credited with its traffic instead of replayed
  (:func:`_emit_until_steady`).

Results are memoized: the auto-tuner and the figure benchmarks revisit
the same configurations many times.  Traffic depends on the machine only
through its usable L3 capacity, so that is what the memo is keyed on:
bandwidth- and core-count variants of one machine share measurements.

One instrument
--------------
A measurement is two *row schedules* -- the arrays ``(recipe, y_lo,
y_hi, z_lo, z_hi)`` in replay order: the warm-up band and the measured
bands (:func:`_band_rows`), or the warm-up step and the measured steps
(:func:`_sweep_rows`) -- each replayed by one
:meth:`~repro.machine.streams.BatchStreamEmitter.emit_rows` call in
exactly the reference's access order.  The replay engine is whatever
the host has -- the compiled kernel of :mod:`repro.machine.native` when
it loads, the pure-Python :class:`~repro.machine.cache.BatchLRU`
otherwise (:func:`~repro.machine.native.make_lru` decides); it is not a
setting.
The per-access :class:`~repro.machine.streams.StreamEmitter` over
:class:`~repro.machine.cache.LRUCache` stays as the oracle: the uncached
bodies :func:`_measure_tiled` / :func:`_measure_sweep` take the emitter
factory, and the equivalence tests and ``bench_substrate_speed.py`` pass
:func:`_reference_emitter`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Tuple

import numpy as np

from .. import telemetry
from ..core.plan import TilingPlan
from ..core.wavefront import tile_rows, wavefront_width
from .cache import LRUCache
from .counters import timed_section
from .native import make_lru
from .pmu import GLOBAL_PMU, PerfRegion, PerfSample
from .spec import MachineSpec
from .streams import (
    FUSED,
    PER_COMPONENT,
    SWEEP_COMPONENTS,
    BatchStreamEmitter,
    Layout,
    StreamEmitter,
    clear_shape_table,
    round_robin,
)

__all__ = [
    "TrafficResult",
    "clear_substrate_caches",
    "measure_tiled_code_balance",
    "measure_sweep_code_balance",
]


def _host_emitter(capacity: float, layout: Layout, ny: int, nz: int, nx: int):
    """The batched emitter over the fastest engine the host has."""
    cache = make_lru(capacity, layout.key_space(ny, nz))
    return cache, BatchStreamEmitter(cache, ny=ny, nz=nz, nx=nx, layout=layout)


def _reference_emitter(capacity: float, layout: Layout, ny: int, nz: int, nx: int):
    """The oracle: the per-access reference emitter over ``LRUCache``."""
    cache = LRUCache(capacity)
    return cache, StreamEmitter(cache, ny=ny, nz=nz, nx=nx, layout=layout)


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


def _replay(make, layout: Layout, capacity: float, ny: int, nz: int, nx: int,
            name: str, span: str, args: dict, schedules) -> TrafficResult:
    """Replay a measurement through a fresh emitter from ``make`` and read
    its traffic: ``schedules()``, called inside the timed section, returns
    the warm-up row schedule (its traffic is dropped), the measured one
    and how many times the measured one repeats."""
    cache, emitter = make(capacity, layout, ny, nz, nx)
    region = PerfRegion(name)
    with timed_section(name), telemetry.span(span, "measure", args=args):
        warmup, measured, repeat = schedules()
        with telemetry.span("warm-up", "measure"):
            emitter.emit_rows(*warmup)
        cache.reset_stats()
        cells0 = emitter.cells
        with region(cache, emitter), telemetry.span("measured", "measure"):
            _emit_until_steady(cache, emitter, measured, repeat)
    stats = cache.stats
    cells = emitter.cells - cells0
    GLOBAL_PMU.add_sample(name, region.sample)
    return TrafficResult(
        mem_bytes=float(stats.mem_bytes),
        lups=cells * nx / layout.cells_per_lup,
        cells=cells,
        hit_rate=stats.hit_rate,
        perf=region.sample,
    )


def _emit_until_steady(cache, emitter, rows, repeat: int) -> None:
    """Replay the row schedule ``rows`` ``repeat`` times over, as one
    ``emit_rows(*rows, repeat=repeat)`` would -- but when the first
    repetition leaves the cache's LRU state as it found it, every later
    one would replay access for access alike, so it stops there and
    credits each remaining repetition with the first one's counters and
    cells.  A schedule whose state still moves replays in full."""
    if repeat > 1:
        before = cache.snapshot()
        stats, cells = replace(cache.stats), emitter.cells
        emitter.emit_rows(*rows)
        repeat -= 1
        if cache.snapshot() == before:
            once = cache.stats.plus(stats, -1)
            cache.stats = cache.stats.plus(once, repeat)
            emitter.cells += repeat * (emitter.cells - cells)
            return
    emitter.emit_rows(*rows, repeat=repeat)


def _band_rows(plan: TilingPlan, band: int) -> np.ndarray:
    """The row schedule of one band, as a ``(5, jobs)`` array of rows
    ``recipe, y_lo, y_hi, z_lo, z_hi`` (``recipe`` = ``tau & 1``, the
    :data:`FUSED` half-step class): each tile's wavefront jobs
    (:func:`tile_rows`, whose row 0 is the full ``tau``), the tiles
    interleaved round-robin -- concurrent thread groups sharing the L3."""
    parts = [tile_rows(tile, plan.nz, plan.bz) for tile in plan.band_tiles(band)]
    if not parts:
        return np.zeros((5, 0), dtype=np.int64)
    order = round_robin([p.shape[1] for p in parts])
    rows = np.take(np.concatenate(parts, axis=1), order, axis=1)
    rows[0] &= 1
    return rows


def measure_tiled_code_balance(
    spec: MachineSpec,
    nx: int,
    dw: int,
    bz: int,
    n_streams: int,
    nz_sim: int | None = None,
    measure_bands: int = 2,
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
    measure_bands:
        Bands measured after the warm-up band.
    """
    if n_streams < 1:
        raise ValueError("n_streams must be >= 1")
    if measure_bands < 1:
        raise ValueError("measure_bands must be >= 1")
    return _measure_tiled_cached(
        spec.usable_l3_bytes, nx, dw, bz, n_streams, nz_sim, measure_bands)


@lru_cache(maxsize=4096)
def _measure_tiled_cached(capacity: float, nx: int, dw: int, bz: int,
                          n_streams: int, nz_sim: int | None,
                          measure_bands: int) -> TrafficResult:
    return _measure_tiled(_host_emitter, capacity, nx, dw, bz, n_streams,
                          nz_sim, measure_bands)


def _measure_tiled(make, capacity: float, nx: int, dw: int, bz: int,
                   n_streams: int, nz_sim: int | None,
                   measure_bands: int) -> TrafficResult:
    if nz_sim is None:
        nz_sim = max(4 * wavefront_width(dw, bz), 48)
    ny_sim = n_streams * dw
    # Enough steps for one warm-up band plus the measured bands.
    timesteps = max(dw * (measure_bands + 2) // 2, dw)
    plan = TilingPlan.build(ny=ny_sim, nz=nz_sim, timesteps=timesteps, dw=dw, bz=bz)
    warmup, *measured = plan.bands[: 1 + measure_bands]
    return _replay(
        make, FUSED, capacity, ny_sim, nz_sim, nx, "measure.tiled",
        f"measure.tiled dw={dw} bz={bz} nx={nx}",
        {"dw": dw, "bz": bz, "nx": nx, "n_streams": n_streams},
        lambda: (_band_rows(plan, warmup),
                 np.concatenate([_band_rows(plan, b) for b in measured], axis=1),
                 1))


def _sweep_rows(
    ny: int, nz: int, block_y: int | None, threads: int
) -> Tuple[np.ndarray, ...]:
    """The row schedule of one baseline time step, as ``(comp, y_lo, y_hi,
    z_lo, z_hi)`` arrays (``comp`` indexes :data:`SWEEP_COMPONENTS`, the
    :data:`PER_COMPONENT` recipes): one loop nest per component per half
    step (the paper's Listings), with ``threads`` static y-slabs
    interleaved round-robin, a slab dropping out when its loop nest is
    done.

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
        by = y1 - y0 if block_y is None else block_y
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
) -> TrafficResult:
    """Measured bytes/LUP of the naive (``block_y=None``) or spatially
    blocked sweep: one warm-up step, then ``timesteps - 1`` measured."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if block_y is not None and block_y < 1:
        raise ValueError("block_y must be >= 1 (None: the naive sweep)")
    if timesteps < 2:
        raise ValueError("timesteps must be >= 2 (one warm-up, one measured)")
    return _measure_sweep_cached(
        spec.usable_l3_bytes, nx, ny, block_y, threads, nz_sim, timesteps)


@lru_cache(maxsize=1024)
def _measure_sweep_cached(capacity: float, nx: int, ny: int,
                          block_y: int | None, threads: int, nz_sim: int,
                          timesteps: int) -> TrafficResult:
    return _measure_sweep(_host_emitter, capacity, nx, ny, block_y, threads,
                          nz_sim, timesteps)


def _measure_sweep(make, capacity: float, nx: int, ny: int,
                   block_y: int | None, threads: int, nz_sim: int,
                   timesteps: int) -> TrafficResult:
    def schedules():
        rows = _sweep_rows(ny, nz_sim, block_y, threads)
        return rows, rows, timesteps - 1

    return _replay(
        make, PER_COMPONENT, capacity, ny, nz_sim, nx, "measure.sweep",
        f"measure.sweep by={block_y} nx={nx}",
        {"nx": nx, "ny": ny, "block_y": block_y, "threads": threads},
        schedules)


def clear_substrate_caches() -> None:
    """Cold-start every memoization layer of the substrate and the tuner
    on top of it: tuned points, measurements, tile enumerations, tile DAGs
    (with the packed form the compiled DES walks), tile row schedules and
    the shared shape table.  What cold-path benchmarks, ``repro bench`` and
    order-independence tests call between runs."""
    from ..core import autotuner, diamond, plan, wavefront

    autotuner.tune_tiled.cache_clear()
    autotuner.tune_spatial.cache_clear()
    _measure_tiled_cached.cache_clear()
    _measure_sweep_cached.cache_clear()
    diamond._enumerate_tiles_cached.cache_clear()
    plan._tile_dag.cache_clear()
    wavefront._congruent_rows.cache_clear()
    clear_shape_table()
