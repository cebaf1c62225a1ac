"""Regeneration of every table and figure of the paper's evaluation.

One generator per exhibit, returning plain row dicts (rendered by
:mod:`repro.experiments.report`, persisted by the benchmarks):

* :func:`section3_table` -- the analytic numbers of Section III and their
  cache-simulated counterparts;
* :func:`fig5_cache_model`  -- Fig. 5a-c: code balance and cache-size
  model vs. measurement per (D_w, B_z), single-threaded 1WD at 480^3;
* :func:`fig6_thread_scaling` -- Fig. 6a-d at 384^3;
* :func:`fig7_grid_scaling` -- Fig. 7a-d across cubic grids;
* :func:`fig8_tg_size` -- Fig. 8a-d across thread-group sizes;
* :func:`ablation_machine_balance`, :func:`ablation_thin_domain`,
  :func:`ablation_intra_tile` -- the design-choice studies DESIGN.md
  calls out (Sections IV-D and VI of the paper).

All performance numbers come from the simulated machine (see DESIGN.md
section 2); the *shape* criteria these must reproduce are recorded per
experiment in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .. import telemetry
from ..core.autotuner import TunedPoint, tune_spatial, tune_tiled
from ..core.models import (
    arithmetic_intensity,
    bandwidth_limited_mlups,
    cache_block_size,
    diamond_code_balance,
    naive_code_balance,
    spatial_code_balance,
    usable_cache_bytes,
)
from ..core.plan import TilingPlan
from ..core.threadgroups import ThreadGroupConfig, enumerate_tg_configs
from ..machine.measure import measure_sweep_code_balance, measure_tiled_code_balance
from ..machine.simulator import simulate_sweep, simulate_tiled, tg_efficiency
from ..machine.spec import HASWELL_EP, MachineSpec
from ..fdfd.specs import FLOPS_PER_LUP

__all__ = [
    "section3_table",
    "fig5_cache_model",
    "fig6_thread_scaling",
    "fig7_grid_scaling",
    "fig8_tg_size",
    "ablation_machine_balance",
    "ablation_thin_domain",
    "ablation_intra_tile",
    "GRIDS",
]

Row = Dict[str, object]

#: Fig. 7/8 grid sizes: 64 to 512 in steps of 64 (Section IV-C).
GRIDS: Tuple[int, ...] = tuple(range(64, 513, 64))


def section3_table(spec: MachineSpec = HASWELL_EP) -> List[Row]:
    """Section III: model numbers and their measured counterparts."""
    naive_meas = measure_sweep_code_balance(spec, nx=512, ny=512, block_y=None)
    spatial_meas = measure_sweep_code_balance(spec, nx=512, ny=512, block_y=16)
    rows: List[Row] = [
        {
            "quantity": "flops/LUP",
            "paper": 248,
            "reproduced": FLOPS_PER_LUP,
            "source": "Section III-A",
        },
        {
            "quantity": "naive B_C [B/LUP]",
            "paper": 1344,
            "reproduced": round(naive_meas.bytes_per_lup, 1),
            "source": "Eq. 8 vs LRU sim @512^3",
        },
        {
            "quantity": "spatial B_C [B/LUP]",
            "paper": 1216,
            "reproduced": round(spatial_meas.bytes_per_lup, 1),
            "source": "Eq. 9 vs LRU sim @512^3",
        },
        {
            "quantity": "naive intensity [F/B]",
            "paper": 0.18,
            "reproduced": round(arithmetic_intensity(naive_code_balance()), 3),
            "source": "Section III-A",
        },
        {
            "quantity": "spatial intensity [F/B]",
            "paper": 0.20,
            "reproduced": round(arithmetic_intensity(spatial_code_balance()), 3),
            "source": "Section III-B",
        },
        {
            "quantity": "P_mem spatial [MLUP/s]",
            "paper": 41,
            "reproduced": round(bandwidth_limited_mlups(spec.bandwidth_gbs, spatial_code_balance()), 1),
            "source": "Eq. 10",
        },
        {
            "quantity": "C_s(Dw=4,Bz=4) [B/Nx]",
            "paper": 14912,
            "reproduced": cache_block_size(4, 4, nx=1),
            "source": "Eq. 11 worked example",
        },
        {
            "quantity": "storage [B/cell]",
            "paper": 640,
            "reproduced": 640,
            "source": "40 double-complex arrays",
        },
    ]
    return rows


def fig5_cache_model(
    spec: MachineSpec = HASWELL_EP,
    nx: int = 480,
    dw_values: Sequence[int] = (4, 8, 12, 16),
    bz_values: Sequence[int] = (1, 6, 9),
) -> List[Row]:
    """Fig. 5: cache-block-size model vs measured code balance (1WD, one
    thread, grid 480^3)."""
    budget = usable_cache_bytes(spec.l3_bytes)
    rows: List[Row] = []
    for bz in bz_values:
        for dw in dw_values:
            with telemetry.span(f"fig5 point Dw={dw} Bz={bz}", "figure",
                                args={"dw": dw, "bz": bz, "nx": nx}) as sp:
                cs = cache_block_size(dw, bz, nx)
                meas = measure_tiled_code_balance(spec, nx=nx, dw=dw, bz=bz, n_streams=1)
                sp.set(code_balance=round(meas.bytes_per_lup, 3))
            rows.append(
                {
                    "Bz": bz,
                    "Dw": dw,
                    "Cs_model_MiB": round(cs / 2**20, 2),
                    "fits_usable_L3": cs <= budget,
                    "Bc_model": round(diamond_code_balance(dw), 1),
                    "Bc_measured": round(meas.bytes_per_lup, 1),
                }
            )
    return rows


def _variant_rows(point: TunedPoint | None, variant: str, x_key: str, x_val) -> Row:
    if point is None:
        return {x_key: x_val, "variant": variant}
    return {
        x_key: x_val,
        "variant": variant,
        "MLUPs": round(point.mlups, 1),
        "GB/s": round(point.result.bandwidth_gbs, 1),
        "B/LUP": round(point.code_balance, 1),
        "Dw": point.dw if point.dw else "",
        "Bz": point.bz if point.bz else "",
        "TG": point.tg.label() if point.tg else "",
        "TG_size": point.tg_size if point.dw else "",
    }


def fig6_thread_scaling(
    spec: MachineSpec = HASWELL_EP,
    grid: int = 384,
    threads: Sequence[int] | None = None,
) -> List[Row]:
    """Fig. 6: spatial vs 1WD vs MWD at 1..18 threads, grid 384^3."""
    if threads is None:
        threads = tuple(range(1, spec.cores + 1))
    rows: List[Row] = []
    for t in threads:
        rows.append(_variant_rows(tune_spatial(spec, grid, t), "spatial", "threads", t))
        rows.append(_variant_rows(tune_tiled(spec, grid, t, tg_size=1, variant="1WD"), "1WD", "threads", t))
        rows.append(_variant_rows(tune_tiled(spec, grid, t), "MWD", "threads", t))
    return rows


def fig7_grid_scaling(
    spec: MachineSpec = HASWELL_EP,
    grids: Sequence[int] = GRIDS,
) -> List[Row]:
    """Fig. 7: full-socket performance at increasing cubic grid size."""
    t = spec.cores
    rows: List[Row] = []
    for g in grids:
        rows.append(_variant_rows(tune_spatial(spec, g, t), "spatial", "grid", g))
        rows.append(_variant_rows(tune_tiled(spec, g, t, tg_size=1, variant="1WD"), "1WD", "grid", g))
        rows.append(_variant_rows(tune_tiled(spec, g, t), "MWD", "grid", g))
    return rows


def fig8_tg_size(
    spec: MachineSpec = HASWELL_EP,
    tg_sizes: Sequence[int] = (1, 2, 6, 9, 18),
    grids: Sequence[int] = GRIDS,
) -> List[Row]:
    """Fig. 8: impact of the thread-group size (cache block sharing)."""
    rows: List[Row] = []
    for g in grids:
        for s in tg_sizes:
            point = tune_tiled(spec, g, spec.cores, tg_size=s, variant=f"{s}WD")
            rows.append(_variant_rows(point, f"{s}WD", "grid", g))
    return rows


def ablation_machine_balance(
    spec: MachineSpec = HASWELL_EP,
    bandwidths: Sequence[float] = (25.0, 37.5, 50.0, 75.0),
    grid: int = 384,
) -> List[Row]:
    """Section IV-C/VI claim: MWD is "immune to more memory
    bandwidth-starved situations" while spatial blocking degrades
    proportionally."""
    rows: List[Row] = []
    for bw in bandwidths:
        m = spec.with_bandwidth(bw)
        sp = tune_spatial(m, grid, m.cores)
        mwd = tune_tiled(m, grid, m.cores)
        rows.append(
            {
                "bandwidth_GB/s": bw,
                "spatial_MLUPs": round(sp.mlups, 1),
                "MWD_MLUPs": round(mwd.mlups, 1),
                "speedup": round(mwd.mlups / sp.mlups, 2),
                "MWD_BW_used_GB/s": round(mwd.result.bandwidth_gbs, 1),
            }
        )
    return rows


def ablation_thin_domain(
    spec: MachineSpec = HASWELL_EP,
    thin: int = 32,
    wide: int = 512,
    dw: int = 8,
    bz: int = 1,
) -> List[Row]:
    """Section VI outlook: mapping a thin domain dimension to the leading
    (x) array dimension shrinks the cache block (C_s is proportional to
    N_x, Eq. 11), at the cost of short inner loops."""
    rows: List[Row] = []
    for label, nx in (("thin dim on x", thin), ("thin dim on z/y", wide)):
        cs = cache_block_size(dw, bz, nx)
        meas = measure_tiled_code_balance(spec, nx=nx, dw=dw, bz=bz, n_streams=1)
        cfg = ThreadGroupConfig(x_threads=2, component_threads=3)
        eff = tg_efficiency(cfg, nx=nx, nz=wide, bz=bz)
        rows.append(
            {
                "mapping": label,
                "Nx": nx,
                "Cs_MiB": round(cs / 2**20, 2),
                "fits": cs <= spec.usable_l3_bytes,
                "Bc_measured": round(meas.bytes_per_lup, 1),
                "intra_tile_eff": round(eff, 3),
            }
        )
    return rows


def ablation_intra_tile(
    spec: MachineSpec = HASWELL_EP,
    grid: int = 384,
    tg_size: int = 18,
) -> List[Row]:
    """Why multi-dimensional intra-tile parallelization matters (Section
    III-C): wavefront-only parallelism needs B_z >= TG size, inflating the
    cache block; spreading threads over x and components keeps B_z small
    and admits bigger diamonds."""
    rows: List[Row] = []
    budget = spec.usable_l3_bytes
    scenarios: List[Tuple[str, int, ThreadGroupConfig]] = []
    # Wavefront-only: B_z must cover all threads of the group.
    scenarios.append(("wavefront-only", tg_size, ThreadGroupConfig(wavefront_threads=tg_size)))
    # Multi-dimensional splits at small B_z.
    for cfg in enumerate_tg_configs(tg_size, bz=2, nx=grid):
        if cfg.wavefront_threads <= 2 and cfg.component_threads >= 2:
            scenarios.append((f"multi-dim {cfg.label()}", 2, cfg))
            break
    for cfg in enumerate_tg_configs(tg_size, bz=1, nx=grid):
        if cfg.component_threads == 1:
            scenarios.append((f"x-only {cfg.label()}", 1, cfg))
            break
    for label, bz, cfg in scenarios:
        from ..core.models import max_diamond_width

        top = max_diamond_width(bz, grid, budget)
        if top is None:
            rows.append({"scheme": label, "Bz": bz, "max_Dw": "none fits"})
            continue
        meas = measure_tiled_code_balance(spec, nx=grid, dw=top, bz=bz, n_streams=1)
        plan = TilingPlan.build(ny=grid, nz=grid, timesteps=max(2 * top, 8), dw=top, bz=bz)
        res = simulate_tiled(spec, plan, nx=grid, tg_config=cfg,
                             code_balance=meas.bytes_per_lup)
        rows.append(
            {
                "scheme": label,
                "Bz": bz,
                "max_Dw": top,
                "Cs_MiB": round(cache_block_size(top, bz, grid) / 2**20, 1),
                "Bc_measured": round(meas.bytes_per_lup, 1),
                "MLUPs": round(res.mlups, 1),
            }
        )
    return rows
