"""Auto-tuner for the blocking parameters (Section II-A of the paper).

"We use the auto-tuner in the Girih system to select the diamond tile
size, the wavefront tile width, and the TG size in all dimensions to
achieve the best performance.  To shorten the auto-tuning process, the
parameter search space is narrowed down to diamond tiles that fit within
a predefined cache size range using a cache block size model."

The search space per variant:

* **spatial** -- the y block size of the spatially blocked sweep;
* **1WD** -- thread-group size fixed at 1 (each thread owns a tile);
  diamond width and wavefront width searched under the per-thread cache
  budget;
* **kWD / MWD** -- thread-group sizes among the divisors of the thread
  count (MWD searches all; kWD pins one), wavefront width, diamond width
  and the multi-dimensional intra-tile split.

Enumeration: for each (TG size, B_z) only diamond widths whose *total*
concurrent footprint ``n_groups * C_s(D_w, B_z)`` stays within a slack
factor of the usable L3 are candidates (Eq. 11); the slack lets the
measured cache behaviour decide borderline cases.  Scoring runs the
measured code balance through the execution simulator.

One serial, pure search, pruned by an exact bound
-------------------------------------------------
Candidates are *enumerated* first (canonical nested-loop order).  Each
gets an upper bound ``U`` on the MLUP/s any measured code balance could
give it (:func:`~repro.machine.simulator.tiled_mlups_bound`: its LUPs
over the larger of the DAG's critical path and its total work per group,
every tile at the code-balance-0 rate -- a theorem about the DES, no
replay, microseconds per candidate).  Candidates are then *scored* as
pure calls in order of decreasing ``U`` (ties by enumeration index), and
the search stops at the first one with ``U * (1 + BOUND_SLACK)`` below
the best score so far: neither it nor any later one can win.  The winner
is the maximum of ``(mlups, -index)`` -- the first best candidate in
enumeration order, exactly the point scoring every candidate with a
strict ``>`` returns (DESIGN.md section 5; ``tests/test_tuner_bound.py``
holds the search to that exhaustive loop).  The plan registry's 24^3 /
18-thread warm-up scores 2 of its 86 candidates.  ``tune_spatial``
scores its five block sizes: the closed-form sweep model bounds them all
alike.  Scoring shares
:mod:`repro.machine`'s process-wide measurement memos and shape table
across candidates, variants and bandwidth sweeps, which is why the search
stays in one process (EXPERIMENTS.md, *Substrate performance*).  Within a
process the two tuners memoize their winners (``lru_cache``); across
processes and nodes :class:`~repro.service.registry.PlanRegistry` is the
one persistent store (it keeps :func:`point_to_json` documents, through
which floats round-trip exactly).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from .. import telemetry
from ..machine.counters import timed_section
from ..machine.measure import measure_sweep_code_balance, measure_tiled_code_balance
from ..machine.simulator import (SimResult, simulate_sweep, simulate_tiled,
                                 tg_efficiency, tiled_mlups_bound)
from ..machine.spec import MachineSpec
from .models import max_diamond_width
from .plan import TilingPlan
from .threadgroups import ThreadGroupConfig, divisors, enumerate_tg_configs

__all__ = [
    "TunedPoint",
    "point_from_json",
    "point_to_json",
    "simulate_grid_lups",
    "tune_spatial",
    "tune_tiled",
    "tune_variant",
]

#: Wavefront widths explored by the tuner (the paper's Fig. 5 uses 1/6/9).
BZ_CANDIDATES: Tuple[int, ...] = (1, 2, 4, 6, 9)
#: Diamond widths explored.  Girih's minimum is 4 (Section III-C: "the
#: minimum diamond width D_w = 4"); when not even that fits the cache
#: budget the code still runs D_w = 4 and thrashes -- which is exactly the
#: 1WD performance drop beyond ~12 cores in Fig. 6.
DW_MIN = 4
DW_CAP = 32
#: Cache-model pruning slack: candidates up to this factor above the
#: usable-cache budget are still measured (the LRU decides).
CACHE_SLACK = 1.1
#: Per-(TG size, B_z) only the largest fitting widths are scored.
TOP_DW_PER_BZ = 2
#: Relative slack on :func:`~repro.machine.simulator.tiled_mlups_bound`
#: when pruning: the simulation's float sums round, the bound does not.
BOUND_SLACK = 1e-9
#: A candidate's schedule is simulated over this many diamond widths of
#: time steps (at least 8): long enough for the pipeline to fill.
SIM_STEPS_FACTOR = 2


@dataclass(frozen=True)
class TunedPoint:
    """One tuned configuration and its simulated performance."""

    variant: str
    threads: int
    result: SimResult
    code_balance: float
    dw: int | None = None
    bz: int | None = None
    tg: ThreadGroupConfig | None = None
    block_y: int | None = None

    @property
    def mlups(self) -> float:
        return self.result.mlups

    @property
    def tg_size(self) -> int:
        return self.tg.size if self.tg else 1

    def describe(self) -> str:
        bits = [f"{self.variant}@{self.threads}t: {self.mlups:.1f} MLUP/s",
                f"{self.result.bandwidth_gbs:.1f} GB/s",
                f"{self.code_balance:.0f} B/LUP"]
        if self.dw is not None:
            bits.append(f"Dw={self.dw} Bz={self.bz} TG={self.tg.label() if self.tg else '1'}")
        if self.block_y is not None:
            bits.append(f"block_y={self.block_y}")
        return "  ".join(bits)


def grid_lups(n: int, timesteps: int = 100) -> float:
    return float(n) ** 3 * timesteps


def point_to_json(point: TunedPoint | None):
    """A tuned point (or the memoized "no feasible point" ``None``) as the
    JSON document :class:`~repro.service.registry.PlanRegistry` persists."""
    if point is None:
        return None
    return {
        "variant": point.variant,
        "threads": point.threads,
        "result": dataclasses.asdict(point.result),
        "code_balance": point.code_balance,
        "dw": point.dw,
        "bz": point.bz,
        "tg": None if point.tg is None else dataclasses.asdict(point.tg),
        "block_y": point.block_y,
    }


def point_from_json(d) -> TunedPoint | None:
    if d is None:
        return None
    return TunedPoint(
        variant=d["variant"],
        threads=d["threads"],
        result=SimResult(**d["result"]),
        code_balance=d["code_balance"],
        dw=d["dw"],
        bz=d["bz"],
        tg=None if d["tg"] is None else ThreadGroupConfig(**d["tg"]),
        block_y=d["block_y"],
    )


# -- the tuners ---------------------------------------------------------------


def _score_spatial(spec, machine, grid_n: int, threads: int, block_y: int) -> TunedPoint:
    with timed_section("tune.score"), telemetry.span(
        f"candidate spatial by={block_y}", "autotune",
        args={"variant": "spatial", "grid": grid_n, "threads": threads,
              "block_y": block_y},
    ) as sp:
        traffic = measure_sweep_code_balance(
            spec, nx=grid_n, ny=grid_n, block_y=block_y, threads=threads
        )
        res = simulate_sweep(
            machine, threads, traffic.bytes_per_lup, lups=grid_lups(grid_n),
            label=f"spatial by={block_y}",
        )
        sp.set(mlups=round(res.mlups, 1), code_balance=round(traffic.bytes_per_lup, 1))
    return TunedPoint(
        variant="spatial", threads=threads, result=res,
        code_balance=traffic.bytes_per_lup, block_y=block_y,
    )


@lru_cache(maxsize=512)
def tune_spatial(spec: MachineSpec, grid_n: int, threads: int) -> TunedPoint:
    """Best spatially blocked configuration at a thread count."""
    machine = spec.with_cores(threads) if threads != spec.cores else spec
    candidates = [by for by in (4, 8, 16, 32, 64) if by <= grid_n]
    with telemetry.span(f"tune_spatial g={grid_n} t={threads}", "autotune",
                        args={"grid": grid_n, "threads": threads,
                              "candidates": len(candidates)}):
        # max() keeps the first of equal maxima (a strict ``>``): the winner
        # depends on the enumeration order and nothing else.
        return max(
            (_score_spatial(spec, machine, grid_n, threads, by) for by in candidates),
            key=lambda point: point.mlups,
        )


def _dw_candidates(
    n_groups: int, bz: int, nx: int, budget: float, dw_cap: int = DW_CAP
) -> List[int]:
    """Largest diamond widths whose total footprint fits the budget.

    Falls back to the implementation minimum ``D_w = 4`` when nothing
    fits: the code then runs with an overflowing cache block, and the
    *measured* code balance (not the model) prices the thrashing.

    ``dw_cap`` is lowered to the domain width for thin domains (service
    jobs tune small grids); production grids all exceed :data:`DW_CAP`,
    so their search space is unchanged.
    """
    per_tile = budget * CACHE_SLACK / n_groups
    top = max_diamond_width(bz, nx, per_tile, dw_cap=dw_cap)
    if top is None or top < DW_MIN:
        return [DW_MIN]
    out = [top]
    for k in range(1, TOP_DW_PER_BZ):
        if top - 2 * k >= DW_MIN:
            out.append(top - 2 * k)
    return out


def _plan(grid_n: int, dw: int, bz: int) -> TilingPlan:
    """The schedule a candidate is simulated over."""
    return TilingPlan.build(ny=grid_n, nz=grid_n,
                            timesteps=max(SIM_STEPS_FACTOR * dw, 8), dw=dw, bz=bz)


def _bound_tiled(machine, grid_n: int, cand: tuple) -> float:
    """The most MLUP/s any replay of ``cand`` could be scored at."""
    label, s, n_groups, bz, dw, cfg = cand
    return tiled_mlups_bound(machine, _plan(grid_n, dw, bz), nx=grid_n,
                             tg_config=cfg)


def _score_tiled(spec, machine, grid_n: int, threads: int, cand: tuple) -> TunedPoint:
    label, s, n_groups, bz, dw, cfg = cand
    nx = grid_n
    with timed_section("tune.score"), telemetry.span(
        f"candidate {label} Dw={dw} Bz={bz} TG={cfg.label()}", "autotune",
        args={"variant": label, "grid": grid_n, "threads": threads,
              "tg_size": s, "n_groups": n_groups, "dw": dw, "bz": bz,
              "tg": cfg.label()},
    ) as sp:
        traffic = measure_tiled_code_balance(
            spec, nx=nx, dw=dw, bz=bz, n_streams=n_groups
        )
        res = simulate_tiled(
            machine, _plan(grid_n, dw, bz), nx=nx, tg_config=cfg,
            code_balance=traffic.bytes_per_lup,
        )
        sp.set(mlups=round(res.mlups, 1), code_balance=round(traffic.bytes_per_lup, 1))
    return TunedPoint(
        variant=label, threads=threads, result=res,
        code_balance=traffic.bytes_per_lup,
        dw=dw, bz=bz, tg=cfg,
    )


def _tiled_candidates(
    spec: MachineSpec, grid_n: int, threads: int,
    tg_size: int | None, variant: str | None,
) -> List[tuple]:
    """The full (TG size, B_z, D_w, intra-tile split) search space, in the
    canonical nested-loop order the winner selection depends on."""
    nx = ny = nz = grid_n
    if tg_size:
        sizes = [tg_size]
    else:
        # Group sizes need not divide the thread count: the scheduler may
        # leave `threads mod s` cores idle (important at prime counts,
        # where the only exact divisors force degenerate splits).
        nice = {1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 14, 16, 18}
        sizes = sorted(s for s in nice | set(divisors(threads)) if s <= threads)
    budget = spec.usable_l3_bytes
    out: List[tuple] = []
    for s in sizes:
        n_groups = threads // s
        if n_groups < 1:
            continue
        label = variant or (f"{s}WD" if tg_size else "MWD")
        for bz in BZ_CANDIDATES:
            if bz > nz:
                continue
            configs = list(enumerate_tg_configs(s, bz, nx))
            if not configs:
                continue
            cfg = max(configs, key=lambda c: tg_efficiency(c, nx=nx, nz=nz, bz=bz))
            dw_cap = min(DW_CAP, ny - (ny % 2))  # diamonds must fit the domain
            for dw in _dw_candidates(n_groups, bz, nx, budget, dw_cap=dw_cap):
                if dw > ny:
                    continue
                out.append((label, s, n_groups, bz, dw, cfg))
    return out


@lru_cache(maxsize=2048)
def tune_tiled(
    spec: MachineSpec,
    grid_n: int,
    threads: int,
    tg_size: int | None = None,
    variant: str | None = None,
) -> TunedPoint | None:
    """Best wavefront-diamond configuration at a thread count.

    ``tg_size=None`` searches all divisors of ``threads`` (MWD);
    ``tg_size=1`` is 1WD; a fixed k gives the paper's kWD variants.
    Returns ``None`` when no diamond fits the cache at all.
    """
    machine = spec.with_cores(threads) if threads != spec.cores else spec
    candidates = _tiled_candidates(spec, grid_n, threads, tg_size, variant)
    with telemetry.span(
        f"tune_tiled g={grid_n} t={threads} tg={tg_size or 'MWD'}", "autotune",
        args={"grid": grid_n, "threads": threads, "tg_size": tg_size,
              "variant": variant, "candidates": len(candidates)},
    ) as sp:
        bounds = [_bound_tiled(machine, grid_n, cand) for cand in candidates]
        best = best_key = None
        scored = 0
        for k in sorted(range(len(candidates)), key=lambda k: (-bounds[k], k)):
            if best is not None and bounds[k] * (1 + BOUND_SLACK) < best.mlups:
                break  # neither this candidate nor any after it can win
            point = _score_tiled(spec, machine, grid_n, threads, candidates[k])
            scored += 1
            if best is None or (point.mlups, -k) > best_key:
                best, best_key = point, (point.mlups, -k)
        sp.set(scored=scored, pruned=len(candidates) - scored)
    return best


def tune_variant(
    spec: MachineSpec, grid_n: int, threads: int,
    variant: str = "mwd", tg_size: int | None = None,
) -> TunedPoint | None:
    """The tuned point of a named variant: ``spatial``, ``1wd`` (TG size
    pinned at 1) or the MWD search, which ``tg_size`` narrows to one kWD.

    The one place a variant name becomes a tuner call: ``repro tune``,
    tune jobs and the plan registry all come through here.  The tuners
    are looked up by name at call time, so a tracer that rebinds the
    module's ``tune_spatial`` / ``tune_tiled`` sees these calls too.
    """
    if variant == "spatial":
        return tune_spatial(spec, grid_n, threads)
    if variant == "1wd":
        return tune_tiled(spec, grid_n, threads, tg_size=1, variant="1WD")
    return tune_tiled(spec, grid_n, threads, tg_size=tg_size)


def simulate_grid_lups(point: TunedPoint, grid_n: int, timesteps: int = 100) -> SimResult:
    """Rescale a tuned point's steady-state rates to a full problem."""
    return point.result.scaled_to(grid_lups(grid_n, timesteps))
