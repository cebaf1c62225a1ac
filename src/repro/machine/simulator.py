"""Discrete-event execution simulator for the multicore machine model.

This is the substitute for running OpenMP threads on the Haswell socket:
thread groups pop diamond tiles from the FIFO dependency queue and process
them at rates governed by an ECM-style single-thread model plus a shared
memory-bandwidth resource.

Rate model (per thread group ``i`` executing a tile):

* *In-core / in-cache term*: one LUP costs ``t_core * tiled_overhead``
  seconds of single-thread work; the group's ``s`` threads share it with
  the intra-tile efficiency of its :class:`ThreadGroupConfig` (x-chunk
  pipeline efficiency, component-imbalance, wavefront fill/drain), plus
  explicit synchronization costs per wavefront front.
* *Memory term*: the tile moves ``B_c`` bytes/LUP (measured by the cache
  simulator); a single core can draw at most ``core_bandwidth_gbs``, and
  the in-core and transfer contributions do not overlap (the non-overlap
  assumption of the ECM model on Haswell), giving the group's standalone
  rate cap::

      P_i = s * eff / (t_core * ov + B_c / (core_bw * s * eff))   [LUP/s]

  -- equivalently each thread runs at ``1 / (t_core*ov + B_c/core_bw)``.
* *Socket bandwidth*: the groups' aggregate demand ``sum(rate_i * B_c)``
  is capped at ``bandwidth_gbs`` by water-filling: groups that need less
  than their fair share keep their cap, the rest split the remainder.
  Spatial blocking saturates here at ~6 cores (Fig. 6); MWD's low code
  balance never does.

The DES advances from tile completion to tile completion, recomputing the
water-filled rates at each event, so ramp-up (few ready tiles), drain and
dependency stalls appear mechanistically in the aggregate MLUP/s.

The event loop has two bodies with bitwise-equal results (DESIGN.md
section 2): :func:`_python_des`, the oracle, which also records the
per-tile timeline while a trace is active, and ``_des_kernel.c`` over the
plan's packed DAG, used whenever it loads.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .. import nativelib
from ..core import tracing
from ..core.plan import TileIndex, TilingPlan
from ..core.queue import TileQueue
from ..core.threadgroups import ThreadGroupConfig
from ..fdfd.specs import component_groups, flops_for_component, E_COMPONENTS, H_COMPONENTS
from .spec import MachineSpec

__all__ = ["SimResult", "tg_efficiency", "simulate_tiled", "simulate_sweep"]


@dataclass(frozen=True)
class SimResult:
    """Aggregate outcome of one simulated run."""

    mlups: float
    bandwidth_gbs: float
    bytes_per_lup: float
    seconds: float
    lups: float
    threads: int
    label: str = ""

    def scaled_to(self, lups: float) -> "SimResult":
        """The same steady-state rates applied to a different problem
        volume (used to report full-grid numbers from a windowed sim)."""
        factor = lups / self.lups if self.lups else 0.0
        return SimResult(
            mlups=self.mlups,
            bandwidth_gbs=self.bandwidth_gbs,
            bytes_per_lup=self.bytes_per_lup,
            seconds=self.seconds * factor,
            lups=lups,
            threads=self.threads,
            label=self.label,
        )


def _component_imbalance(n_c: int) -> float:
    """Max/mean flops over the component groups (>= 1)."""
    groups = component_groups(n_c)
    h_flops = [flops_for_component(c) for c in H_COMPONENTS]
    loads = [sum(h_flops[i] for i in g) for g in groups]
    return max(loads) / (sum(loads) / len(loads))


def tg_efficiency(cfg: ThreadGroupConfig, nx: int, nz: int, bz: int) -> float:
    """Intra-tile parallel efficiency of a thread-group configuration.

    Three multiplicative factors, one per intra-tile dimension:

    * x: load imbalance of the ceil-division chunks times a short-loop
      pipeline factor ``chunk / (chunk + 12)`` (long contiguous inner
      loops are what hardware prefetching and SIMD pipelines want --
      Section VI's "thin domain" discussion);
    * components: flop imbalance of the 1/2/3/6-way split;
    * wavefront: fill/drain of the ``n_wf``-stage pipeline along z.
    """
    chunk = cfg.x_chunk(nx)
    eff_x = (1.0 / cfg.imbalance(nx)) * (chunk / (chunk + 12.0))
    eff_c = 1.0 / _component_imbalance(cfg.component_threads)
    if cfg.wavefront_threads > 1:
        fill = (cfg.wavefront_threads - 1) * bz
        eff_w = nz / (nz + fill)
    else:
        eff_w = 1.0
    return eff_x * eff_c * eff_w


def _water_fill(demands: Sequence[float], caps: Sequence[float], bandwidth: float) -> List[float]:
    """Allocate rates (LUP/s) under a shared byte budget.

    ``caps`` are standalone rate caps, ``demands`` the bytes/LUP of each
    group.  Returns achieved rates with ``sum(rate*demand) <= bandwidth``.
    """
    n = len(caps)
    rates = [0.0] * n
    remaining = bandwidth
    active = [i for i in range(n)]
    while active:
        # Fair byte share of the remaining budget.
        share = remaining / len(active)
        unconstrained = [i for i in active if caps[i] * demands[i] <= share + 1e-9]
        if unconstrained:
            for i in unconstrained:
                rates[i] = caps[i]
                remaining -= caps[i] * demands[i]
            active = [i for i in active if i not in unconstrained]
            continue
        for i in active:
            rates[i] = share / demands[i] if demands[i] > 0 else caps[i]
        active = []
    return rates


@dataclass
class _RunningTile:
    group: int
    work_lups: float
    remaining_lups: float
    bytes_per_lup: float
    overhead_s: float  # fixed per-tile cost (sync + queue), paid up front
    key: TileIndex
    start_s: float = 0.0  # simulated dispatch time (trace timeline)


def simulate_tiled(
    spec: MachineSpec,
    plan: TilingPlan,
    nx: int,
    tg_config: ThreadGroupConfig,
    code_balance: float,
    label: str = "",
) -> SimResult:
    """Run the MWD/1WD protocol through the DES.

    ``code_balance`` is the measured bytes/LUP for this configuration
    (from :func:`repro.machine.measure.measure_tiled_code_balance`);
    ``plan`` provides the tile DAG and sizes.  The number of concurrent
    groups is ``spec.cores // tg_config.size``.
    """
    s = tg_config.size
    if s > spec.cores:
        raise ValueError(f"thread group of {s} exceeds {spec.cores} cores")
    n_groups = spec.cores // s
    eff = tg_efficiency(tg_config, nx=nx, nz=plan.nz, bz=plan.bz)
    t_core = spec.t_lup_core_ns * 1e-9 * spec.tiled_overhead
    per_thread = t_core + code_balance / (spec.core_bandwidth_gbs * 1e9)
    cap_rate = s * eff / per_thread  # LUP/s standalone
    label = label or f"{n_groups}x{tg_config.label()}"
    # Fixed per-tile overheads: queue critical region + per-front syncs
    # (a group of one has no fronts to synchronize: -1).
    front_syncs = -(-plan.nz // plan.bz) if s > 1 else -1
    par = (nx, cap_rate, code_balance, spec.bandwidth_gbs * 1e9,
           spec.sync_ns * 1e-9)

    rec = tracing.active()
    des = None if rec is not None else _native_des() if _DES is None else _DES
    if des:
        now, total_lups, total_bytes = _native_run(
            des, plan, n_groups, front_syncs, par)
    else:
        now, total_lups, total_bytes = _python_des(
            plan, n_groups, front_syncs, par, rec,
            f"DES {label} ny={plan.ny} nz={plan.nz} nx={nx}", s)

    mlups = total_lups / now / 1e6 if now > 0 else 0.0
    gbs = total_bytes / now / 1e9 if now > 0 else 0.0
    return SimResult(
        mlups=mlups,
        bandwidth_gbs=gbs,
        bytes_per_lup=code_balance,
        seconds=now,
        lups=total_lups,
        threads=spec.cores,
        label=label,
    )


_DEADLOCK = "deadlock: no running tiles but queue not exhausted"


def _python_des(plan: TilingPlan, n_groups: int, front_syncs: int, par: tuple,
                rec, title: str, s: int) -> Tuple[float, float, float]:
    """The event loop: ``(seconds, LUPs, bytes)`` of the run.  With a
    trace recorder, one trace process per simulation: thread lanes are
    the concurrent thread groups, timestamps are *simulated* seconds (as
    microseconds)."""
    nx, cap_rate, code_balance, bandwidth, sync = par
    queue = TileQueue(plan)
    running: List[_RunningTile] = []
    idle_groups = list(range(n_groups))
    now = 0.0
    total_lups = 0.0
    total_bytes = 0.0

    sim_pid = 0
    if rec is not None:
        sim_pid = rec.new_process(title)
        for g in range(n_groups):
            rec.name_thread(sim_pid, g, f"thread group {g} ({s} threads)")

    def tile_overhead(idx: TileIndex) -> float:
        # level_offsets yields one entry per row, so its length is just
        # the row count -- no need to materialize the offsets here.
        syncs = 0 if front_syncs < 0 else front_syncs + len(plan.tiles[idx].rows)
        return sync * (2 + syncs)

    while not queue.exhausted:
        # Dispatch ready tiles to idle groups.
        while idle_groups and len(queue):
            idx = queue.pop()
            g = idle_groups.pop()
            tile = plan.tiles[idx]
            lups = tile.lups * nx
            running.append(
                _RunningTile(
                    group=g,
                    work_lups=lups,
                    remaining_lups=lups,
                    bytes_per_lup=code_balance,
                    overhead_s=tile_overhead(idx),
                    key=idx,
                    start_s=now,
                )
            )
        if not running:
            raise RuntimeError(_DEADLOCK)

        # Every running tile has the same cap and bytes/LUP here, so the
        # general water-fill reduces to one comparison producing the exact
        # same floats: all capped, or all at the fair byte share.
        share = bandwidth / len(running)
        if cap_rate * code_balance <= share + 1e-9:
            rate = cap_rate
        else:
            rate = share / code_balance if code_balance > 0 else cap_rate

        # Next completion: overhead is modelled as a rate-independent
        # prefix folded into the remaining time.
        dt = min(rt.overhead_s + rt.remaining_lups / rate for rt in running)
        now += dt
        finished: List[int] = []
        for k, rt in enumerate(running):
            if rt.overhead_s >= dt:
                rt.overhead_s -= dt
                continue
            progress = (dt - rt.overhead_s) * rate
            rt.overhead_s = 0.0
            rt.remaining_lups -= progress
            total_lups += progress
            total_bytes += progress * rt.bytes_per_lup
            if rt.remaining_lups <= 1e-6:
                finished.append(k)
        for k in reversed(finished):
            rt = running.pop(k)
            idle_groups.append(rt.group)
            queue.complete(rt.key)
            if rec is not None:
                t, r = rt.key
                rec.complete(
                    f"tile t={t} r={r}", "sim.tile",
                    ts_us=rt.start_s * 1e6, dur_us=(now - rt.start_s) * 1e6,
                    pid=sim_pid, tid=rt.group,
                    args={"lups": rt.work_lups, "bytes_per_lup": rt.bytes_per_lup},
                )
    return now, total_lups, total_bytes


#: ``des_run`` of ``_des_kernel.c``; ``None`` until the first simulation,
#: ``False`` when this process stays on :func:`_python_des`.
_DES = None
_DES_LOCK = threading.Lock()


def _native_des():
    """Load the compiled event loop (once per process)."""
    global _DES
    with _DES_LOCK:
        if _DES is None:
            lib = nativelib.load("_des_kernel")
            run = lib is not None and lib.des_run
            if run:
                run.restype = ctypes.c_int64
                run.argtypes = ([ctypes.c_int64] * 2 + [ctypes.c_void_p] * 6
                                + [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 4)
            _DES = run
    return _DES


def _native_run(des, plan: TilingPlan, n_groups: int, front_syncs: int,
                par: tuple) -> List[float]:
    """One ``des_run`` call over work arrays of its own (the library keeps
    no state, so concurrent simulations share nothing)."""
    dag = plan.packed
    n = len(dag[0])
    n_groups = min(n_groups, n)  # no more tiles can run than there are
    arrays = dag + (np.array(par, dtype=np.float64),
                    np.empty(2 * (n + n_groups), dtype=np.int64),
                    np.empty(2 * n_groups), np.empty(3))
    addr = [a.ctypes.data for a in arrays]
    rc = des(n, len(dag[-1]), *addr[:len(dag)], n_groups, front_syncs,
             *addr[len(dag):])
    if rc == 1:
        raise RuntimeError(_DEADLOCK)
    if rc:
        raise RuntimeError(f"tile {list(plan.tiles)[rc - 2]} completed more "
                           f"predecessors than it has")
    return arrays[-1].tolist()


def simulate_sweep(
    spec: MachineSpec,
    threads: int,
    code_balance: float,
    lups: float,
    label: str = "",
) -> SimResult:
    """Closed-form model for the naive / spatially blocked sweep.

    All threads run identical full-domain streams, so the DES collapses
    to ``rate = min(threads * r_1, BW / B_c)`` with the ECM single-thread
    rate ``r_1 = 1 / (t_core + B_c / core_bw)``.
    """
    if threads < 1 or threads > spec.cores:
        raise ValueError(f"threads must be in [1, {spec.cores}]")
    if code_balance <= 0 or lups <= 0:
        raise ValueError("code balance and lups must be positive")
    t_core = spec.t_lup_core_ns * 1e-9
    r1 = 1.0 / (t_core + code_balance / (spec.core_bandwidth_gbs * 1e9))
    rate = min(threads * r1, spec.bandwidth_gbs * 1e9 / code_balance)
    seconds = lups / rate
    return SimResult(
        mlups=rate / 1e6,
        bandwidth_gbs=rate * code_balance / 1e9,
        bytes_per_lup=code_balance,
        seconds=seconds,
        lups=lups,
        threads=threads,
        label=label or f"sweep x{threads}",
    )
