"""The ledger's single source of truth: workloads, metrics, bounds.

``BENCHMARK.json`` at the repository root is the driver-facing subset of
this file (``python3 benchmarks/ledger/spec.py`` prints it; the ledger's
own test asserts the two agree).  Everything the driver's schema has no
key for lives here: each workload's calibrated constants and declared
environment, what "primary" and "secondary" mean per workload, and for
every per-layer metric its layer, the workloads that measure it and the
(end-to-end metric, workload) it is expected to move.

Constants are calibrated once against the unmodified code on the 2-core
reference box and never auto-scaled at run time: a repeat always does the
same work, ``--seconds`` only decides how many repeats fit.
"""

from __future__ import annotations

import json

RUN_SECONDS = 20
DEFAULT_SEED = 0
COMMAND = ["python3", "benchmarks/ledger/run.py"]
PATHS = ["benchmarks/ledger"]

#: An unreachable tolerance: every solve runs exactly ``max_steps`` sweeps,
#: so the work per point is identical run to run.
TOL = 1e-12

#: Environment every child gets (after every inherited ``REPRO_*`` variable
#: has been scrubbed); a workload's ``env`` is added on top.
BASE_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_CLUSTER_TRANSPORT": "shm",
    "PYTHONHASHSEED": "0",
}

WORKLOADS = {
    "naive_scaling": {
        "why": "whole-domain fdfd sweeps dominate one solve; the same point "
               "on 2 forked ranks adds only cluster (fork, shm halos, "
               "barrier, gather): the single-process baseline next to the "
               "2-rank run",
        "primary": "single-domain kind=solve job, submit -> done",
        "secondary": "the same wavelength as kind=distributed ranks=2, "
                     "submit -> done",
        "env": {},
        "constants": {
            "preset": "tandem", "grid": 32, "max_steps": 60,
            "jobs_per_phase": 2, "ranks": "2", "iterations": 60,
            "setups": 5,
            # Sweep counts of the cluster.fixed_s / cluster.sweep_ms fit.
            "cluster_fit_steps": [20, 80],
        },
        "smoke": {"grid": 12, "max_steps": 20, "iterations": 20,
                  "jobs_per_phase": 1, "cluster_fit_steps": [20, 40]},
    },
    "tiled_campaign": {
        "why": "MWD traversal (core) dominates; only here are registry "
               "lookup, checkpoints and persistent stores on the solve "
               "path; queue depth 3 would show scheduler-formed batches, "
               "explicit lanes bypass them",
        "primary": "per-point tiled kind=solve job, 3 submitted together "
                   "(queue depth 3), submit -> done",
        "secondary": "one lane of a 3-wavelength kind=batch job (latency: "
                     "the batch's submit -> done)",
        "env": {"REPRO_CHECKPOINT_EVERY": "24"},
        "constants": {
            "preset": "tandem", "grid": 24, "max_steps": 48, "threads": 18,
            "depth": 3, "lanes": 3, "iterations": 48,
            # Each set-up tunes for 4.5 s: three is what a run has room for.
            "setups": 3,
            # The plan the registry must hand back (dw, bz): drift in the
            # tuner fails loudly instead of silently changing the work.
            "plan": [24, 4],
        },
        "smoke": {"grid": 16, "max_steps": 16, "threads": 2, "depth": 2,
                  "lanes": 2, "iterations": 16, "plan": None},
    },
    "tune_cold": {
        "why": "machine (emit -> LRU replay -> DES) and core.autotuner do "
               "all the work, fdfd none: the simulator's host time; "
               "simulated statistics must not move; a seeded held-back "
               "point checks the tuner",
        "primary": "one cold regeneration of the pinned Fig. 6 / Fig. 7 "
                   "subset (12 tunes) in a fresh process",
        "secondary": "one cold tune (spatial + MWD) of the held-back point: "
                     "off-figure grid and threads at a seeded off-figure "
                     "memory bandwidth",
        "env": {"REPRO_TUNE_WORKERS": "1"},
        "constants": {
            # A pinned subset of the paper's figures: the full Fig. 6 + 7
            # set takes 22 s cold here, which leaves no room for repeats.
            "fig6_grid": 384, "fig6_threads": [1, 9, 18],
            "fig7_grids": [256], "heldback": 1, "setups": 5,
            # The tuners memoize per process (lru_cache, stream memos):
            # a cold pass needs a process of its own.
            "fresh_process": True,
            # Held back from the paper's set: an off-figure grid and
            # thread count at a seeded off-figure memory bandwidth (the
            # paper's ablation uses 25 / 37.5 / 50 / 75 GB/s).  Only the
            # bandwidth is drawn: every draw costs the tuner the same
            # work, so the seed moves the inputs and not the load.
            "heldback_point": [352, 12],
            "heldback_bandwidths": [30.0, 32.5, 35.0, 40.0, 42.5, 45.0,
                                    47.5, 55.0, 60.0, 65.0],
        },
        "smoke": {"fig6_threads": [18], "fig7_grids": [],
                  "heldback_point": [128, 4]},
    },
    "serve_small": {
        "why": "the request path under load: 2 in-process nodes behind the "
               "gateway, 2 closed-loop clients, tiny jobs; writes (cold: store "
               "put + replication) beside reads (hits); service + fleet set "
               "the latency",
        "primary": "hit: re-submit a completed spec + GET /jobs/<id> "
                   "through the gateway",
        "secondary": "cold: new tiny spec, submit -> poll at 2 ms -> done",
        "env": {},
        "constants": {
            "preset": "vacuum", "grid": 10, "max_steps": 20,
            "iterations": 20, "clients": 2, "slice_s": 2.0, "warm": 8,
            "mix": {"cold": 0.10, "hit": 0.60, "read": 0.30},
            "poll_s": 0.002, "setups": 5,
        },
        "smoke": {"slice_s": 0.5, "warm": 2},
    },
}

#: The end-to-end metrics.  Every workload reports every one of them (the
#: driver's contract), so the names are workload-neutral and WORKLOADS
#: says what "primary" and "secondary" are where.  ``bound`` is the share
#: of the parent's median by which the metric may worsen before a change
#: is a regression: max(10 %, 2 x the spread of the ten-seed A/A runs made
#: when the ledger was defined), capped at the contract's 25 %.  Those
#: spreads were 6-21 % for every timing (the box is shared: a memory-bound
#: second of work moves by +-10 % with the neighbours), so every timing
#: sits at the cap; peak RSS repeats within 1 %.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "child start -> first operation can be issued: imports, "
             "native LRU library load, scheduler/server/gateway start, "
             "registry warm-up (tiled_campaign); median of several set-ups, each in a fresh process"},
    {"name": "primary_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25,
     "what": "primary operations completed / wall time of their phases, "
             "over the whole run"},
    {"name": "secondary_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25,
     "what": "secondary operations completed / wall time of their "
             "phases, over the whole run"},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25,
     "what": "all operations completed / wall time of the repeats "
             "(serve_small: HTTP operations at 2 clients, reads included)"},
    {"name": "primary_p50_ms", "unit": "ms", "better": "lower",
     "bound": 0.25, "what": "median latency of a primary operation"},
    {"name": "secondary_p50_ms", "unit": "ms", "better": "lower",
     "bound": 0.25, "what": "median latency of a secondary operation"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.10,
     "what": "ru_maxrss of the workload child plus that of its children"},
]

N, T, U, S = "naive_scaling", "tiled_campaign", "tune_cold", "serve_small"
ALL = (N, T, U, S)


def _pl(name, unit, better, owners, moves):
    return {"name": name, "layer": name.split(".")[0], "unit": unit,
            "better": better, "owners": list(owners), "moves": moves}


#: Per-layer metrics from the traced run.  A workload that does not
#: exercise a metric's layer reports it as 0 ("not on this path").
PER_LAYER = [
    _pl("host.triad_gb_per_s", "GB/s", "higher", (N,),
        "denominator of fdfd.sweep_bw_fraction (computed bytes)"),
    _pl("host.triad_array_mb", "MB", "higher", (N,),
        "size of each triad array"),
    _pl("host.llc_mb", "MB", "higher", (N,), "last-level cache size"),
    _pl("host.nproc", "count", "higher", ALL, "busy-thread budget"),
    # -- fdfd ---------------------------------------------------------------
    _pl("fdfd.sweep_ms", "ms", "lower", (N,),
        "primary_per_s, secondary_per_s @ naive_scaling (sweeps are ~95 % "
        "of a job: a 2x kernel gives <= 1.9x); nothing on tune_cold, "
        "serve_small"),
    _pl("fdfd.sweep_mlups", "MLUP/s", "higher", (N,), "as fdfd.sweep_ms"),
    _pl("fdfd.h_half_ms", "ms", "lower", (N,), "as fdfd.sweep_ms"),
    _pl("fdfd.e_half_ms", "ms", "lower", (N,), "as fdfd.sweep_ms"),
    _pl("fdfd.sweep_bw_fraction", "ratio", "higher", (N,),
        "1344 B/LUP (Eq. 8, computed) x LUP/s / host.triad_gb_per_s"),
    _pl("fdfd.region_update_us", "us", "lower", (T,),
        "primary_per_s @ tiled_campaign"),
    _pl("fdfd.build_ms", "ms", "lower", (N, T),
        "primary_per_s @ naive_scaling, tiled_campaign (scene + 28 "
        "coefficient arrays)"),
    _pl("fdfd.residual_ms", "ms", "lower", (N, T),
        "primary_per_s (relative_change + fields.copy() per check)"),
    _pl("fdfd.observables_ms", "ms", "lower", (N, T), "primary_per_s"),
    _pl("fdfd.batch_lane_ratio", "ratio", "lower", (N,),
        "primary_per_s @ naive_scaling only if a scheduler wrongly "
        "coalesced naive jobs (k=4 batched naive sweep per lane / scalar)"),
    _pl("fdfd.iterations", "count", "lower", (N, T, S),
        "pinned: the work per point"),
    # -- core ---------------------------------------------------------------
    _pl("core.tile_ms", "ms", "lower", (T,),
        "primary_per_s @ tiled_campaign; nothing on naive_scaling"),
    _pl("core.tiled_mlups", "MLUP/s", "higher", (T,), "as core.tile_ms"),
    _pl("core.tiled_over_naive", "ratio", "lower", (T,),
        "per-LUP tiled / naive host time; as core.tile_ms"),
    _pl("core.tiles", "count", "lower", (T,), "exact, per chunk"),
    _pl("core.row_jobs", "count", "lower", (T,), "exact, per chunk"),
    _pl("core.batch_tile_ms_per_lane", "ms", "lower", (T,),
        "secondary_per_s @ tiled_campaign"),
    _pl("core.batch_speedup_k3", "ratio", "higher", (T,),
        "secondary_per_s @ tiled_campaign"),
    _pl("core.plan_build_ms", "ms", "lower", (T,),
        "primary_per_s @ tiled_campaign (one build per solve)"),
    _pl("core.tune_tiled_s", "s", "lower", (U,),
        "primary_per_s @ tune_cold (384^3, 18 threads)"),
    _pl("core.tune_spatial_s", "s", "lower", (U,),
        "primary_per_s @ tune_cold (384^3, 18 threads)"),
    # -- machine ------------------------------------------------------------
    _pl("machine.tune_score_s", "s", "lower", (U,),
        "primary_per_s, secondary_per_s @ tune_cold"),
    _pl("machine.measure_tiled_s", "s", "lower", (U,), "as tune_score_s"),
    _pl("machine.measure_sweep_s", "s", "lower", (U,), "as tune_score_s"),
    _pl("machine.accesses_replayed", "count", "lower", (U,), "exact"),
    _pl("machine.jobs_replayed", "count", "lower", (U,), "exact"),
    _pl("machine.stream_memo_rate", "ratio", "higher", (U,),
        "useful outcomes / attempts of the stream memo"),
    _pl("machine.emit_maccess_per_s", "M/s", "higher", (U,),
        "primary_per_s @ tune_cold (BatchStreamEmitter)"),
    _pl("machine.replay_maccess_per_s.native", "M/s", "higher", (U,),
        "primary_per_s @ tune_cold (make_lru; 0 when cc is missing)"),
    _pl("machine.replay_maccess_per_s.batch", "M/s", "higher", (U,),
        "primary_per_s @ tune_cold when the engine degrades to BatchLRU"),
    _pl("machine.des_tiles_per_s", "1/s", "higher", (U,),
        "primary_per_s @ tune_cold (simulate_tiled)"),
    _pl("machine.sim_mlups_mwd_384_18", "MLUP/s", "higher", (U,),
        "simulated, not host: must repeat exactly (accuracy reference)"),
    _pl("machine.sim_bytes_per_lup_mwd_384_18", "B/LUP", "lower", (U,),
        "simulated, not host: must repeat exactly"),
    _pl("machine.model_drift_max_pct", "%", "lower", (U,),
        "fig5_drift_report worst point; gate is 1 %"),
    _pl("machine.engine_native", "count", "higher", (T, U),
        "1 when the native replay engine resolved, 0 when it degraded"),
    # -- service ------------------------------------------------------------
    _pl("service.run_job_overhead_ms", "ms", "lower", (N, T, S),
        "run_job self time (no layer span covers it); <1 % of "
        "primary_per_s off serve_small"),
    _pl("service.sched_overhead_ms", "ms", "lower", (N, T, S),
        "primary/secondary_p50_ms, ops_per_s @ serve_small"),
    _pl("service.queue_wait_ms", "ms", "lower", (N, T, S),
        "secondary_p50_ms @ serve_small; primary_p50_ms @ tiled_campaign"),
    _pl("service.http_hop_ms", "ms", "lower", (S,),
        "primary_p50_ms, ops_per_s @ serve_small"),
    _pl("service.store_put_ms", "ms", "lower", (T, S),
        "secondary_p50_ms @ serve_small (persistent root)"),
    _pl("service.store_get_ms", "ms", "lower", (T, S),
        "primary_p50_ms @ serve_small (persistent root)"),
    _pl("service.hit_tail_ms", "ms", "lower", (S,),
        "the highest percentile of hit latency with >= 10 samples beyond "
        "it (p95 at the calibrated size); demoted from end-to-end: its "
        "ten-seed spread was 64 % against a 25 % cap on bounds"),
    _pl("service.hit_tail_percentile", "%", "higher", (S,),
        "which percentile service.hit_tail_ms is"),
    _pl("service.dedup_ratio", "ratio", "higher", (S,),
        "submissions absorbed without execution / submissions"),
    _pl("service.executed", "count", "lower", (N, T, S),
        "exact: equals the fresh specs issued"),
    _pl("service.registry_tune_cold_s", "s", "lower", (T,),
        "setup_s @ tiled_campaign"),
    _pl("service.registry_hit_ms", "ms", "lower", (T,),
        "primary_per_s @ tiled_campaign"),
    # -- cluster ------------------------------------------------------------
    _pl("cluster.fixed_s", "s", "lower", (N,),
        "secondary_per_s @ naive_scaling only (intercept of "
        "run_distributed at 20 vs 80 sweeps)"),
    _pl("cluster.sweep_ms", "ms", "lower", (N,),
        "secondary_per_s @ naive_scaling only (slope of the same fit)"),
    _pl("cluster.comm_share", "ratio", "lower", (N,),
        "1 - (fdfd.sweep_ms / 2) / cluster.sweep_ms: waiting on the other "
        "rank, seen from outside"),
    _pl("cluster.rank_speedup_2", "ratio", "higher", (N,),
        "secondary_per_s / primary_per_s @ naive_scaling"),
    _pl("cluster.halo_bytes_per_step", "B", "lower", (N,),
        "exact, equals step_bytes_by_axis"),
    _pl("cluster.halo_messages", "count", "lower", (N,), "exact"),
    # -- fleet --------------------------------------------------------------
    _pl("fleet.gateway_hop_ms", "ms", "lower", (S,),
        "primary_p50_ms, secondary_p50_ms @ serve_small"),
    _pl("fleet.ring_lookup_us", "us", "lower", (S,), "as gateway_hop_ms"),
    _pl("fleet.replications", "count", "lower", (S,),
        "secondary_p50_ms @ serve_small"),
    _pl("fleet.failovers", "count", "lower", (S,), "must be 0"),
    # -- resilience ---------------------------------------------------------
    _pl("resilience.ckpt_save_mb_per_s", "MB/s", "higher", (T,),
        "primary_per_s, secondary_per_s @ tiled_campaign (checkpointing "
        "on); no change on naive_scaling (off)"),
    _pl("resilience.ckpt_load_mb_per_s", "MB/s", "higher", (T,),
        "as ckpt_save_mb_per_s"),
    _pl("resilience.ckpt_bytes", "B", "lower", (T,), "per snapshot"),
    # -- telemetry ----------------------------------------------------------
    _pl("telemetry.overhead_pct", "%", "lower", (S,),
        "every workload's throughput; contract < 2 %"),
    # -- where the time went (self time / all program-span self time) -------
    _pl("fdfd.self_share_pct", "%", "lower", ALL,
        ">= 80 on naive_scaling, small on serve_small, 0 on tune_cold"),
    _pl("core.self_share_pct", "%", "lower", ALL,
        "the traversal's own time (tile loop, plan); region updates "
        "inside tiles count as fdfd; 0 on naive_scaling"),
    _pl("core.solve_share_pct", "%", "lower", (T,),
        "the tiled drivers' inclusive share of job time (kernels "
        "included): >= 60 on tiled_campaign, 0 on naive_scaling"),
    _pl("machine.self_share_pct", "%", "lower", ALL,
        "machine + core >= 90 on tune_cold"),
    _pl("service.self_share_pct", "%", "lower", ALL, "large on serve_small"),
    _pl("fleet.self_share_pct", "%", "lower", ALL, "serve_small only"),
    _pl("resilience.self_share_pct", "%", "lower", ALL,
        "tiled_campaign only"),
    # -- the ledger itself --------------------------------------------------
    _pl("ledger.trace_overhead_pct", "%", "lower", ALL,
        "traced vs untraced primary latency, repeats alternating in the "
        "same run"),
    _pl("ledger.closure_pct", "%", "higher", (N, T, S),
        "layer self times / run_job time; drifting from 100 means a "
        "layer is unmeasured"),
]


#: Per-layer rows that are counts made by the program or simulated
#: statistics: they must repeat exactly, pass to pass and run to run, so
#: any difference is a behaviour change, not noise.
EXACT = ("machine.accesses_replayed", "machine.jobs_replayed",
         "machine.stream_memo_rate", "machine.sim_mlups_mwd_384_18",
         "machine.sim_bytes_per_lup_mwd_384_18", "machine.engine_native",
         "cluster.halo_bytes_per_step", "cluster.halo_messages",
         "core.tiles", "core.row_jobs", "fdfd.iterations")


def constants(name: str, smoke: bool = False) -> dict:
    """A workload's constants, with the smoke overrides folded in."""
    w = WORKLOADS[name]
    return dict(w["constants"], **(w["smoke"] if smoke else {}))


def benchmark_json() -> dict:
    """The driver-facing contract file, derived from the tables above."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]}
                      for n, w in WORKLOADS.items()],
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better", "bound")}
                       for m in END_TO_END],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")}
                      for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
