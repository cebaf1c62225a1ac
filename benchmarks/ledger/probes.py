"""Per-layer numbers: read out of the traced run's spans, plus the few
direct probes (host bandwidth, replay engines, store, checkpoint) that no
workload path isolates."""

from __future__ import annotations

import glob
import os
import time
from typing import Dict, List

from spans import (Span, Tracer, ancestors, children, self_by_layer,
                   self_times)
from stats import median

#: Layers a share is reported for (the ledger's own op spans are the
#: client side of the same wall time and are left out).
SHARE_LAYERS = ("fdfd", "core", "machine", "service", "fleet", "resilience")


def _root(span: Span, by_id: Dict[int, Span]) -> Span:
    """The span at the top of ``span``'s request (itself when nothing
    caused it)."""
    for span in ancestors(span, by_id):
        pass
    return span


def _sum(kids: List[Span], *names: str) -> float:
    return sum(c.dur for c in kids if c.name in names)


def layer_shares(tracer: Tracer) -> Dict[str, float]:
    """Each layer's self time as a share of all program-span self time.

    Distributed jobs are left out: their sweeps run in rank processes the
    tracer cannot see, so their tree is all ``cluster`` waiting; the
    ``cluster.*`` rows cover them."""
    by_id = {s.id: s for s in tracer.spans}
    keep = [s for s in tracer.spans if s.layer != "ledger"
            and (_root(s, by_id).args or {}).get("kind") != "distributed"]
    by_layer = self_by_layer(keep)
    total = sum(by_layer.values())
    return {f"{layer}.self_share_pct":
            100.0 * by_layer.get(layer, 0.0) / total if total else 0.0
            for layer in SHARE_LAYERS}


def solve_path_metrics(tracer: Tracer) -> Dict[str, float]:
    """fdfd / core / service / resilience rows of the traced solve jobs."""
    spans = tracer.spans
    kids = children(spans)
    own = self_times(spans)
    out: Dict[str, float] = {}

    jobs = [s for s in tracer.named("service.run_job")
            if s.args and s.args["kind"] in ("solve", "batch")]
    if jobs:
        # What no layer span covers is run_job's own time; the rest of
        # the job closes onto the layers.
        out["service.run_job_overhead_ms"] = 1e3 * median(
            own[s.id] for s in jobs)
        out["ledger.closure_pct"] = 100.0 * (
            1.0 - sum(own[s.id] for s in jobs) / sum(s.dur for s in jobs))
        # The client-side op that waited for each job: same request id,
        # and the job ran inside it (later hits reuse the id).
        by_req = {s.req: s for s in jobs}
        pairs = [(o, by_req[o.req]) for o in spans
                 if o.layer == "ledger" and o.req in by_req
                 and o.start <= by_req[o.req].start
                 and by_req[o.req].end <= o.end]
        if pairs:
            out["service.queue_wait_ms"] = 1e3 * median(
                job.start - o.start for o, job in pairs)
            out["service.sched_overhead_ms"] = 1e3 * median(
                o.end - job.end for o, job in pairs)

    def per_job(name: str) -> List[float]:
        """Summed duration of ``name`` spans per solve job."""
        totals = {s.id: 0.0 for s in jobs}
        by_id = {s.id: s for s in spans}
        for s in spans:
            top = _root(s, by_id).id
            if s.name == name and top in totals:
                totals[top] += s.dur
        return list(totals.values())

    for name, key in (("fdfd.build", "fdfd.build_ms"),
                      ("fdfd.observables", "fdfd.observables_ms")):
        if tracer.named(name) and jobs:
            out[key] = 1e3 * median(per_job(name))

    naive = tracer.named("fdfd.solve")
    if naive:
        h = [_sum(kids.get(s.id, []), "fdfd.update_h") / s.args["steps"]
             for s in naive]
        e = [_sum(kids.get(s.id, []), "fdfd.update_e") / s.args["steps"]
             for s in naive]
        out["fdfd.h_half_ms"] = 1e3 * median(h)
        out["fdfd.e_half_ms"] = 1e3 * median(e)
        out["fdfd.sweep_ms"] = out["fdfd.h_half_ms"] + out["fdfd.e_half_ms"]
        out["fdfd.sweep_mlups"] = (
            naive[0].args["cells"] / (out["fdfd.sweep_ms"] * 1e-3) / 1e6)

    solves = naive or tracer.named("core.tiled_solve")
    checks = []
    for s in solves:
        residual = [c for c in kids.get(s.id, []) if c.name == "fdfd.residual"]
        if residual:
            # One relative_change + one fields.copy() per check.
            checks.append(sum(c.dur for c in residual) / (len(residual) / 2))
    if checks:
        out["fdfd.residual_ms"] = 1e3 * median(checks)

    tiled = tracer.named("core.tiled_solve")
    if tiled:
        runs = [r for s in tiled for r in kids.get(s.id, [])
                if r.name == "core.executor_run"]
        tiles = [c for r in runs for c in kids.get(r.id, [])
                 if c.name == "core.tile"]
        regions = [c for r in runs for c in kids.get(r.id, [])
                   if c.name in ("fdfd.update_h", "fdfd.update_e")]
        out["core.tile_ms"] = 1e3 * (sum(c.inclusive for c in tiles)
                                     / sum(c.calls for c in tiles))
        out["fdfd.region_update_us"] = 1e6 * (
            sum(c.dur for c in regions) / sum(c.calls for c in regions))
        first = tiled[0].args
        chunks = first["steps"] // first["chunk"]
        out["core.tiles"] = first["tiles"]
        out["core.row_jobs"] = first["row_jobs"] / chunks
        out["core.tiled_mlups"] = median(
            s.args["cells"] * s.args["steps"] / s.dur / 1e6 for s in tiled)
        drivers = tiled + tracer.named("core.batch_solve")
        out["core.solve_share_pct"] = 100.0 * (
            sum(s.dur for s in drivers) / sum(s.dur for s in jobs))
    return out


def _under(spans: List[Span], roots: List[Span], name: str) -> List[Span]:
    """Spans called ``name`` anywhere below one of ``roots``."""
    by_id = {s.id: s for s in spans}
    root_ids = {r.id for r in roots}
    return [s for s in spans if s.name == name
            and any(a.id in root_ids for a in ancestors(s, by_id))]


def batch_metrics(tracer: Tracer) -> Dict[str, float]:
    """What a batch lane costs next to a per-point tiled solve."""
    tiled = tracer.named("core.tiled_solve")
    batch = tracer.named("core.batch_solve")
    if not tiled or not batch:
        return {}
    lanes = batch[0].args["lanes"]
    out = {"core.batch_speedup_k3":
           lanes * median(s.dur for s in tiled) / median(
               s.dur for s in batch)}
    tiles = _under(tracer.spans, batch, "core.tile")
    if tiles:
        out["core.batch_tile_ms_per_lane"] = 1e3 * (
            sum(s.inclusive for s in tiles) / sum(s.calls for s in tiles)
            / lanes)
    return out


def tiled_over_naive(tracer: Tracer, naive_spec,
                     tiled_mlups: float) -> Dict[str, float]:
    """Host time per LUP of the tiled solve over the naive sweep's at the
    same grid (both with their convergence checks)."""
    from repro.service import run_job

    tracer.clear()
    run_job(naive_spec)
    naive = tracer.named("fdfd.solve")
    if not naive or not tiled_mlups:
        return {}
    s = naive[0]
    naive_mlups = s.args["cells"] * s.args["steps"] / s.dur / 1e6
    return {"core.tiled_over_naive": naive_mlups / tiled_mlups}


def checkpoint_load(root: str, grid_n: int) -> Dict[str, float]:
    """CheckpointManager.load of a full twelve-field snapshot (the solve
    path only loads after a crash, so no workload span has it)."""
    import numpy as np

    from repro.fdfd import FieldState, Grid
    from repro.resilience.checkpoint import CheckpointManager

    grid = Grid(nz=2 * grid_n, ny=grid_n, nx=grid_n,
                periodic=(False, False, False))
    fields = FieldState(grid).fill_random(np.random.default_rng(0))
    ckpt = CheckpointManager(os.path.join(root, "ckpt-probe"), "probe",
                             token="ledger-probe", every=1)
    ckpt.save(fields, 24, [1e-3])
    size = os.path.getsize(ckpt.path)
    loads = []
    for _ in range(5):
        t0 = time.perf_counter()
        ckpt.load()
        loads.append(time.perf_counter() - t0)
    ckpt.clear()
    return {"resilience.ckpt_load_mb_per_s": size / median(loads) / 1e6}


def host_triad(smoke: bool = False) -> Dict[str, float]:
    """complex128 triad in this run: the denominator of bandwidth
    fractions.  Each of the three arrays is as large as the last-level
    cache (both sizes are reported): four times that costs 18 s of page
    faults on the reference box, and the rate measured is the same from
    64 MB arrays up, so nothing is being reused.  The five array passes
    numpy makes (multiply: read + write, add: two reads + write) are the
    computed bytes moved."""
    import numpy as np

    llc = 0
    for path in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size"):
        try:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read().strip()
            size = int(text[:-1]) * {"K": 1 << 10, "M": 1 << 20}[text[-1]]
        except (OSError, ValueError, KeyError):
            continue
        llc = max(llc, size)
    llc = llc or 32 << 20
    want = llc
    try:
        with open("/proc/meminfo", "r", encoding="utf-8") as f:
            avail = next(int(line.split()[1]) * 1024 for line in f
                         if line.startswith("MemAvailable"))
        want = min(want, avail // 8)  # three arrays: <= 3/8 of memory
    except (OSError, StopIteration, ValueError):
        pass
    n = 1 << 19 if smoke else max(want // 16, 1 << 20)
    b = np.full(n, 1.0 + 2.0j)
    c = np.full(n, 0.5 - 1.0j)
    a = np.empty(n, dtype=np.complex128)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, time.perf_counter() - t0)
    return {"host.triad_gb_per_s": 5 * n * 16 / best / 1e9,
            "host.triad_array_mb": n * 16 / 2**20,
            "host.llc_mb": llc / 2**20}


def batch_lane_ratio(tracer: Tracer, spec, scalar_sweep_ms: float) -> float:
    """Kernel time per lane and sweep of the k=4 *naive* batched solve,
    over the scalar sweep: the recorded pessimisation of batching off the
    tiled path."""
    from repro.service import run_job

    tracer.clear()
    doc = run_job(spec)
    loops = tracer.named("fdfd.batch_loop")
    if not loops or not scalar_sweep_ms:
        return 0.0
    kids = children(tracer.spans)
    kernel = _sum(kids.get(loops[0].id, []), "fdfd.update_h", "fdfd.update_e")
    lanes = doc["batch_width"]
    steps = doc["points"][0]["result"]["iterations"]
    return (1e3 * kernel / (lanes * steps)) / scalar_sweep_ms


def halo_counts(wl, cluster_spans: List[Span], grid_n: int) -> Dict[str, float]:
    """Halo traffic per step, checked against the model byte for byte."""
    from repro.cluster import RankLayout, step_bytes_by_axis
    from repro.fdfd import Grid

    s = cluster_spans[-1].args
    per_step = s["halo_bytes"] / s["steps"]
    grid = Grid(nz=2 * grid_n, ny=grid_n, nx=grid_n,
                periodic=(False, True, True))
    model = sum(step_bytes_by_axis(RankLayout(grid, *s["layout"])).values())
    wl.verify(per_step == model,
              f"halo bytes/step {per_step} != step_bytes_by_axis {model}")
    wl.verify(len({(c.args["halo_bytes"], c.args["halo_messages"])
                   for c in cluster_spans
                   if c.args["steps"] == s["steps"]}) == 1,
              "halo counts differ between identical distributed runs")
    return {"cluster.halo_bytes_per_step": per_step,
            "cluster.halo_messages": s["halo_messages"] / s["steps"]}


def store_probe(root: str, n: int = 40) -> Dict[str, float]:
    """put/get of a point-sized document on a persistent root."""
    from repro.service import ResultStore

    doc = {"kind": "solve", "grid": [20, 10, 10], "iterations": 20,
           "checksum": "0" * 64, "residual": 1e-3, "converged": False}
    store = ResultStore(os.path.join(root, "store-probe"))
    puts, gets = [], []
    for i in range(n):
        t0 = time.perf_counter()
        store.put(f"probe{i:04d}", doc)
        puts.append(time.perf_counter() - t0)
    cold = ResultStore(store.root)  # reads come from disk, not memory
    for i in range(n):
        t0 = time.perf_counter()
        cold.get(f"probe{i:04d}")
        gets.append(time.perf_counter() - t0)
    return {"service.store_put_ms": 1e3 * median(puts),
            "service.store_get_ms": 1e3 * median(gets)}


def replay_rates() -> Dict[str, float]:
    """Stream generation and LRU replay in isolation: one band of row
    jobs through BatchStreamEmitter, then the prepared streams through
    each replay engine this host has."""
    from repro.core import TilingPlan, tile_row_jobs
    from repro.machine import (HASWELL_EP, BatchLRU, BatchStreamEmitter,
                               make_lru, native_available)

    dw, bz, nx, nz = 8, 4, 384, 64
    ny = 2 * dw
    plan = TilingPlan.build(ny=ny, nz=nz, timesteps=2 * dw, dw=dw, bz=bz)
    jobs = [job for tile in plan.band_tiles(plan.bands[1])
            for job in tile_row_jobs(tile, nz, bz)]
    capacity = HASWELL_EP.usable_l3_bytes
    emitter = BatchStreamEmitter(BatchLRU(capacity), ny=ny, nz=nz, nx=nx)
    t0 = time.perf_counter()
    streams = [emitter.raw_segments_for(job) for job in jobs]
    dt = time.perf_counter() - t0
    accesses = sum(len(seg[3]) for stream in streams for seg in stream)
    out = {"machine.emit_maccess_per_s": accesses / dt / 1e6}
    engines = {"batch": BatchLRU(capacity)}
    if native_available():
        engines["native"] = make_lru(
            capacity, BatchStreamEmitter.key_space(ny, nz))
    rounds = 3
    for name, cache in engines.items():
        prepared = [(cache.prepare(stream), job.y_lo * nz + job.z_lo)
                    for stream, job in zip(streams, jobs)]
        t0 = time.perf_counter()
        for _ in range(rounds):
            for packed, base in prepared:
                cache.replay(packed, base=base)
        dt = time.perf_counter() - t0
        out[f"machine.replay_maccess_per_s.{name}"] = (
            rounds * accesses / dt / 1e6)
    return out
