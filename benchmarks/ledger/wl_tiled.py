"""tiled_campaign: MWD-tiled points, queued per point and as batch lanes."""

from __future__ import annotations

import os
import time
from typing import Dict

import gen
import probes
from spec import TOL
from stats import median
from wl_common import Workload, scheduler_ops


class TiledCampaign(Workload):
    name = "tiled_campaign"

    def setup(self) -> None:
        from repro.service import JobSpec, PlanRegistry, ResultStore, Scheduler

        c = self.c
        self.JobSpec = JobSpec
        root = self.workdir
        # Persistent registry and store plus checkpointing: the only
        # workload with all three on the solve path.
        self.registry = PlanRegistry(os.path.join(root, "registry"))
        self.store = ResultStore(os.path.join(root, "results"))
        self.sched = Scheduler(
            workers=1, mode="thread", retry_base_s=0.001,
            registry=self.registry, store=self.store,
            checkpoint_dir=os.path.join(root, "checkpoints")).start()
        self.base = dict(preset=c["preset"], grid=c["grid"], tol=TOL,
                         max_steps=c["max_steps"], tiled=True,
                         tuning="registry", threads=c["threads"])
        per_repeat = c["depth"] + c["lanes"]
        self.waves = gen.wavelengths(self.name, self.seed, 64 * per_repeat)
        self.thick = gen.thicknesses(self.name, self.seed, 64)
        # Warm the registry: every later job must find the plan.
        t0 = time.perf_counter()
        tune = self.sched.submit(JobSpec(
            kind="tune", preset=c["preset"], grid=c["grid"],
            threads=c["threads"], tuning="registry"))
        done = self.sched.wait(tune.id, timeout=120.0)
        self.tune_s = time.perf_counter() - t0
        if done.state != "done":
            raise RuntimeError(f"registry warm-up failed: {done.error}")
        self.fresh = 1

    def _spec(self, kind: str, thickness: float, **fields):
        return self.JobSpec(kind=kind, thickness=thickness,
                            **dict(self.base, **fields))

    def _check_point(self, doc: dict) -> None:
        c = self.c
        self.check(doc["iterations"] == c["iterations"],
                   f"point ran {doc['iterations']} sweeps, not "
                   f"{c['iterations']}")
        plan = doc["plan"]
        self.check(plan.get("registry_hit") is True,
                   f"plan was not served by the registry: {plan}")
        if c["plan"] is not None:
            self.check([plan["dw"], plan["bz"]] == c["plan"],
                       f"tuned plan drifted to dw={plan['dw']} "
                       f"bz={plan['bz']}, calibrated {c['plan']}")

    def repeat(self, i: int) -> Dict[str, float]:
        from repro.service import run_job

        c = self.c
        depth, lanes = c["depth"], c["lanes"]
        thickness = self.thick[i]
        n = depth + lanes
        ws = self.waves[i * n:(i + 1) * n]
        points, batch_ws = ws[:depth], tuple(ws[depth:])

        def point_done(job) -> None:
            self._check_point(job.result)
            if i == 0:
                self.check_pinned(
                    f"point[{points.index(job.spec.wavelength)}]",
                    job.result["checksum"])

        t0 = time.perf_counter()
        # Phase A: per-point jobs submitted together (queue depth 3).
        _, wall_a = scheduler_ops(
            self, self.sched,
            [self._spec("solve", thickness, wavelength=w) for w in points],
            "primary", on_done=point_done, together=True)

        # Phase B: other wavelengths as one explicit batch.  Every lane
        # is one secondary operation; its latency is the batch's.
        batch = self._spec("batch", thickness, wavelengths=batch_ws)
        t_submit = time.perf_counter()
        job = self.sched.submit(batch)
        done = self.sched.wait(job.id, timeout=120.0)
        wall_b = time.perf_counter() - t_submit
        ok = done.state == "done" and done.result["solved"] == lanes
        for lane, w in enumerate(batch_ws):
            with self.op("secondary", req=job.id, start=t_submit,
                         latency=wall_b):
                if not self.check(ok, f"batch {job.id[:12]} ended "
                                      f"{done.state}: {done.error}"):
                    continue
                doc = done.result["points"][lane]["result"]
                self._check_point(doc)
                stored = self.store.get(batch.point_spec(w).job_id)
                self.check(stored == doc, f"lane {w} was not fanned out "
                                          f"to the store under its point id")
                if i == 0:
                    self.check_pinned(f"lane[{lane}]", doc["checksum"])
        wall = time.perf_counter() - t0
        if ok:
            # One sampled lane per repeat must equal a direct per-point
            # run of that wavelength (outside the timed phases).
            lane = i % lanes
            direct = run_job(batch.point_spec(batch_ws[lane]),
                             registry=self.registry)
            self.verify(direct == done.result["points"][lane]["result"],
                        f"batch lane {batch_ws[lane]} differs from a "
                        f"direct run_job of its point spec")
        self.fresh += depth + 1
        return {"primary": depth, "primary_wall": wall_a,
                "secondary": lanes, "secondary_wall": wall_b,
                "ops": depth + lanes, "wall": wall}

    def finish(self) -> None:
        stats = self.sched.stats()
        reg = self.registry.counters()
        self.counts["service.executed"] = stats["executed"]
        self.verify(stats["executed"] == self.fresh,
                    f"executed {stats['executed']} jobs for {self.fresh} "
                    f"fresh specs")
        self.verify(stats["failed"] == 0 and stats["retries"] == 0,
                    f"scheduler saw {stats['failed']} failures, "
                    f"{stats['retries']} retries")
        self.verify(reg["misses"] == 1,
                    f"registry tuned {reg['misses']} times, expected once")

    def probes(self) -> Dict[str, float]:
        from repro.machine import native_available

        c = self.c
        t = self.tracer
        out = probes.solve_path_metrics(t)
        out["fdfd.iterations"] = c["iterations"]
        out["service.registry_tune_cold_s"] = self.tune_s
        out["machine.engine_native"] = 1.0 if native_available() else 0.0
        hits = [s.dur for s in t.named("service.registry")
                if s.args and s.args["hit"]]
        out["service.registry_hit_ms"] = 1e3 * median(hits)
        builds = t.durations("core.plan_build")
        if builds:
            out["core.plan_build_ms"] = 1e3 * median(builds)
        saves = t.named("resilience.ckpt_save")
        if saves:
            out["resilience.ckpt_bytes"] = median(
                s.args["bytes"] for s in saves)
            out["resilience.ckpt_save_mb_per_s"] = median(
                s.args["bytes"] / s.dur / 1e6 for s in saves)
        out.update(probes.batch_metrics(t))
        out.update(probes.tiled_over_naive(
            t, self._spec("solve", self.thick[-1], wavelength=self.waves[-1],
                          tiled=False, tuning="spec"),
            out.get("core.tiled_mlups", 0.0)))
        out.update(probes.checkpoint_load(self.workdir, c["grid"]))
        out.update(probes.store_probe(self.workdir))
        return out

    def close(self) -> None:
        self.sched.stop()
