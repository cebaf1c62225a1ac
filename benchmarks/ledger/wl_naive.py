"""naive_scaling: whole-domain sweeps, single process next to 2 ranks."""

from __future__ import annotations

import time
from typing import Dict

import gen
import probes
from spec import TOL
from stats import median
from wl_common import Workload, scheduler_ops


class NaiveScaling(Workload):
    name = "naive_scaling"

    def setup(self) -> None:
        from repro.service import JobSpec, Scheduler

        c = self.c
        self.JobSpec = JobSpec
        # In-memory registry and store, checkpointing off: nothing but
        # fdfd (and cluster, in the distributed phase) is on the path.
        self.sched = Scheduler(workers=1, mode="thread",
                               retry_base_s=0.001).start()
        self.base = dict(preset=c["preset"], grid=c["grid"], tol=TOL,
                         max_steps=c["max_steps"], tiled=False,
                         tuning="spec")
        self.waves = gen.wavelengths(self.name, self.seed, 512)
        self.fresh = 0
        # The first solve pays the solver stack's lazy imports; that is
        # set-up, not a measured operation.
        warm = self.sched.submit(JobSpec(
            kind="solve", preset="vacuum", grid=10, wavelength=10.0,
            tol=TOL, max_steps=2))
        self.sched.wait(warm.id, timeout=60.0)
        self.fresh += 1

    def _spec(self, w: float, distributed: bool = False, **over):
        fields = dict(self.base, wavelength=w, **over)
        if distributed:
            return self.JobSpec(kind="distributed", ranks=self.c["ranks"],
                                **fields)
        return self.JobSpec(kind="solve", **fields)

    def repeat(self, i: int) -> Dict[str, float]:
        k = self.c["jobs_per_phase"]
        ws = self.waves[i * k:(i + 1) * k]
        single: Dict[float, dict] = {}

        def solved(job) -> None:
            doc = job.result
            single[job.spec.wavelength] = doc
            self.check(doc["iterations"] == self.c["iterations"],
                       f"solve ran {doc['iterations']} sweeps, not "
                       f"{self.c['iterations']}")
            if i == 0:
                self.check_pinned(f"checksum[{ws.index(job.spec.wavelength)}]",
                                  doc["checksum"])

        def distributed(job) -> None:
            # Field for field, checksum included: every rank layout must
            # reproduce the single-domain document.
            self.check(job.result == single.get(job.spec.wavelength),
                       f"distributed result of wavelength "
                       f"{job.spec.wavelength} differs from single-domain")

        t0 = time.perf_counter()
        _, wall_a = scheduler_ops(self, self.sched,
                                  [self._spec(w) for w in ws], "primary",
                                  on_done=solved)
        _, wall_b = scheduler_ops(self, self.sched,
                                  [self._spec(w, True) for w in ws],
                                  "secondary", on_done=distributed)
        self.fresh += 2 * k
        return {"primary": k, "primary_wall": wall_a, "secondary": k,
                "secondary_wall": wall_b, "ops": 2 * k,
                "wall": time.perf_counter() - t0}

    def finish(self) -> None:
        stats = self.sched.stats()
        self.counts["service.executed"] = stats["executed"]
        self.verify(stats["executed"] == self.fresh,
                    f"executed {stats['executed']} jobs for {self.fresh} "
                    f"fresh specs")
        self.verify(stats["failed"] == 0 and stats["retries"] == 0,
                    f"scheduler saw {stats['failed']} failures, "
                    f"{stats['retries']} retries")

    def probes(self) -> Dict[str, float]:
        from repro.service import run_job

        c = self.c
        t = self.tracer
        out = probes.solve_path_metrics(t)
        out["fdfd.iterations"] = c["iterations"]
        out.update(probes.host_triad(self.smoke))
        if out.get("host.triad_gb_per_s") and out.get("fdfd.sweep_mlups"):
            # 1344 B/LUP is Eq. 8's naive code balance: computed, not
            # measured, bytes.
            out["fdfd.sweep_bw_fraction"] = (
                1344.0 * out["fdfd.sweep_mlups"] * 1e6
                / (out["host.triad_gb_per_s"] * 1e9))
        out["fdfd.batch_lane_ratio"] = probes.batch_lane_ratio(
            t, self.JobSpec(kind="batch", wavelengths=tuple(self.waves[-4:]),
                            **dict(self.base, max_steps=20)),
            out.get("fdfd.sweep_ms", 0.0))

        # cluster: run_distributed's own span at two sweep counts gives
        # the fixed cost (intercept) and the per-sweep cost (slope).
        lo, hi = c["cluster_fit_steps"]
        waves = self.waves[-12:-4]
        t.clear()
        for n, w in ((lo, waves[0]), (hi, waves[1]), (lo, waves[2]),
                     (hi, waves[3])):
            run_job(self._spec(w, True, max_steps=n))
        run_job(self._spec(waves[4], max_steps=hi))
        spans = t.named("cluster.run_distributed")
        by_steps = {n: median(s.dur for s in spans if s.args["steps"] == n)
                    for n in (lo, hi)}
        slope = (by_steps[hi] - by_steps[lo]) / (hi - lo)
        out["cluster.sweep_ms"] = slope * 1e3
        out["cluster.fixed_s"] = by_steps[lo] - slope * lo
        single = median(t.durations("fdfd.solve"))
        out["cluster.rank_speedup_2"] = single / by_steps[hi]
        if out.get("fdfd.sweep_ms") and slope > 0:
            out["cluster.comm_share"] = 1.0 - (
                out["fdfd.sweep_ms"] / 2.0) / (slope * 1e3)
        out.update(probes.halo_counts(self, spans, c["grid"]))
        return out

    def close(self) -> None:
        self.sched.stop()
