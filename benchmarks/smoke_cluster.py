"""CI smoke test for the distributed runtime, end to end.

Runs a ``kind="distributed"`` solve across real rank processes at three
layouts and asserts the cluster contract:

* **real processes**: a 2-rank and a 4-rank solve each report as many
  distinct child pids as the layout has ranks;
* **bit-identity**: every distributed result document equals an
  in-process ``run_job`` of the single-domain spec, field for field
  (SHA-256 field checksum included);
* **halo accounting**: the measured per-axis halo bytes equal the
  communication cost model's ``step_bytes_by_axis`` figure exactly.

(A seeded kill of one rank mid-solve is the ``rank-crash`` row of the
chaos scenario table, ``repro chaos`` / ``tests/test_chaos_scenarios.py``.)

Writes throughput-vs-ranks and halo-traffic numbers to
``benchmarks/output/BENCH_cluster.json``.

Run from the repo root::

    PYTHONPATH=src python benchmarks/smoke_cluster.py
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

OUT_DIR = os.path.join(os.path.dirname(__file__), "output")
BENCH_PATH = os.path.join(OUT_DIR, "BENCH_cluster.json")

GRID = 10          # Grid(20, 10, 10): small enough for CI, 4-rank feasible
MAX_STEPS = 120    # 6 convergence blocks at the fixed cadence of 20
BASE = {"preset": "absorber", "grid": GRID, "tol": 1e-12,
        "max_steps": MAX_STEPS, "threads": 2}


def check_bit_identity() -> tuple[str, list]:
    from repro.cluster import RankLayout, step_bytes_by_axis
    from repro.cluster.runtime import run_distributed
    from repro.fdfd import Grid, PlaneWaveSource, PMLSpec, THIIMSolver
    from repro.fdfd.presets import preset_scene
    from repro.service import JobSpec, run_job

    single = run_job(JobSpec.from_dict(dict(BASE, kind="solve")))
    rows = []
    for ranks, dims in (("1x1x1", (1, 1, 1)), ("2x1x1", (2, 1, 1)),
                        ("2x2x1", (2, 2, 1))):
        spec = JobSpec.from_dict(dict(BASE, kind="distributed", ranks=ranks))
        t0 = time.perf_counter()
        doc = run_job(spec)
        elapsed = time.perf_counter() - t0
        assert doc == single, f"{ranks}: result differs from single-domain"

        # Re-run through the library API for the pid and halo witnesses
        # (the job path stores the same bytes; ``info`` adds provenance).
        nz = 2 * GRID
        grid = Grid(nz=nz, ny=GRID, nx=GRID, periodic=(False, True, True))
        solver = THIIMSolver(
            grid, 2 * 3.141592653589793 / 12.0,
            scene=preset_scene("absorber", nz),
            source=PlaneWaveSource(z_plane=max(nz // 8, 12), z_width=2.0),
            pml={"z": PMLSpec(thickness=max(nz // 10, 6))},
        )
        layout = RankLayout(grid, *dims)
        result, info = run_distributed(layout, solver, tol=1e-12,
                                       max_steps=MAX_STEPS)
        n_ranks = dims[0] * dims[1] * dims[2]
        assert len(set(info["pids"])) == n_ranks, (
            f"{ranks}: expected {n_ranks} distinct rank pids, "
            f"got {info['pids']}")
        expected = step_bytes_by_axis(layout)
        measured = info["halo"]["bytes_by_axis"]
        assert measured == {str(a): MAX_STEPS * b
                            for a, b in expected.items()}, (
            f"{ranks}: halo bytes {measured} != model x steps")
        points = grid.n_cells * result.iterations
        rows.append({
            "ranks": ranks, "n_ranks": n_ranks,
            "seconds": round(elapsed, 4),
            "points_per_second": round(points / elapsed, 1),
            "halo_bytes_per_step": {str(a): b for a, b in expected.items()},
            "halo_messages": info["halo"]["messages"],
            "transport": info["transport"],
        })
        print(f"cluster smoke: {ranks} bit-identical "
              f"({n_ranks} pid(s), {info['transport']}, "
              f"{elapsed:.2f}s job)", flush=True)
    return ("2-rank and 4-rank solves bit-identical to the "
            "single-domain run"), rows


def main() -> int:
    summary, rows = check_bit_identity()
    print(f"cluster smoke: {summary}", flush=True)

    os.makedirs(OUT_DIR, exist_ok=True)
    doc = {"grid": [2 * GRID, GRID, GRID], "max_steps": MAX_STEPS,
           "layouts": rows}
    with open(BENCH_PATH, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
    print(f"saved -> {BENCH_PATH}")
    print("cluster smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
