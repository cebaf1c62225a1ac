"""End-to-end wall-clock benchmark of the machine substrate itself.

The substrate optimization contract is "same numbers, much faster": the
batched/native replay engines, stream memoization and plan caching must
leave every measured figure value bit-identical while cutting the time
to produce it.  This benchmark times the *fixed Fig. 6 point* -- 384^3 /
18 threads, the most expensive single point of the thread-scaling figure
-- for both halves of the substrate: the full MWD auto-tune (tile streams
through ``measure.tiled`` and the DES) and the spatial-blocking tune (row
schedules through ``measure.sweep``).  Each runs once through the seed
configuration (the ``"reference"`` per-access engine) and once through
the optimized path; the tuned points must be identical, and the speedups
are recorded as JSON under ``benchmarks/output/substrate_speed.json``.

Runs standalone (``python benchmarks/bench_substrate_speed.py``) or as a
pytest test; CI runs the pytest form as the speed smoke.
"""

from __future__ import annotations

import json
import os
import time

FIXED_GRID = 384
FIXED_THREADS = 18
#: Acceptance floors for seed/optimized wall-clock on the fixed point, per
#: tuner, at about half the ratios observed (MWD 34-47x with the compiled
#: DES, tile streams resolved by array arithmetic, shapes kept as
#: rectangles and tiles translated from one template -- the fast side is
#: now mostly C replay; spatial 50-80x): room for machine noise, none for
#: a path that falls back to one engine call per row, to generating key
#: arrays per shape or to the Python event loop.
MIN_SPEEDUP = {"tune_tiled": 18.0, "tune_spatial": 25.0}

def time_fixed_point(tuner: str, engine: str):
    """Cold wall-clock of the fixed Fig. 6 point under one replay engine."""
    from repro.core import autotuner
    from repro.machine import (HASWELL_EP, SUBSTRATE_COUNTERS,
                               clear_substrate_caches)
    from repro.resilience.faults import patched_env

    clear_substrate_caches()
    SUBSTRATE_COUNTERS.reset()
    with patched_env(REPRO_STREAM_ENGINE=engine):
        tune = getattr(autotuner, tuner)
        t0 = time.perf_counter()
        point = tune(HASWELL_EP, FIXED_GRID, FIXED_THREADS)
        seconds = time.perf_counter() - t0
    return seconds, point, SUBSTRATE_COUNTERS.snapshot()


def collect() -> dict:
    """Seed-vs-optimized timings of the fixed point, plus telemetry."""
    rows = {"fixed_point": {"grid_n": FIXED_GRID, "threads": FIXED_THREADS}}
    for tuner in MIN_SPEEDUP:
        seed_seconds, seed_point, _ = time_fixed_point(tuner, "reference")
        fast_seconds, fast_point, counters = time_fixed_point(tuner, "auto")
        rows[tuner] = {
            "seed_seconds": seed_seconds,
            "fast_seconds": fast_seconds,
            "speedup": seed_seconds / fast_seconds if fast_seconds else 0.0,
            "min_speedup": MIN_SPEEDUP[tuner],
            "identical_result": seed_point == fast_point,
            "tuned": seed_point.describe() if seed_point else None,
            "substrate_counters": counters,
        }
    return rows


def failures(rows: dict) -> list:
    out = []
    for tuner, floor in MIN_SPEEDUP.items():
        row = rows[tuner]
        if not row["identical_result"]:
            out.append(f"{tuner}: optimized engines changed the tuned point")
        if row["speedup"] < floor:
            out.append(f"{tuner}: substrate speedup {row['speedup']:.2f}x "
                       f"below the {floor:g}x acceptance floor")
    return out


def test_substrate_speed(output_dir):
    rows = collect()
    path = os.path.join(output_dir, "substrate_speed.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(rows, f, indent=2)
    for tuner in MIN_SPEEDUP:
        row = rows[tuner]
        print(f"\n[substrate speed, {tuner}: seed {row['seed_seconds']:.2f}s -> "
              f"fast {row['fast_seconds']:.3f}s = {row['speedup']:.1f}x]")
    print(f"[saved -> {path}]")
    failed = failures(rows)
    assert not failed, failed


def main() -> int:
    rows = collect()
    print(json.dumps(rows, indent=2))
    return 1 if failures(rows) else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
