"""CI smoke test for the fleet tier, end to end.

Spins up a real 3-node fleet (``repro serve`` subprocesses on ephemeral
ports) behind an in-process consistent-hash gateway and runs a
thickness x wavelength campaign through it, asserting the fleet
contract:

* **bit-identity**: every per-point result fetched through the gateway
  equals an in-process ``run_job`` of the same spec, byte for byte (the
  gateway submits each point of a batch as its own job on its home
  node and assembles the batch from them);
* **node death mid-campaign**: one node is SIGKILLed between campaign
  phases; the remaining points route to replicas (the shard-map version
  bumps, failovers are counted) and the campaign still completes with
  identical bytes;
* **exactly-once results**: resubmitting a served batch, or each of its
  points on its own, is answered without a single extra execution
  (content-hash dedup, fleet-wide), and re-running the whole campaign
  after the node death still returns the same canonical bytes for every
  point.

Writes gateway-routed throughput to
``benchmarks/output/BENCH_fleet.json``.

Run from the repo root::

    PYTHONPATH=src python benchmarks/smoke_fleet.py
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

OUT_DIR = os.path.join(os.path.dirname(__file__), "output")
BENCH_PATH = os.path.join(OUT_DIR, "BENCH_fleet.json")

GRID = 10
THICKNESSES = (0.1, 0.2)
WAVELENGTHS = (10.0, 11.0, 12.0)
BASE = {"kind": "batch", "preset": "absorber", "grid": GRID, "tol": 1e-4,
        "max_steps": 40, "threads": 2, "wavelengths": WAVELENGTHS}
CELLS = 2 * GRID ** 3  # the served geometry is Grid(2n, n, n)


def _request(method, url, payload=None):
    from repro.fleet.router import http_request

    status, doc, _ = http_request(method, url, payload=payload, timeout=60.0)
    return status, doc


def _poll(base, job_id):
    from repro.fleet.router import poll_job

    doc = poll_job(base, job_id, timeout=300.0, strict=True)
    assert doc["state"] == "done", f"{job_id[:12]} {doc['state']}"
    return doc


def _fleet_executed(base) -> int:
    """Total jobs executed across every live node (gateway rollup)."""
    status, doc = _request("GET", f"{base}/metrics?format=json")
    assert status == 200, f"metrics: HTTP {status}"
    return sum(rollup["scheduler"]["executed"]
               for rollup in doc["nodes"].values()
               if "scheduler" in rollup)


def _campaign_specs():
    from repro.service import JobSpec

    return [JobSpec.from_dict(dict(BASE, thickness=t)) for t in THICKNESSES]


def _assert_points_identical(got: dict, clean: dict, label: str) -> None:
    assert [p["wavelength"] for p in got["points"]] == \
        [p["wavelength"] for p in clean["points"]], f"{label}: point order"
    for mine, theirs in zip(got["points"], clean["points"]):
        assert mine["id"] == theirs["id"], f"{label}: point ids differ"
        assert mine["result"] == theirs["result"], (
            f"{label}: point {mine['wavelength']} differs from the "
            "direct run")


def main() -> int:
    from repro import telemetry
    from repro.fleet import gateway_over, spawn_local_fleet
    from repro.service import run_job

    telemetry.enable()
    telemetry.fleet_failovers()  # create the series before reading it

    specs = _campaign_specs()
    clean = {spec.job_id: run_job(spec) for spec in specs}
    print(f"fleet smoke: campaign = {len(THICKNESSES)} thicknesses x "
          f"{len(WAVELENGTHS)} wavelengths "
          f"({len(THICKNESSES) * len(WAVELENGTHS)} points)", flush=True)

    rows = []
    with gateway_over(spawn_local_fleet(3, workers=2, mode="thread"),
                      heartbeat_s=0.5) as fl:
        base, registry, nodes = fl.base, fl.registry, fl.nodes
        print(f"fleet smoke: 3 nodes behind gateway {base} "
              f"(shard map v{registry.version})", flush=True)

        # Phase 1: the first thickness, all nodes healthy.
        first, second = specs
        t0 = time.perf_counter()
        status, doc = _request("POST", f"{base}/jobs", first.to_dict())
        assert status == 202, f"submit: HTTP {status} {doc}"
        homes = len({p["node"] for p in doc["points"]})
        done = _poll(base, first.job_id)
        elapsed = time.perf_counter() - t0
        _assert_points_identical(done["result"], clean[first.job_id],
                                 "phase 1")
        points = sum(CELLS * p["result"]["iterations"]
                     for p in done["result"]["points"])
        rows.append({"phase": "healthy", "seconds": round(elapsed, 4),
                     "points_per_second": round(points / elapsed, 1),
                     "point_homes": homes})
        print(f"fleet smoke: phase 1 bit-identical through the gateway "
              f"({len(WAVELENGTHS)} points on {homes} home node(s), "
              f"{elapsed:.2f}s)", flush=True)

        # Exactly-once while healthy: resubmitting the served batch
        # executes nothing new anywhere in the fleet.
        executed0 = _fleet_executed(base)
        status, doc = _request("POST", f"{base}/jobs", first.to_dict())
        assert status == 202, f"resubmit: HTTP {status} {doc}"
        done = _poll(base, first.job_id)
        _assert_points_identical(done["result"], clean[first.job_id],
                                 "dedup")
        assert _fleet_executed(base) == executed0, (
            "resubmitting a completed batch re-executed work")
        print("fleet smoke: resubmission fully dedup'd "
              "(0 extra executions)", flush=True)

        # ...and so does each of its points submitted on its own: every
        # point is stored on its home, where a point submit lands.
        for w in WAVELENGTHS:
            point = first.point_spec(w)
            status, doc = _request("POST", f"{base}/jobs", point.to_dict())
            assert status == 202, f"point resubmit: HTTP {status} {doc}"
            _poll(base, point.job_id)
        assert _fleet_executed(base) == executed0, (
            "resubmitting a served batch's points re-executed work")
        print("fleet smoke: per-point resubmission fully dedup'd "
              "(0 extra executions)", flush=True)

        # Phase 2: kill the home of the second batch's first point
        # mid-campaign, then submit the rest of the campaign.
        victim_url = registry.shard_map().owners(
            second.point_spec(WAVELENGTHS[0]).job_id)[0]
        victim = next(n for n in nodes if n.url == victim_url)
        v0 = registry.version
        victim.kill()
        print(f"fleet smoke: killed {victim.node_id} ({victim.url}) "
              "mid-campaign", flush=True)

        t0 = time.perf_counter()
        status, doc = _request("POST", f"{base}/jobs", second.to_dict())
        assert status == 202, f"submit after kill: HTTP {status} {doc}"
        done = _poll(base, second.job_id)
        elapsed = time.perf_counter() - t0
        _assert_points_identical(done["result"], clean[second.job_id],
                                 "phase 2")
        deadline = time.monotonic() + 15.0
        while registry.version == v0 and time.monotonic() < deadline:
            time.sleep(0.1)  # a heartbeat or a routed request notices
        assert registry.version > v0, "node death never bumped the shard map"
        assert registry.node(victim_url).state == "dead"
        points = sum(CELLS * p["result"]["iterations"]
                     for p in done["result"]["points"])
        rows.append({"phase": "one-node-dead", "seconds": round(elapsed, 4),
                     "points_per_second": round(points / elapsed, 1)})
        print(f"fleet smoke: campaign completed after node death "
              f"(shard map v{v0} -> v{registry.version}, {elapsed:.2f}s)",
              flush=True)

        # Phase 3: the whole campaign again on the degraded fleet --
        # points whose shard died may be recomputed on the replica
        # (that is the recovery path), but every byte that comes back
        # is still the canonical result.
        for spec in specs:
            status, doc = _request("POST", f"{base}/jobs", spec.to_dict())
            assert status == 202, f"resubmit: HTTP {status} {doc}"
            done = _poll(base, spec.job_id)
            _assert_points_identical(done["result"], clean[spec.job_id],
                                     "phase 3")
        print("fleet smoke: repeat campaign on the degraded fleet still "
              "canonical", flush=True)

        failovers = telemetry.METRICS.get_value("fleet_failovers_total")
        _, health = _request("GET", f"{base}/healthz")
        assert health["alive"] == 2 and health["ok"], health

    os.makedirs(OUT_DIR, exist_ok=True)
    doc = {
        "grid": [2 * GRID, GRID, GRID],
        "campaign": {"thicknesses": list(THICKNESSES),
                     "wavelengths": list(WAVELENGTHS)},
        "nodes": 3,
        "phases": rows,
        "failovers": failovers,
        "shard_version": registry.version,
    }
    with open(BENCH_PATH, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
    print(f"saved -> {BENCH_PATH}")
    print("fleet smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
