"""CI smoke test for fleet durability, end to end.

Exercises the three durability mechanisms against a real 2-node fleet
(``repro serve`` subprocesses with per-node ``--data-dir`` stores)
behind an in-process gateway:

* **warm restart**: solve a campaign through the gateway, SIGKILL one
  node, respawn it over the same data dir and read every point back --
  the rebooted node must answer its shard from the persistent store
  (``from_store`` reads, zero re-solves, bit-identical bytes);
* **write replication**: every completed result is pushed to its ring
  replica on the first done-poll; the replica's ``replica_puts`` counter
  and the gateway's replication metric must agree, and the replicated
  payload bytes are reported;
* **admission control**: a quota-limited gateway on the same fleet
  admits a tenant's burst, answers 429 + ``Retry-After`` past it, and
  leaves a second tenant untouched.

Writes ``benchmarks/output/BENCH_durability.json``.

Run from the repo root::

    PYTHONPATH=src python benchmarks/smoke_durability.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

OUT_DIR = os.path.join(os.path.dirname(__file__), "output")
BENCH_PATH = os.path.join(OUT_DIR, "BENCH_durability.json")

GRID = 10
WAVELENGTHS = (10.0, 11.0, 12.0, 13.0, 14.0, 15.0)
BASE_SPEC = {"kind": "solve", "preset": "vacuum", "grid": GRID,
             "tol": 1e-4, "max_steps": 40}


def _request(method, url, payload=None, headers=None):
    from repro.fleet.router import http_request

    return http_request(method, url, payload=payload, headers=headers,
                        timeout=60.0)


def _poll(base, job_id):
    from repro.fleet.router import poll_job

    doc = poll_job(base, job_id, timeout=300.0, strict=True)
    assert doc["state"] == "done", f"{job_id[:12]} {doc['state']}"
    return doc


def _node_metrics(url):
    status, doc, _ = _request("GET", f"{url}/metrics?format=json")
    assert status == 200, f"metrics {url}: HTTP {status}"
    return doc


def main() -> int:
    from repro import telemetry
    from repro.fleet import (gateway_over, make_gateway, respawn_node,
                             spawn_local_fleet)
    from repro.service import JobSpec, run_job

    telemetry.enable()
    telemetry.fleet_replications()  # create the series before reading

    specs = [JobSpec.from_dict(dict(BASE_SPEC, wavelength=w))
             for w in WAVELENGTHS]
    clean = {spec.job_id: run_job(spec) for spec in specs}
    print(f"durability smoke: campaign = {len(specs)} solves on "
          f"grid {GRID}", flush=True)

    doc = {"grid": GRID, "nodes": 2, "points": len(specs)}
    with tempfile.TemporaryDirectory(prefix="repro-durability-") as data_root, \
            gateway_over(spawn_local_fleet(2, workers=2, mode="thread",
                                           data_root=data_root)) as fl:
        base, registry, nodes = fl.base, fl.registry, fl.nodes
        print(f"durability smoke: 2 persistent nodes behind {base} "
              f"(data root {data_root})", flush=True)

        # Phase 1: solve the campaign cold; done-polls replicate.
        t0 = time.perf_counter()
        for spec in specs:
            status, resp, _ = _request("POST", f"{base}/jobs",
                                       spec.to_dict())
            assert status == 202, f"submit: HTTP {status} {resp}"
        for spec in specs:
            done = _poll(base, spec.job_id)
            assert done["result"] == clean[spec.job_id], (
                f"point {spec.wavelength} differs from the direct run")
        cold_s = time.perf_counter() - t0
        print(f"durability smoke: phase 1 solved cold in {cold_s:.2f}s, "
              "bit-identical", flush=True)

        # Phase 2: replication accounting.  With 2 nodes every job's
        # replica is the other node, so both stores hold all points.
        replications = telemetry.METRICS.get_value(
            "fleet_replications_total", labels=("ok",))
        replica_puts = sum(
            _node_metrics(n.url)["store"]["replica_puts"] for n in nodes)
        payload_bytes = sum(
            len(json.dumps(clean[s.job_id]).encode()) for s in specs)
        assert replications == len(specs), (
            f"expected {len(specs)} replications, saw {replications}")
        assert replica_puts == len(specs), (
            f"expected {len(specs)} replica puts, saw {replica_puts}")
        doc["replication"] = {
            "replications": int(replications),
            "replica_puts": int(replica_puts),
            "payload_bytes_total": payload_bytes,
        }
        print(f"durability smoke: phase 2 replicated {int(replications)} "
              f"results ({payload_bytes} payload bytes)", flush=True)

        # Phase 3: warm restart.  SIGKILL one node, respawn it over the
        # same data dir, and read everything back through the gateway.
        smap = registry.shard_map()
        victim = nodes[0]
        victim_points = [s for s in specs
                         if smap.owners(s.job_id)[0] == victim.url]
        victim.kill()
        registry.check_once()
        reborn = respawn_node(victim)
        nodes[0] = reborn
        registry.check_once()
        executed0 = _node_metrics(reborn.url)["scheduler"]["executed"]

        t0 = time.perf_counter()
        warm_reads = 0
        for spec in specs:
            status, got, _ = _request("GET", f"{base}/jobs/{spec.job_id}")
            assert status == 200, f"warm read: HTTP {status} {got}"
            assert got["result"] == clean[spec.job_id], (
                f"warm read of {spec.wavelength} not bit-identical")
            if got.get("from_store"):
                warm_reads += 1
        warm_s = time.perf_counter() - t0
        executed = _node_metrics(reborn.url)["scheduler"]["executed"]
        resolves = executed - executed0
        assert resolves == 0, (
            f"rebooted node re-solved {resolves} committed points")
        assert warm_reads >= len(victim_points), (
            f"{warm_reads} warm reads < {len(victim_points)} victim pts")
        doc["warm_restart"] = {
            "victim_points": len(victim_points),
            "warm_reads": warm_reads,
            "resolves_after_reboot": int(resolves),
            "hit_rate": 1.0,
            "cold_seconds": round(cold_s, 4),
            "warm_read_seconds": round(warm_s, 4),
        }
        print(f"durability smoke: phase 3 reboot warm -- {warm_reads} "
              f"store reads, 0 re-solves ({warm_s:.3f}s vs "
              f"{cold_s:.2f}s cold)", flush=True)

        # Phase 4: admission control on a quota-limited gateway over the
        # same fleet (submits hit admission before dedup).
        quota_gateway = make_gateway(registry, quota=0.001, quota_burst=2)
        threading.Thread(target=quota_gateway.serve_forever,
                         daemon=True).start()
        try:
            qbase = f"http://127.0.0.1:{quota_gateway.server_port}"
            accepted = rejected = 0
            retry_after = None
            for spec in specs:
                status, resp, headers = _request(
                    "POST", f"{qbase}/jobs", spec.to_dict(),
                    headers={"X-Repro-Api-Key": "alice"})
                if status == 202:
                    accepted += 1
                else:
                    assert status == 429, f"HTTP {status} {resp}"
                    rejected += 1
                    retry_after = int(headers["Retry-After"])
            status, _, _ = _request("POST", f"{qbase}/jobs",
                                    specs[0].to_dict(),
                                    headers={"X-Repro-Api-Key": "bob"})
        finally:
            quota_gateway.shutdown()
            quota_gateway.server_close()
        assert status == 202, "in-quota tenant was rejected"
        assert accepted == 2 and rejected == len(specs) - 2, (
            f"burst 2: accepted {accepted}, rejected {rejected}")
        assert retry_after and retry_after >= 1
        doc["admission"] = {
            "quota_per_s": 0.001, "quota_burst": 2,
            "accepted": accepted, "rejected_429": rejected,
            "retry_after_s": retry_after, "other_tenant_accepted": True,
        }
        print(f"durability smoke: phase 4 quota -- {accepted} admitted, "
              f"{rejected} x 429 (Retry-After {retry_after}s), second "
              "tenant unaffected", flush=True)

        doc["shard_version"] = registry.version

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(BENCH_PATH, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
    print(f"saved -> {BENCH_PATH}")
    print("durability smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
