"""serve_small: tiny jobs through gateway -> node HTTP -> scheduler."""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

import gen
import probes
import stats
from spec import TOL
from stats import median
from wl_common import Workload


def http(method: str, url: str, payload: Optional[dict] = None) -> Tuple[int, dict]:
    """One JSON round trip on a fresh connection (what ``repro submit``
    does); HTTP error statuses are returned, not raised."""
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=30.0) as resp:
            return resp.status, json.loads(resp.read() or b"{}")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


def result_bytes(doc: dict) -> bytes:
    """The result payload of a job document, canonically serialized (the
    envelope around it carries counters that legitimately move)."""
    return json.dumps(doc.get("result"), sort_keys=True).encode()


class _Node:
    """One in-process serve node: scheduler + HTTP server, persistent
    stores (the fixture shape of tests/test_fleet_gateway.py)."""

    def __init__(self, i: int, root: str):
        from repro.service import (PlanRegistry, ResultStore, Scheduler,
                                   make_server)

        node_id = f"node{i}"
        base = os.path.join(root, node_id)
        self.sched = Scheduler(
            workers=1, mode="thread", retry_base_s=0.001,
            registry=PlanRegistry(os.path.join(base, "registry"),
                                  node_id=node_id),
            store=ResultStore(os.path.join(base, "results"),
                              node_id=node_id),
            checkpoint_dir=os.path.join(base, "checkpoints")).start()
        self.server = make_server(self.sched, port=0, node_id=node_id)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_port}"

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.sched.stop()
        self.thread.join(timeout=5.0)


class ServeSmall(Workload):
    name = "serve_small"

    def setup(self) -> None:
        from repro.fleet import NodeRegistry, make_gateway

        c = self.c
        self.nodes = [_Node(i, self.workdir) for i in range(2)]
        # Manual heartbeats: liveness never flaps mid-measurement.
        self.registry = NodeRegistry([n.url for n in self.nodes],
                                     dead_after=1, timeout_s=10.0,
                                     interval_s=3600.0)
        self.registry.check_once()
        self.gateway = make_gateway(self.registry)
        self.gw_thread = threading.Thread(target=self.gateway.serve_forever,
                                          daemon=True)
        self.gw_thread.start()
        self.base_url = f"http://127.0.0.1:{self.gateway.server_port}"
        self.base = dict(kind="solve", preset=c["preset"], grid=c["grid"],
                         tol=TOL, max_steps=c["max_steps"])
        waves = gen.wavelengths(self.name, self.seed, 4096, lo=8.0, hi=16.0)
        n = c["clients"]
        #: Per client: its fresh wavelengths (and a cursor into them), its
        #: op sequence, and the specs it has completed.
        self.clients = [{
            "waves": waves[k::n], "next_wave": 0,
            "ops": gen.serve_ops(self.seed, k, c["mix"]), "done": [],
        } for k in range(n)]
        self.fresh = 0
        self.warmed = False
        self.slice_ops = 0

    # -- the three operations --------------------------------------------------

    def _cold(self, client: dict, kind: Optional[str] = "secondary") -> None:
        spec = dict(self.base,
                    wavelength=client["waves"][client["next_wave"]])
        client["next_wave"] += 1
        with self._lock:
            self.fresh += 1
        with self.op(kind) as span:
            status, doc = http("POST", f"{self.base_url}/jobs", spec)
            if not self.check(status == 202, f"cold submit answered "
                                             f"{status}: {doc}"):
                return
            job_id = doc["id"]
            if span is not None:
                span.req = job_id
            deadline = time.monotonic() + 30.0
            while True:
                status, doc = http("GET", f"{self.base_url}/jobs/{job_id}")
                if status != 200 or doc.get("state") in (
                        "done", "failed", "cancelled"):
                    break
                if time.monotonic() > deadline:
                    break
                time.sleep(self.c["poll_s"])
            ok = self.check(
                status == 200 and doc.get("state") == "done",
                f"cold job {job_id[:12]} ended {status} "
                f"{doc.get('state')}: {doc.get('error')}")
            if ok and self.check(
                    doc["result"]["iterations"] == self.c["iterations"],
                    f"cold job ran {doc['result']['iterations']} sweeps"):
                client["done"].append((spec, job_id, result_bytes(doc)))

    def _hit(self, client: dict, u: float, resubmit: bool) -> None:
        spec, job_id, first = client["done"][int(u * len(client["done"]))]
        with self.op("primary" if resubmit else None, req=job_id):
            if resubmit:
                status, doc = http("POST", f"{self.base_url}/jobs", spec)
                if not self.check(
                        status == 202 and doc.get("id") == job_id,
                        f"re-submit answered {status} id {doc.get('id')}"):
                    return
            status, doc = http("GET", f"{self.base_url}/jobs/{job_id}")
            self.check(status == 200 and result_bytes(doc) == first,
                       f"job {job_id[:12]} no longer returns the bytes of "
                       f"its first completion (HTTP {status})")

    def _client_loop(self, client: dict, t_end: float) -> None:
        n = 0
        while time.perf_counter() < t_end:
            kind, u = next(client["ops"])
            if kind == "cold" or not client["done"]:
                self._cold(client)
            else:
                self._hit(client, u, resubmit=kind == "hit")
            n += 1
        with self._lock:
            self.slice_ops += n

    def repeat(self, i: int) -> Dict[str, float]:
        c = self.c
        if not self.warmed:
            # Fill each client's completed set before timing: a hit needs
            # something to hit.
            for k, client in enumerate(self.clients):
                for _ in range(c["warm"] // len(self.clients)):
                    self._cold(client, kind=None)
                first = json.loads(client["done"][0][2])
                self.check_pinned(f"warm[{k}]", first["checksum"])
            self.warmed = True
        before = {k: len(v) for k, v in self.latencies.items()}
        self.slice_ops = 0
        t0 = time.perf_counter()
        threads = [threading.Thread(target=self._client_loop,
                                    args=(client, t0 + c["slice_s"]))
                   for client in self.clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        return {"primary": len(self.latencies["primary"]) - before["primary"],
                "primary_wall": wall,
                "secondary": (len(self.latencies["secondary"])
                              - before["secondary"]),
                "secondary_wall": wall, "ops": self.slice_ops, "wall": wall}

    # -- end-of-run checks and probes ------------------------------------------

    def _totals(self) -> Dict[str, int]:
        stats = [n.sched.stats() for n in self.nodes]
        return {k: sum(s[k] for s in stats)
                for k in ("executed", "submitted", "deduplicated", "failed",
                          "retries")}

    def finish(self) -> None:
        totals = self._totals()
        self.counts["service.executed"] = totals["executed"]
        self.verify(totals["executed"] == self.fresh,
                    f"nodes executed {totals['executed']} jobs for "
                    f"{self.fresh} fresh specs")
        self.verify(totals["failed"] == 0 and totals["retries"] == 0,
                    f"nodes saw {totals['failed']} failures, "
                    f"{totals['retries']} retries")
        alive = [n["state"] for n in self.registry.shard_map().nodes]
        self.verify(alive == ["alive"] * len(self.nodes),
                    f"node liveness flapped: {alive}")

    def _counter(self, name: str) -> float:
        from repro import telemetry

        series = telemetry.METRICS.snapshot().get(name, {}).get("series", [])
        return sum(entry.get("value", 0.0) for entry in series)

    def probes(self) -> Dict[str, float]:
        from repro import telemetry
        from repro.service import JobSpec, run_job

        t = self.tracer
        out = probes.solve_path_metrics(t)
        out["fdfd.iterations"] = self.c["iterations"]
        totals = self._totals()
        out["service.executed"] = totals["executed"]
        hits = [1e3 * x for x in self.latencies["primary"]]
        tail = stats.highest_percentile(len(hits)) or 50.0
        out["service.hit_tail_percentile"] = tail
        out["service.hit_tail_ms"] = stats.percentile(hits, tail)
        out["service.dedup_ratio"] = (
            totals["deduplicated"] / totals["submitted"])
        out["fleet.replications"] = self._counter(
            "repro_fleet_replications_total")
        out["fleet.failovers"] = self._counter("repro_fleet_failovers_total")
        self.verify(out["fleet.failovers"] == 0,
                    f"{out['fleet.failovers']} failovers on a healthy fleet")

        # One quiet client, one completed job: the same GET in process,
        # straight to the owning node, and through the gateway.
        _spec, job_id, first = self.clients[0]["done"][0]
        smap = self.registry.shard_map()
        owner = next(n for n in self.nodes
                     if n.sched.get(job_id) is not None)
        samples: Dict[str, List[float]] = {"call": [], "node": [], "gw": []}
        for _ in range(60):
            t0 = time.perf_counter()
            owner.sched.get(job_id).to_dict()
            t1 = time.perf_counter()
            http("GET", f"{owner.url}/jobs/{job_id}")
            t2 = time.perf_counter()
            _, doc = http("GET", f"{self.base_url}/jobs/{job_id}")
            t3 = time.perf_counter()
            samples["call"].append(t1 - t0)
            samples["node"].append(t2 - t1)
            samples["gw"].append(t3 - t2)
            self.verify(result_bytes(doc) == first,
                        "gateway read differs from the first completion")
        out["service.http_hop_ms"] = 1e3 * (
            median(samples["node"]) - median(samples["call"]))
        out["fleet.gateway_hop_ms"] = 1e3 * (
            median(samples["gw"]) - median(samples["node"]))
        t0 = time.perf_counter()
        for _ in range(2000):
            smap.owners(job_id)
        out["fleet.ring_lookup_us"] = 1e6 * (time.perf_counter() - t0) / 2000
        out.update(probes.store_probe(self.workdir))

        # telemetry on vs off around the same tiny solve, interleaved.
        spec = dict(self.base, wavelength=7.5)
        on, off = [], []
        t.enabled = False
        try:
            for k in range(40):
                telemetry.enable() if k % 2 else telemetry.disable()
                t0 = time.perf_counter()
                run_job(JobSpec(**spec))
                (on if k % 2 else off).append(time.perf_counter() - t0)
        finally:
            telemetry.enable()
            t.enabled = True
        out["telemetry.overhead_pct"] = 100.0 * (
            median(on) / median(off) - 1.0)
        return out

    def close(self) -> None:
        self.gateway.shutdown()
        self.gateway.server_close()
        self.gw_thread.join(timeout=5.0)
        self.registry.stop()
        for node in self.nodes:
            node.close()
