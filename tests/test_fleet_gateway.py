"""End-to-end tests of the fleet tier: three real in-process serve
nodes behind a consistent-hash gateway.

Each node is a full ``Scheduler`` + ``ServiceServer`` pair on an
ephemeral port; the gateway routes by job content hash.  The tests
cover the fleet contract: gateway-served results are bit-identical to
direct ``run_job`` runs, dedup survives the extra hop, node death fails
over to the replica (bumping the shard-map version) with exactly-once
results, cross-shard batches scatter and gather losslessly, and the
health endpoints expose membership and staleness."""

import json
import urllib.request

import pytest

from conftest import (FAST, fleet_poll as _poll, node_by_url as _node_by_url,
                      spec_homed_on as _spec_homed_on)
from repro.fleet import NodeRegistry
from repro.fleet.router import http_request as _request, poll_job
from repro.service import JobSpec, run_job


class TestRouting:
    def test_gateway_result_bit_identical_to_direct_run(self, fleet):
        status, doc, headers = _request("POST", f"{fleet.base}/jobs", FAST)
        assert status == 202
        assert headers.get("X-Repro-Gateway") == "1"
        # The gateway annotates the envelope with the owning node...
        home = fleet.registry.shard_map().owners(doc["id"])[0]
        assert doc["node"] == home
        done = _poll(fleet.base, doc["id"])
        # ...but the result payload is exactly the direct run's bytes.
        assert done["result"] == run_job(JobSpec(**FAST))

    def test_duplicate_submission_coalesces_through_gateway(self, fleet):
        _, first, _ = _request("POST", f"{fleet.base}/jobs", FAST)
        _, second, _ = _request("POST", f"{fleet.base}/jobs",
                                dict(FAST, priority=3))
        assert second["id"] == first["id"]
        assert second["dedup_count"] == 1
        _poll(fleet.base, first["id"])
        assert sum(n.sched.stats()["executed"] for n in fleet.nodes) == 1

    def test_specs_spread_over_nodes(self, fleet):
        smap = fleet.registry.shard_map()
        homes = {
            smap.owners(JobSpec(**dict(FAST, wavelength=float(w))).job_id)[0]
            for w in range(10, 40)
        }
        assert len(homes) > 1

    def test_invalid_spec_rejected_at_gateway(self, fleet):
        status, doc, _ = _request("POST", f"{fleet.base}/jobs",
                                  dict(FAST, kind="dance"))
        assert status == 400 and "invalid job spec" in doc["error"]

    def test_unknown_job_404(self, fleet):
        status, doc, _ = _request(
            "GET", f"{fleet.base}/jobs/ffffffffffffffffffffffff")
        assert status == 404

    def test_cancel_unknown_404(self, fleet):
        assert _request("DELETE", f"{fleet.base}/jobs/feedface")[0] == 404

    def test_merged_job_listing(self, fleet):
        ids = set()
        for w in (10.0, 11.0, 12.0, 13.0):
            _, doc, _ = _request("POST", f"{fleet.base}/jobs",
                                 dict(FAST, wavelength=w))
            ids.add(doc["id"])
        status, doc, _ = _request("GET", f"{fleet.base}/jobs")
        assert status == 200
        listed = {j["id"] for j in doc["jobs"]}
        assert ids <= listed
        assert all(j["node"] in {n.url for n in fleet.nodes}
                   for j in doc["jobs"])


class TestFailover:
    def test_node_death_fails_over_with_identical_result(self, fleet):
        victim_url = fleet.nodes[0].url
        spec = _spec_homed_on(fleet, victim_url)
        clean = run_job(spec)
        _, doc, _ = _request("POST", f"{fleet.base}/jobs", spec.to_dict())
        assert doc["node"] == victim_url
        _poll(fleet.base, doc["id"])

        v0 = fleet.registry.version
        _node_by_url(fleet, victim_url).kill()
        # The in-memory store died with the node; the gateway routes to
        # the replica, resubmits the cached spec, and the result comes
        # back byte-for-byte the same (exactly-once in results).
        done = _poll(fleet.base, doc["id"])
        assert done["result"] == clean
        assert done["node"] != victim_url
        assert fleet.registry.node(victim_url).state == "dead"
        assert fleet.registry.version > v0

    def test_all_owners_dead_is_503_with_retry_after(self, fleet):
        spec = JobSpec(**FAST)
        owners = fleet.registry.shard_map().owners(spec.job_id)
        for url in owners:
            _node_by_url(fleet, url).kill()
        status, doc, headers = _request(
            "GET", f"{fleet.base}/jobs/{spec.job_id}")
        assert status == 503
        assert headers.get("Retry-After")
        assert doc["kind"] == "NodeUnavailable"

    def test_test_poller_refuses_any_error_status(self, fleet):
        # What makes every `_poll` after a kill mean *transparent*
        # failover: the suite's poller raises on the first non-200,
        # where the package's default rides it out until the timeout.
        unknown = "ffffffffffffffffffffffff"
        with pytest.raises(RuntimeError, match="HTTP 404"):
            _poll(fleet.base, unknown)
        with pytest.raises(TimeoutError, match="HTTP 404"):
            poll_job(fleet.base, unknown, timeout=0.2)

    def test_healthz_reflects_death_and_revival_bumps_version(self, fleet):
        fleet.registry.mark_dead(fleet.nodes[2].url)
        v_dead = fleet.registry.version
        _, doc, _ = _request("GET", f"{fleet.base}/healthz")
        assert doc["ok"] is True and doc["alive"] == 2
        dead = [n for n in doc["nodes"] if n["state"] == "dead"]
        assert [n["url"] for n in dead] == [fleet.nodes[2].url]
        # The node is actually fine: the next heartbeat revives it and
        # bumps the version again.
        fleet.registry.check_once()
        assert fleet.registry.version > v_dead
        _, doc, _ = _request("GET", f"{fleet.base}/healthz")
        assert doc["alive"] == 3


class TestScatterGather:
    def _cross_shard_batch(self, fleet, k=4):
        """A batch whose points span at least two home shards."""
        smap = fleet.registry.shard_map()
        ws, homes = [], set()
        for w in range(10, 200):
            spec = JobSpec(**dict(FAST, wavelength=float(w)))
            ws.append(float(w))
            homes.add(smap.owners(spec.job_id)[0])
            if len(ws) >= k and len(homes) > 1:
                break
        assert len(homes) > 1
        base = {key: value for key, value in FAST.items()
                if key not in ("wavelength", "kind")}
        return JobSpec(kind="batch", wavelengths=tuple(ws), **base)

    def test_cross_shard_batch_scatters_and_gathers(self, fleet):
        spec = self._cross_shard_batch(fleet)
        clean = run_job(spec)
        status, doc, _ = _request("POST", f"{fleet.base}/jobs",
                                  spec.to_dict())
        assert status == 202
        assert doc["scatter"]["shards"] > 1
        done = _poll(fleet.base, spec.job_id)
        assert done["state"] == "done"
        got = done["result"]
        assert got["kind"] == "batch"
        assert got["batch_width"] == len(spec.wavelengths)
        assert got["solved"] + got["dedup_hits"] == len(spec.wavelengths)
        assert got["failed"] == 0
        # Per-point docs come back verbatim from their shards: the
        # result payloads are bit-identical to the unsplit batch's.
        assert [p["wavelength"] for p in got["points"]] == \
            [p["wavelength"] for p in clean["points"]]
        for mine, theirs in zip(got["points"], clean["points"]):
            assert mine["id"] == theirs["id"]
            assert mine["result"] == theirs["result"]

    def test_scattered_batch_has_no_single_event_stream(self, fleet):
        spec = self._cross_shard_batch(fleet)
        _request("POST", f"{fleet.base}/jobs", spec.to_dict())
        status, doc, _ = _request(
            "GET", f"{fleet.base}/jobs/{spec.job_id}/events")
        assert status == 404 and "scattered" in doc["error"]
        _poll(fleet.base, spec.job_id)


class TestEventsProxy:
    def test_stream_proxied_to_owning_node(self, fleet):
        _, doc, _ = _request("POST", f"{fleet.base}/jobs", FAST)
        events = []
        with urllib.request.urlopen(
                f"{fleet.base}/jobs/{doc['id']}/events",
                timeout=90.0) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            assert resp.headers["X-Repro-Gateway"] == "1"
            assert resp.headers["X-Repro-Node-Url"] in {
                n.url for n in fleet.nodes}
            for raw in resp:
                line = raw.decode().strip()
                if line:
                    events.append(json.loads(line))
        assert events and events[-1]["kind"] == "end"


class TestFleetIntrospection:
    def test_fleet_endpoint_exposes_shard_map(self, fleet):
        status, doc, _ = _request("GET", f"{fleet.base}/fleet")
        assert status == 200
        assert doc["version"] == fleet.registry.version
        assert doc["replicas"] == 2
        assert len(doc["nodes"]) == 3
        assert {n["node_id"] for n in doc["nodes"]} == \
            {"node0", "node1", "node2"}

    def test_healthz_shape(self, fleet):
        _, doc, _ = _request("GET", f"{fleet.base}/healthz")
        assert doc["role"] == "gateway"
        assert doc["ok"] is True
        assert doc["alive"] == 3 and doc["replicas"] == 2
        assert doc["shard_version"] == fleet.registry.version
        assert doc["stale"] == [] and doc["split_brain"] == []

    def test_metrics_json_rollup_includes_every_node(self, fleet):
        _, doc, _ = _request("POST", f"{fleet.base}/jobs", FAST)
        _poll(fleet.base, doc["id"])
        status, m, _ = _request("GET",
                                f"{fleet.base}/metrics?format=json")
        assert status == 200
        assert set(m["nodes"]) == {n.url for n in fleet.nodes}
        assert m["shard_version"] == fleet.registry.version
        assert all("scheduler" in rollup for rollup in m["nodes"].values())

    def test_metrics_prometheus_text(self, fleet):
        req = urllib.request.Request(f"{fleet.base}/metrics")
        with urllib.request.urlopen(req, timeout=30.0) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")


class TestRegistryUnit:
    def test_stale_and_split_brain_flags(self, fleet):
        url = fleet.nodes[0].url
        fleet.registry.mark_dead(fleet.nodes[1].url)  # bump the version
        current = fleet.registry.version
        fleet.registry.mark_alive(url, {"node_id": "node0",
                                        "shard_version": current - 1})
        assert fleet.registry.node(url).stale is True
        fleet.registry.mark_alive(url, {"node_id": "node0",
                                        "shard_version": current + 10})
        assert fleet.registry.node(url).split_brain is True
        _, doc, _ = _request("GET", f"{fleet.base}/healthz")
        assert url in doc["split_brain"]

    def test_replaced_node_id_bumps_version(self, fleet):
        url = fleet.nodes[0].url
        v0 = fleet.registry.version
        fleet.registry.mark_alive(url, {"node_id": "impostor"})
        assert fleet.registry.version > v0

    def test_registry_validates_urls(self):
        with pytest.raises(ValueError):
            NodeRegistry([])
        with pytest.raises(ValueError):
            NodeRegistry(["http://a", "http://a/"])
