"""End-to-end tests of the fleet tier: three real in-process serve
nodes behind a consistent-hash gateway.

Each node is a full ``Scheduler`` + ``ServiceServer`` pair on an
ephemeral port; the gateway routes by job content hash.  The tests
cover the fleet contract: gateway-served results are bit-identical to
direct ``run_job`` runs, dedup survives the extra hop, node death fails
over to the replica (bumping the shard-map version) with exactly-once
results, a batch scatters into its points -- each its own job on its
own home -- and gathers back losslessly, and the health endpoints expose
membership and staleness.  One test spawns real ``repro serve`` nodes:
they run the CLI's default worker mode unless a caller names one."""

import http.client
import json
import time
import urllib.request

import pytest

from conftest import (FAST, FleetNode, fleet_poll as _poll,
                      node_by_url as _node_by_url,
                      spec_homed_on as _spec_homed_on)
from repro.cli import build_parser
from repro.fleet import NodeRegistry, router, spawn_local_fleet
from repro.fleet.router import Router, http_request as _request, poll_job
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
    def _cross_shard_batch(self, fleet, k=4, start=10):
        """A batch whose points span at least two home shards."""
        smap = fleet.registry.shard_map()
        ws, homes = [], set()
        for w in range(start, 200):
            spec = JobSpec(**dict(FAST, wavelength=float(w)))
            ws.append(float(w))
            homes.add(smap.owners(spec.job_id)[0])
            if len(ws) >= k and len(homes) > 1:
                break
        assert len(homes) > 1
        base = {key: value for key, value in FAST.items()
                if key not in ("wavelength", "kind")}
        return JobSpec(kind="batch", wavelengths=tuple(ws), **base)

    def _served_points(self, fleet, batches=3):
        """Submit ``batches`` cross-shard batches through the gateway,
        poll each to done -> their point specs."""
        specs = [self._cross_shard_batch(fleet, start=10 + 10 * i)
                 for i in range(batches)]
        for spec in specs:
            assert _request("POST", f"{fleet.base}/jobs",
                            spec.to_dict())[0] == 202
        for spec in specs:
            assert _poll(fleet.base, spec.job_id)["state"] == "done"
        return [spec.point_spec(w) for spec in specs
                for w in spec.wavelengths]

    def test_cross_shard_batch_scatters_and_gathers(self, fleet):
        spec = self._cross_shard_batch(fleet)
        clean = run_job(spec)
        status, doc, _ = _request("POST", f"{fleet.base}/jobs",
                                  spec.to_dict())
        assert status == 202
        # The 202 envelope names every point and the home it went to.
        smap = fleet.registry.shard_map()
        assert [(p["id"], p["node"]) for p in doc["points"]] == [
            (p["id"], smap.owners(p["id"])[0]) for p in clean["points"]]
        assert len({p["node"] for p in doc["points"]}) > 1
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

    def test_a_batch_after_a_home_died_completes_identically(self, fleet):
        """A node dies mid-campaign: the next batch's points homed on it
        go to their replicas, and every point is the direct run's bytes."""
        spec = self._cross_shard_batch(fleet)
        clean = run_job(spec)
        victim = fleet.registry.shard_map().owners(
            spec.point_spec(spec.wavelengths[0]).job_id)[0]
        v0 = fleet.registry.version
        _node_by_url(fleet, victim).kill()
        status, doc, _ = _request("POST", f"{fleet.base}/jobs",
                                  spec.to_dict())
        assert status == 202
        assert victim not in {p["node"] for p in doc["points"]}
        got = _poll(fleet.base, spec.job_id)["result"]
        assert got["failed"] == 0
        assert [p["result"] for p in got["points"]] == \
            [p["result"] for p in clean["points"]]
        assert fleet.registry.node(victim).state == "dead"
        assert fleet.registry.version > v0

    def test_every_point_is_stored_on_its_home(self, fleet):
        smap = fleet.registry.shard_map()
        for point in self._served_points(fleet):
            owners = smap.owners(point.job_id)
            holders = {n.url for n in fleet.nodes
                       if n.sched.store.get(point.job_id) is not None}
            assert owners[0] in holders
            assert holders <= set(owners)

    def test_resubmitting_the_points_executes_nothing(self, fleet):
        points = self._served_points(fleet)
        executed = sum(n.sched.stats()["executed"] for n in fleet.nodes)
        for point in points:
            status, doc, _ = _request("POST", f"{fleet.base}/jobs",
                                      point.to_dict())
            assert status == 202
            assert _poll(fleet.base, doc["id"])["state"] == "done"
        assert sum(n.sched.stats()["executed"]
                   for n in fleet.nodes) == executed

    def test_a_dead_home_serves_the_point_from_the_replica(self, fleet):
        point = self._served_points(fleet, batches=1)[0]
        owners = fleet.registry.shard_map().owners(point.job_id)
        replica = _node_by_url(fleet, owners[1])
        executed = replica.sched.stats()["executed"]
        _node_by_url(fleet, owners[0]).kill()
        status, doc, _ = _request("GET", f"{fleet.base}/jobs/{point.job_id}")
        assert status == 200
        assert doc["from_store"] is True and doc["node"] == owners[1]
        assert doc["result"] == run_job(point)
        assert replica.sched.stats()["executed"] == executed

    def test_cancelling_a_batch_cancels_its_queued_points(self, fleet):
        for node in fleet.nodes:
            node.sched.stop()  # workers retire: every submit stays queued
        spec = self._cross_shard_batch(fleet)
        _request("POST", f"{fleet.base}/jobs", spec.to_dict())
        status, doc, _ = _request("DELETE",
                                  f"{fleet.base}/jobs/{spec.job_id}")
        assert status == 200
        assert [(p["id"], p["status"], p["state"]) for p in doc["points"]] \
            == [(spec.point_spec(w).job_id, 200, "cancelled")
                for w in spec.wavelengths]
        for w in spec.wavelengths:
            _, point, _ = _request(
                "GET", f"{fleet.base}/jobs/{spec.point_spec(w).job_id}")
            assert point["state"] == "cancelled"
        done = _poll(fleet.base, spec.job_id)["result"]
        assert done["failed"] == len(spec.wavelengths)
        assert all(p["error"] == "cancelled" for p in done["points"])

    def test_a_cancelled_batch_runs_when_resubmitted(self, fleet):
        for node in fleet.nodes:
            node.sched.stop()  # workers retire: every submit stays queued
        spec = self._cross_shard_batch(fleet)
        _request("POST", f"{fleet.base}/jobs", spec.to_dict())
        assert _request("DELETE", f"{fleet.base}/jobs/{spec.job_id}")[0] == 200
        for node in fleet.nodes:
            node.sched.start()
        executed = sum(n.sched.stats()["executed"] for n in fleet.nodes)
        assert _request("POST", f"{fleet.base}/jobs",
                        spec.to_dict())[0] == 202
        done = _poll(fleet.base, spec.job_id)["result"]
        assert (done["failed"], done["solved"]) == (0, len(spec.wavelengths))
        assert sum(n.sched.stats()["executed"]
                   for n in fleet.nodes) == executed + len(spec.wavelengths)

    @pytest.mark.parametrize("fleet", [{"spec_cache_size": 1}],
                             indirect=True)
    def test_an_evicted_batch_is_rebuilt_from_its_points(self, fleet):
        spec = self._cross_shard_batch(fleet)
        _request("POST", f"{fleet.base}/jobs", spec.to_dict())
        _poll(fleet.base, spec.job_id)
        _request("POST", f"{fleet.base}/jobs", FAST)  # evicts the batch
        assert _request("GET", f"{fleet.base}/jobs/{spec.job_id}")[0] == 404
        for w in spec.wavelengths:
            point_id = spec.point_spec(w).job_id
            assert _request("GET", f"{fleet.base}/jobs/{point_id}")[0] == 200
        executed = sum(n.sched.stats()["executed"] for n in fleet.nodes)
        assert _request("POST", f"{fleet.base}/jobs",
                        spec.to_dict())[0] == 202
        assert _poll(fleet.base, spec.job_id)["state"] == "done"
        assert sum(n.sched.stats()["executed"]
                   for n in fleet.nodes) == executed

    def test_scattered_batch_has_no_single_event_stream(self, fleet):
        spec = self._cross_shard_batch(fleet)
        _request("POST", f"{fleet.base}/jobs", spec.to_dict())
        status, doc, _ = _request(
            "GET", f"{fleet.base}/jobs/{spec.job_id}/events")
        assert status == 404
        assert doc["points"] == [spec.point_spec(w).job_id
                                 for w in spec.wavelengths]
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


class TestSpawnedNodes:
    def test_a_node_runs_the_serve_default_unless_a_mode_is_named(self):
        default = build_parser().parse_args(["serve"]).mode
        other = {"process": "thread", "thread": "process"}[default]
        for kwargs, mode in (({}, default), ({"mode": other}, other)):
            [node] = spawn_local_fleet(1, **kwargs)
            try:
                status, doc, _ = _request("GET",
                                          f"{node.url}/metrics?format=json")
            finally:
                node.kill()
            assert status == 200 and doc["scheduler"]["mode"] == mode


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


class TestNodeConnections:
    """The gateway's node hops reuse kept-alive connections: a node
    accepts one connection for many forwards, closing an idle one is not
    its death, and a stopped node's open connections die with it."""

    @pytest.fixture()
    def node(self):
        node = FleetNode(0)
        node.accepts = 0
        serve = node.server.process_request

        def counted(request, client_address):
            node.accepts += 1
            serve(request, client_address)

        node.server.process_request = counted
        yield node
        node.kill()

    @staticmethod
    def _router(node):
        registry = NodeRegistry([node.url], dead_after=1, timeout_s=10.0,
                                interval_s=3600.0)
        return registry, Router(registry)

    def test_sequential_forwards_open_one_connection(self, node):
        registry, hops = self._router(node)
        registry.check_once()
        for _ in range(10):
            assert hops.forward("GET", "/healthz", "job")[0] == 200
        assert node.accepts == 1

    def test_an_idle_connection_the_node_closed_is_not_its_death(self, node):
        node.server.request_timeout = 0.2
        registry, hops = self._router(node)
        registry.check_once()
        version = registry.version
        assert hops.forward("GET", "/healthz", "job")[0] == 200
        time.sleep(0.6)  # the node closes the pooled connection
        assert hops.forward("GET", "/healthz", "job")[0] == 200
        assert node.accepts == 2
        assert registry.node(node.url).state == "alive"
        assert registry.version == version  # no death, so no failover

    def test_kept_alive_round_trips_wait_on_no_delayed_ack(self, node):
        """Headers and body leave in two writes; with Nagle's algorithm on
        the node, the body waits ~40 ms for the client's delayed ACK."""
        conn = http.client.HTTPConnection("127.0.0.1", node.server.server_port,
                                          timeout=10.0)
        try:
            t0 = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200 and json.loads(resp.read())["ok"]
            elapsed = time.perf_counter() - t0
        finally:
            conn.close()
        assert node.accepts == 1
        assert elapsed < 20 * 0.040 / 2

    def test_an_unread_body_leaves_the_connection_usable(self, node):
        """A route that answers without reading the body (an unknown
        endpoint) must not leave the body to be parsed as the next
        request on a kept-alive connection."""
        conn = http.client.HTTPConnection("127.0.0.1", node.server.server_port,
                                          timeout=10.0)
        try:
            conn.request("POST", "/nowhere", body=json.dumps(FAST).encode(),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 404 and b"no such endpoint" in resp.read()
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200 and json.loads(resp.read())["ok"]
        finally:
            conn.close()
        assert node.accepts == 1

    def test_a_pooled_hop_fails_over_after_a_kill(self, fleet):
        victim = fleet.nodes[0]
        spec = _spec_homed_on(fleet, victim.url)
        clean = run_job(spec)
        _, doc, _ = _request("POST", f"{fleet.base}/jobs", spec.to_dict())
        _poll(fleet.base, doc["id"])
        port = int(victim.url.rsplit(":", 1)[1])
        assert router._IDLE.get(("127.0.0.1", port))  # the hop stayed open
        victim.kill()
        done = _poll(fleet.base, doc["id"])
        assert done["result"] == clean
        assert done["node"] != victim.url
        assert fleet.registry.node(victim.url).state == "dead"
