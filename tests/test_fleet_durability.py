"""Fleet durability: persistent shard stores, write replication,
lease-based membership and gateway admission control.

The layers under test, bottom-up: token buckets and the retry budget
(deterministic with an injected clock), lease files and lease-derived
membership, the result store's replica/torn-write behaviour, the node
HTTP server's replication endpoint and store-fallback reads, and the
gateway end-to-end -- replication on done-polls, replica promotion after
owner death, per-tenant 429s, retry-budget 503s, spec-cache LRU bounds
and the concurrent-failover race."""

import threading
import time

import pytest

from conftest import (FAST, FleetNode as _Node, fleet_poll as _poll,
                      node_by_url as _node_by_url,
                      spec_homed_on as _spec_homed_on)
from repro import telemetry
from repro.fleet import (ALIVE, DEAD, LeaseHeartbeat, NodeRegistry,
                         RetryBudget, TenantQuotas, TokenBucket,
                         clear_lease, make_gateway, read_leases,
                         write_lease)
from repro.fleet.admission import TENANT_HEADER
from repro.fleet.router import http_request as _request
from repro.ioutil import corrupt_file
from repro.service import JobSpec, ResultStore, run_job


class _Clock:
    """Injectable monotonic clock: bucket math without sleeping."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


# -- admission control (unit) --------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = _Clock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.try_take() == (True, 0.0)
        assert bucket.try_take() == (True, 0.0)
        ok, retry_after = bucket.try_take()
        assert not ok and retry_after == pytest.approx(1.0)
        clock.advance(1.0)
        assert bucket.try_take()[0]

    def test_zero_rate_is_unlimited(self):
        bucket = TokenBucket(rate=0.0, burst=0.0, clock=_Clock())
        assert all(bucket.try_take()[0] for _ in range(100))
        assert bucket.available() == float("inf")

    def test_tokens_cap_at_burst(self):
        clock = _Clock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        clock.advance(100.0)
        assert bucket.available() == pytest.approx(3.0)


class TestTenantQuotas:
    def test_over_quota_tenant_does_not_affect_others(self):
        clock = _Clock()
        quotas = TenantQuotas(rate=0.5, burst=1.0, clock=clock)
        assert quotas.try_take("alice")[0]
        ok, retry_after = quotas.try_take("alice")
        assert not ok and retry_after == pytest.approx(2.0)
        assert quotas.try_take("bob")[0]  # own bucket, untouched

    def test_disabled_admits_everyone(self):
        quotas = TenantQuotas(rate=0.0, clock=_Clock())
        assert not quotas.enabled
        assert quotas.try_take(None)[0]

    def test_default_burst_admits_at_least_one(self):
        quotas = TenantQuotas(rate=0.001, clock=_Clock())
        assert quotas.burst == 1.0
        assert quotas.try_take("t")[0]
        assert not quotas.try_take("t")[0]


class TestRetryBudget:
    def test_budget_exhausts_and_refills(self):
        clock = _Clock()
        budget = RetryBudget(per_minute=2.0, clock=clock)
        assert budget.enabled
        assert budget.try_take() and budget.try_take()
        assert not budget.try_take()
        clock.advance(30.0)  # one token back at 2/min
        assert budget.try_take()
        assert not budget.try_take()

    def test_disabled_budget_never_blocks(self):
        budget = RetryBudget(per_minute=0.0, clock=_Clock())
        assert not budget.enabled
        assert all(budget.try_take() for _ in range(100))


# -- lease files (unit) --------------------------------------------------------


class TestLeases:
    def test_roundtrip_fresh(self, tmp_path):
        lease_dir = str(tmp_path)
        write_lease(lease_dir, "node0", "http://h:1/", ttl_s=5.0)
        leases = read_leases(lease_dir)
        assert leases == {"http://h:1": {
            "node_id": "node0", "fresh": True,
            "age_s": leases["http://h:1"]["age_s"], "ttl_s": 5.0}}
        assert leases["http://h:1"]["age_s"] < 5.0

    def test_expiry_is_a_function_of_now(self, tmp_path):
        lease_dir = str(tmp_path)
        write_lease(lease_dir, "node0", "http://h:1", ttl_s=5.0)
        now = time.time()
        assert read_leases(lease_dir, now=now)["http://h:1"]["fresh"]
        stale = read_leases(lease_dir, now=now + 6.0)["http://h:1"]
        assert not stale["fresh"]

    def test_clear_lease(self, tmp_path):
        lease_dir = str(tmp_path)
        write_lease(lease_dir, "node0", "http://h:1")
        assert clear_lease(lease_dir, "node0")
        assert read_leases(lease_dir) == {}
        assert not clear_lease(lease_dir, "node0")  # already gone

    def test_corrupt_lease_quarantines_and_reads_absent(self, tmp_path):
        lease_dir = str(tmp_path)
        path = write_lease(lease_dir, "node0", "http://h:1")
        corrupt_file(path)
        assert read_leases(lease_dir) == {}
        assert (tmp_path / (path.split("/")[-1] + ".corrupt")).exists()

    def test_freshest_writer_wins_per_url(self, tmp_path):
        lease_dir = str(tmp_path)
        write_lease(lease_dir, "old-proc", "http://h:1", ttl_s=500.0)
        time.sleep(0.02)
        write_lease(lease_dir, "new-proc", "http://h:1", ttl_s=500.0)
        assert read_leases(lease_dir)["http://h:1"]["node_id"] == "new-proc"

    def test_heartbeat_refreshes_and_clears_on_stop(self, tmp_path):
        lease_dir = str(tmp_path)
        hb = LeaseHeartbeat(lease_dir, "node0", "http://h:1",
                            ttl_s=0.3).start()
        try:
            assert read_leases(lease_dir)["http://h:1"]["fresh"]
            time.sleep(0.5)  # several beats; the lease must stay fresh
            assert read_leases(lease_dir)["http://h:1"]["fresh"]
        finally:
            hb.stop(clear=True)
        assert read_leases(lease_dir) == {}  # graceful leave


# -- lease-derived membership --------------------------------------------------


class TestLeaseMembership:
    def test_fresh_lease_joins_and_bumps_version(self, tmp_path):
        lease_dir = str(tmp_path)
        registry = NodeRegistry([], lease_dir=lease_dir)
        assert registry.urls == []
        write_lease(lease_dir, "node0", "http://h:1", ttl_s=500.0)
        v0 = registry.version
        registry.sync_leases()
        assert registry.urls == ["http://h:1"]
        assert registry.version > v0
        assert "http://h:1" in registry.shard_map().owners("somejob")

    def test_removed_lease_leaves_membership(self, tmp_path):
        lease_dir = str(tmp_path)
        write_lease(lease_dir, "node0", "http://h:1", ttl_s=500.0)
        registry = NodeRegistry([], lease_dir=lease_dir)
        assert registry.urls == ["http://h:1"]
        clear_lease(lease_dir, "node0")
        v0 = registry.version
        registry.sync_leases()
        assert registry.urls == [] and registry.version > v0

    def test_expired_lease_marks_dead_but_keeps_placement(self, tmp_path):
        lease_dir = str(tmp_path)
        write_lease(lease_dir, "node0", "http://h:1", ttl_s=0.05)
        registry = NodeRegistry([], lease_dir=lease_dir)
        assert registry.node("http://h:1").state == ALIVE
        time.sleep(0.1)
        v0 = registry.version
        registry.sync_leases()
        node = registry.node("http://h:1")
        assert node.state == DEAD and registry.version > v0
        # Placement survives: the ring still owns the shard, so a
        # reboot under the same URL serves its old shard warm.
        assert "http://h:1" in registry.shard_map().owners("somejob")

    def test_static_urls_survive_missing_leases(self, tmp_path):
        registry = NodeRegistry(["http://static:1"],
                                lease_dir=str(tmp_path))
        registry.sync_leases()
        assert registry.urls == ["http://static:1"]

    def test_no_urls_and_no_lease_dir_raises(self):
        with pytest.raises(ValueError):
            NodeRegistry([])


# -- result store: replicas + torn writes --------------------------------------


class TestReplicaStore:
    def test_put_replica_stores_with_provenance(self, tmp_path):
        store = ResultStore(str(tmp_path), node_id="replica")
        assert store.put_replica("abc", {"x": 1}, replicated_from="http://o")
        doc = store.get_doc("abc")
        assert doc["result"] == {"x": 1}
        assert doc["node"] == "replica"
        assert doc["replicated_from"] == "http://o"
        assert store.counters()["replica_puts"] == 1
        # Persisted: a fresh instance reads it back from disk.
        assert ResultStore(str(tmp_path)).get("abc") == {"x": 1}

    def test_put_replica_is_idempotent_and_local_doc_wins(self):
        store = ResultStore(node_id="home")
        store.put("abc", {"x": 1})
        assert not store.put_replica("abc", {"x": 1}, replicated_from="u")
        assert store.get_doc("abc").get("replicated_from") is None
        assert store.counters()["replica_puts"] == 0
        assert not store.put_replica("abc", {"x": 1})  # repeat: still no-op

    def test_torn_write_quarantines_and_recomputes_identically(
            self, tmp_path):
        spec = JobSpec(**FAST)
        first = run_job(spec)
        root = str(tmp_path)
        ResultStore(root).put(spec.job_id, first)
        # A foreign process tears the committed file mid-write.
        path = f"{root}/result-{spec.job_id}.json"
        with open(path, "w") as f:
            f.write('{"version": 1, "id": "')
        fresh = ResultStore(root)
        assert fresh.get(spec.job_id) is None  # miss, not garbage
        import os

        assert os.path.exists(path + ".corrupt")
        assert run_job(spec) == first  # recompute is bit-identical


# -- node server: replication endpoint + store-fallback reads ------------------


class TestNodeReplicaEndpoints:
    @pytest.fixture()
    def node(self):
        node = _Node(0)
        try:
            yield node
        finally:
            node.kill()

    def test_put_requires_replication_header(self, node):
        status, doc, _ = _request("PUT", f"{node.url}/results/abc",
                                  payload={"result": {"x": 1}})
        assert status == 403

    def test_put_requires_result_payload(self, node):
        status, doc, _ = _request("PUT", f"{node.url}/results/abc",
                                  payload={"nope": 1},
                                  headers={"X-Repro-Replicate": "1"})
        assert status == 400

    def test_put_then_store_fallback_get(self, node):
        status, doc, _ = _request(
            "PUT", f"{node.url}/results/abc",
            payload={"result": {"x": 1}, "node": "http://origin:1"},
            headers={"X-Repro-Replicate": "1"})
        assert status == 200 and doc == {"id": "abc", "stored": True,
                                         "dedup": False}
        # The node never ran job "abc", yet serves it from its store.
        status, doc, _ = _request("GET", f"{node.url}/jobs/abc")
        assert status == 200
        assert doc["state"] == "done" and doc["from_store"] is True
        assert doc["result"] == {"x": 1}
        assert doc["replicated_from"] == "http://origin:1"
        assert node.sched.stats()["executed"] == 0

    def test_duplicate_put_dedups(self, node):
        headers = {"X-Repro-Replicate": "1"}
        _request("PUT", f"{node.url}/results/abc",
                 payload={"result": {"x": 1}}, headers=headers)
        status, doc, _ = _request("PUT", f"{node.url}/results/abc",
                                  payload={"result": {"x": 1}},
                                  headers=headers)
        assert status == 200 and doc["dedup"] is True
        assert node.sched.store.counters()["replica_puts"] == 1


# -- gateway: write replication + replica promotion ----------------------------


class TestReplication:
    def test_done_poll_replicates_to_the_other_owner(self, fleet):
        telemetry.fleet_replications()
        before = telemetry.METRICS.get_value(
            "fleet_replications_total", labels=("ok",))
        _, doc, _ = _request("POST", f"{fleet.base}/jobs", FAST)
        done = _poll(fleet.base, doc["id"])
        owners = fleet.registry.shard_map().owners(doc["id"])
        replica = _node_by_url(fleet, owners[1])
        stored = replica.sched.store.get_doc(doc["id"])
        assert stored is not None
        assert stored["result"] == done["result"]
        assert stored["replicated_from"] == owners[0]
        assert replica.sched.store.counters()["replica_puts"] == 1
        assert telemetry.METRICS.get_value(
            "fleet_replications_total", labels=("ok",)) - before >= 1

    def test_replica_promotion_serves_store_hit_bit_identically(self, fleet):
        spec = JobSpec(**FAST)
        clean = run_job(spec)
        _, doc, _ = _request("POST", f"{fleet.base}/jobs", spec.to_dict())
        _poll(fleet.base, doc["id"])  # done-poll replicates
        owners = fleet.registry.shard_map().owners(doc["id"])
        replica = _node_by_url(fleet, owners[1])
        executed_before = replica.sched.stats()["executed"]
        v0 = fleet.registry.version

        _node_by_url(fleet, owners[0]).kill()
        status, promoted, _ = _request("GET",
                                       f"{fleet.base}/jobs/{doc['id']}")
        assert status == 200
        assert promoted["result"] == clean  # bit-identical, no recompute
        assert promoted["from_store"] is True
        assert promoted["node"] == owners[1]
        assert replica.sched.stats()["executed"] == executed_before
        assert fleet.registry.version == v0 + 1  # exactly one bump


# -- gateway: admission control ------------------------------------------------


class TestGatewayQuotas:
    # ~0 refill: the single burst token is all a tenant gets.
    @pytest.mark.parametrize(
        "fleet", [{"quota": 0.001, "quota_burst": 1.0}], indirect=True)
    def test_over_quota_tenant_429_others_proceed(self, fleet):
        telemetry.fleet_quota_rejections()
        before = telemetry.METRICS.get_value("fleet_quota_rejections_total")
        alice = {TENANT_HEADER: "alice"}
        status, doc, _ = _request("POST", f"{fleet.base}/jobs", FAST,
                                  headers=alice)
        assert status == 202
        status, doc, headers = _request(
            "POST", f"{fleet.base}/jobs",
            dict(FAST, wavelength=11.0), headers=alice)
        assert status == 429
        assert doc["kind"] == "QuotaExceeded"
        assert doc["details"]["tenant"] == "alice"
        assert int(headers["Retry-After"]) >= 1
        # A different tenant -- and the anonymous bucket -- are untouched.
        status, _, _ = _request("POST", f"{fleet.base}/jobs",
                                dict(FAST, wavelength=12.0),
                                headers={TENANT_HEADER: "bob"})
        assert status == 202
        status, _, _ = _request("POST", f"{fleet.base}/jobs",
                                dict(FAST, wavelength=13.0))
        assert status == 202
        assert telemetry.METRICS.get_value(
            "fleet_quota_rejections_total") - before == 1

    def test_quota_disabled_by_default(self, fleet):
        for w in (10.0, 11.0, 12.0, 13.0, 14.0):
            status, _, _ = _request("POST", f"{fleet.base}/jobs",
                                    dict(FAST, wavelength=w),
                                    headers={TENANT_HEADER: "burst"})
            assert status == 202


class TestGatewayRetryBudget:
    @pytest.mark.parametrize("fleet", [{"retry_budget": 1.0}],
                             indirect=True)
    def test_exhausted_budget_stops_failover_loops(self, fleet):
        spec = JobSpec(**FAST)
        owners = fleet.registry.shard_map().owners(spec.job_id)
        for url in owners:
            _node_by_url(fleet, url).kill()
        telemetry.fleet_retry_budget_spent()
        before = telemetry.METRICS.get_value(
            "fleet_retry_budget_spent_total")
        # First lookup: one failover hop is bought from the budget.
        status, doc, headers = _request(
            "GET", f"{fleet.base}/jobs/{spec.job_id}")
        assert status == 503 and headers.get("Retry-After")
        # Second lookup: the budget is dry -- the chain aborts instead
        # of hammering the fleet, visibly so.
        status, doc, _ = _request("GET",
                                  f"{fleet.base}/jobs/{spec.job_id}")
        assert status == 503
        assert doc["details"].get("budget_exhausted") is True
        assert telemetry.METRICS.get_value(
            "fleet_retry_budget_spent_total") - before == 1


class TestSpecCacheLRU:
    def test_lru_eviction_counts_and_recall_refreshes(self):
        was_enabled = telemetry.enabled()
        telemetry.enable()
        registry = NodeRegistry(["http://h:1"])
        gw = make_gateway(registry, spec_cache_size=2)
        try:
            telemetry.fleet_spec_cache_evictions()
            before = telemetry.METRICS.get_value(
                "fleet_spec_cache_evictions_total")
            gw.remember_spec("a", {"n": 1})
            gw.remember_spec("b", {"n": 2})
            assert gw.recall_spec("a") == {"n": 1}  # refreshes a over b
            gw.remember_spec("c", {"n": 3})
            assert gw.recall_spec("b") is None  # LRU victim was b, not a
            assert gw.recall_spec("a") == {"n": 1}
            assert telemetry.METRICS.get_value(
                "fleet_spec_cache_evictions_total") - before == 1
        finally:
            gw.server_close()
            if not was_enabled:
                telemetry.disable()


# -- durability races ----------------------------------------------------------


class TestConcurrentSolves:
    def test_concurrent_same_shape_solves_stay_bit_identical(self):
        """Regression: the kernel scratch pool was module-global, so two
        same-shaped solves running concurrently (a node with workers>1,
        or several in-process schedulers) raced on shared buffers and
        corrupted each other's numerics.  The pool is thread-local now."""
        specs = [JobSpec(**dict(FAST, wavelength=w, max_steps=40))
                 for w in (10.0, 11.0, 12.0, 13.0)]
        clean = {s.job_id: run_job(s) for s in specs}
        results = {}

        def solve(spec):
            results[spec.job_id] = run_job(spec)

        threads = [threading.Thread(target=solve, args=(s,))
                   for s in specs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=90.0)
        assert results == clean


class TestConcurrentFailover:
    def test_racing_polls_after_owner_death_stay_exactly_once(self, fleet):
        """Two clients poll the same lost job concurrently: both resubmit
        through the gateway, the replica dedups on the content-addressed
        id, and the spec executes exactly once fleet-wide."""
        victim_url = fleet.nodes[0].url
        spec = _spec_homed_on(fleet, victim_url)
        clean = run_job(spec)
        _, doc, _ = _request("POST", f"{fleet.base}/jobs", spec.to_dict())
        assert doc["node"] == victim_url
        # Kill before completion can be observed: the job is lost with
        # the node's memory, so polls must race down the resubmit path.
        _node_by_url(fleet, victim_url).kill()

        results, errors = [], []

        def chase():
            try:
                results.append(_poll(fleet.base, spec.job_id))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=chase) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=90.0)
        assert not errors
        assert len(results) == 2
        for done in results:
            assert done["result"] == clean
        survivors = [n for n in fleet.nodes if not n.dead]
        assert sum(n.sched.stats()["executed"] for n in survivors) <= 1

    def test_a_resubmission_onto_a_finished_job_answers_its_result(
            self, fleet, monkeypatch):
        """The race above, made deterministic: the replica holds the
        result, the owner dies, and the poll's routed GET misses (as one
        that ran before the other poller's resubmission reached the
        replica).  The resubmission lands on the finished job, whose POST
        envelope carries no result; the gateway reads the job back, so
        the poll still gets the result, and nothing runs again."""
        victim_url = fleet.nodes[0].url
        spec = _spec_homed_on(fleet, victim_url)
        _request("POST", f"{fleet.base}/jobs", spec.to_dict())
        clean = _poll(fleet.base, spec.job_id)["result"]  # replicates it
        replica_url = next(u for u in fleet.gateway.router.candidates(spec.job_id)
                           if u != victim_url)
        replica = _node_by_url(fleet, replica_url)
        assert replica.sched.store.get(spec.job_id) == clean
        _node_by_url(fleet, victim_url).kill()

        router = fleet.gateway.router
        forward, missed = router.forward, []

        def first_get_misses(method, path, job_id, **kwargs):
            if method == "GET" and not missed:
                missed.append(path)
                return 404, {"error": f"no such job: {job_id}"}, replica_url
            return forward(method, path, job_id, **kwargs)

        monkeypatch.setattr(router, "forward", first_get_misses)
        status, doc, _ = _request("GET", f"{fleet.base}/jobs/{spec.job_id}")
        assert missed and status == 200
        assert doc["state"] == "done" and doc["result"] == clean
        assert replica.sched.stats()["executed"] == 0


class TestWarmRestart:
    def test_rebooted_node_serves_committed_results_from_store(
            self, tmp_path):
        """A node killed and restarted over the same data directory
        answers reads of its committed jobs from the persistent store:
        zero re-solves, bit-identical bytes, provenance preserved."""
        spec = JobSpec(**FAST)
        store_root = str(tmp_path / "results")
        node = _Node(0, store_root=store_root)
        try:
            status, doc, _ = _request("POST", f"{node.url}/jobs",
                                      spec.to_dict())
            assert status == 202
            done = _poll(node.url, spec.job_id)
        finally:
            node.kill()  # SIGKILL-equivalent: scheduler memory is gone

        reborn = _Node(0, store_root=store_root)
        try:
            status, warm, _ = _request("GET",
                                       f"{reborn.url}/jobs/{spec.job_id}")
            assert status == 200
            assert warm["from_store"] is True
            assert warm["result"] == done["result"]
            assert warm["computed_by"] == "node0"
            assert reborn.sched.stats()["executed"] == 0
        finally:
            reborn.kill()
