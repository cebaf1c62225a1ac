"""Tests for the persistent plan registry and the result store."""

import json
import os

from repro.machine import HASWELL_EP
from repro.service import PlanRegistry, ResultStore
from repro.service.registry import REGISTRY_VERSION
from repro.service.store import STORE_VERSION


def _tmp_has_no_tempfiles(root):
    return not [f for f in os.listdir(root) if f.endswith(".tmp")]


class TestRegistryKeys:
    def test_key_is_deterministic(self):
        k1 = PlanRegistry.key(HASWELL_EP, 64, 4)
        k2 = PlanRegistry.key(HASWELL_EP, 64, 4)
        assert k1 == k2

    def test_key_varies_with_inputs(self):
        base = PlanRegistry.key(HASWELL_EP, 64, 4)
        assert PlanRegistry.key(HASWELL_EP, 64, 8) != base
        assert PlanRegistry.key(HASWELL_EP, 96, 4) != base
        assert PlanRegistry.key(HASWELL_EP, 64, 4, tg_size=2) != base
        assert PlanRegistry.key(HASWELL_EP, 64, 4, variant="spatial") != base

    def test_key_varies_with_machine(self):
        slow = HASWELL_EP.with_bandwidth(30.0)
        assert (PlanRegistry.key(slow, 64, 4)
                != PlanRegistry.key(HASWELL_EP, 64, 4))


class TestRegistryGetOrTune:
    def test_miss_tunes_then_hits(self):
        reg = PlanRegistry()
        point, hit = reg.get_or_tune(HASWELL_EP, 16, 2)
        assert not hit and point is not None
        point2, hit2 = reg.get_or_tune(HASWELL_EP, 16, 2)
        assert hit2
        assert (point2.dw, point2.bz) == (point.dw, point.bz)
        c = reg.counters()
        assert c["hits"] == 1 and c["misses"] == 1 and c["stores"] == 1
        assert c["entries"] == 1

    def test_infeasible_point_is_memoized(self):
        # grid 8 < MIN_X_CHUNK: tuner returns None; the negative result
        # must be cached too (no re-tuning on every request).
        reg = PlanRegistry()
        point, hit = reg.get_or_tune(HASWELL_EP, 8, 2)
        assert point is None and not hit
        point2, hit2 = reg.get_or_tune(HASWELL_EP, 8, 2)
        assert point2 is None and hit2
        assert reg.counters()["stores"] == 1

    def test_persistence_across_instances(self, tmp_path):
        root = str(tmp_path)
        reg = PlanRegistry(root)
        point, hit = reg.get_or_tune(HASWELL_EP, 16, 2)
        assert not hit and point is not None
        assert _tmp_has_no_tempfiles(root)

        fresh = PlanRegistry(root)  # a restarted service
        point2, hit2 = fresh.get_or_tune(HASWELL_EP, 16, 2)
        assert hit2 and point2 == point  # every float round-trips exactly
        assert fresh.counters()["misses"] == 0

    def test_corrupt_file_reads_as_miss(self, tmp_path):
        root = str(tmp_path)
        key = PlanRegistry.key(HASWELL_EP, 16, 2)
        with open(os.path.join(root, f"plan-{key}.json"), "w") as f:
            f.write('{"version":')  # torn write from a foreign process
        reg = PlanRegistry(root)
        assert reg.lookup(key) is None

    def test_version_mismatch_reads_as_miss(self, tmp_path):
        root = str(tmp_path)
        key = PlanRegistry.key(HASWELL_EP, 16, 2)
        with open(os.path.join(root, f"plan-{key}.json"), "w") as f:
            json.dump({"version": REGISTRY_VERSION + 1, "key": key,
                       "point": {"bogus": True}, "meta": {}}, f)
        assert PlanRegistry(root).lookup(key) is None

    def test_undecodable_plan_is_retuned_not_raised(self, tmp_path):
        """A current-version plan without a checksum whose point does not
        decode reads as a miss: it is not listed, and the next request
        re-tunes and overwrites it."""
        root = str(tmp_path)
        key = PlanRegistry.key(HASWELL_EP, 16, 2)
        path = os.path.join(root, f"plan-{key}.json")
        with open(path, "w") as f:
            json.dump({"version": REGISTRY_VERSION, "key": key,
                       "point": {"bogus": True}, "meta": {}}, f)
        reg = PlanRegistry(root)
        assert reg.entries() == [] and reg.counters()["entries"] == 0
        point, hit = reg.get_or_tune(HASWELL_EP, 16, 2)
        assert not hit and point is not None
        fresh = PlanRegistry(root)
        assert fresh.get_or_tune(HASWELL_EP, 16, 2) == (point, True)
        assert [e["key"] for e in fresh.entries()] == [key]

    def test_concurrent_requests_tune_once(self):
        """Single-flight: N workers racing on one fresh key must produce
        exactly one tuning (one miss, one store) -- the campaign's
        'compile once, serve many' guarantee under concurrency."""
        import threading

        reg = PlanRegistry()
        barrier = threading.Barrier(4)
        results = []

        def ask():
            barrier.wait()
            results.append(reg.get_or_tune(HASWELL_EP, 16, 2))

        threads = [threading.Thread(target=ask) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert len(results) == 4
        plans = {(p.dw, p.bz) for p, _hit in results}
        assert len(plans) == 1  # everyone got the same winner
        c = reg.counters()
        assert c["misses"] == 1 and c["stores"] == 1 and c["hits"] == 3

    def test_merge_counters(self):
        reg = PlanRegistry()
        reg.merge_counters({"hits": 3, "misses": 1, "stores": 1})
        c = reg.counters()
        assert c["hits"] == 3 and c["misses"] == 1 and c["stores"] == 1

    def test_entries_listing(self, tmp_path):
        reg = PlanRegistry(str(tmp_path))
        reg.get_or_tune(HASWELL_EP, 16, 2)
        reg.get_or_tune(HASWELL_EP, 8, 2)  # infeasible entry
        entries = PlanRegistry(str(tmp_path)).entries()  # read from disk
        assert len(entries) == 2
        by_grid = {e["meta"]["grid"]: e for e in entries}
        good = by_grid[16]
        assert good["feasible"] and good["point"]["dw"] >= 4
        assert good["point"]["mlups"] > 0
        assert not by_grid[8]["feasible"] and by_grid[8]["point"] is None

    def test_entries_list_only_plans_lookup_serves(self, tmp_path):
        root = str(tmp_path)
        PlanRegistry(root).get_or_tune(HASWELL_EP, 16, 2)
        key = PlanRegistry.key(HASWELL_EP, 16, 2)
        path = os.path.join(root, f"plan-{key}.json")
        with open(path) as f:
            doc = json.load(f)
        doc["meta"]["grid"] = 32  # edited in place: the checksum is stale
        with open(path, "w") as f:
            json.dump(doc, f)
        other = PlanRegistry.key(HASWELL_EP, 8, 2)
        with open(os.path.join(root, f"plan-{other}.json"), "w") as f:
            json.dump({"version": REGISTRY_VERSION + 1, "key": other,
                       "point": None, "meta": {"grid": 8}}, f)
        assert PlanRegistry(root).entries() == []
        assert PlanRegistry(root).counters()["entries"] == 0
        assert PlanRegistry(root).lookup(key) is None
        assert PlanRegistry(root).lookup(other) is None


class TestResultStore:
    def test_roundtrip_and_counters(self):
        store = ResultStore()
        assert store.get("abc") is None
        store.put("abc", {"kind": "solve", "x": 1.5})
        assert store.get("abc") == {"kind": "solve", "x": 1.5}
        assert "abc" in store and len(store) == 1
        c = store.counters()
        assert c == {"hits": 1, "misses": 1, "puts": 1,
                     "replica_puts": 0, "entries": 1}

    def test_floats_roundtrip_exactly(self, tmp_path):
        # Served results must compare equal to fresh executions; JSON
        # float repr round-trips IEEE doubles exactly.
        store = ResultStore(str(tmp_path))
        payload = {"residual": 1.2345678901234567e-11, "absorbed": 0.1 + 0.2}
        store.put("job", payload)
        assert ResultStore(str(tmp_path)).get("job") == payload

    def test_persistence_across_instances(self, tmp_path):
        root = str(tmp_path)
        ResultStore(root).put("deadbeef", {"ok": True})
        assert _tmp_has_no_tempfiles(root)
        fresh = ResultStore(root)
        assert fresh.get("deadbeef") == {"ok": True}
        assert "deadbeef" in fresh
        assert fresh.ids() == ["deadbeef"]

    def test_corrupt_and_mismatched_files_miss(self, tmp_path):
        root = str(tmp_path)
        with open(os.path.join(root, "result-torn.json"), "w") as f:
            f.write('{"version"')
        with open(os.path.join(root, "result-old.json"), "w") as f:
            json.dump({"version": STORE_VERSION + 1, "id": "old",
                       "result": {}}, f)
        with open(os.path.join(root, "result-bare.json"), "w") as f:
            json.dump({"version": STORE_VERSION, "id": "bare"}, f)
        store = ResultStore(root)
        assert store.get("torn") is None
        assert store.get("old") is None
        assert store.get("bare") is None and "bare" not in store
        assert store.counters()["misses"] == 3
        assert store.ids() == []


class TestOneDocumentFormat:
    """Both stores persist through one document store: the result store
    lists exactly the documents it serves (the registry's listing is
    held above), and a read fault on a document that is not there leaves
    nothing behind."""

    def test_the_store_lists_exactly_what_it_serves(self, tmp_path):
        root = str(tmp_path)
        ResultStore(root).put("good", {"ok": True})
        with open(os.path.join(root, "result-old.json"), "w") as f:
            json.dump({"version": STORE_VERSION + 1, "id": "old",
                       "result": {}}, f)
        with open(os.path.join(root, "result-torn.json"), "w") as f:
            f.write('{"version"')
        names = ("good", "old", "torn")
        assert ResultStore(root).ids() == ["good"]  # quarantines the torn one
        assert len(ResultStore(root)) == 1
        assert ResultStore(root).counters()["entries"] == 1
        assert [i for i in names if i in ResultStore(root)] == ["good"]
        assert [i for i in names
                if ResultStore(root).get(i) is not None] == ["good"]

    def test_a_read_fault_on_a_missing_document_writes_nothing(
            self, tmp_path):
        from repro.resilience import faults

        for site in ("registry.read", "store.read"):
            root = tmp_path / site
            faults.install(faults.FaultPlan.parse(f"{site}:corrupt:0:*"))
            try:
                if site == "registry.read":
                    assert PlanRegistry(str(root)).lookup("absent") is None
                else:
                    assert ResultStore(str(root)).get("absent") is None
                assert faults.active().fired() == [f"{site}:corrupt:0:*"]
            finally:
                faults.uninstall()
            assert os.listdir(root) == []
