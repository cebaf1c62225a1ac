"""Unit tests of the consistent-hash ring: determinism, balance,
replica distinctness and the minimal-remap property membership changes
rely on."""

import pytest

from repro.fleet.ring import DEFAULT_VNODES, HashRing
from repro.service.jobs import JobSpec

NODES = ["http://127.0.0.1:9001", "http://127.0.0.1:9002",
         "http://127.0.0.1:9003"]


def _keys(n=400):
    """Content-hash-shaped keys (hex strings, like job ids)."""
    import hashlib

    return [hashlib.sha256(str(i).encode()).hexdigest()[:24]
            for i in range(n)]


class TestPlacement:
    def test_deterministic_across_instances(self):
        a, b = HashRing(NODES), HashRing(list(NODES))
        for key in _keys(50):
            assert a.owners(key) == b.owners(key)

    def test_member_order_does_not_matter(self):
        a = HashRing(NODES)
        b = HashRing(list(reversed(NODES)))
        for key in _keys(50):
            assert a.owners(key) == b.owners(key)

    def test_owners_are_distinct_members(self):
        ring = HashRing(NODES)
        for key in _keys(100):
            owners = ring.owners(key, n=2)
            assert len(owners) == 2
            assert len(set(owners)) == 2
            assert all(o in NODES for o in owners)

    def test_single_node_fleet_has_no_replica(self):
        ring = HashRing(NODES[:1])
        assert ring.owners("abc", n=2) == (NODES[0],)

    def test_home_is_first_owner(self):
        ring = HashRing(NODES)
        for key in _keys(20):
            assert ring.home(key) == ring.owners(key)[0]

    def test_empty_ring(self):
        ring = HashRing([])
        assert ring.owners("abc") == ()
        with pytest.raises(ValueError):
            ring.home("abc")

    def test_duplicate_members_collapse(self):
        ring = HashRing(NODES + NODES)
        assert len(ring) == len(NODES)

    def test_vnodes_validated(self):
        with pytest.raises(ValueError):
            HashRing(NODES, vnodes=0)


class TestBalance:
    def test_keyspace_roughly_even(self):
        """With 64 vnodes/member a 3-node ring splits a few hundred keys
        within a loose factor of the fair share."""
        counts = HashRing(NODES).assignment_counts(_keys(600))
        fair = 600 / len(NODES)
        for member, count in counts.items():
            assert count > fair / 3, (member, counts)
            assert count < fair * 3, (member, counts)

    def test_real_job_ids_spread(self):
        """Actual content-addressed job ids (wavelength sweep) land on
        more than one node: a batch's points, each its own job on its
        home, spread over the fleet."""
        ring = HashRing(NODES)
        homes = {
            ring.home(JobSpec(kind="solve", preset="vacuum", grid=10,
                              wavelength=float(w), tol=1e-4,
                              max_steps=20).job_id)
            for w in range(10, 30)
        }
        assert len(homes) > 1


class TestMinimalRemap:
    def test_adding_a_node_moves_a_minority(self):
        keys = _keys(600)
        before = HashRing(NODES)
        after = HashRing(NODES + ["http://127.0.0.1:9004"])
        moved = sum(1 for k in keys if before.home(k) != after.home(k))
        # The classic property: ~1/(N+1) of the keyspace moves, and
        # everything that moved went to the new node.
        assert moved < len(keys) / 2
        for k in keys:
            if before.home(k) != after.home(k):
                assert after.home(k) == "http://127.0.0.1:9004"

    def test_removing_a_node_only_reassigns_its_keys(self):
        keys = _keys(600)
        before = HashRing(NODES)
        after = HashRing(NODES[:-1])
        for k in keys:
            if before.home(k) != NODES[-1]:
                assert after.home(k) == before.home(k)

    def test_default_vnodes(self):
        assert HashRing(NODES).vnodes == DEFAULT_VNODES
