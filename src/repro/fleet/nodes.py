"""Fleet membership: node liveness, heartbeats and the versioned shard map.

A :class:`NodeRegistry` tracks N ``repro serve`` base URLs.  A
background heartbeat thread (or an explicit :meth:`check_once` from
tests) probes each node's ``/healthz``, learning its stable ``node_id``
and the shard-map version the node last saw.  Any observable membership
event -- a node dying, reviving, or being replaced by a restarted
process with a new ``node_id`` -- bumps the shard-map ``version``, and
the router/gateway stamp that version onto every forwarded request
(``X-Repro-Shard-Version``) so nodes can echo it back:

* a node echoing an *older* version is **stale** (it has not heard from
  this gateway since the last membership change);
* a node echoing a *newer* version is **split-brain** (a second gateway
  with a different view of the fleet is talking to it).

Both conditions are surfaced through the gateway's ``/healthz`` and
``repro top`` rather than acted on automatically -- the fleet's source
of truth for routing is always the gateway's own registry.

Liveness is deliberately simple: ``dead_after`` consecutive probe
failures mark a node dead; one success revives it.  The router can also
report a connection failure directly (:meth:`mark_dead`) so a dead node
is failed over *immediately* rather than a heartbeat later.

Membership is either a static URL list, a shared lease directory
(``lease_dir`` -- see :mod:`repro.fleet.leases`), or both.  With a lease
directory, every :meth:`check_once` first syncs membership from the
lease files: a fresh lease for an unknown URL joins the ring, a removed
lease leaves it, and an expired lease marks the node dead (kept in the
ring so its shard placement survives a reboot).  Static URLs are
permanent members a missing lease never removes.  Every membership
event bumps the shard-map version, and nodes whose lease has expired
are *not* probed -- the lease is the liveness authority for its node,
which is what turns a partition (lease withheld) into clean stale
detection instead of a probe/lease tug-of-war.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import forksafe, telemetry
from .ring import DEFAULT_VNODES, HashRing

__all__ = ["NodeInfo", "NodeRegistry", "ShardMap",
           "ALIVE", "DEAD"]

ALIVE = "alive"
DEAD = "dead"


@dataclass
class NodeInfo:
    """Mutable per-node record inside the registry lock."""

    url: str
    node_id: Optional[str] = None
    state: str = ALIVE  # optimistic until a probe says otherwise
    fails: int = 0
    last_seen: Optional[float] = None
    shard_version: Optional[int] = None  # version the node echoed back
    stale: bool = False
    split_brain: bool = False
    healthz: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "url": self.url,
            "node_id": self.node_id,
            "state": self.state,
            "last_seen": self.last_seen,
            "shard_version": self.shard_version,
            "stale": self.stale,
            "split_brain": self.split_brain,
        }


@dataclass(frozen=True)
class ShardMap:
    """One immutable, versioned view of the fleet (snapshot)."""

    version: int
    nodes: Tuple[dict, ...]  # NodeInfo.to_dict() snapshots, stable order
    ring: HashRing
    replicas: int = 2

    def owners(self, key: str) -> Tuple[str, ...]:
        """Home + replica URLs of a content key, in preference order."""
        return self.ring.owners(key, n=self.replicas)

    def to_dict(self) -> dict:
        return {"version": self.version, "replicas": self.replicas,
                "vnodes": self.ring.vnodes, "nodes": list(self.nodes)}


class NodeRegistry:
    """Liveness-tracking membership list with a versioned shard map."""

    def __init__(self, urls, *, dead_after: int = 2,
                 timeout_s: float = 5.0,
                 interval_s: float = 1.0,
                 vnodes: int = DEFAULT_VNODES,
                 replicas: int = 2,
                 lease_dir: Optional[str] = None):
        urls = [u.rstrip("/") for u in urls]
        if not urls and lease_dir is None:
            raise ValueError("a fleet needs at least one node URL "
                             "(or a lease directory)")
        if len(set(urls)) != len(urls):
            raise ValueError(f"duplicate node URLs: {urls}")
        self._lock = forksafe.lock("fleet.nodes")
        self._nodes: Dict[str, NodeInfo] = {u: NodeInfo(u) for u in urls}
        #: Statically configured members: a missing lease never removes
        #: them (operators pinned these URLs on purpose).
        self._static = set(urls)
        self._version = 1
        self.dead_after = max(1, int(dead_after))
        self.timeout_s = timeout_s
        self.interval_s = interval_s
        self.replicas = replicas
        self._ring = HashRing(urls, vnodes=vnodes)
        self.vnodes = vnodes
        self.lease_dir = lease_dir
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        if lease_dir is not None:
            self.sync_leases()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "NodeRegistry":
        """Start the background heartbeat loop (idempotent)."""
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._heartbeat_loop, name="fleet-heartbeat",
                daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=self.timeout_s + 1.0)

    def _heartbeat_loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.check_once()
            except Exception:
                pass  # a probe bug must never kill the heartbeat
            self._stop.wait(self.interval_s)

    # -- lease-file membership -------------------------------------------------

    def sync_leases(self) -> Dict[str, dict]:
        """Derive membership from the lease directory (no-op without
        one): fresh leases join, removed leases leave, expired leases
        mark the node dead but keep its ring placement.  Returns the
        lease table read (url -> lease info)."""
        if self.lease_dir is None:
            return {}
        from .leases import read_leases

        leases = read_leases(self.lease_dir)
        with self._lock:
            changed = False
            for url, info in leases.items():
                node = self._nodes.get(url)
                if node is None:
                    node = NodeInfo(url, node_id=info.get("node_id"))
                    self._nodes[url] = node
                    changed = True
                if not info["fresh"] and node.state != DEAD:
                    # Lease expired: the node stopped heartbeating (a
                    # crash or a partition from the shared directory).
                    node.state = DEAD
                    node.fails = max(node.fails, self.dead_after)
                    changed = True
            for url in list(self._nodes):
                if url not in leases and url not in self._static:
                    # Lease file removed: a graceful leave drops the
                    # node from membership and the ring entirely.
                    del self._nodes[url]
                    changed = True
            if changed:
                self._ring = HashRing(list(self._nodes), vnodes=self.vnodes)
                self._bump_locked()
        return leases

    # -- probing ---------------------------------------------------------------

    def check_once(self) -> None:
        """Probe every node's ``/healthz`` once, synchronously (after a
        membership sync when a lease directory is configured)."""
        from .router import http_request  # router imports this module

        leases = self.sync_leases()
        stale_leases = {url for url, info in leases.items()
                        if not info["fresh"]}
        for url in list(self._nodes):
            if url in stale_leases:
                continue  # the stale lease already marked it dead
            try:
                status, doc, _ = http_request(
                    "GET", f"{url}/healthz",
                    headers={"X-Repro-Shard-Version": str(self.version)},
                    timeout=self.timeout_s)
            except (OSError, ValueError, http.client.HTTPException):
                status = None
            if status != 200:
                self.mark_failure(url)
                continue
            self.mark_alive(url, doc)
        self._export_metrics()

    def mark_alive(self, url: str, healthz: Optional[dict] = None) -> None:
        """Record a successful probe (revives dead nodes)."""
        doc = healthz or {}
        with self._lock:
            node = self._nodes.get(url)
            if node is None:  # left membership (lease removed) mid-probe
                return
            node.fails = 0
            node.last_seen = time.time()
            node.healthz = doc
            changed = node.state != ALIVE
            node.state = ALIVE
            node_id = doc.get("node_id")
            if node_id:
                if node.node_id is not None and node.node_id != node_id:
                    changed = True  # a restarted process took this URL
                node.node_id = node_id
            echoed = doc.get("shard_version")
            node.shard_version = echoed
            node.stale = echoed is not None and echoed < self._version
            node.split_brain = echoed is not None and echoed > self._version
            if changed:
                self._bump_locked()

    def mark_failure(self, url: str) -> None:
        """Record one failed probe; ``dead_after`` in a row = dead."""
        with self._lock:
            node = self._nodes.get(url)
            if node is None:
                return
            node.fails += 1
            if node.fails >= self.dead_after and node.state != DEAD:
                node.state = DEAD
                self._bump_locked()

    def mark_dead(self, url: str) -> None:
        """Declare a node dead immediately (router saw its socket die)."""
        with self._lock:
            node = self._nodes.get(url)
            if node is None:
                return
            node.fails = max(node.fails, self.dead_after)
            if node.state != DEAD:
                node.state = DEAD
                self._bump_locked()

    def _bump_locked(self) -> None:
        self._version += 1

    def _export_metrics(self) -> None:
        if not telemetry.enabled():
            return
        with self._lock:
            states = [n.state for n in self._nodes.values()]
            version = self._version
        gauge = telemetry.fleet_nodes()
        for state in (ALIVE, DEAD):
            gauge.labels(state=state).set(states.count(state))
        telemetry.fleet_shard_version().set(version)

    # -- views -----------------------------------------------------------------

    @property
    def version(self) -> int:
        with self._lock:
            return self._version

    @property
    def urls(self) -> List[str]:
        with self._lock:
            return list(self._nodes)

    def alive_urls(self) -> List[str]:
        with self._lock:
            return [u for u, n in self._nodes.items() if n.state == ALIVE]

    def node(self, url: str) -> NodeInfo:
        with self._lock:
            return self._nodes[url]

    def shard_map(self) -> ShardMap:
        """An immutable snapshot of membership + the routing ring.

        The ring always spans *all* members, dead or alive -- placement
        must not churn while a node reboots; liveness only decides which
        owner actually serves a request (the router's job).
        """
        with self._lock:
            return ShardMap(
                version=self._version,
                nodes=tuple(n.to_dict() for n in self._nodes.values()),
                ring=self._ring,
                replicas=self.replicas,
            )
