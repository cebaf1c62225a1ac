"""Lease-file fleet membership: heartbeat files in a shared directory.

Replaces the static ``--nodes`` list with a protocol any shared
filesystem supports: every ``repro serve`` node writes
``lease-<node_id>.json`` into the lease directory and refreshes it on a
cadence well under the TTL; the gateway's :class:`~repro.fleet.nodes.
NodeRegistry` reads the directory each heartbeat and derives membership:

* a fresh lease for an unknown URL is a **join** (added to the ring);
* a lease older than its TTL is an **expiry** (marked dead, kept in the
  ring so the shard placement survives a reboot);
* a removed lease file is a **graceful leave** (dropped from the ring).

Every membership event bumps the shard-map version, exactly like the
probe-driven transitions.  A node partitioned from the lease directory
(the seeded-partition chaos case) simply stops refreshing: the registry
sees a stale lease and stops routing to it -- clean stale-detection, no
split-brain, because the gateway's registry stays the single source of
routing truth.

Lease files are checksummed atomic JSON (:mod:`repro.ioutil`): a torn or
corrupt lease quarantines to ``*.corrupt`` and reads as absent, which is
the safe direction (a node whose lease cannot be read is not routable).
The ``fleet.lease`` fault site covers the write path so chaos schedules
can simulate a node losing its lease mid-flight.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, Optional

from ..ioutil import atomic_write_json, corrupt_file, read_json_checked
from ..resilience import faults

__all__ = ["lease_path", "write_lease", "clear_lease", "read_leases",
           "LeaseHeartbeat", "LEASE_PREFIX"]

LEASE_PREFIX = "lease-"

#: Seconds a lease stays fresh unless its writer says otherwise; an
#: unrefreshed lease reads as node death.
LEASE_TTL_S = 5.0


def lease_path(lease_dir: str, node_id: str) -> str:
    return os.path.join(lease_dir, f"{LEASE_PREFIX}{node_id}.json")


def write_lease(lease_dir: str, node_id: str, url: str,
                ttl_s: float = LEASE_TTL_S) -> str:
    """Write/refresh one node's lease (atomic + checksummed)."""
    path = lease_path(lease_dir, node_id)
    kind = faults.hit("fleet.lease")
    atomic_write_json(path, {
        "node_id": node_id,
        "url": url.rstrip("/"),
        "ttl_s": float(ttl_s),
        "written_at": time.time(),
    }, checksum=True)
    if kind == "corrupt":
        corrupt_file(path)
    return path


def clear_lease(lease_dir: str, node_id: str) -> bool:
    """Remove a node's lease (graceful leave); True if one existed."""
    try:
        os.unlink(lease_path(lease_dir, node_id))
        return True
    except OSError:
        return False


def read_leases(lease_dir: str,
                now: Optional[float] = None) -> Dict[str, dict]:
    """url -> {node_id, fresh, age_s, ttl_s} for every readable lease.

    Corrupt leases quarantine (via :func:`read_json_checked`) and read as
    absent.  Two leases claiming one URL keep the freshest writer.
    """
    now = time.time() if now is None else now
    out: Dict[str, dict] = {}
    try:
        names = sorted(os.listdir(lease_dir))
    except OSError:
        return out
    for name in names:
        if not (name.startswith(LEASE_PREFIX) and name.endswith(".json")):
            continue
        doc = read_json_checked(os.path.join(lease_dir, name))
        if not isinstance(doc, dict) or not doc.get("url"):
            continue
        try:
            age = max(0.0, now - float(doc.get("written_at") or 0.0))
            ttl = float(doc.get("ttl_s") or LEASE_TTL_S)
        except (TypeError, ValueError):
            continue
        url = str(doc["url"]).rstrip("/")
        entry = {"node_id": doc.get("node_id"), "fresh": age <= ttl,
                 "age_s": age, "ttl_s": ttl}
        prior = out.get(url)
        if prior is None or entry["age_s"] < prior["age_s"]:
            out[url] = entry
    return out


class LeaseHeartbeat:
    """Background thread refreshing one node's lease at ttl/3 cadence.

    ``stop(clear=True)`` (the graceful-shutdown path) removes the lease
    so the registry sees a leave, not an expiry; a SIGKILL'd node leaves
    its stale lease behind and expires naturally.
    """

    def __init__(self, lease_dir: str, node_id: str, url: str,
                 ttl_s: float = LEASE_TTL_S,
                 on_error: Optional[Callable[[Exception], None]] = None):
        self.lease_dir = lease_dir
        self.node_id = node_id
        self.url = url
        self.ttl_s = float(ttl_s)
        self.on_error = on_error
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "LeaseHeartbeat":
        """Write the first lease synchronously, then refresh in the
        background (idempotent)."""
        self.beat()
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="lease-heartbeat", daemon=True)
            self._thread.start()
        return self

    def beat(self) -> None:
        try:
            write_lease(self.lease_dir, self.node_id, self.url, self.ttl_s)
        except Exception as exc:  # noqa: BLE001 - losing a lease != dying
            if self.on_error is not None:
                self.on_error(exc)

    def _loop(self) -> None:
        interval = max(0.05, self.ttl_s / 3.0)
        while not self._stop.wait(interval):
            self.beat()

    def stop(self, clear: bool = True) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)
        if clear:
            clear_lease(self.lease_dir, self.node_id)
