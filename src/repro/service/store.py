"""Content-addressed result store with dedup semantics.

Results are keyed by the content-addressed job id (a hash of the spec's
computational fields), so *identical* job specs map to one stored
result: the scheduler consults the store before executing and serves
repeats from it bit-identically -- ``run_job`` is deterministic and the
stored JSON round-trips floats exactly, so a cached response compares
equal to a fresh execution.

With a ``root`` directory (``repro serve --results``) results persist
across restarts, written atomically; without one the store is a
process-local dict with the same interface.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, List, Optional

from ..ioutil import atomic_write_json, corrupt_file, read_json_checked
from ..resilience import faults

__all__ = ["ResultStore", "STORE_VERSION"]

#: Bump to invalidate persisted results (payload format change).
STORE_VERSION = 1


class ResultStore:
    """Job-id -> result-dict map, optionally persisted one file per id.

    ``node_id`` (optional) stamps every persisted document with the
    serving node that computed it -- provenance for sharded fleets.  The
    stamp lives *next to* the ``result`` payload, never inside it, so
    results stay bit-identical no matter which node produced them.
    """

    def __init__(self, root: Optional[str] = None,
                 node_id: Optional[str] = None):
        self.root = root
        self.node_id = node_id
        self._mem: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.replica_puts = 0
        if root:
            os.makedirs(root, exist_ok=True)

    def _path(self, job_id: str) -> Optional[str]:
        return os.path.join(self.root, f"result-{job_id}.json") if self.root else None

    def _load(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Load one full document (memory, then disk) without touching
        the hit/miss counters -- the shared machinery of :meth:`get`,
        :meth:`get_doc` and the idempotence check of
        :meth:`put_replica`."""
        with self._lock:
            doc = self._mem.get(job_id)
        if doc is None:
            path = self._path(job_id)
            if path is not None:
                if os.path.exists(path) and \
                        faults.hit("store.read") == "corrupt":
                    corrupt_file(path)
                # Corrupt entries quarantine to ``<path>.corrupt`` and
                # read as a miss: the job simply re-executes (run_job is
                # deterministic, so the recomputed result is identical).
                disk = read_json_checked(path)
                if disk and disk.get("version") == STORE_VERSION:
                    doc = disk
                    with self._lock:
                        self._mem[job_id] = doc
        return doc

    def get(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The stored result, counting the lookup as a hit or miss."""
        doc = self._load(job_id)
        with self._lock:
            if doc is None:
                self.misses += 1
            else:
                self.hits += 1
        return None if doc is None else doc["result"]

    def get_doc(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The full stored document (result + provenance: ``node``,
        ``replicated_from``), counting the lookup like :meth:`get`.
        Serving layers use this to answer warm reads after a reboot or a
        replica promotion without losing the provenance trail."""
        doc = self._load(job_id)
        with self._lock:
            if doc is None:
                self.misses += 1
            else:
                self.hits += 1
        return doc

    def _commit(self, job_id: str, doc: Dict[str, Any]) -> None:
        path = self._path(job_id)
        if path is not None:
            try:
                kind = faults.hit("store.write")
                atomic_write_json(path, doc, checksum=True)
                if kind == "corrupt":
                    corrupt_file(path)
            except OSError:
                pass  # persistence is best-effort

    def put(self, job_id: str, result: Dict[str, Any]) -> None:
        doc = {"version": STORE_VERSION, "id": job_id, "result": result}
        if self.node_id:
            doc["node"] = self.node_id
        with self._lock:
            self._mem[job_id] = doc
            self.puts += 1
        self._commit(job_id, doc)

    def put_replica(self, job_id: str, result: Dict[str, Any],
                    replicated_from: Optional[str] = None) -> bool:
        """Accept a replicated copy of a result computed elsewhere.

        Idempotent and dedup-respecting: a document already present
        (computed here, or already replicated) wins -- results are
        content-addressed, so the bytes are the same either way.
        Returns ``True`` when the copy was actually stored.
        """
        if self._load(job_id) is not None:
            return False
        doc = {"version": STORE_VERSION, "id": job_id, "result": result}
        if self.node_id:
            doc["node"] = self.node_id
        if replicated_from:
            doc["replicated_from"] = replicated_from
        with self._lock:
            self._mem[job_id] = doc
            self.replica_puts += 1
        self._commit(job_id, doc)
        return True

    def __contains__(self, job_id: str) -> bool:
        with self._lock:
            if job_id in self._mem:
                return True
        path = self._path(job_id)
        return path is not None and os.path.exists(path)

    def __len__(self) -> int:
        with self._lock:
            ids = set(self._mem)
        if self.root and os.path.isdir(self.root):
            for fname in os.listdir(self.root):
                if fname.startswith("result-") and fname.endswith(".json"):
                    ids.add(fname[len("result-"):-len(".json")])
        return len(ids)

    def ids(self) -> List[str]:
        with self._lock:
            ids = set(self._mem)
        if self.root and os.path.isdir(self.root):
            for fname in os.listdir(self.root):
                if fname.startswith("result-") and fname.endswith(".json"):
                    ids.add(fname[len("result-"):-len(".json")])
        return sorted(ids)

    def counters(self) -> Dict[str, int]:
        entries = len(self)
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "puts": self.puts, "replica_puts": self.replica_puts,
                    "entries": entries}
