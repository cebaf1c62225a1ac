"""How a node persists keyed, immutable JSON documents -- and the
content-addressed result store built on it.

:class:`DocumentStore` is the one on-disk format behind the result
store and the plan registry: one ``<prefix>-<key>.json`` file per key,
written atomically with an embedded checksum, read back through a
version gate (corrupt files quarantine to ``<path>.corrupt`` and read as
a miss), cached in memory, with the ``<site>.read`` / ``<site>.write``
fault sites and their ``corrupt`` hooks.  A document its owner's
``check`` cannot decode reads as a miss too, and the store lists exactly
the documents it serves.  Without a root it is a process-local dict
with the same interface.

Results are keyed by the content-addressed job id (a hash of the spec's
computational fields), so *identical* job specs map to one stored
result: the scheduler consults the store before executing and serves
repeats from it bit-identically -- ``run_job`` is deterministic and the
stored JSON round-trips floats exactly, so a cached response compares
equal to a fresh execution.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import forksafe
from ..ioutil import atomic_write_json, corrupt_file, read_json_checked
from ..resilience import faults

__all__ = ["Counted", "DocumentStore", "ResultStore", "STORE_VERSION"]

#: Bump to invalidate persisted results (payload format change).
STORE_VERSION = 1


class DocumentStore:
    """Key -> immutable JSON document, optionally one file per key.

    ``prefix`` names the files (``<prefix>-<key>.json``), ``version``
    gates what is served, ``site`` names the fault sites
    (``<site>.read`` on a disk lookup, ``<site>.write`` on a store),
    ``lock`` is the owner's lock, which also guards its counters, and
    ``check`` decodes a document read from disk, raising ``KeyError`` or
    ``TypeError`` on one its owner cannot serve.
    """

    def __init__(self, root: Optional[str], prefix: str, version: int,
                 site: str, lock: threading.Lock,
                 check: Callable[[Dict[str, Any]], Any]):
        self.root = root
        self.prefix = prefix
        self.version = version
        self.site = site
        self._lock = lock
        self._check = check
        self._mem: Dict[str, Dict[str, Any]] = {}
        if root:
            os.makedirs(root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{self.prefix}-{key}.json")

    def _scribble(self, kind: Optional[str], path: str) -> None:
        """Apply a fired ``corrupt`` fault to the file (a missing file
        stays missing)."""
        if kind == "corrupt":
            corrupt_file(path)

    def _read(self, key: str) -> Optional[Dict[str, Any]]:
        """The key's file if it passes the checksum, the version gate and
        the owner's check, cached; a corrupt file quarantines and reads
        as a miss."""
        doc = read_json_checked(self._path(key))
        if not isinstance(doc, dict) or doc.get("version") != self.version:
            return None
        try:
            self._check(doc)
        except (KeyError, TypeError):
            return None  # a foreign payload: the owner recomputes it
        with self._lock:
            return self._mem.setdefault(key, doc)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The document for ``key`` (memory, then disk), else ``None``."""
        with self._lock:
            doc = self._mem.get(key)
        if doc is None and self.root:
            self._scribble(faults.hit(f"{self.site}.read"), self._path(key))
            doc = self._read(key)
        return doc

    def put(self, key: str, body: Dict[str, Any]) -> None:
        """Store ``body`` (stamped with the version) under ``key``;
        persistence is best-effort (a read-only or full disk keeps the
        document in memory only)."""
        doc = {"version": self.version, **body}
        with self._lock:
            self._mem[key] = doc
        if self.root:
            path = self._path(key)
            try:
                kind = faults.hit(f"{self.site}.write")
                atomic_write_json(path, doc, checksum=True)
                self._scribble(kind, path)
            except OSError:
                pass

    def keys(self) -> List[str]:
        """Every key that :meth:`get` serves, unordered: reads each file
        not yet cached first.  Listing passes through no fault site."""
        if self.root and os.path.isdir(self.root):
            head, tail = f"{self.prefix}-", ".json"
            with self._lock:
                known = set(self._mem)
            for name in os.listdir(self.root):
                if name.startswith(head) and name.endswith(tail):
                    key = name[len(head):-len(tail)]
                    if key not in known:
                        self._read(key)
        with self._lock:
            return list(self._mem)

    def items(self) -> List[Tuple[str, Dict[str, Any]]]:
        """Every ``(key, document)`` that :meth:`get` serves, by key."""
        return [(key, self._mem[key]) for key in sorted(self.keys())]

    def cached(self) -> Dict[str, Dict[str, Any]]:
        """The documents in memory: stored here or read from disk."""
        with self._lock:
            return dict(self._mem)

    def adopt(self, docs: Dict[str, Dict[str, Any]]) -> None:
        """Take documents another process stored (into its memory, and
        into files under this root if it has one) into memory, as if they
        had been stored here; a document already held wins."""
        with self._lock:
            for key, doc in docs.items():
                self._mem.setdefault(key, doc)


class Counted:
    """The counters of a document store's owner, and what a forked worker
    sends home of it: :meth:`fork_mark` before the job,
    :meth:`fork_report` after it (counter deltas and the documents it
    added), :meth:`merge_report` in the parent.  ``COUNTERS`` names the
    counters; ``_lock`` guards them and ``_docs`` is the store."""

    COUNTERS: Tuple[str, ...] = ()
    _lock: threading.Lock
    _docs: DocumentStore

    def counters(self) -> Dict[str, int]:
        """The counters, and ``entries``: the documents served."""
        entries = len(self._docs.keys())
        with self._lock:
            return {**{name: getattr(self, name) for name in self.COUNTERS},
                    "entries": entries}

    def merge_counters(self, d: Dict[str, int]) -> None:
        """Fold a child worker's counter deltas into these counters."""
        with self._lock:
            for name in self.COUNTERS:
                setattr(self, name, getattr(self, name) + int(d.get(name, 0)))

    def fork_mark(self) -> Tuple[List[int], set]:
        with self._lock:
            counts = [getattr(self, name) for name in self.COUNTERS]
        return counts, set(self._docs.cached())

    def fork_report(self, mark: Tuple[List[int], set]) -> Dict[str, dict]:
        counts, keys = mark
        with self._lock:
            delta = {name: getattr(self, name) - n
                     for name, n in zip(self.COUNTERS, counts)}
        docs = {key: doc for key, doc in self._docs.cached().items()
                if key not in keys}
        return {"counters": delta, "docs": docs}

    def merge_report(self, report: Dict[str, dict]) -> None:
        self.merge_counters(report["counters"])
        self._docs.adopt(report["docs"])


class ResultStore(Counted):
    """Job-id -> result-dict map, optionally persisted one file per id.

    ``node_id`` (optional) stamps every persisted document with the
    serving node that computed it -- provenance for sharded fleets.  The
    stamp lives *next to* the ``result`` payload, never inside it, so
    results stay bit-identical no matter which node produced them.
    """

    COUNTERS = ("hits", "misses", "puts", "replica_puts")

    def __init__(self, root: Optional[str] = None,
                 node_id: Optional[str] = None):
        self.root = root
        self.node_id = node_id
        self._lock = forksafe.lock("service.store")
        self._docs = DocumentStore(root, "result", STORE_VERSION, "store",
                                   self._lock, check=lambda doc: doc["result"])
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.replica_puts = 0

    def _lookup(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The full document, counting the lookup as a hit or miss."""
        doc = self._docs.get(job_id)
        with self._lock:
            if doc is None:
                self.misses += 1
            else:
                self.hits += 1
        return doc

    def _body(self, job_id: str, result: Dict[str, Any]) -> Dict[str, Any]:
        body = {"id": job_id, "result": result}
        if self.node_id:
            body["node"] = self.node_id
        return body

    def get(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The stored result, counting the lookup as a hit or miss."""
        doc = self._lookup(job_id)
        return None if doc is None else doc["result"]

    def get_doc(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The full stored document (result + provenance: ``node``,
        ``replicated_from``), counting the lookup like :meth:`get`.
        Serving layers use this to answer warm reads after a reboot or a
        replica promotion without losing the provenance trail."""
        return self._lookup(job_id)

    def put(self, job_id: str, result: Dict[str, Any]) -> None:
        with self._lock:
            self.puts += 1
        self._docs.put(job_id, self._body(job_id, result))

    def put_replica(self, job_id: str, result: Dict[str, Any],
                    replicated_from: Optional[str] = None) -> bool:
        """Accept a replicated copy of a result computed elsewhere.

        Idempotent and dedup-respecting: a document already present
        (computed here, or already replicated) wins -- results are
        content-addressed, so the bytes are the same either way.
        Returns ``True`` when the copy was actually stored.
        """
        if self._docs.get(job_id) is not None:
            return False
        body = self._body(job_id, result)
        if replicated_from:
            body["replicated_from"] = replicated_from
        with self._lock:
            self.replica_puts += 1
        self._docs.put(job_id, body)
        return True

    def __contains__(self, job_id: str) -> bool:
        return self._docs.get(job_id) is not None

    def __len__(self) -> int:
        return len(self._docs.keys())

    def ids(self) -> List[str]:
        return sorted(self._docs.keys())
