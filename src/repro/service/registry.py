"""Persistent plan registry: memoized autotuner winners.

The autotuner is the expensive half of the compile-once/serve-many
split: a full MWD candidate sweep through the machine model per (grid,
machine, thread count).  The registry memoizes its winners under a key
of (variant kind, grid shape, machine-spec hash, thread count, TG size)
so every later job with the same key skips tuning entirely.  It is the
only place a tuned point persists: the tuners themselves memoize per
process and keep nothing on disk.

Entries persist through the node's one document store
(:class:`~repro.service.store.DocumentStore`: one checksummed
``plan-<key>.json`` per key under ``root``, ``repro serve --data-dir``'s
``registry/``), written atomically so concurrent service workers and
nodes can never interleave a torn file.  Without a root the registry is
a process-local dict with the same interface.

Hit/miss/store counters feed the observability layer: every lookup runs
inside a :func:`~repro.machine.counters.timed_section` (visible in
``repro bench``'s section table) and samples a trace counter track
when a trace is active, so a campaign's Chrome trace shows the hit rate
climbing as plans get reused.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from typing import Any, Dict, List, Optional, Tuple

from .. import forksafe, telemetry
from ..core.autotuner import point_from_json, point_to_json
from ..machine.counters import timed_section
from ..machine.spec import MachineSpec
from .store import Counted, DocumentStore

__all__ = ["PlanRegistry", "REGISTRY_VERSION"]

#: Bump to invalidate persisted plans (key or payload format change).
REGISTRY_VERSION = 1


class PlanRegistry(Counted):
    """Keyed, optionally persistent store of tuned points.

    ``node_id`` (optional) stamps stored plans' ``meta`` with the node
    that tuned them, so a sharded fleet's registries stay auditable
    (``GET /registry`` shows which shard paid for which tune).
    """

    COUNTERS = ("hits", "misses", "stores")

    def __init__(self, root: Optional[str] = None,
                 node_id: Optional[str] = None):
        self.root = root
        self.node_id = node_id
        self._lock = forksafe.lock("service.registry")
        self._docs = DocumentStore(
            root, "plan", REGISTRY_VERSION, "registry", self._lock,
            check=lambda doc: point_from_json(doc["point"]))
        #: Single-flight guard: key -> Event while a tuner is in flight,
        #: so N concurrent workers asking for one key tune it once.
        self._inflight: Dict[str, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- keys ------------------------------------------------------------------

    @staticmethod
    def key(
        spec: MachineSpec,
        grid: int,
        threads: int,
        tg_size: Optional[int] = None,
        variant: str = "mwd",
    ) -> str:
        """Content key: variant, grid shape, machine-spec hash, threads, TG.

        No batch width: the tiling plan depends only on grid, machine and
        threads, so one tuned plan serves a whole campaign batch.
        """
        machine_hash = hashlib.sha1(
            json.dumps(dataclasses.asdict(spec), sort_keys=True).encode()
        ).hexdigest()[:16]
        payload = json.dumps(
            [REGISTRY_VERSION, variant, grid, machine_hash, threads, tg_size]
        )
        return hashlib.sha1(payload.encode()).hexdigest()[:20]

    # -- lookup / store --------------------------------------------------------

    def lookup(self, key: str):
        """The memoized point for ``key`` -> ``(point,)`` or ``None``.

        A hit may carry ``point=None`` (the tuner proved no feasible
        configuration); that negative result is memoized too.  A corrupt,
        foreign-version or undecodable file reads as a miss (the tuner
        simply recomputes the plan and overwrites it).
        """
        with timed_section("registry.lookup"):
            doc = self._docs.get(key)
            return None if doc is None else (point_from_json(doc["point"]),)

    def store(self, key: str, point, meta: Optional[Dict[str, Any]] = None) -> None:
        meta = dict(meta or {})
        if self.node_id and "node" not in meta:
            meta["node"] = self.node_id
        with self._lock:
            self.stores += 1
        self._docs.put(key, {"key": key, "point": point_to_json(point),
                             "meta": meta})

    def _count(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
            hits, misses = self.hits, self.misses
        telemetry.instant("registry.hit" if hit else "registry.miss",
                          "service")
        telemetry.counter_track("plan registry",
                                {"hits": hits, "misses": misses})

    def get_or_tune(
        self,
        spec: MachineSpec,
        grid: int,
        threads: int,
        tg_size: Optional[int] = None,
        variant: str = "mwd",
    ) -> Tuple[Any, bool]:
        """The tuned point for a key, tuning on a miss.

        Returns ``(point, hit)``; ``point`` may be ``None`` when no
        configuration is feasible (also memoized).
        """
        from ..core.autotuner import tune_variant

        key = self.key(spec, grid, threads, tg_size=tg_size, variant=variant)
        while True:
            found = self.lookup(key)
            if found is not None:
                self._count(hit=True)
                return found[0], True
            with self._lock:
                done = self._inflight.get(key)
                if done is None:
                    done = self._inflight[key] = threading.Event()
                    break  # this caller tunes; everyone else waits on it
            done.wait()  # the winner's store() lands before its set()
        self._count(hit=False)
        try:
            with telemetry.span(f"registry.tune {key[:8]}", "service",
                                args={"grid": grid, "threads": threads,
                                      "variant": variant}):
                point = tune_variant(spec, grid, threads,
                                     variant=variant, tg_size=tg_size)
            self.store(key, point, meta={"grid": grid, "threads": threads,
                                         "variant": variant, "tg_size": tg_size,
                                         "machine": spec.name})
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            done.set()
        return point, False

    # -- readout ---------------------------------------------------------------

    def entries(self) -> List[Dict[str, Any]]:
        """Registry listing for ``GET /registry`` (summaries, no fields)."""
        out: List[Dict[str, Any]] = []
        for key, doc in self._docs.items():
            point = doc.get("point")
            summary = None
            if point:
                summary = {k: point.get(k) for k in
                           ("variant", "threads", "dw", "bz", "block_y")}
                result = point.get("result") or {}
                summary["mlups"] = result.get("mlups")
            out.append({"key": key, "meta": doc.get("meta", {}),
                        "point": summary, "feasible": point is not None})
        return out
