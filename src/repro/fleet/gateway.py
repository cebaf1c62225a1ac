"""The fleet gateway: one HTTP front door over N ``repro serve`` nodes.

Clients speak the exact single-node JSON API to the gateway; the gateway
routes each request to the node that owns the job's content hash (home
first, replica on node death -- :mod:`repro.fleet.router`) and the
answer comes back verbatim, so **a result fetched through the gateway is
bit-identical to a direct single-node run** (the gateway annotates job
*envelopes* with routing provenance, never the ``result`` payload).

========  ======================  =========================================
Method    Path                    Meaning
========  ======================  =========================================
POST      ``/jobs``               route a submit to the owning node; a
                                  batch whose points span shards is
                                  scattered as per-shard sub-batches
GET       ``/jobs``               scatter-gather job listings of every
                                  live node
GET       ``/jobs/<id>``          routed lookup (tries the replica on 404
                                  after a failover; resubmits a job the
                                  gateway saw if its home died holding it)
GET       ``/jobs/<id>/events``   proxied NDJSON progress stream
DELETE    ``/jobs/<id>``          routed cancel
GET       ``/metrics``            the gateway's own ``repro_fleet_*``
                                  series (Prometheus text);
                                  ``?format=json`` adds every node's JSON
                                  rollup under ``nodes``
GET       ``/healthz``            fleet health: per-node liveness,
                                  ``node_id``, staleness/split-brain
                                  flags and the shard-map version
GET       ``/fleet``              the versioned shard map itself
========  ======================  =========================================

Failure contract: connection-dead nodes fail over to the replica (and
are marked dead, bumping the shard-map version); when home *and* replica
are gone the request answers **503** with a ``Retry-After`` hint and a
``NodeUnavailable`` payload.  HTTP-level node answers (backpressure 503,
validation 400, cancel 409) pass through untouched.

Admission control (:mod:`repro.fleet.admission`): every submit draws one
token from its tenant's bucket (the ``X-Repro-Api-Key`` header; absent
keys share the anonymous bucket).  An empty bucket answers **429** with
a ``Retry-After`` sized to the refill time, while other tenants on the
same fleet proceed untouched.  Failover hops and loss-resubmissions draw
from one global :class:`~repro.fleet.admission.RetryBudget`, so a
flapping node cannot amplify load without bound -- past the budget the
gateway answers 503 instead of hammering the survivors.  Quotas default
off, the budget to 60 retries a minute (``make_gateway(quota=,
retry_budget=)``).

Write replication: when a poll through the gateway first sees a job
``done``, the gateway pushes the result document to the job's other ring
owners (``PUT /results/<id>`` with ``X-Repro-Replicate``), so a later
death of the computing node leaves a warm copy the replica serves from
its own store -- failover reads become store hits, bit-identical, no
recompute.  Replication is best-effort, idempotent (content-addressed
ids; an existing document wins) and observable as
``repro_fleet_replications_total`` by outcome.

Exactly-once results: job ids are content hashes and every node's store
dedups on them, so no matter how many times a spec is submitted or
failed over, there is one result document per unique spec -- and it is
the same bytes on whichever node computed it (``run_job`` is
deterministic).  The gateway keeps a bounded cache of specs it has
routed so a job lost with its node (in-memory store, no replica copy)
is transparently *resubmitted* to a surviving owner when polled.

Tracing: each forwarded submit runs in a gateway span whose fresh trace
id crosses the HTTP hop as ``X-Repro-Trace-Id``; the node adopts it for
the job, so one trace covers routing and execution.
"""

from __future__ import annotations

import collections
import json
import math
import threading
import time
from http.server import ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from .. import telemetry
from ..core import tracing
from ..resilience import faults
from ..resilience.errors import NodeUnavailable, QuotaExceeded, ReproError
from ..service.jobs import JobSpec
from ..service.server import REQUEST_TIMEOUT_S, JsonHandler
from .admission import ANONYMOUS_TENANT, TENANT_HEADER, RetryBudget, \
    TenantQuotas
from .nodes import ALIVE, NodeRegistry
from .router import Router, http_request

__all__ = ["FleetServer", "make_gateway", "RETRY_AFTER_S"]

#: Retry-After hint on 503s: one heartbeat is enough to revive a node.
RETRY_AFTER_S = 2


class FleetServer(ThreadingHTTPServer):
    """The gateway HTTP server; handlers reach the fleet via
    ``self.server``."""

    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 32
    request_timeout = REQUEST_TIMEOUT_S

    def __init__(self, addr: Tuple[str, int], registry: NodeRegistry,
                 node_timeout_s: float, quota: float, quota_burst: float,
                 retry_budget: float, spec_cache_size: int):
        super().__init__(addr, _GatewayHandler)
        self.registry = registry
        self.quotas = TenantQuotas(quota, quota_burst)
        self.retry_budget = RetryBudget(retry_budget)
        self.router = Router(registry, timeout_s=node_timeout_s,
                             budget=self.retry_budget)
        self.node_timeout_s = node_timeout_s
        self.spec_cache_size = max(1, int(spec_cache_size))
        self._lock = threading.Lock()
        #: job id -> spec dict of submits this gateway routed, so a job
        #: that died with its node can be resubmitted to a replica
        #: (LRU-bounded at ``spec_cache_size``; evictions are counted).
        self.spec_cache: "collections.OrderedDict[str, dict]" = \
            collections.OrderedDict()
        #: batch id -> scatter record for batches split across shards.
        self.scatter: Dict[str, dict] = {}
        #: job ids whose results this gateway already replicated to every
        #: live co-owner (LRU-bounded alongside the spec cache).
        self._replicated: "collections.OrderedDict[str, None]" = \
            collections.OrderedDict()

    # -- shared state helpers (handler threads) --------------------------------

    def remember_spec(self, job_id: str, spec_dict: dict) -> None:
        with self._lock:
            self.spec_cache[job_id] = spec_dict
            self.spec_cache.move_to_end(job_id)
            evicted = 0
            while len(self.spec_cache) > self.spec_cache_size:
                self.spec_cache.popitem(last=False)
                evicted += 1
        if evicted and telemetry.enabled():
            telemetry.fleet_spec_cache_evictions().inc(evicted)

    def recall_spec(self, job_id: str) -> Optional[dict]:
        with self._lock:
            spec = self.spec_cache.get(job_id)
            if spec is not None:
                # True LRU: a recalled spec is a *live* job the gateway
                # may yet have to resubmit -- keep it over cold entries.
                self.spec_cache.move_to_end(job_id)
            return spec

    def forget_spec(self, job_id: str) -> None:
        with self._lock:
            self.spec_cache.pop(job_id, None)

    def remember_scatter(self, batch_id: str, record: dict) -> None:
        with self._lock:
            self.scatter[batch_id] = record

    def recall_scatter(self, batch_id: str) -> Optional[dict]:
        with self._lock:
            return self.scatter.get(batch_id)

    # -- write replication -----------------------------------------------------

    def maybe_replicate(self, job_id: str, result: dict,
                        from_url: str) -> None:
        """Push a completed result to the job's other live ring owners.

        Best-effort and idempotent: the replica's ``put_replica`` keeps
        any document it already holds (results are content-addressed, so
        the bytes match either way), and a failed push just leaves the
        job eligible for another attempt on the next done-poll.  The
        ``fleet.replicate`` fault site covers each push; a ``corrupt``
        kind drops the push on the floor (a garbled copy the replica's
        checksum would refuse anyway).
        """
        with self._lock:
            if job_id in self._replicated:
                return
        smap = self.registry.shard_map()
        states = {n["url"]: n["state"] for n in smap.nodes}
        targets = [u for u in smap.owners(job_id)
                   if u != from_url and states.get(u) == ALIVE]
        if not targets:
            return
        all_ok = True
        for target in targets:
            outcome = "ok"
            try:
                if faults.hit("fleet.replicate") == "corrupt":
                    raise OSError("injected: replication payload lost")
                status, body, _ = http_request(
                    "PUT", f"{target}/results/{job_id}",
                    payload={"result": result, "node": from_url},
                    headers={"X-Repro-Replicate": "1",
                             "X-Repro-Shard-Version":
                                 str(self.registry.version)},
                    timeout=self.node_timeout_s)
                if status != 200:
                    outcome = "error"
                elif body.get("dedup"):
                    outcome = "dedup"
            except Exception:  # noqa: BLE001 - replication is best-effort
                outcome = "error"
            if outcome == "error":
                all_ok = False
            if telemetry.enabled():
                telemetry.fleet_replications().labels(outcome=outcome).inc()
        if all_ok:
            with self._lock:
                self._replicated[job_id] = None
                self._replicated.move_to_end(job_id)
                while len(self._replicated) > self.spec_cache_size:
                    self._replicated.popitem(last=False)


class _GatewayHandler(JsonHandler):
    server: FleetServer

    def _identity_headers(self) -> None:
        self.send_header("X-Repro-Gateway", "1")

    @property
    def _router(self) -> Router:
        return self.server.router

    @property
    def _registry(self) -> NodeRegistry:
        return self.server.registry

    def _count(self, route: str, outcome) -> None:
        if telemetry.enabled():
            telemetry.fleet_requests().labels(
                route=route, outcome=str(outcome)).inc()

    def _guard(self, handler) -> None:
        try:
            handler()
        except QuotaExceeded as exc:
            retry_after = math.ceil(
                float(exc.details.get("retry_after_s") or 0) or 1)
            self._send(exc.http_status, exc.payload(),
                       headers={"Retry-After": str(max(1, retry_after))})
        except NodeUnavailable as exc:
            self._send(exc.http_status, exc.payload(),
                       headers={"Retry-After": str(RETRY_AFTER_S)})
        except ReproError as exc:
            self._send(exc.http_status, exc.payload())

    # -- submits ---------------------------------------------------------------

    def _post(self) -> None:
        if self.path.split("?")[0] != "/jobs":
            self._send(404, {"error": f"no such endpoint: POST {self.path}"})
            return
        try:
            body = self._read_body()
            spec = JobSpec.from_dict(body)
        except (ValueError, TypeError) as exc:
            self._send(400, {"error": f"invalid job spec: {exc}"})
            self._count("submit", 400)
            return
        self._admit(spec)
        if spec.kind == "batch":
            groups = self._scatter_groups(spec)
            if len(groups) > 1:
                self._scatter_submit(spec, groups)
                return
        status, doc, url = self._submit_to_owner(spec)
        self._count("submit", status)
        if status == 202:
            doc["node"] = url
        self._send(status, doc)

    def _admit(self, spec: JobSpec) -> None:
        """Charge this submit to its tenant's quota bucket (no-op when
        quotas are disabled); over quota raises
        :class:`~repro.resilience.errors.QuotaExceeded` -> 429 +
        ``Retry-After``, leaving other tenants untouched."""
        quotas = self.server.quotas
        if not quotas.enabled:
            return
        tenant = self.headers.get(TENANT_HEADER) or ANONYMOUS_TENANT
        ok, retry_after_s = quotas.try_take(tenant)
        if ok:
            return
        if telemetry.enabled():
            telemetry.fleet_quota_rejections().inc()
        self._count("submit", 429)
        raise QuotaExceeded(
            f"tenant {tenant!r} is over its submit quota "
            f"({quotas.rate:g}/s)", tenant=tenant,
            retry_after_s=retry_after_s, rate_per_s=quotas.rate,
            job_id=spec.job_id)

    def _submit_to_owner(self, spec: JobSpec) -> Tuple[int, dict, str]:
        """Route one spec to its owning node inside a gateway span whose
        trace id crosses the hop."""
        trace_id = telemetry.new_trace_id()
        self.server.remember_spec(spec.job_id, spec.to_dict())
        with tracing.span(f"gateway.submit {spec.job_id[:8]}", "fleet",
                          args={"trace": trace_id,
                                "shard_version": self._registry.version}):
            return self._router.forward(
                "POST", "/jobs", spec.job_id, payload=spec.to_dict(),
                headers={"X-Repro-Trace-Id": trace_id})

    # -- batch scatter-gather --------------------------------------------------

    def _scatter_groups(self, spec: JobSpec) -> "collections.OrderedDict":
        """home URL -> wavelengths of this batch, in batch order."""
        smap = self._registry.shard_map()
        groups: "collections.OrderedDict[str, list]" = \
            collections.OrderedDict()
        for w in spec.wavelengths or ():
            home = smap.owners(spec.point_spec(w).job_id)[0]
            groups.setdefault(home, []).append(w)
        return groups

    def _scatter_submit(self, spec: JobSpec, groups) -> None:
        """Split a cross-shard batch into per-shard sub-batches.

        Each sub-batch keeps the parent's computational fields, so its
        per-point job ids -- and therefore the per-point result
        documents -- are exactly what the unsplit batch would produce;
        only the batch *envelope* (which the gateway reassembles) is
        gateway-specific.
        """
        parts: List[dict] = []
        for home, ws in groups.items():
            sub = spec.subset_spec(ws)
            status, doc, url = self._submit_to_owner(sub)
            if status not in (200, 202):
                # One shard refused (e.g. backpressure): surface its
                # answer; already-submitted parts are harmless -- their
                # ids are content hashes a retry will dedup against.
                self._count("submit", status)
                self._send(status, dict(doc, scatter_part=home))
                return
            parts.append({"id": sub.job_id, "wavelengths": list(ws),
                          "node": url})
        record = {"spec": spec.to_dict(), "parts": parts,
                  "created_at": time.time()}
        self.server.remember_scatter(spec.job_id, record)
        self._count("submit", 202)
        self._send(202, {
            "id": spec.job_id,
            "state": "queued",
            "spec": spec.to_dict(),
            "scatter": {"parts": parts,
                        "shards": len(parts)},
        })

    def _scatter_get(self, batch_id: str, record: dict) -> None:
        """Gather a scattered batch: poll every part, assemble the batch
        document once all are terminal (per-point docs untouched)."""
        spec = JobSpec.from_dict(record["spec"])
        part_docs: List[dict] = []
        for part in record["parts"]:
            status, doc, url = self._lookup_job(part["id"])
            if status != 200:
                self._send(status, dict(doc, scatter_part=part["id"]))
                return
            part_docs.append(doc)
        states = [d.get("state") for d in part_docs]
        out = {
            "id": batch_id,
            "state": "done" if all(s == "done" for s in states) else (
                "failed" if "failed" in states else "running"),
            "spec": record["spec"],
            "scatter": {
                "parts": [
                    {"id": p["id"], "node": p["node"], "state": s}
                    for p, s in zip(record["parts"], states)],
                "shards": len(part_docs),
            },
        }
        if out["state"] == "done":
            out["result"] = self._assemble_batch(spec, record, part_docs)
        self._send(200, out)

    @staticmethod
    def _assemble_batch(spec: JobSpec, record: dict,
                        part_docs: List[dict]) -> dict:
        """The parent batch's result document from its parts' results.

        Points come back in the parent's wavelength order and each
        point entry is taken verbatim from its shard; the envelope
        counters are summed across shards (``plan`` is shared -- the
        tiling plan does not depend on wavelength).
        """
        by_wavelength: Dict[float, dict] = {}
        results = [d.get("result") or {} for d in part_docs]
        for res in results:
            for point in res.get("points", ()):
                by_wavelength[point["wavelength"]] = point
        return {
            "kind": "batch",
            "batch_width": len(spec.wavelengths or ()),
            "plan": results[0].get("plan") if results else None,
            "dedup_hits": sum(r.get("dedup_hits", 0) for r in results),
            "solved": sum(r.get("solved", 0) for r in results),
            "failed": sum(r.get("failed", 0) for r in results),
            "points": [by_wavelength[w]
                       for w in (spec.wavelengths or ())],
        }

    # -- lookups ---------------------------------------------------------------

    def _lookup_job(self, job_id: str) -> Tuple[int, dict, str]:
        """Routed GET with loss recovery: when no owner knows a job this
        gateway submitted, resubmit it to a surviving owner (content-
        addressed ids + store dedup keep this exactly-once in results).
        Resubmissions draw from the global retry budget, and a job first
        seen ``done`` has its result replicated to the other owners."""
        status, doc, url = self._router.forward(
            "GET", f"/jobs/{job_id}", job_id, retry_404=True)
        if status == 404:
            spec_dict = self.server.recall_spec(job_id)
            if spec_dict is not None:
                self._take_resubmit_budget(job_id)
                if telemetry.enabled():
                    telemetry.fleet_resubmits().inc()
                trace_id = telemetry.new_trace_id()
                with tracing.span(f"gateway.resubmit {job_id[:8]}", "fleet",
                                  args={"trace": trace_id}):
                    status, doc, url = self._router.forward(
                        "POST", "/jobs", job_id, payload=spec_dict,
                        headers={"X-Repro-Trace-Id": trace_id})
                if status == 202:
                    status = 200  # poll answer: the job exists again
        if (status == 200 and doc.get("state") == "done"
                and doc.get("result") is not None):
            self.server.maybe_replicate(job_id, doc["result"], from_url=url)
        return status, doc, url

    def _take_resubmit_budget(self, job_id: str) -> None:
        """A loss-resubmission is a retry too: draw from the global
        budget (or answer 503 instead of re-entering a failover storm)."""
        budget = self.server.retry_budget
        if not budget.enabled:
            return
        if not budget.try_take():
            raise NodeUnavailable(
                f"retry budget exhausted; not resubmitting job "
                f"{job_id[:12]}", budget_exhausted=True)
        if telemetry.enabled():
            telemetry.fleet_retry_budget_spent().inc()

    def _get(self) -> None:
        path = self.path.split("?")[0]
        events_id = self._events_path_id()
        if events_id is not None:
            self._proxy_events(events_id)
            return
        job_id = self._job_path_id()
        if job_id is not None:
            record = self.server.recall_scatter(job_id)
            if record is not None:
                self._scatter_get(job_id, record)
                return
            status, doc, url = self._lookup_job(job_id)
            self._count("get", status)
            if status == 200:
                doc["node"] = url
            self._send(status, doc)
            return
        if path == "/jobs":
            self._list_jobs()
        elif path == "/metrics":
            self._metrics()
        elif path == "/healthz":
            self._healthz()
        elif path == "/fleet":
            self._registry._export_metrics()
            self._send(200, self._registry.shard_map().to_dict())
        else:
            self._send(404, {"error": f"no such endpoint: GET {path}"})

    def _list_jobs(self) -> None:
        """Scatter-gather the job listings of every live node."""
        jobs: List[dict] = []
        errors: Dict[str, str] = {}
        for url in self._registry.alive_urls():
            try:
                status, doc, _ = http_request(
                    "GET", f"{url}/jobs", timeout=self.server.node_timeout_s,
                    headers={"X-Repro-Shard-Version":
                             str(self._registry.version)})
            except Exception as exc:  # noqa: BLE001 - listing is best-effort
                self._registry.mark_failure(url)
                errors[url] = str(exc)
                continue
            if status != 200:
                errors[url] = f"HTTP {status}"
                continue
            for job in doc.get("jobs", ()):
                job["node"] = url
                jobs.append(job)
        jobs.sort(key=lambda j: j.get("created_at") or 0)
        out = {"jobs": jobs}
        if errors:
            out["node_errors"] = errors
        self._count("list", 200)
        self._send(200, out)

    # -- fleet health + metrics ------------------------------------------------

    def _healthz(self) -> None:
        smap = self._registry.shard_map()
        alive = [n for n in smap.nodes if n["state"] == ALIVE]
        self._send(200, {
            "ok": bool(alive),
            "role": "gateway",
            "shard_version": smap.version,
            "replicas": smap.replicas,
            "nodes": list(smap.nodes),
            "alive": len(alive),
            "stale": [n["url"] for n in smap.nodes if n["stale"]],
            "split_brain": [n["url"] for n in smap.nodes
                            if n["split_brain"]],
            "admission": {
                "quota_per_s": self.server.quotas.rate,
                "quota_burst": (self.server.quotas.burst
                                if self.server.quotas.enabled else 0.0),
                "retry_budget_per_min": self.server.retry_budget.per_minute,
                "retry_budget_available": (
                    self.server.retry_budget.available()
                    if self.server.retry_budget.enabled else None),
            },
        })

    def _metrics(self) -> None:
        self._registry._export_metrics()
        if (self._query().get("format") or [""])[0] == "json":
            nodes: Dict[str, dict] = {}
            for url in self._registry.alive_urls():
                try:
                    status, doc, _ = http_request(
                        "GET", f"{url}/metrics?format=json",
                        timeout=self.server.node_timeout_s)
                    nodes[url] = doc if status == 200 else {
                        "error": f"HTTP {status}"}
                except Exception as exc:  # noqa: BLE001
                    nodes[url] = {"error": str(exc)}
            self._send(200, {
                "gateway": telemetry.METRICS.snapshot(),
                "shard_version": self._registry.version,
                "nodes": nodes,
            })
            return
        body = telemetry.METRICS.render().encode()
        self.send_response(200)
        self.send_header("Content-Type", telemetry.PROMETHEUS_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self._identity_headers()
        self.end_headers()
        self.wfile.write(body)

    # -- event-stream proxy ----------------------------------------------------

    def _proxy_events(self, job_id: str) -> None:
        if self.server.recall_scatter(job_id) is not None:
            self._send(404, {
                "error": "a scattered batch has no single event stream; "
                         "tail its parts (see GET /jobs/<id> .scatter)"})
            return
        query = self.path.split("?", 1)
        suffix = f"?{query[1]}" if len(query) > 1 else ""
        resp, url = self._router.open_stream(
            f"/jobs/{job_id}/events{suffix}", job_id,
            timeout=max(self.server.node_timeout_s, 90.0))
        try:
            status = getattr(resp, "status", None) or resp.code
            if status != 200:
                body = resp.read()
                try:
                    payload = json.loads(body or b"{}")
                except ValueError:
                    payload = {"error": f"HTTP {status} from {url}"}
                self._send(status, payload)
                return
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Transfer-Encoding", "chunked")
            self._identity_headers()
            self.send_header("X-Repro-Node-Url", url)
            self.end_headers()
            # read1 returns per-chunk as data arrives (a plain read(n)
            # would block until n bytes accumulate -- no live tailing).
            read = getattr(resp, "read1", resp.read)
            while True:
                chunk = read(65536)
                if not chunk:
                    break
                self.wfile.write(f"{len(chunk):x}\r\n".encode()
                                 + chunk + b"\r\n")
                self.wfile.flush()
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, TimeoutError,
                OSError):
            pass  # either side went away mid-stream
        finally:
            resp.close()
        self._count("events", 200)

    # -- cancels ---------------------------------------------------------------

    def _delete(self) -> None:
        job_id = self._job_path_id()
        if job_id is None:
            self._send(404, {"error": f"no such endpoint: DELETE {self.path}"})
            return
        status, doc, url = self._router.forward(
            "DELETE", f"/jobs/{job_id}", job_id, retry_404=True)
        self._count("cancel", status)
        if status == 200:
            self.server.forget_spec(job_id)
            doc["node"] = url
        self._send(status, doc)


def make_gateway(registry: NodeRegistry, host: str = "127.0.0.1",
                 port: int = 0,
                 node_timeout_s: float = 60.0,
                 quota: float = 0.0,
                 quota_burst: float = 0.0,
                 retry_budget: float = 60.0,
                 spec_cache_size: int = 4096) -> FleetServer:
    """Bind the gateway (port 0 = ephemeral; read ``server_port``).

    ``quota`` is the per-tenant submit rate in requests/second (0 =
    unlimited) and ``quota_burst`` its bucket depth (0 = twice the rate,
    at least 1); ``retry_budget`` caps failover hops and resubmissions
    per minute (0 = unlimited); ``spec_cache_size`` bounds the LRU of
    specs kept for resubmission.
    """
    return FleetServer((host, port), registry, node_timeout_s=node_timeout_s,
                       quota=quota, quota_burst=quota_burst,
                       retry_budget=retry_budget,
                       spec_cache_size=spec_cache_size)
