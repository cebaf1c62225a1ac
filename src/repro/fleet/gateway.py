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
                                  batch is submitted as its points, each
                                  point its own solve job on its home
GET       ``/jobs``               scatter-gather job listings of every
                                  live node
GET       ``/jobs/<id>``          routed lookup (tries the replica on 404
                                  after a failover; resubmits a job the
                                  gateway saw if its home died holding it);
                                  a batch id is assembled from its points
GET       ``/jobs/<id>/events``   proxied NDJSON progress stream; a batch
                                  id answers 404 naming its points
DELETE    ``/jobs/<id>``          routed cancel; a batch id cancels its
                                  points
GET       ``/metrics``            the gateway's own ``repro_fleet_*``
                                  series (Prometheus text);
                                  ``?format=json`` adds every node's JSON
                                  rollup under ``nodes``
GET       ``/healthz``            fleet health: per-node liveness,
                                  ``node_id``, staleness/split-brain
                                  flags and the shard-map version
GET       ``/fleet``              the versioned shard map itself
========  ======================  =========================================

A batch behind the gateway is its points: every wavelength is submitted
as ``spec.point_spec(w)`` through the path a direct point submit takes
(routing, store dedup, per-point replication, failover, loss
resubmission), so each point is stored on its own home exactly once and
reads back by its point id.  The batch costs one admission token; its
spec waits in the spec cache, from which ``GET`` builds the document a
node's batch job returns.  A batch whose spec was evicted answers 404
while every point stays readable; resubmitting it rebuilds it with no
execution.

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
from typing import Dict, List, Optional, Tuple

from .. import forksafe, telemetry
from ..resilience import faults
from ..resilience.errors import NodeUnavailable, QuotaExceeded, ReproError
from ..service.jobs import JobSpec, JobState
from ..service.server import JsonHandler, JsonServer
from .admission import ANONYMOUS_TENANT, TENANT_HEADER, RetryBudget, \
    TenantQuotas
from .nodes import ALIVE, NodeRegistry
from .router import Router, http_request

__all__ = ["FleetServer", "make_gateway", "RETRY_AFTER_S"]

#: Retry-After hint on 503s: one heartbeat is enough to revive a node.
RETRY_AFTER_S = 2


class FleetServer(JsonServer):
    """The gateway HTTP server; handlers reach the fleet via
    ``self.server``."""

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
        self._lock = forksafe.lock("fleet.gateway")
        #: job id -> spec dict of submits this gateway routed, so a job
        #: that died with its node can be resubmitted to a replica
        #: (LRU-bounded at ``spec_cache_size``; evictions are counted).
        self.spec_cache: "collections.OrderedDict[str, dict]" = \
            collections.OrderedDict()
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
            self._submit_batch(spec)
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
        with telemetry.use(telemetry.JobContext(spec.job_id, trace_id)), \
                telemetry.span(f"gateway.submit {spec.job_id[:8]}", "fleet",
                               args={"shard_version": self._registry.version}):
            return self._router.forward(
                "POST", "/jobs", spec.job_id, payload=spec.to_dict(),
                headers={"X-Repro-Trace-Id": trace_id})

    # -- batches: a fan-out of points -----------------------------------------

    def _recall_batch(self, job_id: str) -> Optional[JobSpec]:
        """The batch spec this gateway submitted under ``job_id``, if it
        is still in the spec cache."""
        spec = self.server.recall_spec(job_id)
        if spec is None or spec["kind"] != "batch":
            return None
        return JobSpec.from_dict(spec)

    def _submit_batch(self, spec: JobSpec) -> None:
        """Submit every wavelength of a batch as that point's own solve
        job (:meth:`_submit_to_owner`), then cache the batch spec for
        ``GET``.  A refused point refuses the batch; the points already
        submitted are content-addressed, so a retry dedups onto them."""
        points = []
        for point in map(spec.point_spec, spec.wavelengths):
            status, doc, url = self._submit_to_owner(point)
            if status not in (200, 202):
                self._count("submit", status)
                self._send(status, dict(doc, point=point.job_id))
                return
            points.append({"wavelength": point.wavelength,
                           "id": point.job_id, "node": url})
        self.server.remember_spec(spec.job_id, spec.to_dict())
        self._count("submit", 202)
        self._send(202, {"id": spec.job_id, "state": JobState.QUEUED,
                         "spec": spec.to_dict(), "points": points})

    def _get_batch(self, spec: JobSpec) -> None:
        """The batch document from its points' jobs, in the shape a
        node's batch job returns (``jobs._run_batch_solve``): ``done``
        once every point is terminal, a failed or cancelled point listed
        with its ``error`` as a diverged lane is."""
        envelope, points = [], []
        for point in map(spec.point_spec, spec.wavelengths):
            status, doc, url = self._lookup_job(point.job_id,
                                                point.to_dict())
            if status != 200:
                self._count("get", status)
                self._send(status, dict(doc, point=point.job_id))
                return
            envelope.append({"id": point.job_id, "node": url,
                             "state": doc["state"]})
            entry = {"wavelength": point.wavelength, "id": point.job_id,
                     "from_store": bool(doc.get("from_store")),
                     "result": doc.get("result")}
            if doc["state"] in (JobState.FAILED, JobState.CANCELLED):
                entry["error"] = doc.get("error") or doc["state"]
            points.append(entry)
        states = {p["state"] for p in envelope}
        out = {"id": spec.job_id, "spec": spec.to_dict(), "points": envelope,
               "state": (JobState.DONE if states <= set(JobState.TERMINAL)
                         else JobState.QUEUED if states == {JobState.QUEUED}
                         else JobState.RUNNING)}
        if out["state"] == JobState.DONE:
            dedup_hits = sum(p["from_store"] for p in points)
            out["result"] = {
                "kind": "batch",
                "batch_width": len(points),
                "plan": next((p["result"]["plan"] for p in points
                              if p["result"]), None),
                "dedup_hits": dedup_hits,
                "solved": len(points) - dedup_hits,
                "failed": sum("error" in p for p in points),
                "points": points,
            }
        self._count("get", 200)
        self._send(200, out)

    # -- lookups ---------------------------------------------------------------

    def _lookup_job(self, job_id: str, spec_dict: Optional[dict] = None
                    ) -> Tuple[int, dict, str]:
        """Routed GET with loss recovery: when no owner knows a job this
        gateway submitted, resubmit it to a surviving owner (content-
        addressed ids + store dedup keep this exactly-once in results).
        ``spec_dict`` is the job's spec when the caller knows it (a
        batch's point), used should the spec cache have dropped it.
        Resubmissions draw from the global retry budget, and a job first
        seen ``done`` has its result replicated to the other owners."""
        status, doc, url = self._router.forward(
            "GET", f"/jobs/{job_id}", job_id, retry_404=True)
        if status == 404:
            spec_dict = self.server.recall_spec(job_id) or spec_dict
            if spec_dict is not None:
                self._take_resubmit_budget(job_id)
                if telemetry.enabled():
                    telemetry.fleet_resubmits().inc()
                trace_id = telemetry.new_trace_id()
                with telemetry.use(telemetry.JobContext(job_id, trace_id)), \
                        telemetry.span(f"gateway.resubmit {job_id[:8]}",
                                       "fleet"):
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
            batch = self._recall_batch(job_id)
            if batch is not None:
                self._get_batch(batch)
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
        batch = self._recall_batch(job_id)
        if batch is not None:
            self._send(404, {
                "error": "a batch behind the gateway has no single "
                         "event stream: tail each of its points",
                "points": [p.job_id
                           for p in map(batch.point_spec, batch.wavelengths)]})
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
        batch = self._recall_batch(job_id)
        if batch is None:
            status, doc = self._cancel(job_id)
        else:
            # Every point's own cancel; the batch answers 200 when any
            # point was still queued, 409 when none was.
            points = []
            for point in map(batch.point_spec, batch.wavelengths):
                st, out = self._cancel(point.job_id)
                points.append({"id": point.job_id, "status": st,
                               "state": out.get("state")})
            status = 200 if any(p["status"] == 200 for p in points) else 409
            doc = {"id": job_id, "points": points}
        self._count("cancel", status)
        self._send(status, doc)

    def _cancel(self, job_id: str) -> Tuple[int, dict]:
        """Routed cancel of one job; a cancelled job's spec is dropped so
        a loss is never resubmitted."""
        status, doc, url = self._router.forward(
            "DELETE", f"/jobs/{job_id}", job_id, retry_404=True)
        if status == 200:
            self.server.forget_spec(job_id)
            doc["node"] = url
        return status, doc


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
