"""Stdlib HTTP serving layer for the solve service.

A ``ThreadingHTTPServer`` JSON API over a :class:`~repro.service.
scheduler.Scheduler` -- no dependencies beyond the standard library:

========  ======================  =========================================
Method    Path                    Meaning
========  ======================  =========================================
POST      ``/jobs``               submit a JobSpec (JSON body); 202 with
                                  the job record, 400 on an invalid spec,
                                  503 + ``Retry-After`` under backpressure
GET       ``/jobs``               list submitted jobs (summaries)
GET       ``/jobs/<id>``          one job, including its result when done;
                                  a job this process never ran but whose
                                  result is in the persistent store (a
                                  pre-reboot commit, or a replicated copy)
                                  answers as a synthesized ``done``
                                  document served from the store
PUT       ``/results/<id>``       accept a replicated result document
                                  (requires the ``X-Repro-Replicate``
                                  header; idempotent -- an existing
                                  document wins)
GET       ``/jobs/<id>/events``   live progress stream: one JSON event per
                                  line, chunked transfer, ends on the
                                  job's terminal event (``repro tail``)
DELETE    ``/jobs/<id>``          cancel a queued job (409 if not queued)
GET       ``/metrics``            Prometheus text exposition (format
                                  0.0.4) of the telemetry registry;
                                  ``?format=json`` returns the legacy
                                  JSON rollup plus a telemetry snapshot
GET       ``/registry``           persistent plan-registry listing
GET       ``/healthz``            liveness probe: ``ok``, ``draining``,
                                  ``queue_depth``, ``running``,
                                  ``checkpoint_lag_s``, plus the stable
                                  ``node_id`` and last-seen
                                  ``shard_version`` (fleet membership)
========  ======================  =========================================

Fleet plumbing: every response carries an ``X-Repro-Node`` header with
the node's stable identity; a gateway's ``X-Repro-Shard-Version``
request header is remembered and echoed through ``/healthz`` so the
gateway (and ``repro top``) can spot stale or split-brain nodes, and an
``X-Repro-Trace-Id`` header on submits threads the gateway's trace id
into the job so one trace spans the HTTP hop.

Each accepted connection gets a per-request socket timeout (the
server's ``request_timeout``, :data:`REQUEST_TIMEOUT_S`) and the listen
backlog is bounded, so a stalled or malicious client can neither wedge a
handler thread forever nor queue unbounded connections.

Typed failures (:class:`~repro.resilience.errors.ReproError`) escaping a
handler map to their ``http_status`` with the error's JSON ``payload()``
as the body, so a diverged solve reads as 422, an unavailable engine as
503, a checkpoint token mismatch as 409 -- uniformly, without each
route hand-rolling status codes.

``make_server(scheduler, host, port)`` binds (port 0 picks an ephemeral
port -- used by tests and the CI smoke job) and returns the server; the
caller drives ``serve_forever``.

:class:`JsonHandler` is the request plumbing (timeout, JSON bodies,
``/jobs/<id>`` path parsing, the :class:`ReproError` mapping) shared with
the fleet gateway, which speaks the same API.
"""

from __future__ import annotations

import json
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

import uuid

from .. import config, telemetry
from ..resilience import faults
from ..resilience.checkpoint import latest_lag_s
from ..resilience.errors import RESILIENCE_COUNTERS, ReproError
from .jobs import JobSpec
from .scheduler import QueueFullError, Scheduler

__all__ = ["JsonHandler", "REQUEST_TIMEOUT_S", "ServiceServer",
           "make_server"]

#: Per-request socket timeout of a node and of the gateway: a client
#: that stops reading or writing is disconnected after this many idle
#: seconds.
REQUEST_TIMEOUT_S = 30.0

#: The event stream gives up after this long with no new events (the job
#: is live but silent -- a solver between convergence checks).
EVENTS_IDLE_TIMEOUT_S = 60.0

#: Retry-After hint on backpressure 503s: a queue slot usually frees up
#: within a couple of seconds on the workloads this service runs.
BACKPRESSURE_RETRY_AFTER_S = 2


class ServiceServer(ThreadingHTTPServer):
    """HTTP server carrying its scheduler (handlers reach it via
    ``self.server.scheduler``)."""

    daemon_threads = True
    allow_reuse_address = True
    #: Bounded listen backlog: beyond this many un-accepted connections
    #: the kernel refuses, instead of queueing clients without limit.
    request_queue_size = 32
    request_timeout = REQUEST_TIMEOUT_S

    def __init__(self, addr: Tuple[str, int], scheduler: Scheduler,
                 node_id: Optional[str] = None):
        super().__init__(addr, _Handler)
        self.scheduler = scheduler
        #: Flipped by the graceful-shutdown path (``repro serve`` on
        #: SIGTERM/SIGINT) so ``/healthz`` reports the drain.
        self.draining = False
        #: Stable identity of this node (``REPRO_NODE_ID`` or random):
        #: reported by ``/healthz`` and every ``X-Repro-Node`` header so
        #: a gateway can tell a restarted process from a live one.
        self.node_id = (node_id or config.get("REPRO_NODE_ID")
                        or uuid.uuid4().hex[:12])
        #: Last shard-map version a gateway announced to us (``None``
        #: until a gateway speaks); echoed through ``/healthz``.
        self.shard_version: Optional[int] = None


class JsonHandler(BaseHTTPRequestHandler):
    """Request plumbing of the JSON API, for a server that carries a
    ``request_timeout``.  A subclass supplies ``_post`` / ``_get`` /
    ``_delete`` and :meth:`_identity_headers`."""

    protocol_version = "HTTP/1.1"

    def setup(self) -> None:
        # Per-request socket timeout *before* the stream wrappers exist:
        # ``StreamRequestHandler.setup`` applies ``self.timeout`` to the
        # connection, and ``handle_one_request`` treats a timed-out read
        # as end-of-connection -- a stalled client frees its thread.
        self.timeout = self.server.request_timeout
        super().setup()

    def log_message(self, fmt, *args):  # quiet by default; tracing covers it
        pass

    def _identity_headers(self) -> None:
        """Headers every response of this server carries."""
        raise NotImplementedError

    def _send(self, code: int, payload,
              headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self._identity_headers()
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self):
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body")
        return json.loads(raw)

    def _path_parts(self) -> List[str]:
        return [p for p in self.path.split("?")[0].split("/") if p]

    def _job_path_id(self) -> Optional[str]:
        parts = self._path_parts()
        if len(parts) == 2 and parts[0] == "jobs":
            return parts[1]
        return None

    def _events_path_id(self) -> Optional[str]:
        parts = self._path_parts()
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
            return parts[1]
        return None

    def _query(self) -> dict:
        return urllib.parse.parse_qs(
            urllib.parse.urlsplit(self.path).query)

    def _guard(self, handler) -> None:
        """Run a route with the uniform failure mapping: any
        :class:`ReproError` becomes its ``http_status`` + ``payload()``
        (the graceful-degradation chain's HTTP face)."""
        try:
            handler()
        except ReproError as exc:
            self._send(exc.http_status, exc.payload())

    def do_POST(self) -> None:
        self._guard(self._post)

    def do_GET(self) -> None:
        self._guard(self._get)

    def do_DELETE(self) -> None:
        self._guard(self._delete)


class _Handler(JsonHandler):
    server: ServiceServer

    def _identity_headers(self) -> None:
        """The node's identity (fleet membership probes)."""
        self.send_header("X-Repro-Node", self.server.node_id)
        if self.server.shard_version is not None:
            self.send_header("X-Repro-Shard-Version",
                             str(self.server.shard_version))

    @property
    def _sched(self) -> Scheduler:
        return self.server.scheduler

    def _guard(self, handler) -> None:
        def route() -> None:
            announced = self.headers.get("X-Repro-Shard-Version")
            if announced is not None:
                try:
                    self.server.shard_version = int(announced)
                except ValueError:
                    pass  # a malformed header never breaks the request
            faults.hit("http.request")
            handler()

        super()._guard(route)

    # -- routes ----------------------------------------------------------------

    def do_PUT(self) -> None:
        self._guard(self._put)

    def _post(self) -> None:
        if self.path.split("?")[0] != "/jobs":
            self._send(404, {"error": f"no such endpoint: POST {self.path}"})
            return
        try:
            spec = JobSpec.from_dict(self._read_body())
        except (ValueError, TypeError) as exc:
            self._send(400, {"error": f"invalid job spec: {exc}"})
            return
        try:
            job = self._sched.submit(
                spec, trace_id=self.headers.get("X-Repro-Trace-Id") or None)
        except QueueFullError as exc:
            self._send(503, {"error": exc.reason, "rejected": True},
                       headers={"Retry-After":
                                str(BACKPRESSURE_RETRY_AFTER_S)})
            return
        self._send(202, job.to_dict(include_result=False))

    def _result_path_id(self) -> Optional[str]:
        parts = self._path_parts()
        if len(parts) == 2 and parts[0] == "results":
            return parts[1]
        return None

    def _put(self) -> None:
        """``PUT /results/<id>``: accept a replicated result document.

        Gated on the ``X-Repro-Replicate`` header so a stray PUT cannot
        quietly seed the store.  Idempotent: an existing document (this
        node computed it, or an earlier replication landed it) wins --
        ids are content hashes, so the bytes are identical either way.
        """
        job_id = self._result_path_id()
        if job_id is None:
            self._send(404, {"error": f"no such endpoint: PUT {self.path}"})
            return
        if not self.headers.get("X-Repro-Replicate"):
            self._send(403, {"error": "replica writes require the "
                                      "X-Repro-Replicate header"})
            return
        try:
            body = self._read_body()
            result = body["result"]
        except (ValueError, TypeError, KeyError) as exc:
            self._send(400, {"error": f"invalid replica document: {exc}"})
            return
        stored = self._sched.store.put_replica(
            job_id, result, replicated_from=body.get("node") or None)
        self._send(200, {"id": job_id, "stored": stored,
                         "dedup": not stored})

    def _get(self) -> None:
        path = self.path.split("?")[0]
        events_id = self._events_path_id()
        if events_id is not None:
            self._stream_events(events_id)
            return
        job_id = self._job_path_id()
        if job_id is not None:
            job = self._sched.get(job_id)
            if job is None:
                doc = self._store_fallback(job_id)
                if doc is None:
                    self._send(404, {"error": f"unknown job {job_id}"})
                else:
                    self._send(200, doc)
            else:
                self._send(200, job.to_dict())
            return
        if path == "/jobs":
            self._send(200, {
                "jobs": [j.to_dict(include_result=False)
                         for j in self._sched.jobs()],
            })
        elif path == "/metrics":
            if (self._query().get("format") or [""])[0] == "json":
                self._send(200, self._metrics_json())
            else:
                body = telemetry.METRICS.render().encode()
                self.send_response(200)
                self.send_header("Content-Type",
                                 telemetry.PROMETHEUS_CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self._identity_headers()
                self.end_headers()
                self.wfile.write(body)
        elif path == "/registry":
            self._send(200, {"plans": self._sched.registry.entries()})
        elif path == "/healthz":
            draining = self.server.draining or self._sched.draining
            self._send(200, {
                "ok": True,
                "draining": draining,
                "queue_depth": self._sched.queue_depth(),
                "running": self._sched.running_count(),
                "checkpoint_lag_s": latest_lag_s(self._sched.checkpoint_dir),
                "node_id": self.server.node_id,
                "shard_version": self.server.shard_version,
            })
        else:
            self._send(404, {"error": f"no such endpoint: GET {path}"})

    def _store_fallback(self, job_id: str) -> Optional[dict]:
        """A job this process never ran, served from the persistent
        store: the warm-reboot and replica-promotion read path.  The
        ``result`` payload is the stored bytes verbatim; only the
        envelope is synthesized (``from_store`` marks it, provenance
        rides alongside)."""
        stored = self._sched.store.get_doc(job_id)
        if stored is None:
            return None
        doc = {
            "id": job_id,
            "state": "done",
            "from_store": True,
            "attempts": 0,
            "dedup_count": 0,
            "error": None,
            "result": stored["result"],
        }
        if stored.get("node"):
            doc["computed_by"] = stored["node"]
        if stored.get("replicated_from"):
            doc["replicated_from"] = stored["replicated_from"]
        return doc

    def _metrics_json(self) -> dict:
        """The legacy JSON rollup (every subsystem's native counters)
        plus a flat snapshot of the telemetry registry."""
        from ..machine.counters import SUBSTRATE_COUNTERS

        return {
            "scheduler": self._sched.stats(),
            "registry": self._sched.registry.counters(),
            "store": self._sched.store.counters(),
            "substrate": SUBSTRATE_COUNTERS.snapshot(),
            "resilience": {
                "counters": RESILIENCE_COUNTERS.snapshot(),
                "faults": faults.fired_summary(),
            },
            "telemetry": telemetry.METRICS.snapshot(),
        }

    # -- live progress streaming -----------------------------------------------

    def _write_chunk(self, data: bytes) -> None:
        """One HTTP/1.1 chunk (an empty chunk terminates the stream)."""
        self.wfile.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
        self.wfile.flush()

    def _write_event(self, event: dict) -> None:
        self._write_chunk(json.dumps(event, sort_keys=True).encode() + b"\n")

    def _stream_events(self, job_id: str) -> None:
        """Chunked NDJSON stream of a job's progress events; follows the
        ring (and any forked worker's event file) until the terminal
        ``end`` event, then closes."""
        if not telemetry.enabled():
            self._send(503, {"error": "telemetry is disabled "
                                      "(REPRO_TELEMETRY=0)"})
            return
        job = self._sched.get(job_id)
        if job is None:
            self._send(404, {"error": f"unknown job {job_id}"})
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self._identity_headers()
        self.end_headers()
        hub = telemetry.PROGRESS
        cursor = -1
        deadline = time.monotonic() + EVENTS_IDLE_TIMEOUT_S
        try:
            while True:
                events, cursor, missed = hub.events_since(job_id, cursor)
                if missed:
                    self._write_event({"kind": "gap", "missed": missed})
                ended = False
                for ev in events:
                    self._write_event(ev)
                    ended = ended or ev.get("kind") == "end"
                if ended:
                    break
                if events:
                    deadline = time.monotonic() + EVENTS_IDLE_TIMEOUT_S
                    continue
                job = self._sched.get(job_id)
                if job is not None and job.terminal:
                    # Drain stragglers (a forked worker's last lines),
                    # then synthesize the terminal event if none came.
                    events, cursor, _ = hub.events_since(job_id, cursor)
                    for ev in events:
                        self._write_event(ev)
                        ended = ended or ev.get("kind") == "end"
                    if not ended:
                        self._write_event({"kind": "end", "state": job.state,
                                           "synthetic": True})
                    break
                if time.monotonic() > deadline:
                    self._write_event({"kind": "timeout",
                                       "idle_s": EVENTS_IDLE_TIMEOUT_S})
                    break
                time.sleep(0.05)
            self._write_chunk(b"")
        except (BrokenPipeError, ConnectionResetError, TimeoutError, OSError):
            pass  # reader went away or stalled out; nothing to clean up

    def _delete(self) -> None:
        job_id = self._job_path_id()
        if job_id is None:
            self._send(404, {"error": f"no such endpoint: DELETE {self.path}"})
            return
        job = self._sched.get(job_id)
        if job is None:
            self._send(404, {"error": f"unknown job {job_id}"})
            return
        try:
            self._sched.cancel(job_id)
        except ValueError as exc:
            self._send(409, {"error": str(exc)})
            return
        self._send(200, job.to_dict(include_result=False))


def make_server(scheduler: Scheduler, host: str = "127.0.0.1",
                port: int = 0,
                node_id: Optional[str] = None) -> ServiceServer:
    """Bind the JSON API (port 0 = ephemeral; read ``server_port``)."""
    return ServiceServer((host, port), scheduler, node_id=node_id)
