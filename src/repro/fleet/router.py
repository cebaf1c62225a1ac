"""Shard-aware request routing with replica failover.

The router turns a content-addressed job id into an ordered list of
candidate nodes (home first, then its replica -- both from the ring over
*all* members, reordered so live nodes are tried first) and forwards an
HTTP request down that list:

* a **connection-level** failure (refused, reset, timed out socket) is
  node death: the node is declared dead in the registry -- bumping the
  shard-map version immediately -- a failover is counted, and the next
  candidate is tried;
* an **HTTP-level** response, success or error, is authoritative and
  passed through verbatim (a 503 under backpressure or a 400 must reach
  the client unchanged, not trigger a replica retry that could execute
  a rejected job twice);
* ``retry_404=True`` (lookups only) additionally tries the next owner on
  404 -- after a failover the job may live on the replica -- returning
  the first 404 only if every owner lacks the job.

When every candidate is connection-dead the router raises
:class:`~repro.resilience.errors.NodeUnavailable`, which the gateway
maps to 503 + ``Retry-After`` (the taxonomy marks it retryable).

An optional :class:`~repro.fleet.admission.RetryBudget` caps how fast
failover hops may burn through the fleet: each *additional* candidate
tried after a connection death costs one token, and an exhausted budget
raises :class:`NodeUnavailable` instead of hammering the survivors -- a
flapping node amplifies load only up to the budget rate, and the spend
is visible as ``repro_fleet_retry_budget_spent_total``.

Every forwarded request carries ``X-Repro-Shard-Version`` so nodes learn
the fleet's current view (and ``/healthz`` can expose staleness), and
responses' ``X-Repro-Node`` headers feed learned node ids back into the
registry.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

from .. import telemetry
from ..resilience.errors import NodeUnavailable
from ..service.jobs import JobState
from .admission import RetryBudget
from .nodes import ALIVE, NodeRegistry

__all__ = ["Router", "http_request", "poll_job"]

#: Connection-level failures that mean "this node is gone" (URLError
#: covers refused/unreachable; OSError covers reset/timeout sockets).
_CONNECTION_ERRORS = (urllib.error.URLError, ConnectionError,
                      TimeoutError, OSError)


def http_request(method: str, url: str,
                 payload: Optional[dict] = None,
                 headers: Optional[Dict[str, str]] = None,
                 timeout: float = 30.0) -> Tuple[int, dict, Dict[str, str]]:
    """One JSON round trip -> ``(status, body, response_headers)``.

    HTTP error statuses are returned, not raised; connection-level
    failures propagate to the caller (the router's failover signal).
    """
    data = None
    req_headers = dict(headers or {})
    if payload is not None:
        data = json.dumps(payload).encode()
        req_headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, headers=req_headers,
                                 method=method)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read() or b"{}"), dict(
                resp.headers)
    except urllib.error.HTTPError as exc:
        # The node answered: its status/body are the response.
        try:
            body = json.loads(exc.read() or b"{}")
        except ValueError:
            body = {"error": f"non-JSON {exc.code} response"}
        return exc.code, body, dict(exc.headers or {})


def poll_job(url: str, job_id: str, timeout: float = 120.0,
             strict: bool = False) -> dict:
    """Poll ``GET <url>/jobs/<job_id>`` until the job is terminal -> its
    document.  Any other answer is polled through (a client rides out a
    503) and named by the ``TimeoutError`` -- unless ``strict``, where
    the first non-200 raises: tests and smokes hold failover to be
    *transparent*, no error status ever reaching the client."""
    deadline = time.monotonic() + timeout
    while True:
        status, doc, _ = http_request("GET", f"{url}/jobs/{job_id}")
        if status == 200 and doc["state"] in JobState.TERMINAL:
            return doc
        if strict and status != 200:
            raise RuntimeError(f"poll {job_id[:12]}: HTTP {status} {doc}")
        if time.monotonic() > deadline:
            raise TimeoutError(f"job {job_id} still {doc.get('state')!r} "
                               f"(HTTP {status}) after {timeout:g}s")
        time.sleep(0.15)


class Router:
    """Routes content keys to their owning nodes, failing over on death."""

    def __init__(self, registry: NodeRegistry, timeout_s: float = 30.0,
                 budget: Optional["RetryBudget"] = None):
        self.registry = registry
        self.timeout_s = timeout_s
        self.budget = budget

    # -- placement -------------------------------------------------------------

    def candidates(self, job_id: str) -> List[str]:
        """Owner URLs of ``job_id``: [home, replica], live nodes first.

        Placement comes from the full-membership ring (stable across
        reboots); liveness only reorders, so a revived home node is
        preferred again as soon as a heartbeat sees it.
        """
        smap = self.registry.shard_map()
        owners = smap.owners(job_id)
        states = {n["url"]: n["state"] for n in smap.nodes}
        return sorted(owners, key=lambda u: states.get(u) != ALIVE)

    def home(self, job_id: str) -> str:
        return self.registry.shard_map().owners(job_id)[0]

    def _headers(self, extra: Optional[Dict[str, str]] = None) -> dict:
        headers = {"X-Repro-Shard-Version": str(self.registry.version)}
        if extra:
            headers.update(extra)
        return headers

    # -- forwarding ------------------------------------------------------------

    def forward(self, method: str, path: str, job_id: str,
                payload: Optional[dict] = None,
                headers: Optional[Dict[str, str]] = None,
                retry_404: bool = False) -> Tuple[int, dict, str]:
        """Forward to the first owner that answers -> ``(status, body,
        url)``; raises :class:`NodeUnavailable` when all owners are
        connection-dead."""
        first_404: Optional[Tuple[int, dict, str]] = None
        urls = self.candidates(job_id)
        last_error: Optional[Exception] = None
        for i, url in enumerate(urls):
            try:
                status, body, _ = http_request(
                    method, f"{url}{path}", payload=payload,
                    headers=self._headers(headers), timeout=self.timeout_s)
            except _CONNECTION_ERRORS as exc:
                last_error = exc
                self._note_death(url, failover=i + 1 < len(urls))
                if i + 1 < len(urls):
                    self._spend_retry(job_id, urls)
                continue
            if retry_404 and status == 404 and i + 1 < len(urls):
                first_404 = (status, body, url)
                continue
            return status, body, url
        if first_404 is not None:
            return first_404
        raise NodeUnavailable(
            f"no live node owns shard of job {job_id[:12]}",
            owners=urls, last_error=str(last_error))

    def open_stream(self, path: str, job_id: str,
                    headers: Optional[Dict[str, str]] = None,
                    timeout: Optional[float] = None):
        """Open a streaming GET against the first live owner ->
        ``(response, url)`` (caller reads and closes)."""
        urls = self.candidates(job_id)
        last_error: Optional[Exception] = None
        for i, url in enumerate(urls):
            req = urllib.request.Request(
                f"{url}{path}", headers=self._headers(headers))
            try:
                resp = urllib.request.urlopen(
                    req, timeout=self.timeout_s if timeout is None
                    else timeout)
            except urllib.error.HTTPError as exc:
                return exc, url  # HTTPError is a readable response
            except _CONNECTION_ERRORS as exc:
                last_error = exc
                self._note_death(url, failover=i + 1 < len(urls))
                if i + 1 < len(urls):
                    self._spend_retry(job_id, urls)
                continue
            return resp, url
        raise NodeUnavailable(
            f"no live node owns shard of job {job_id[:12]}",
            owners=urls, last_error=str(last_error))

    def _note_death(self, url: str, failover: bool) -> None:
        self.registry.mark_dead(url)
        if telemetry.enabled() and failover:
            telemetry.fleet_failovers().inc()

    def _spend_retry(self, job_id: str, urls: List[str]) -> None:
        """Draw one failover hop from the retry budget (if any); an
        exhausted budget aborts the failover chain rather than letting a
        flapping node amplify load without bound."""
        if self.budget is None or not self.budget.enabled:
            return
        if not self.budget.try_take():
            raise NodeUnavailable(
                f"retry budget exhausted failing over job {job_id[:12]}",
                owners=urls, budget_exhausted=True)
        if telemetry.enabled():
            telemetry.fleet_retry_budget_spent().inc()
