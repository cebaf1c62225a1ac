"""End-to-end tests of the HTTP serving layer (ephemeral port)."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import JobSpec, Scheduler, make_server, run_job

FAST_SOLVE = dict(kind="solve", preset="vacuum", grid=10, wavelength=10.0,
                  tol=1e-4, max_steps=20)
FAST_TUNE = dict(kind="tune", grid=8, threads=2)


def _request(method, url, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30.0) as resp:
            return resp.status, json.loads(resp.read() or b"{}")
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read() or b"{}")


def _poll(base, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while True:
        status, doc = _request("GET", f"{base}/jobs/{job_id}")
        assert status == 200
        if doc["state"] in ("done", "failed", "cancelled"):
            return doc
        assert time.monotonic() < deadline, f"job stuck {doc['state']}"
        time.sleep(0.05)


@pytest.fixture()
def service():
    """A live server on an ephemeral port, torn down after the test."""
    sched = Scheduler(workers=2, retry_base_s=0.001).start()
    server = make_server(sched, port=0)  # port 0: the OS picks one
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_port}"
    try:
        yield base, sched
    finally:
        server.shutdown()
        server.server_close()
        sched.stop()
        thread.join(timeout=5.0)


class TestSubmission:
    def test_submit_and_complete(self, service):
        base, _ = service
        status, doc = _request("POST", f"{base}/jobs", FAST_SOLVE)
        assert status == 202
        assert doc["state"] == "queued" and "result" not in doc
        done = _poll(base, doc["id"])
        assert done["state"] == "done"
        assert done["result"]["kind"] == "solve"

    def test_served_result_is_bit_identical(self, service):
        base, _ = service
        _, doc = _request("POST", f"{base}/jobs", FAST_SOLVE)
        served = _poll(base, doc["id"])["result"]
        assert served == run_job(JobSpec(**FAST_SOLVE))

    def test_duplicate_submission_coalesces(self, service):
        base, sched = service
        _, first = _request("POST", f"{base}/jobs", FAST_SOLVE)
        _, second = _request("POST", f"{base}/jobs",
                             dict(FAST_SOLVE, priority=3))
        assert second["id"] == first["id"]
        assert second["dedup_count"] == 1
        _poll(base, first["id"])
        assert sched.stats()["executed"] == 1

    def test_invalid_spec_is_400(self, service):
        base, _ = service
        for bad in (dict(FAST_SOLVE, grid=3),
                    dict(FAST_SOLVE, frobnicate=1),
                    dict(FAST_SOLVE, kind="dance")):
            status, doc = _request("POST", f"{base}/jobs", bad)
            assert status == 400
            assert "invalid job spec" in doc["error"]

    def test_empty_body_is_400(self, service):
        base, _ = service
        status, _doc = _request("POST", f"{base}/jobs", None)
        assert status == 400

    def test_backpressure_is_503(self):
        # A scheduler that is never started: queued jobs pile up and the
        # bounded queue rejects with 503 + reason.
        sched = Scheduler(workers=1, queue_size=1)
        server = make_server(sched, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_port}"
        try:
            status, _ = _request("POST", f"{base}/jobs", FAST_TUNE)
            assert status == 202
            status, doc = _request("POST", f"{base}/jobs",
                                   dict(FAST_TUNE, grid=10))
            assert status == 503
            assert doc["rejected"] and "queue full" in doc["error"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)


class TestQueries:
    def test_job_listing(self, service):
        base, _ = service
        _request("POST", f"{base}/jobs", FAST_TUNE)
        _request("POST", f"{base}/jobs", dict(FAST_TUNE, grid=10))
        status, doc = _request("GET", f"{base}/jobs")
        assert status == 200 and len(doc["jobs"]) == 2
        assert all("result" not in j for j in doc["jobs"])

    def test_unknown_job_is_404(self, service):
        base, _ = service
        status, doc = _request("GET", f"{base}/jobs/ffffffffffffffffffffffff")
        assert status == 404 and "unknown job" in doc["error"]

    def test_unknown_endpoint_is_404(self, service):
        base, _ = service
        assert _request("GET", f"{base}/teapot")[0] == 404
        assert _request("POST", f"{base}/teapot", {})[0] == 404

    def test_healthz(self, service):
        base, _ = service
        status, doc = _request("GET", f"{base}/healthz")
        assert status == 200
        assert doc["ok"] is True
        assert doc["draining"] is False
        assert doc["queue_depth"] >= 0
        assert doc["running"] >= 0
        assert "checkpoint_lag_s" in doc

    def test_healthz_reports_node_identity(self, service):
        base, _ = service
        status, doc = _request("GET", f"{base}/healthz")
        assert status == 200
        # A stable node id (generated when REPRO_NODE_ID is unset) and
        # the last gateway-announced shard-map version (None until a
        # gateway talks to us).
        assert doc["node_id"]
        _, again = _request("GET", f"{base}/healthz")
        assert again["node_id"] == doc["node_id"]
        assert doc["shard_version"] is None

    def test_responses_carry_node_header(self, service):
        base, _ = service
        with urllib.request.urlopen(f"{base}/healthz", timeout=30.0) as resp:
            node_header = resp.headers["X-Repro-Node"]
            doc = json.loads(resp.read())
        assert node_header == doc["node_id"]

    def test_shard_version_adopted_from_gateway_header(self, service):
        base, _ = service
        req = urllib.request.Request(
            f"{base}/healthz", headers={"X-Repro-Shard-Version": "7"})
        with urllib.request.urlopen(req, timeout=30.0) as resp:
            doc = json.loads(resp.read())
            assert doc["shard_version"] == 7
            assert resp.headers["X-Repro-Shard-Version"] == "7"
        # Sticky until the next announcement; malformed headers ignored.
        req = urllib.request.Request(
            f"{base}/healthz", headers={"X-Repro-Shard-Version": "bogus"})
        with urllib.request.urlopen(req, timeout=30.0) as resp:
            assert json.loads(resp.read())["shard_version"] == 7

    def test_submit_adopts_gateway_trace_id(self, service):
        base, _ = service
        trace = "0123456789abcdef"
        data = json.dumps(FAST_TUNE).encode()
        req = urllib.request.Request(
            f"{base}/jobs", data=data, method="POST",
            headers={"Content-Type": "application/json",
                     "X-Repro-Trace-Id": trace})
        with urllib.request.urlopen(req, timeout=30.0) as resp:
            doc = json.loads(resp.read())
        assert doc["trace_id"] == trace
        done = _poll(base, doc["id"])
        assert done["trace_id"] == trace

    def test_metrics_json_rollup(self, service, monkeypatch, tmp_path):
        base, _ = service
        # The solve below snapshots at its one convergence check.
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "20")
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        for spec in (FAST_TUNE, FAST_SOLVE):
            _, doc = _request("POST", f"{base}/jobs", spec)
            _poll(base, doc["id"])
        status, m = _request("GET", f"{base}/metrics?format=json")
        assert status == 200
        assert m["scheduler"]["completed"] >= 2
        assert set(m) == {"scheduler", "registry", "store", "substrate",
                          "resilience", "telemetry"}
        assert m["store"]["puts"] >= 1
        assert "states" in m["scheduler"]
        assert m["resilience"]["counters"]["checkpoints_written"] >= 1

    def test_metrics_prometheus_text(self, service):
        base, _ = service
        _, doc = _request("POST", f"{base}/jobs", FAST_TUNE)
        _poll(base, doc["id"])
        req = urllib.request.Request(f"{base}/metrics")
        with urllib.request.urlopen(req, timeout=30.0) as resp:
            assert resp.status == 200
            ctype = resp.headers["Content-Type"]
            text = resp.read().decode()
        assert ctype.startswith("text/plain") and "version=0.0.4" in ctype
        assert "# TYPE repro_jobs_submitted_total counter" in text
        # Every non-comment line is `name{labels} value`.
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            assert name and (value == "+Inf" or float(value) is not None)

    def test_registry_endpoint(self, service):
        base, _ = service
        # A tuned job populates the registry through get_or_tune.
        _, doc = _request("POST", f"{base}/jobs",
                          dict(kind="tune", grid=16, threads=2))
        done = _poll(base, doc["id"])
        assert done["result"]["point"]["dw"] >= 4
        status, reg = _request("GET", f"{base}/registry")
        assert status == 200
        assert len(reg["plans"]) == 1
        assert reg["plans"][0]["feasible"]


class TestEventStream:
    def _stream(self, base, job_id, timeout=60.0):
        """Read the chunked NDJSON stream to completion."""
        events = []
        with urllib.request.urlopen(f"{base}/jobs/{job_id}/events",
                                    timeout=timeout) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            for raw in resp:
                line = raw.decode().strip()
                if line:
                    events.append(json.loads(line))
        return events

    def test_stream_follows_job_to_terminal_event(self, service):
        base, _ = service
        _, doc = _request("POST", f"{base}/jobs", FAST_SOLVE)
        events = self._stream(base, doc["id"])
        kinds = [e["kind"] for e in events]
        assert kinds[-1] == "end"
        assert "state" in kinds, f"no lifecycle events in {kinds}"
        assert "progress" in kinds, f"no solver progress in {kinds}"
        residuals = [e["residual"] for e in events if e["kind"] == "progress"]
        assert residuals == sorted(residuals, reverse=True) or residuals

    def test_stream_replays_after_completion(self, service):
        base, _ = service
        _, doc = _request("POST", f"{base}/jobs", FAST_SOLVE)
        _poll(base, doc["id"])
        events = self._stream(base, doc["id"])
        assert events and events[-1]["kind"] == "end"

    def test_stream_unknown_job_is_404(self, service):
        base, _ = service
        status, doc = _request(
            "GET", f"{base}/jobs/ffffffffffffffffffffffff/events")
        assert status == 404 and "unknown job" in doc["error"]


class TestConnectionHygiene:
    def test_stalled_client_is_timed_out(self):
        """A connection that never sends a request is hung up on after
        the per-request timeout instead of pinning a handler thread."""
        sched = Scheduler(workers=1, queue_size=4)  # not started
        server = make_server(sched, port=0)
        assert server.request_timeout == 30.0
        server.request_timeout = 1.0
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(
                    ("127.0.0.1", server.server_port),
                    timeout=15.0) as sock:
                sock.settimeout(15.0)
                start = time.monotonic()
                assert sock.recv(1024) == b""  # server closed the socket
                assert time.monotonic() - start < 10.0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)

    def test_backlog_is_bounded(self, service):
        base, _ = service
        # The listen backlog is finite (kernel-enforced), not the
        # unbounded socketserver default of 5-but-overridable-to-inf.
        from repro.service.server import ServiceServer

        assert ServiceServer.request_queue_size == 32


class TestCancel:
    def test_cancel_queued_job(self):
        sched = Scheduler(workers=1, queue_size=8)  # not started
        server = make_server(sched, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_port}"
        try:
            _, doc = _request("POST", f"{base}/jobs", FAST_TUNE)
            status, out = _request("DELETE", f"{base}/jobs/{doc['id']}")
            assert status == 200 and out["state"] == "cancelled"
            # A second cancel is a conflict: the job is already terminal.
            status, out = _request("DELETE", f"{base}/jobs/{doc['id']}")
            assert status == 409
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)

    def test_cancel_unknown_job_is_404(self, service):
        base, _ = service
        assert _request("DELETE", f"{base}/jobs/feedface")[0] == 404
