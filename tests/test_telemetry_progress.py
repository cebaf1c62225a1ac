"""Ring buffers, the forward hook a forked worker sends its events home
through, and the disabled-path overhead contract of the progress hub."""

import time

import pytest

from repro import telemetry
from repro.telemetry import JobContext
from repro.telemetry.progress import ProgressHub, RingBuffer


@pytest.fixture(autouse=True)
def _isolate_telemetry_state():
    """Restore the global gate and job context around every test."""
    was_on = telemetry.enabled()
    ctx = telemetry.current()
    yield
    telemetry.enable(force=True) if was_on else telemetry.disable()
    telemetry.set_current(ctx)


class TestRingBuffer:
    def test_append_stamps_monotonic_seq(self):
        ring = RingBuffer(capacity=8)
        events = [ring.append({"kind": "progress", "sweeps": i})
                  for i in range(3)]
        assert [e["seq"] for e in events] == [0, 1, 2]

    def test_overflow_drops_oldest(self):
        ring = RingBuffer(capacity=4)
        for i in range(10):
            ring.append({"kind": "progress", "sweeps": i})
        events, cursor, missed = ring.since(-1)
        assert [e["sweeps"] for e in events] == [6, 7, 8, 9]
        assert cursor == 9
        assert missed == 6
        assert ring.dropped == 6
        assert len(ring) == 4

    def test_overflow_never_grows_the_buffer(self):
        ring = RingBuffer(capacity=2)
        for i in range(1000):
            ring.append({"kind": "progress", "sweeps": i})
        assert len(ring) == 2  # bounded: the solver never blocks on readers

    def test_cursor_resumes_where_it_left_off(self):
        ring = RingBuffer(capacity=16)
        for i in range(5):
            ring.append({"i": i})
        events, cursor, missed = ring.since(-1)
        assert len(events) == 5 and missed == 0
        assert ring.since(cursor) == ([], 4, 0)
        ring.append({"i": 5})
        events, cursor, missed = ring.since(cursor)
        assert [e["i"] for e in events] == [5] and missed == 0

    def test_keeping_up_reader_misses_nothing(self):
        ring = RingBuffer(capacity=4)
        cursor = -1
        for i in range(20):
            ring.append({"i": i})
            events, cursor, missed = ring.since(cursor)
            assert missed == 0 and [e["i"] for e in events] == [i]

    def test_end_event_closes(self):
        ring = RingBuffer()
        ring.append({"kind": "progress"})
        assert not ring.closed
        ring.append({"kind": "end"})
        assert ring.closed

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RingBuffer(capacity=0)


class TestProgressHub:
    def test_publish_and_read(self):
        hub = ProgressHub()
        hub.publish("job-1", "state", state="running")
        hub.publish("job-1", "progress", sweeps=20, residual=0.5)
        events, cursor, missed = hub.events_since("job-1")
        assert [e["kind"] for e in events] == ["state", "progress"]
        assert all("t" in e and "seq" in e for e in events)
        assert missed == 0
        assert hub.published == 2

    def test_jobs_are_isolated(self):
        hub = ProgressHub()
        hub.publish("a", "progress", sweeps=1)
        hub.publish("b", "progress", sweeps=2)
        events, _, _ = hub.events_since("a")
        assert [e["sweeps"] for e in events] == [1]

    def test_dropped_total_sums_rings(self):
        hub = ProgressHub(capacity=2)
        for i in range(5):
            hub.publish("a", "progress", sweeps=i)
            hub.publish("b", "progress", sweeps=i)
        assert hub.dropped_total() == 6

    def test_end_closes_the_ring(self):
        hub = ProgressHub()
        hub.end("job-1", state="done")
        events, _, _ = hub.events_since("job-1")
        assert events[-1]["kind"] == "end"
        assert hub.buffer("job-1").closed


    def test_forward_sees_every_published_event(self):
        hub = ProgressHub()
        sent = []
        hub.forward = lambda job_id, event: sent.append((job_id, event))
        hub.publish("job-1", "progress", sweeps=20)
        hub.end("job-1", state="done")
        events, _, _ = hub.events_since("job-1")
        assert sent == [("job-1", e) for e in events]
        hub.reset()
        assert hub.forward is None


class TestGate:
    def test_publish_is_noop_when_disabled(self):
        telemetry.disable()
        telemetry.set_current(JobContext(job_id="j", trace_id="t"))
        before = telemetry.PROGRESS.published
        telemetry.publish("progress", sweeps=1)
        assert telemetry.PROGRESS.published == before

    def test_publish_is_noop_without_context(self):
        telemetry.enable(force=True)
        telemetry.set_current(None)
        before = telemetry.PROGRESS.published
        telemetry.publish("progress", sweeps=1)
        assert telemetry.PROGRESS.published == before

    def test_publish_records_with_context_and_enabled(self):
        telemetry.enable(force=True)
        telemetry.set_current(JobContext(job_id="gate-j", trace_id="t"))
        telemetry.publish("progress", sweeps=7)
        events, _, _ = telemetry.PROGRESS.events_since("gate-j")
        assert events[-1]["sweeps"] == 7
        telemetry.PROGRESS.forget("gate-j")

    def test_env_veto_blocks_enable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        telemetry.refresh_from_env()
        try:
            assert telemetry.enable() is False
            assert not telemetry.enabled()
            assert telemetry.enable(force=True) is True
        finally:
            monkeypatch.delenv("REPRO_TELEMETRY")
            telemetry.refresh_from_env()

    def test_env_truthy_enables_at_import(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        telemetry.refresh_from_env()
        try:
            assert telemetry.enabled()
        finally:
            monkeypatch.delenv("REPRO_TELEMETRY")
            telemetry.refresh_from_env()


def test_disabled_publish_overhead_is_under_two_percent():
    """The disabled hook costs one attribute load + bool check; per
    convergence check that must be <2% of the cheapest real check work
    (a single-sweep advance on a tiny grid)."""
    import numpy as np

    from repro.fdfd import FieldState, Grid, naive_sweep, random_coefficients

    telemetry.disable()
    telemetry.set_current(JobContext(job_id="bench", trace_id="t"))

    n = 50_000
    t0 = time.perf_counter()
    for _ in range(n):
        telemetry.publish("progress", sweeps=1, residual=0.5)
    publish_cost = (time.perf_counter() - t0) / n

    grid = Grid(nz=16, ny=8, nx=8)
    coeffs = random_coefficients(grid, seed=3)
    fields = FieldState(grid).fill_random(np.random.default_rng(4))
    naive_sweep(fields, coeffs, 1)  # warm-up
    t0 = time.perf_counter()
    reps = 5
    for _ in range(reps):
        naive_sweep(fields, coeffs, 1)
    sweep_cost = (time.perf_counter() - t0) / reps

    # One publish per convergence check, >= 1 sweep per check: the
    # disabled path must stay far below 2% of even this minimal work.
    assert publish_cost < 0.02 * sweep_cost, (
        f"disabled publish {publish_cost * 1e9:.0f} ns vs "
        f"sweep {sweep_cost * 1e6:.0f} us")
