"""Job-scoped trace propagation: one trace id from submission through a
forked worker's sweeps and a distributed job's ranks, merged back into a
single Chrome trace, and one counter series per resilience event."""

import numpy as np
import pytest

from repro import telemetry
from repro.service import PlanRegistry, Scheduler, run_job
from repro.service.jobs import JobSpec, JobState
from repro.telemetry import WALL_PID, TraceRecorder

FAST_SOLVE = dict(kind="solve", preset="vacuum", grid=10, wavelength=10.0,
                  tol=1e-4, max_steps=20)


@pytest.fixture(autouse=True)
def _isolate_telemetry_state():
    was_on = telemetry.enabled()
    yield
    if telemetry.recorder() is not None:
        telemetry.stop_trace()
    telemetry.enable(force=True) if was_on else telemetry.disable()
    telemetry.set_current(None)


class TestMergeChild:
    def test_child_timestamps_rebase_on_epoch_delta(self):
        parent = TraceRecorder()
        child = TraceRecorder()
        child.epoch = parent.epoch + 1.5  # child started 1.5 s later
        child.complete("sweep", "solver", ts_us=100.0, dur_us=50.0)
        parent.merge_child(child.export(), label="worker")
        merged = [e for e in parent._events if e["name"] == "sweep"]
        assert len(merged) == 1
        assert merged[0]["ts_us"] == pytest.approx(100.0 + 1.5e6)
        assert merged[0]["dur_us"] == 50.0

    def test_child_pids_map_to_fresh_processes(self):
        parent = TraceRecorder()
        child = TraceRecorder()
        sim = child.new_process("simulated threads")
        child.complete("wall span", "c", 0.0, 1.0)  # pid WALL_PID
        child.complete("sim span", "c", 0.0, 1.0, pid=sim)
        wall = parent.merge_child(child.export(), label="worker #1")
        pids = {e["name"]: e["pid"] for e in parent._events}
        assert pids["wall span"] == wall and wall != WALL_PID
        assert pids["sim span"] not in (WALL_PID, wall)
        names = {m["pid"]: m["name"] for m in parent._meta
                 if m["kind"] == "process_name"}
        assert names[wall] == "worker #1"
        assert names[pids["sim span"]] == "simulated threads"

    def test_merge_preserves_event_args(self):
        parent = TraceRecorder()
        child = TraceRecorder()
        child.complete("job abc", "service", 0.0, 1.0,
                       args={"trace": "deadbeef"})
        parent.merge_child(child.export())
        [ev] = [e for e in parent._events if e["name"] == "job abc"]
        assert ev["args"]["trace"] == "deadbeef"


class TestJobContext:
    def test_every_submitted_job_gets_a_trace_id(self):
        a, b = JobSpec(**FAST_SOLVE), JobSpec(**dict(FAST_SOLVE, grid=12))
        from repro.service.jobs import Job

        ja, jb = Job(spec=a), Job(spec=b)
        assert len(ja.trace_id) == 16 and ja.trace_id != jb.trace_id
        assert ja.to_dict()["trace_id"] == ja.trace_id

    def test_spans_stamp_the_current_trace(self):
        rec = telemetry.start_trace(None)
        with telemetry.use(telemetry.JobContext(job_id="j",
                                                trace_id="cafe1234")):
            with telemetry.span("a", "t", args={"x": 1}):
                pass
            telemetry.instant("b", "t")
            telemetry.complete("c", "t", rec.now_us())
        with telemetry.span("outside", "t", args={"x": 1}):
            pass
        telemetry.stop_trace()
        args = {e["name"]: e.get("args") for e in rec._events}
        assert args["a"] == {"x": 1, "trace": "cafe1234"}
        assert args["b"] == args["c"] == {"trace": "cafe1234"}
        assert args["outside"] == {"x": 1}

    def test_registry_tuned_tiled_job_tags_every_event(self):
        """Tuner candidates, measurements, simulated tiles, executor
        tiles and the registry all record under the job's trace id."""
        from repro.machine import clear_substrate_caches

        clear_substrate_caches()
        spec = JobSpec(kind="solve", preset="tandem", grid=16, tiled=True,
                       tuning="registry", threads=4, tol=1e-4, max_steps=40)
        rec = telemetry.start_trace(None)
        try:
            with telemetry.use(telemetry.JobContext(spec.job_id, "feedface")):
                run_job(spec, registry=PlanRegistry())
        finally:
            telemetry.stop_trace()
        cats = {e.get("cat") for e in rec._events}
        assert {"autotune", "measure", "sim.tile", "exec.tile",
                "exec.run", "service"} <= cats
        # Counter-track samples are plotted series, not tagged events.
        tracks = {e["name"] for e in rec._events if e["type"] == "counter"}
        assert tracks == {"plan registry"}
        untagged = [e for e in rec._events if e["type"] != "counter"
                    and (e.get("args") or {}).get("trace") != "feedface"]
        assert not untagged, untagged[:3]


class TestForkedWorkerPropagation:
    """The acceptance path: an HTTP-shaped job through a forked process
    worker lands every span -- parent and child -- under one trace id."""

    @pytest.fixture
    def traced_run(self):
        telemetry.enable(force=True)
        rec = telemetry.start_trace(None)
        sched = Scheduler(workers=1, mode="process").start()
        try:
            job = sched.submit(JobSpec(**FAST_SOLVE))
            sched.wait(job.id, timeout=180.0)
        finally:
            sched.stop()
            telemetry.stop_trace()
        assert job.state == JobState.DONE, job.error
        return rec, job

    def test_single_trace_id_spans_parent_and_worker(self, traced_run):
        rec, job = traced_run
        spans = [e for e in rec._events if e["type"] == "span"]
        traced = [e for e in spans
                  if (e.get("args") or {}).get("trace") == job.trace_id]
        names = {e["name"] for e in traced}
        # Parent-side lifecycle spans...
        assert any(n.startswith("queued") for n in names)
        assert any(n.startswith("attempt") for n in names)
        # ...and the worker's job span, merged from the forked process.
        assert any(n.startswith("job") for n in names)
        pids = {e["pid"] for e in traced}
        assert WALL_PID in pids, "parent spans missing"
        assert any(p != WALL_PID for p in pids), (
            "forked worker spans were not merged into the parent trace")
        # No other trace id leaks into this job's span names.
        foreign = [e for e in spans
                   if e["name"] in names
                   and (e.get("args") or {}).get("trace")
                   not in (None, job.trace_id)]
        assert not foreign

    def test_worker_process_lane_is_labelled(self, traced_run):
        rec, job = traced_run
        labels = [m["name"] for m in rec._meta
                  if m["kind"] == "process_name"]
        assert any(l.startswith("worker") for l in labels)

    def test_progress_events_crossed_the_fork(self, traced_run):
        _, job = traced_run
        events, _, _ = telemetry.PROGRESS.events_since(job.id)
        kinds = [e["kind"] for e in events]
        assert "progress" in kinds, f"no solver progress in {kinds}"
        assert kinds[-1] == "end"
        residuals = [e["residual"] for e in events
                     if e["kind"] == "progress"]
        assert residuals and all(r >= 0 for r in residuals)
        telemetry.PROGRESS.forget(job.id)


def _two_rank_solver():
    from repro.fdfd import Grid, PlaneWaveSource, PMLSpec, THIIMSolver
    from repro.fdfd.presets import preset_scene

    grid = Grid(nz=20, ny=10, nx=10, periodic=(False, True, True))
    return THIIMSolver(
        grid, 2 * np.pi / 12.0, scene=preset_scene("absorber", 20),
        source=PlaneWaveSource(z_plane=12, z_width=2.0),
        pml={"z": PMLSpec(thickness=6)})


class TestRankHandOff:
    """A traced, checkpointed 2-rank solve under a job context: the ranks'
    spans and counts come home through ``telemetry.merge_child``."""

    TRACE = "5eed5eed5eed5eed"

    @pytest.fixture
    def traced_ranks(self, tmp_path):
        from repro.cluster import RankLayout
        from repro.cluster.runtime import run_distributed
        from repro.resilience.checkpoint import CheckpointManager, solver_token

        solver = _two_rank_solver()
        ckpt = CheckpointManager(str(tmp_path), "ranks", every=20,
                                 token=solver_token(solver))
        before = telemetry.resilience_counts().get("checkpoints_written", 0)
        rec = telemetry.start_trace(None)
        try:
            with telemetry.use(telemetry.JobContext("ranks", self.TRACE)):
                _, info = run_distributed(
                    RankLayout(solver.grid, 2, 1, 1), solver, tol=1e-12,
                    max_steps=60, checkpoint=ckpt)
        finally:
            telemetry.stop_trace()
        assert info["saves"] == 2  # at 20 and 40, none at the budget
        return rec, info, before

    def test_the_parent_writes_every_snapshot(self, traced_ranks):
        """One snapshot per boundary, the parent's: ranks write none."""
        _, info, before = traced_ranks
        after = telemetry.resilience_counts()["checkpoints_written"]
        assert after - before == info["saves"]

    def test_rank_lanes_are_merged_labelled_and_tagged(self, traced_ranks):
        rec, _, _ = traced_ranks
        lanes = {m["pid"]: m["name"] for m in rec._meta
                 if m["kind"] == "process_name"
                 and m["name"].startswith("rank ")}
        assert sorted(lanes.values()) == ["rank 0,0,0", "rank 1,0,0"]
        on_lanes = [e for e in rec._events if e["pid"] in lanes]
        sweeps = [e for e in on_lanes if e["name"].endswith(" sweep")]
        assert len(sweeps) == 2 * 3  # three blocks of 20 on each rank
        assert all((e.get("args") or {}).get("trace") == self.TRACE
                   for e in on_lanes)


class TestOneSeriesPerEvent:
    def test_resilience_events_are_one_family(self, monkeypatch, tmp_path):
        """A checkpointed job through a serving scheduler: each resilience
        event is exactly one Prometheus series, and no mirrored gauge or
        second counter names it again."""
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "20")
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        sched = Scheduler(workers=1).start()
        try:
            job = sched.submit(JobSpec(**dict(FAST_SOLVE, max_steps=40)))
            sched.wait(job.id, timeout=120.0)
            text = telemetry.METRICS.render()
        finally:
            sched.stop()
        assert job.state == JobState.DONE, job.error
        counts = telemetry.resilience_counts()
        assert counts["checkpoints_written"] >= 1
        series = [line for line in text.splitlines()
                  if line and not line.startswith("#")]
        for event in counts:
            naming = [line for line in series if event in line]
            assert naming == [line for line in naming if line.startswith(
                f'repro_resilience_events_total{{event="{event}"}} ')]
            assert len(naming) == 1, naming
