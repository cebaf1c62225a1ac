"""Tests for service job specs, lifecycle, and deterministic execution."""

import dataclasses

import pytest

from repro.resilience import faults
from repro.resilience.errors import InjectedFault
from repro.service.jobs import (
    Job,
    JobSpec,
    JobState,
    run_job,
)

FAST_SOLVE = dict(kind="solve", preset="vacuum", grid=10, wavelength=10.0,
                  tol=1e-4, max_steps=30)


class TestContentAddressing:
    def test_policy_fields_excluded_from_id(self):
        a = JobSpec(**FAST_SOLVE)
        b = JobSpec(**FAST_SOLVE, priority=7, max_retries=0, timeout_s=5.0)
        assert a.job_id == b.job_id

    def test_computational_fields_change_id(self):
        a = JobSpec(**FAST_SOLVE)
        for change in (dict(wavelength=11.0), dict(grid=12), dict(tol=1e-5),
                       dict(preset="absorber"), dict(tiled=True),
                       dict(max_steps=31), dict(threads=4)):
            assert JobSpec(**{**FAST_SOLVE, **change}).job_id != a.job_id

    def test_id_is_stable_hex(self):
        a = JobSpec(**FAST_SOLVE)
        assert a.job_id == JobSpec(**FAST_SOLVE).job_id
        assert len(a.job_id) == 24
        int(a.job_id, 16)  # hex digest prefix

    #: One spec of each kind and the id it has always had: computing the
    #: id once per spec changes no id.
    LITERAL_IDS = [
        (dict(kind="solve", preset="vacuum", grid=10, wavelength=10.0,
              max_steps=20), "cc15ddfda3c3bcfe6420d9c7"),
        (dict(kind="batch", preset="absorber", grid=12,
              wavelengths=(8.0, 11.5)), "0c192836540fbe2cd34b0785"),
        (dict(kind="distributed", preset="vacuum", grid=10,
              ranks=" 1x1X2 "), "18f27b3a99d20c5e17bb4049"),
        (dict(kind="tune", grid=64, threads=6, variant="1wd",
              tuning="registry"), "fdabd0e89feee44e95cb5da3"),
    ]

    @pytest.mark.parametrize("fields, job_id", LITERAL_IDS)
    def test_literal_ids_are_unchanged(self, fields, job_id):
        spec = JobSpec(**fields)
        assert spec.job_id == job_id
        assert JobSpec.from_dict(spec.to_dict()).job_id == job_id

    @pytest.mark.parametrize("fields, _id", LITERAL_IDS)
    def test_to_dict_is_asdict(self, fields, _id):
        spec = JobSpec(**fields, priority=3, timeout_s=2.5)
        assert spec.to_dict() == dataclasses.asdict(spec)
        assert list(spec.to_dict()) == list(dataclasses.asdict(spec))

    def test_a_replaced_spec_hashes_its_own_fields(self):
        spec = JobSpec(**FAST_SOLVE)
        assert spec.job_id  # cached on this instance
        moved = dataclasses.replace(spec, wavelength=11.0)
        assert moved.job_id == JobSpec(**{**FAST_SOLVE, "wavelength": 11.0}).job_id
        assert moved.job_id != spec.job_id


class TestValidation:
    @pytest.mark.parametrize("bad", [
        dict(kind="frobnicate"),
        dict(preset="nope"),
        dict(grid=9),              # solves need >= 10
        dict(wavelength=0.0),
        dict(tol=-1e-4),
        dict(max_steps=0),
        dict(dw=3),                # odd
        dict(dw=2),                # < 4
        dict(bz=0),
        dict(threads=0),
        dict(variant="2.5wd"),
        dict(tuning="psychic"),
        dict(max_retries=-1),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            JobSpec(**{**FAST_SOLVE, **bad})

    def test_tune_allows_grid_8(self):
        JobSpec(kind="tune", grid=8, threads=2)  # no raise
        with pytest.raises(ValueError):
            JobSpec(kind="tune", grid=7, threads=2)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown job spec fields"):
            JobSpec.from_dict({**FAST_SOLVE, "frobnicate": 1})
        with pytest.raises(ValueError):
            JobSpec.from_dict("not a dict")

    def test_from_dict_roundtrip(self):
        spec = JobSpec(**FAST_SOLVE, priority=3)
        assert JobSpec.from_dict(spec.to_dict()) == spec


class TestJobLifecycle:
    def test_happy_path(self):
        job = Job(JobSpec(**FAST_SOLVE))
        assert job.state == JobState.QUEUED and not job.terminal
        job.transition(JobState.RUNNING)
        assert job.started_at is not None
        job.transition(JobState.DONE)
        assert job.terminal and job.finished_at is not None

    def test_crash_requeue_transition(self):
        job = Job(JobSpec(**FAST_SOLVE))
        job.transition(JobState.RUNNING)
        job.transition(JobState.QUEUED)  # the crash requeue
        job.transition(JobState.RUNNING)
        job.transition(JobState.FAILED)
        assert job.terminal

    def test_cancel_only_from_queued(self):
        job = Job(JobSpec(**FAST_SOLVE))
        job.transition(JobState.CANCELLED)
        assert job.terminal

    @pytest.mark.parametrize("start,new", [
        (JobState.QUEUED, JobState.DONE),
        (JobState.RUNNING, JobState.CANCELLED),
        (JobState.DONE, JobState.RUNNING),
        (JobState.FAILED, JobState.QUEUED),
        (JobState.CANCELLED, JobState.RUNNING),
    ])
    def test_illegal_transitions(self, start, new):
        job = Job(JobSpec(**FAST_SOLVE))
        job.state = start
        with pytest.raises(ValueError, match="illegal job transition"):
            job.transition(new)

    def test_to_dict_shapes(self):
        job = Job(JobSpec(**FAST_SOLVE))
        d = job.to_dict()
        assert d["id"] == job.id and d["state"] == "queued"
        assert "result" in d
        assert "result" not in job.to_dict(include_result=False)
        assert d["spec"]["preset"] == "vacuum"


class TestRunJob:
    def test_solve_is_deterministic(self):
        spec = JobSpec(**FAST_SOLVE)
        r1 = run_job(spec)
        r2 = run_job(spec)
        assert r1 == r2  # bit-for-bit, including the field checksum
        assert r1["kind"] == "solve"
        assert len(r1["checksum"]) == 64

    def test_solve_matches_direct_solver(self):
        # The served result must be bit-identical to constructing and
        # running the solver directly (the `repro solve` path).
        import hashlib

        import numpy as np

        from repro.fdfd import (
            ALL_COMPONENTS, Grid, PMLSpec, PlaneWaveSource, THIIMSolver,
            preset_scene,
        )

        spec = JobSpec(**FAST_SOLVE)
        served = run_job(spec)

        nz = 2 * spec.grid
        grid = Grid(nz=nz, ny=spec.grid, nx=spec.grid,
                    periodic=(False, True, True))
        solver = THIIMSolver(
            grid, 2 * np.pi / spec.wavelength,
            scene=preset_scene(spec.preset, nz),
            source=PlaneWaveSource(z_plane=max(nz // 8, 12), z_width=2.0),
            pml={"z": PMLSpec(thickness=max(nz // 10, 6))},
        )
        result = solver.solve(tol=spec.tol, max_steps=spec.max_steps)
        h = hashlib.sha256()
        for name in ALL_COMPONENTS:
            h.update(solver.fields[name].tobytes())
        assert served["checksum"] == h.hexdigest()
        assert served["iterations"] == result.iterations
        assert served["residual"] == float(result.residual)

    def test_untiled_plan(self):
        out = run_job(JobSpec(**FAST_SOLVE))
        assert out["plan"] == {"tiled": False}

    def test_tiled_spec_plan(self):
        spec = JobSpec(kind="solve", preset="absorber", grid=10,
                       wavelength=10.0, tol=1e-4, max_steps=10, tiled=True,
                       dw=4, bz=2, tuning="spec")
        out = run_job(spec)
        assert out["plan"] == {"tiled": True, "dw": 4, "bz": 2,
                               "source": "spec", "registry_hit": False}
        assert "absorbed" in out and "incident" in out

    def test_tune_without_registry(self):
        out = run_job(JobSpec(kind="tune", grid=16, threads=2))
        assert out["kind"] == "tune"
        assert out["registry_hit"] is False
        assert out["point"]["dw"] >= 4 and out["point"]["bz"] >= 1
        assert "MLUP/s" in out["describe"]

    def test_tune_infeasible_grid(self):
        # nx=8 < MIN_X_CHUNK: the tuner proves no feasible config.
        out = run_job(JobSpec(kind="tune", grid=8, threads=2))
        assert out["point"] is None and out["describe"] is None


class TestFaultInjection:
    """A job fails through a fault plan on the ``job.run`` site; a spec
    carries no fault of its own."""

    @pytest.fixture(autouse=True)
    def _plan(self):
        faults.uninstall()
        yield
        faults.uninstall()

    def test_fail_once(self):
        faults.install(faults.FaultPlan.parse("job.run:raise:0:1"))
        spec = JobSpec(**FAST_SOLVE)
        with pytest.raises(InjectedFault, match="at job.run"):
            run_job(spec, attempt=1)
        assert run_job(spec, attempt=2)["kind"] == "solve"

    def test_always_fail(self):
        # A spec fires once per pass count: one raise per attempt.
        faults.install(faults.FaultPlan.parse(
            "job.run:raise:0:*,job.run:raise:1:*,job.run:raise:2:*"))
        spec = JobSpec(**FAST_SOLVE)
        for attempt in (1, 2, 3):
            with pytest.raises(InjectedFault, match="at job.run"):
                run_job(spec, attempt=attempt)

    def test_crash_once_inline_raises(self):
        # Outside a child process the crash degrades to an exception
        # (os._exit would kill the test runner).
        faults.install(faults.FaultPlan.parse("job.run:crash:0:1"))
        spec = JobSpec(**FAST_SOLVE)
        with pytest.raises(InjectedFault, match="inline worker"):
            run_job(spec, attempt=1)
        assert run_job(spec, attempt=2)["kind"] == "solve"
