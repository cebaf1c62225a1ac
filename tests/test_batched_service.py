"""Batch campaign jobs through the service layer.

Covers the batch :class:`JobSpec` (validation, content-addressed
identity, per-point spec derivation), the dedup/fan-out contract of
``run_job`` on batch jobs, and the isolation regression from the batch
axis: a checkpoint token names its lane list, so a snapshot of another
width can never be resumed (mismatches quarantine, they do not poison
the solve).
"""

import os

import pytest

from repro.resilience import faults
from repro.resilience.checkpoint import CheckpointManager, solver_token
from repro.resilience.errors import InjectedFault
from repro.resilience.faults import FaultPlan
from repro.service import JobSpec, ResultStore, Scheduler, run_job

BATCH = dict(kind="batch", preset="absorber", grid=10, tol=1e-4,
             max_steps=60, threads=2, wavelengths=(10.0, 11.0, 12.0))


class TestBatchSpec:
    @pytest.mark.parametrize("bad", [
        dict(wavelengths=None),
        dict(wavelengths=()),
        dict(wavelengths=(10.0, -1.0)),
        dict(wavelengths=(10.0, 10.0)),        # duplicates
    ])
    def test_rejects_bad_wavelengths(self, bad):
        with pytest.raises(ValueError):
            JobSpec(**{**BATCH, **bad})

    def test_rejects_wavelengths_on_non_batch_kinds(self):
        with pytest.raises(ValueError, match="only valid for kind='batch'"):
            JobSpec(kind="solve", preset="absorber", grid=10,
                    wavelength=10.0, wavelengths=(10.0, 11.0))

    def test_wavelengths_normalized_to_float_tuple(self):
        spec = JobSpec(**{**BATCH, "wavelengths": [10, 11, 12]})
        assert spec.wavelengths == (10.0, 11.0, 12.0)
        assert spec.job_id == JobSpec(**BATCH).job_id

    def test_identity_is_the_wavelength_set(self):
        a = JobSpec(**BATCH)
        assert JobSpec(**{**BATCH, "wavelengths": (10.0, 11.0)}).job_id != a.job_id
        # The scalar wavelength field is inert for batch identity.
        assert JobSpec(**BATCH, wavelength=99.0).job_id == a.job_id
        assert a.identity()["wavelength"] is None

    def test_point_spec_matches_direct_per_point_submission(self):
        batch = JobSpec(**BATCH, wavelength=99.0)
        for w in BATCH["wavelengths"]:
            point = batch.point_spec(w)
            direct = JobSpec(kind="solve", preset="absorber", grid=10,
                             tol=1e-4, max_steps=60, threads=2, wavelength=w)
            assert point.job_id == direct.job_id
            assert "wavelengths" not in point.identity()

    def test_point_spec_only_on_batch(self):
        solve = JobSpec(kind="solve", preset="absorber", grid=10,
                        wavelength=10.0)
        with pytest.raises(ValueError):
            solve.point_spec(10.0)


class TestBatchRunJob:
    def test_dedup_and_bit_identical_fanout(self):
        spec = JobSpec(**BATCH)
        direct = {w: run_job(spec.point_spec(w))
                  for w in spec.wavelengths}

        store = ResultStore()
        store.put(spec.point_spec(10.0).job_id, direct[10.0])

        result = run_job(spec, store=store)
        assert result["kind"] == "batch"
        assert result["batch_width"] == 3
        assert result["dedup_hits"] == 1
        assert result["solved"] == 2
        assert result["failed"] == 0
        for point in result["points"]:
            w = point["wavelength"]
            assert point["from_store"] == (w == 10.0)
            assert point["result"] == direct[w]
            assert store.get(point["id"]) == direct[w]

    def test_fully_stored_batch_solves_nothing(self):
        spec = JobSpec(**BATCH)
        store = ResultStore()
        first = run_job(spec, store=store)
        again = run_job(spec, store=store)
        assert again["dedup_hits"] == 3 and again["solved"] == 0
        assert [p["result"] for p in again["points"]] == \
            [p["result"] for p in first["points"]]

    def test_per_point_submission_after_batch_is_a_store_hit(self):
        spec = JobSpec(**BATCH)
        store = ResultStore()
        batch_result = run_job(spec, store=store)

        sched = Scheduler(workers=1, store=store, mode="thread").start()
        try:
            job = sched.wait(sched.submit(spec.point_spec(11.0)).id,
                             timeout=60.0)
        finally:
            sched.stop()
        assert job.from_store is True
        assert job.result == batch_result["points"][1]["result"]


class TestBatchCheckpointIsolation:
    """Satellite regression: lane-list checkpoint tokens keep snapshots
    of different widths mutually unresumable."""

    def _solvers(self, spec):
        import numpy as np

        from repro.fdfd import BatchedTHIIMSolver, THIIMSolver
        from repro.service.jobs import _solve_geometry

        grid, scene, source_plane, source, pml = _solve_geometry(spec)
        omegas = [2 * np.pi / w for w in spec.wavelengths]
        scalar = THIIMSolver(grid, omegas[0], scene=scene, source=source,
                             pml=pml)
        batched = BatchedTHIIMSolver(grid, omegas, scene=scene,
                                     source=source, pml=pml)
        return scalar, batched

    def test_tokens_are_disjoint(self):
        spec = JobSpec(**BATCH)
        scalar, batched = self._solvers(spec)
        cadence = dict(tol=spec.tol, max_steps=spec.max_steps, check_every=20)
        b3 = solver_token(batched, **cadence)
        assert b3 != solver_token(scalar, **cadence)
        # A point solve is the k = 1 case of the one loop: a width-1
        # batch of the same scene writes the very payload a scalar solve
        # does, so they share a token and cross-resume is *correct*
        # (tests/test_resilience_checkpoint.py resumes one from the
        # other); their service jobs still have distinct names.
        _, batched1 = self._solvers(
            JobSpec(**{**BATCH, "wavelengths": (10.0,)}))
        assert solver_token(batched1, **cadence) == \
            solver_token(scalar, **cadence)
        # Width itself is part of the hash.
        _, batched2 = self._solvers(
            JobSpec(**{**BATCH, "wavelengths": (10.0, 11.0)}))
        assert solver_token(batched2, **cadence) != b3

    def test_foreign_scalar_snapshot_is_quarantined_not_resumed(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "20")
        spec = JobSpec(**BATCH)
        clean = run_job(spec)

        # Plant a *scalar* snapshot under the batch job's checkpoint name.
        scalar, _ = self._solvers(spec)
        cadence = dict(tol=spec.tol, max_steps=spec.max_steps, check_every=20)
        foreign = CheckpointManager(
            str(tmp_path), name=spec.job_id,
            token=solver_token(scalar, **cadence), every=20)
        foreign.save(scalar.fields, steps=20, history=[1.0])
        assert os.path.exists(foreign.path)

        result = run_job(spec, checkpoint_dir=str(tmp_path))
        # The mismatched snapshot was moved aside, not resumed from and
        # not left to poison retries; the solve restarted from sweep 0.
        assert os.path.exists(foreign.path + ".corrupt")
        assert result == clean

    def test_crash_resume_is_bit_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "20")
        spec = JobSpec(**BATCH)
        clean = run_job(spec)

        faults.install(FaultPlan.parse("solver.sweep:raise:2"))
        try:
            with pytest.raises(InjectedFault):
                run_job(spec, checkpoint_dir=str(tmp_path))
        finally:
            faults.uninstall()

        resumed = run_job(spec, checkpoint_dir=str(tmp_path))
        assert resumed == clean
