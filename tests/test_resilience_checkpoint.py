"""Checkpoint/restart: bit-identical resume, token guard, quarantine."""

import os
from functools import partial

import numpy as np
import pytest

from repro.cluster import RankLayout
from repro.cluster.runtime import run_distributed
from repro.core.tiled_solver import BatchedTiledTHIIM, TiledTHIIM
from repro.fdfd import (
    BatchedTHIIMSolver,
    Grid,
    PMLSpec,
    PlaneWaveSource,
    THIIMSolver,
)
from repro.resilience import faults
from repro.resilience.checkpoint import (
    CheckpointManager,
    latest_lag_s,
    solver_token,
    take_report,
)
from repro.resilience.errors import (
    CheckpointMismatch,
    InjectedFault,
    SolverDiverged,
)


def make_solver(nz=24, n_xy=6, wavelength=10.0):
    grid = Grid(nz=nz, ny=n_xy, nx=n_xy, periodic=(False, True, True))
    return THIIMSolver(
        grid, 2 * np.pi / wavelength,
        source=PlaneWaveSource(z_plane=6, amplitude=1.0, z_width=2.0),
        pml={"z": PMLSpec(thickness=6)},
    )


def make_tiled():
    grid = Grid(nz=24, ny=8, nx=6)
    solver = THIIMSolver(
        grid, 2 * np.pi / 10.0,
        source=PlaneWaveSource(z_plane=6, z_width=2.0),
        pml={"z": PMLSpec(thickness=6)},
    )
    return TiledTHIIM(solver, dw=4, bz=2, chunk=8)


@pytest.fixture(autouse=True)
def _no_faults():
    faults.uninstall()
    take_report()
    yield
    faults.uninstall()
    take_report()


class TestToken:
    def test_stable_for_identical_solves(self):
        assert solver_token(make_solver(), check_every=20) == \
            solver_token(make_solver(), check_every=20)

    def test_sensitive_to_scene_and_cadence(self):
        base = solver_token(make_solver(), check_every=20)
        assert solver_token(make_solver(nz=32), check_every=20) != base
        assert solver_token(make_solver(), check_every=10) != base


class TestSaveLoad:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        solver = make_solver()
        solver.run(30)
        mgr = CheckpointManager(str(tmp_path), "t", token="tok", every=10)
        assert mgr.save(solver.fields, 30, [0.5, 0.25]) == mgr.path
        ckpt = mgr.load()
        assert ckpt.steps == 30 and ckpt.history == [0.5, 0.25]
        assert ckpt.token == "tok"
        for name in solver.fields:
            assert np.array_equal(ckpt.arrays[name], solver.fields[name])

    def test_due_cadence(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), "t", token="tok", every=40)
        assert not mgr.due(39)
        assert mgr.due(40)
        mgr.save(make_solver().fields, 40, [1.0])
        assert not mgr.due(79)
        assert mgr.due(80)

    def test_cadence_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(str(tmp_path), "t", token="tok", every=0)

    def test_missing_checkpoint_is_a_miss(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), "t", token="tok", every=10)
        assert mgr.load() is None
        assert mgr.resume(make_solver().fields) is None

    def test_corrupt_checkpoint_quarantined(self, tmp_path):
        solver = make_solver()
        mgr = CheckpointManager(str(tmp_path), "t", token="tok", every=10)
        mgr.save(solver.fields, 10, [1.0])
        with open(mgr.path, "wb") as f:
            f.write(b"not an npz")
        assert mgr.load() is None
        assert not os.path.exists(mgr.path)
        assert os.path.exists(mgr.path + ".corrupt")

    def test_token_mismatch_lenient_quarantines(self, tmp_path):
        solver = make_solver()
        CheckpointManager(str(tmp_path), "t", token="theirs",
                          every=10).save(solver.fields, 10, [1.0])
        mine = CheckpointManager(str(tmp_path), "t", token="mine", every=10)
        assert mine.load() is None
        assert os.path.exists(mine.path + ".corrupt")

    def test_token_mismatch_strict_raises(self, tmp_path):
        solver = make_solver()
        CheckpointManager(str(tmp_path), "t", token="theirs",
                          every=10).save(solver.fields, 10, [1.0])
        mine = CheckpointManager(str(tmp_path), "t", token="mine",
                                 every=10, strict=True)
        with pytest.raises(CheckpointMismatch) as exc:
            mine.load()
        assert exc.value.http_status == 409 and not exc.value.retryable

    def test_injected_write_fault_never_breaks_the_solve(self, tmp_path):
        faults.install(faults.FaultPlan.parse("checkpoint.write:raise"))
        mgr = CheckpointManager(str(tmp_path), "t", token="tok", every=10)
        assert mgr.save(make_solver().fields, 10, [1.0]) is None
        assert not os.path.exists(mgr.path)

    def test_report_carries_resume_provenance(self, tmp_path):
        solver = make_solver()
        mgr = CheckpointManager(str(tmp_path), "t", token="tok", every=10)
        mgr.save(solver.fields, 10, [1.0])
        take_report()
        other = make_solver()
        mgr2 = CheckpointManager(str(tmp_path), "t", token="tok", every=10)
        assert mgr2.resume(other.fields).steps == 10
        report = take_report()
        assert report == {"path": mgr.path, "saves": 0, "resumed_from": 10}
        assert take_report() is None  # popped


class TestBitIdenticalResume:
    def test_naive_solver_resume_matches_uninterrupted(self, tmp_path):
        kw = dict(tol=1e-15, check_every=10)
        clean = make_solver().solve(max_steps=80, **kw)

        interrupted = make_solver()
        token = solver_token(interrupted, check_every=10)
        mgr = CheckpointManager(str(tmp_path), "j", token=token, every=30)
        interrupted.solve(max_steps=50, checkpoint=mgr, **kw)
        assert mgr.saves >= 1 and mgr.last_saved_steps == 30

        resumed = make_solver()
        mgr2 = CheckpointManager(str(tmp_path), "j", token=token, every=30)
        result = resumed.solve(max_steps=80, checkpoint=mgr2, **kw)
        assert mgr2.resumed_from == 30

        assert result.iterations == clean.iterations
        assert result.residual == clean.residual
        assert result.residual_history[1:] == clean.residual_history[
            len(clean.residual_history) - len(result.residual_history) + 1:]
        for name in clean.fields:
            assert np.array_equal(result.fields[name], clean.fields[name])

    def test_tiled_solver_resume_restores_work_counters(self, tmp_path):
        kw = dict(tol=1e-15, max_steps=48)
        clean = make_tiled()
        clean_result = clean.solve(**kw)

        partial = make_tiled()
        token = solver_token(partial.solver, chunk=partial.chunk)
        mgr = CheckpointManager(str(tmp_path), "j", token=token, every=16)
        partial.solve(tol=1e-15, max_steps=24, checkpoint=mgr)

        resumed = make_tiled()
        mgr2 = CheckpointManager(str(tmp_path), "j", token=token, every=16)
        result = resumed.solve(checkpoint=mgr2, **kw)
        assert mgr2.resumed_from == 16

        assert result.iterations == clean_result.iterations
        for name in clean.solver.fields:
            assert np.array_equal(result.fields[name],
                                  clean_result.fields[name])
        # The executed-work statistics survive the crash/restart.
        assert resumed.steps_done == clean.steps_done
        assert resumed.executor.lups_done == clean.executor.lups_done
        assert resumed.executor.jobs_done == clean.executor.jobs_done


class TestLag:
    def test_no_directory_or_checkpoint_is_none(self, tmp_path):
        assert latest_lag_s(None) is None
        assert latest_lag_s(str(tmp_path / "missing")) is None
        assert latest_lag_s(str(tmp_path)) is None

    def test_fresh_checkpoint_has_small_lag(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), "t", token="tok", every=10)
        mgr.save(make_solver().fields, 10, [1.0])
        lag = latest_lag_s(str(tmp_path))
        assert 0.0 <= lag < 60.0

    def test_clear_removes_snapshot(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), "t", token="tok", every=10)
        mgr.save(make_solver().fields, 10, [1.0])
        mgr.clear()
        assert not os.path.exists(mgr.path)
        mgr.clear()  # idempotent


# -- one table over the five solve entry points ---------------------------------
#
# THIIMSolver.solve, TiledTHIIM.solve, BatchedTHIIMSolver.solve,
# BatchedTiledTHIIM.solve and run_distributed are shells over one
# convergence loop; whatever holds for one must hold for all five.

CHECK = 8        # sweeps per convergence check == the tile chunk
MAX_STEPS = 40   # five checks, tolerance unreachable
OMEGAS = [2 * np.pi / 10.0, 2 * np.pi / 12.0]
NAME = "job"


def _build(batched=False, poison=False):
    """A fresh solver on the one grid every traversal accepts
    (non-periodic y/z for the tiles, z long enough for two ranks)."""
    grid = Grid(nz=24, ny=8, nx=6)
    kw = dict(source=PlaneWaveSource(z_plane=6, z_width=2.0),
              pml={"z": PMLSpec(thickness=6)})
    solver = (BatchedTHIIMSolver(grid, OMEGAS, **kw) if batched
              else THIIMSolver(grid, OMEGAS[0], **kw))
    if poison:
        # NaN in one coefficient cell of the first lane.
        cell = solver.coefficients.arrays["tExz"]
        (cell[0] if batched else cell)[12, 4, 3] = np.nan
    return solver


def _outcome(results, reasons, counters, resumed_from):
    return {
        "iterations": [r.iterations for r in results],
        "residual": [r.residual for r in results],
        "converged": [r.converged for r in results],
        "history": [list(r.residual_history) for r in results],
        "fields": [{n: r.fields[n].copy() for n in r.fields}
                   for r in results],
        "reasons": reasons,
        "counters": counters,
        "resumed_from": resumed_from,
    }


def _solve_in_process(batched, tiled, directory=None, poison=False,
                      on_divergence="return"):
    solver = _build(batched, poison)
    driver, cadence = solver, {"check_every": CHECK}
    if tiled:
        driver = (BatchedTiledTHIIM if batched else TiledTHIIM)(
            solver, dw=4, bz=2, chunk=CHECK)
        cadence = {"chunk": CHECK}
    ckpt = directory and CheckpointManager(
        directory, NAME, token=solver_token(solver, **cadence), every=CHECK)
    kw = dict(tol=1e-15, max_steps=MAX_STEPS, checkpoint=ckpt)
    if not tiled:
        kw["check_every"] = CHECK
    if not batched:
        kw["on_divergence"] = on_divergence
    solved = driver.solve(**kw)
    results, reasons = ((solved.results, solved.diverged) if batched
                        else ([solved], None))
    counters = (driver.steps_done, driver.lups_done,
                driver.jobs_done) if tiled else None
    return _outcome(results, reasons, counters,
                    ckpt.resumed_from if ckpt else None)


def _solve_distributed(directory=None, poison=False,
                       on_divergence="return"):
    solver = _build(poison=poison)
    result, info = run_distributed(
        RankLayout(solver.grid, 2, 1, 1), solver, tol=1e-15,
        max_steps=MAX_STEPS, check_every=CHECK, name=NAME,
        checkpoint_dir=directory, every=CHECK if directory else 0,
        on_divergence=on_divergence)
    return _outcome([result], None, None, info["resumed_from"])


ENTRY_POINTS = {
    "scalar": partial(_solve_in_process, False, False),
    "tiled": partial(_solve_in_process, False, True),
    "batched": partial(_solve_in_process, True, False),
    "batched_tiled": partial(_solve_in_process, True, True),
    "distributed": _solve_distributed,
}


def _assert_same_solve(got, want):
    for key in ("iterations", "residual", "converged", "history",
                "reasons", "counters"):
        assert got[key] == want[key], key
    for a, b in zip(got["fields"], want["fields"]):
        for name in a:
            assert np.array_equal(a[name], b[name]), name


@pytest.fixture(scope="module")
def clean():
    """The uninterrupted, checkpoint-free run of every entry point."""
    return {name: solve() for name, solve in ENTRY_POINTS.items()}


@pytest.mark.parametrize("name", ENTRY_POINTS)
class TestEveryEntryPoint:
    @pytest.mark.parametrize("boundary", range(MAX_STEPS // CHECK))
    def test_crash_at_every_boundary_resumes_bit_identical(
            self, name, boundary, clean, tmp_path):
        """``solver.sweep`` dies entering check ``boundary``; the rerun
        resumes from the snapshot of the previous boundary and ends on
        the uninterrupted fields, histories and work counters."""
        solve = ENTRY_POINTS[name]
        faults.install(faults.FaultPlan.parse(
            f"solver.sweep:raise:{boundary}"))
        with pytest.raises(InjectedFault):
            solve(str(tmp_path))
        faults.uninstall()
        resumed = solve(str(tmp_path))
        assert resumed["resumed_from"] == (boundary * CHECK or None)
        _assert_same_solve(resumed, clean[name])

    def test_checkpointing_does_not_change_the_solve(self, name, clean,
                                                     tmp_path):
        _assert_same_solve(ENTRY_POINTS[name](str(tmp_path)), clean[name])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_coefficient_stops_at_the_first_check(self, name, clean):
        """A poisoned lane is reported diverged after one check by every
        entry point, in the same words; the healthy lane of a batch is
        untouched."""
        solve = ENTRY_POINTS[name]
        got = solve(poison=True)
        assert got["iterations"][0] == CHECK
        assert got["converged"][0] is False
        assert np.isnan(got["residual"][0])
        reason = "non-finite residual (NaN/Inf in the fields)"
        if got["reasons"] is not None:  # batched: reported per lane
            assert got["reasons"] == [reason, None]
            for key in ("iterations", "residual", "history"):
                assert got[key][1] == clean[name][key][1]
        else:
            with pytest.raises(SolverDiverged) as exc:
                solve(poison=True, on_divergence="raise")
            assert str(exc.value).endswith(
                f"diverged after {CHECK} steps: {reason}")
            assert exc.value.details["steps"] == CHECK

    @pytest.mark.parametrize("foreign", ["v1", "width"])
    def test_foreign_snapshot_is_quarantined_never_resumed(
            self, name, foreign, clean, tmp_path, monkeypatch):
        """A version-1 file, or a snapshot of another lane count, under
        this solve's name: moved aside, solve restarts from sweep 0."""
        from repro.resilience import checkpoint as ckpt_mod

        directory = str(tmp_path)
        batched = name.startswith("batched")
        if foreign == "v1":
            # What an old process left behind: same solve, old version.
            monkeypatch.setattr(ckpt_mod, "CHECKPOINT_VERSION", 1)
            writer = ENTRY_POINTS[name]
        else:
            writer = ENTRY_POINTS["scalar" if batched else "batched"]
        faults.install(faults.FaultPlan.parse("solver.sweep:raise:2"))
        with pytest.raises(InjectedFault):
            writer(directory)
        faults.uninstall()
        monkeypatch.undo()
        planted = [f for f in os.listdir(directory) if f.endswith(".npz")]
        if foreign == "width" and name == "distributed":
            # Rank snapshots have their own names; plant under one.
            os.rename(os.path.join(directory, planted[0]),
                      os.path.join(directory, f"ckpt-{NAME}.r0-0-0.npz"))
            planted = [f"ckpt-{NAME}.r0-0-0.npz"]
        assert planted

        got = ENTRY_POINTS[name](directory)
        assert got["resumed_from"] is None
        _assert_same_solve(got, clean[name])
        for fname in planted:
            assert os.path.exists(os.path.join(directory,
                                               fname + ".corrupt"))


def test_point_solve_and_width_one_batch_share_snapshots(tmp_path):
    """k = 1 is not a special case: a scalar solve's snapshot is a
    width-1 batch snapshot (same token, same payload), so the batch
    resumes it -- correctly."""
    grid = Grid(nz=24, ny=8, nx=6)
    kw = dict(source=PlaneWaveSource(z_plane=6, z_width=2.0),
              pml={"z": PMLSpec(thickness=6)})
    solve = dict(tol=1e-15, max_steps=MAX_STEPS, check_every=CHECK)
    clean = THIIMSolver(grid, OMEGAS[0], **kw).solve(**solve)

    scalar = THIIMSolver(grid, OMEGAS[0], **kw)
    batch = BatchedTHIIMSolver(grid, OMEGAS[:1], **kw)
    token = solver_token(scalar, check_every=CHECK)
    assert token == solver_token(batch, check_every=CHECK)
    faults.install(faults.FaultPlan.parse("solver.sweep:raise:3"))
    with pytest.raises(InjectedFault):
        scalar.solve(checkpoint=CheckpointManager(
            str(tmp_path), NAME, token=token, every=CHECK), **solve)
    faults.uninstall()

    mgr = CheckpointManager(str(tmp_path), NAME, token=token, every=CHECK)
    lane = batch.solve(checkpoint=mgr, **solve).results[0]
    assert mgr.resumed_from == 3 * CHECK
    assert lane.resumed_from == 3 * CHECK
    assert lane.residual_history == clean.residual_history
    for name in clean.fields:
        assert np.array_equal(lane.fields[name], clean.fields[name])
