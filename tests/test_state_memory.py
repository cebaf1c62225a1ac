"""One copy of the state (DESIGN.md section 5, item 14).

A solve holds its twelve field arrays once.  Around them the convergence
loop keeps only an E-only snapshot refreshed in place, the residual works
in reused scratch, and a checkpoint streams into its temporary file: a
checkpointing g24 tiled solve, point or 3-lane batch, allocates at most
0.8x its field bytes on top of the fields (tracemalloc sees NumPy's data
buffers).  A streamed write that fails partway leaves the previous
snapshot in place.
"""

import os
import tracemalloc

import numpy as np
import pytest

from repro import telemetry
from repro.core.tiled_solver import BatchedTiledTHIIM, TiledTHIIM
from repro.resilience.checkpoint import CheckpointManager, solver_token

from conftest import service_solver

#: Allocation on top of the fields a checkpointing solve may make, as a
#: fraction of the field bytes: the E snapshot alone is 0.5.
EXTRA_BUDGET = 0.8


@pytest.mark.parametrize("wavelengths", [(10.0,), (10.0, 11.0, 12.5)],
                         ids=["point", "3-lanes"])
def test_checkpointing_tiled_solve_holds_one_copy(tmp_path, wavelengths):
    """The ledger's tiled_campaign solve (tandem, g24, D_w 24 / B_z 4,
    48 sweeps, a snapshot every 24): two checks, one checkpoint (none at
    the step budget)."""
    tracemalloc.start()
    try:
        solver = service_solver("tandem", n=24, wavelengths=wavelengths,
                                tiled=True)
        driver = (TiledTHIIM if len(wavelengths) == 1 else
                  BatchedTiledTHIIM)(solver, dw=24, bz=4)
        ckpt = CheckpointManager(str(tmp_path), "mem", every=24,
                                 token=solver_token(solver, chunk=24))
        field_bytes = sum(a.nbytes for a in
                          solver.fields.components().values())
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        driver.solve(tol=1e-12, max_steps=48, checkpoint=ckpt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ckpt.saves == 1
    extra = (peak - base) / field_bytes
    assert extra <= EXTRA_BUDGET, f"{extra:.2f}x the field bytes on top"


def test_failed_streamed_write_keeps_the_previous_snapshot(tmp_path,
                                                           monkeypatch):
    """An OSError after part of the archive reached the temporary file:
    the previous snapshot still loads, no ``.tmp`` file is left, and the
    failure is counted."""
    solver = service_solver("tandem", n=10)
    mgr = CheckpointManager(str(tmp_path), "torn", token="tok", every=10)
    assert mgr.save(solver.fields, 10, [[0.5]]) == mgr.path
    solver.run(5)

    real = np.savez

    def disk_full_after_three_arrays(f, **arrays):
        real(f, **dict(list(arrays.items())[:3]))
        assert f.tell() > 0
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(np, "savez", disk_full_after_three_arrays)
    before = telemetry.resilience_counts().get("checkpoint_write_errors", 0)
    assert mgr.save(solver.fields, 15, [[0.5, 0.25]]) is None
    monkeypatch.undo()

    after = telemetry.resilience_counts()["checkpoint_write_errors"]
    assert after == before + 1
    assert os.listdir(tmp_path) == [os.path.basename(mgr.path)]
    ckpt = mgr.load()
    assert ckpt.steps == 10 and ckpt.history == [[0.5]]
    assert mgr.saves == 1 and mgr.last_saved_steps == 10
