"""Temporally blocked THIIM driver: the production integration.

:class:`TiledTHIIM` is what the paper's users actually run: the THIIM
inverse iteration advanced through the wavefront-diamond traversal,
chunk of steps by chunk of steps, with the same convergence monitoring
as the naive driver.  A single :class:`TilingPlan` covering ``chunk``
time steps is built once and re-executed -- every execution advances the
fields exactly ``chunk`` steps, so temporal blocking composes cleanly
with the fixed-point iteration.

It also exposes the executed job statistics (tiles, row jobs, LUPs), the
numbers a performance engineer feeds to the machine model.
"""

from __future__ import annotations

from .. import telemetry
from ..fdfd.thiim import (
    BatchedTHIIMSolver,
    BatchSolveResult,
    SolveResult,
    THIIMSolver,
    _converge,
    run_batched_loop,
)
from .executor import TiledExecutor
from .plan import TilingPlan

__all__ = ["TiledTHIIM", "BatchedTiledTHIIM"]


def _publish_tiled_progress(steps: int, residuals, **event) -> None:
    telemetry.publish("progress", sweeps=steps, residual=residuals["0"],
                      tiled=True)


class _TiledDriver:
    """What the scalar and the batched wavefront driver share: one
    :class:`TilingPlan` covering ``chunk`` steps (spatial/temporal, not
    per-lane, which is why one autotuned plan serves a whole batch), the
    executor that re-runs it over the owner's fields -- stacked lanes
    drop straight in, and compaction keeps their identity -- and the
    executed-work counters a checkpoint carries, so a resumed run
    reports the same traffic statistics as an uninterrupted one.
    """

    def _build(self, owner, dw: int, bz: int, chunk: int | None) -> None:
        grid = owner.grid
        self.chunk = chunk if chunk is not None else max(dw, 1)
        if self.chunk < 1:
            raise ValueError("chunk must be >= 1")
        self.plan = TilingPlan.build(
            ny=grid.ny, nz=grid.nz, timesteps=self.chunk, dw=dw, bz=bz
        )
        # Fails fast on periodic y/z.
        self.executor = TiledExecutor(owner.fields, owner.coefficients, self.plan)
        self.steps_done = 0

    def _advance(self, n: int) -> None:
        """One plan execution: exactly ``chunk`` steps (the loop's
        ``step_size`` always hands back one chunk)."""
        self.executor.run()
        self.steps_done += self.chunk

    def _traversal(self) -> dict:
        """The ``advance`` / ``step_size`` / ``counters`` arguments of
        the convergence loop for this driver."""
        return {"advance": self._advance,
                "step_size": lambda steps: self.chunk,
                "counters": (self._counters, self._restore_counters)}

    def _counters(self) -> dict:
        return {"steps_done": self.steps_done,
                "lups_done": self.executor.lups_done,
                "jobs_done": self.executor.jobs_done}

    def _restore_counters(self, extras: dict) -> None:
        self.steps_done = int(extras["steps_done"])
        self.executor.lups_done = int(extras["lups_done"])
        self.executor.jobs_done = int(extras["jobs_done"])

    def run(self, nsteps: int) -> None:
        """Advance all active lanes ``nsteps`` time steps (rounded up to
        whole chunks)."""
        if nsteps < 0:
            raise ValueError("nsteps must be >= 0")
        for _ in range(-(-nsteps // self.chunk)):
            self._advance(self.chunk)

    @property
    def lups_done(self) -> int:
        return self.executor.lups_done

    @property
    def jobs_done(self) -> int:
        return self.executor.jobs_done


class TiledTHIIM(_TiledDriver):
    """Wavefront-diamond-blocked THIIM solve.

    Parameters
    ----------
    solver:
        A configured :class:`THIIMSolver` (grid must be non-periodic in
        y and z -- the benchmark/Dirichlet configuration).
    dw, bz:
        Diamond width and wavefront block width.
    chunk:
        Time steps per plan execution; convergence is checked between
        chunks.  Defaults to one full diamond height (``dw`` steps), the
        natural granule of the tessellation.
    """

    def __init__(self, solver: THIIMSolver, dw: int, bz: int = 1, chunk: int | None = None):
        self.solver = solver
        self._build(solver, dw, bz, chunk)

    def solve(
        self,
        tol: float = 1e-6,
        max_steps: int = 5000,
        checkpoint=None,
        on_divergence: str = "return",
    ) -> SolveResult:
        """Iterate to the time-harmonic state through the tiled traversal.

        ``checkpoint``/``on_divergence`` mirror
        :meth:`repro.fdfd.thiim.THIIMSolver.solve`.  Checkpoints land at
        chunk boundaries and also carry the executed-work counters.
        """
        return _converge(
            self.solver.fields,
            self.solver.coefficients,
            tol=tol,
            max_steps=max_steps,
            checkpoint=checkpoint,
            publish=_publish_tiled_progress,
            on_divergence=on_divergence,
            label="tiled THIIM",
            **self._traversal(),
        ).results[0]

    def describe(self) -> str:
        return (
            f"TiledTHIIM(chunk={self.chunk}, {self.plan.describe()}, "
            f"steps_done={self.steps_done})"
        )


class BatchedTiledTHIIM(_TiledDriver):
    """Wavefront-diamond-blocked solve of a whole wavelength batch.

    One :class:`TilingPlan` (built exactly as for a scalar solve of the
    same grid) drives the tiled executor over the ``12 x k`` stacked
    fields; every tile touch updates all ``k`` wavelengths while the
    stencil working set is hot.  Convergence is monitored per point
    between chunks, finished lanes are compacted away, and checkpoints
    carry the batch axis plus per-point loop state (see
    :func:`repro.fdfd.thiim.run_batched_loop`).
    """

    def __init__(self, batched: BatchedTHIIMSolver, dw: int, bz: int = 1,
                 chunk: int | None = None):
        self.batched = batched
        self._build(batched, dw, bz, chunk)

    def solve(self, tol: float = 1e-6, max_steps: int = 5000,
              checkpoint=None) -> BatchSolveResult:
        """Iterate the batch to convergence; every lane bit-identical to
        a scalar :meth:`TiledTHIIM.solve` of that point."""
        return run_batched_loop(
            self.batched.fields,
            self.batched.coefficients,
            tol=tol,
            max_steps=max_steps,
            checkpoint=checkpoint,
            **self._traversal(),
        )

    def describe(self) -> str:
        return (
            f"BatchedTiledTHIIM(k={self.batched.batch_width}, "
            f"chunk={self.chunk}, {self.plan.describe()}, "
            f"steps_done={self.steps_done})"
        )
