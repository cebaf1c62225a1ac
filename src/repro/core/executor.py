"""Tiled execution of the THIIM kernels.

:class:`TiledExecutor` drives the very same kernels as the naive sweep,
but in the wavefront-diamond order of a :class:`TilingPlan`.  Its contract
-- asserted extensively by the test suite -- is bit-for-bit-order-tolerant
equality with :func:`repro.fdfd.kernels.naive_sweep` for *any* valid plan
and *any* topological order of the tile DAG.

This is the functional counterpart of the paper's MWD code: the paper's
threads pop tiles from a FIFO queue and update them concurrently; here a
single Python thread executes the same job stream in an equivalent order
(inter-tile concurrency is validated through randomized topological
orders, and modelled for performance purposes by
:mod:`repro.machine.simulator`).

Within a tile the work is shared with the compiled kernel's helper group:
:meth:`TiledExecutor.execute_tile` makes its kernel calls inside one
:func:`repro.fdfd.kernels.stream` window, so each row job's update is
queued as a job that a helper runs while this thread dispatches the next
one.  Jobs run one at a time in submission order; a box large enough to
split is a job of several parts that every thread claims, this one
included, and this thread claims jobs itself whenever it waits for the
queue.  The calls, their order and each cell's instructions are those of
the immediate path, so the result is bit-identical; the tile is complete
when the call returns.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import telemetry
from ..fdfd.coefficients import CoefficientSet
from ..fdfd.fields import FieldState
from ..fdfd.kernels import stream, update_component
from ..resilience import faults
from .plan import TileIndex, TilingPlan

__all__ = ["TiledExecutor"]


class TiledExecutor:
    """Executes a tiling plan against real field data."""

    def __init__(self, fields: FieldState, coeffs: CoefficientSet, plan: TilingPlan):
        grid = fields.grid
        if coeffs.grid.shape != grid.shape:
            raise ValueError("fields and coefficients live on different grids")
        if plan.ny != grid.ny or plan.nz != grid.nz:
            raise ValueError(
                f"plan is for (ny={plan.ny}, nz={plan.nz}), grid is "
                f"(ny={grid.ny}, nz={grid.nz})"
            )
        if grid.periodic[0] or grid.periodic[1]:
            raise ValueError(
                "diamond tiling requires non-periodic y and z axes "
                "(periodic x is fine -- the inner dimension is never tiled)"
            )
        self.fields = fields
        self.coeffs = coeffs
        self.plan = plan
        self._tiles = plan.compiled(grid)
        self.lups_done = 0
        self.jobs_done = 0

    def execute_tile(self, idx: TileIndex) -> None:
        """Run one tile's row jobs: one kernel call per (row job, component)
        on a region clipped and packed when the plan was compiled, streamed
        to the kernel's helper group; every update is applied on return."""
        faults.hit("tile.execute")
        ops, n_jobs = self._tiles[idx]
        fields, coeffs = self.fields, self.coeffs
        with telemetry.span(f"tile t={idx[0]} r={idx[1]}", "exec.tile") as sp:
            lups = 0
            with stream():
                for name, region, n in ops:
                    update_component(name, fields, coeffs, region)
                    lups += n
            lups *= fields.batch_width  # every lane of a stack counts
            self.lups_done += lups
            self.jobs_done += n_jobs
            sp.set(lups=lups)

    def run(self, order: Sequence[TileIndex] | None = None) -> FieldState:
        """Execute the whole plan (optionally in a custom tile order)."""
        if order is None:
            order = self.plan.fifo_order()
        p = self.plan
        with telemetry.span(
            f"tiled run ny={p.ny} nz={p.nz} T={p.timesteps}", "exec.run",
            args={"ny": p.ny, "nz": p.nz, "timesteps": p.timesteps,
                  "dw": p.dw, "bz": p.bz, "tiles": len(p.tiles)},
        ):
            for idx in order:
                self.execute_tile(idx)
        return self.fields

    def run_interleaved(self, rng: np.random.Generator) -> FieldState:
        """Execute in a random linear extension of the tile DAG.

        Emulates the nondeterministic completion order of concurrent
        thread groups popping from the FIFO queue.
        """
        return self.run(self.plan.random_topological_order(rng))
