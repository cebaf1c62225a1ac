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
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..fdfd.coefficients import CoefficientSet
from ..fdfd.fields import FieldState
from ..fdfd.kernels import update_component
from ..resilience import faults
from . import tracing
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
        on a region clipped and packed when the plan was compiled."""
        faults.hit("tile.execute")
        ops, n_jobs = self._tiles[idx]
        fields, coeffs = self.fields, self.coeffs
        with tracing.span(f"tile t={idx[0]} r={idx[1]}", "exec.tile") as sp:
            lups = 0
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
        with tracing.span(
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
