"""Node-level dependency rules and the schedule validity checker.

The correctness of any temporally blocked traversal of the THIIM stencil
reduces to one statement: *every half-step update reads each of its inputs
at exactly the right time level*.  Because the kernels update in place,
reading too-early data (a flow violation) and reading already-overwritten
data (an anti-dependency violation) are both "wrong time level" errors --
and for this stencil the two coincide: the set of nodes that overwrite an
input of node ``n`` equals the set of nodes that flow-depend on ``n``
(worked out in DESIGN.md section 5).

:class:`DependencyChecker` replays a stream of row jobs ``(tau, y_lo,
y_hi, z_lo, z_hi)`` -- the columns of a row schedule -- against
per-cell sub-step clocks and raises on the first violation.  It is the
oracle used by the property tests to validate arbitrary tiling plans and
arbitrary topological interleavings of the tile DAG, independently of the
numerics.

Dependency rule (Fig. 3 of the paper, at row/plane granularity):

* magnetic node ``(tau, y, z)`` (``tau`` even) requires
  ``C_H[y, z] == tau - 2``, ``C_E[y, z] == tau - 1``,
  ``C_E[y + 1, z] == tau - 1`` and ``C_E[y, z + 1] == tau - 1``
  (the out-of-domain reads are Dirichlet constants and impose nothing);
* electric node ``(tau, y, z)`` (``tau`` odd) requires
  ``C_E[y, z] == tau - 2``, ``C_H[y, z] == tau - 1``,
  ``C_H[y - 1, z] == tau - 1`` and ``C_H[y, z - 1] == tau - 1``.

Initial clocks are ``C_H = -2`` (state ``H^{-1/2}``) and ``C_E = -1``
(state ``E^0``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["DependencyError", "DependencyChecker", "validate_jobs"]


class DependencyError(AssertionError):
    """A schedule violated the stencil's data dependencies."""


class DependencyChecker:
    """Replays row jobs against per-cell sub-step clocks."""

    def __init__(self, ny: int, nz: int):
        if ny < 1 or nz < 1:
            raise ValueError("ny and nz must be >= 1")
        self.ny = ny
        self.nz = nz
        self.clock_h = np.full((ny, nz), -2, dtype=np.int64)
        self.clock_e = np.full((ny, nz), -1, dtype=np.int64)
        self.jobs_executed = 0
        self.nodes_executed = 0

    # -- execution ----------------------------------------------------------

    def execute(self, job: Sequence[int]) -> None:
        """Validate and apply one row job ``(tau, y_lo, y_hi, z_lo,
        z_hi)`` -- a :class:`~repro.core.wavefront.RowJob` or a column of
        a row schedule."""
        tau, y_lo, y_hi, z_lo, z_hi = job

        def require(cond: np.ndarray, what: str) -> None:
            if not np.all(cond):
                raise DependencyError(f"{what} violated by {tuple(job)}")

        if not (0 <= y_lo < y_hi <= self.ny):
            raise DependencyError(f"y range out of bounds in {tuple(job)}")
        if not (0 <= z_lo < z_hi <= self.nz):
            raise DependencyError(f"z range out of bounds in {tuple(job)}")
        if tau < 0:
            raise DependencyError(f"negative sub-step in {tuple(job)}")
        ys = slice(y_lo, y_hi)
        zs = slice(z_lo, z_hi)
        if tau % 2 == 0:
            own, other = self.clock_h, self.clock_e
            require(own[ys, zs] == tau - 2, "in-order H self-update")
            require(other[ys, zs] == tau - 1, "H near read of E")
            y_far = slice(y_lo + 1, min(y_hi + 1, self.ny))
            if y_far.start < y_far.stop:
                require(other[y_far, zs] == tau - 1, "H read of E at y+1")
            z_far = slice(z_lo + 1, min(z_hi + 1, self.nz))
            if z_far.start < z_far.stop:
                require(other[ys, z_far] == tau - 1, "H read of E at z+1")
        else:
            own, other = self.clock_e, self.clock_h
            require(own[ys, zs] == tau - 2, "in-order E self-update")
            require(other[ys, zs] == tau - 1, "E near read of H")
            y_far = slice(max(y_lo - 1, 0), y_hi - 1)
            if y_far.start < y_far.stop:
                require(other[y_far, zs] == tau - 1, "E read of H at y-1")
            z_far = slice(max(z_lo - 1, 0), z_hi - 1)
            if z_far.start < z_far.stop:
                require(other[ys, z_far] == tau - 1, "E read of H at z-1")
        own[ys, zs] = tau
        self.jobs_executed += 1
        self.nodes_executed += (y_hi - y_lo) * (z_hi - z_lo)

    def assert_complete(self, timesteps: int) -> None:
        """Assert every cell finished exactly ``timesteps`` full steps."""
        want_h = 2 * timesteps - 2
        want_e = 2 * timesteps - 1
        if not np.all(self.clock_h == want_h):
            done = int(np.min(self.clock_h))
            raise DependencyError(
                f"incomplete H coverage: min clock {done}, expected {want_h}"
            )
        if not np.all(self.clock_e == want_e):
            done = int(np.min(self.clock_e))
            raise DependencyError(
                f"incomplete E coverage: min clock {done}, expected {want_e}"
            )


def validate_jobs(jobs: Iterable[Sequence[int]], ny: int, nz: int,
                  timesteps: int | None = None) -> DependencyChecker:
    """Validate a full job stream (5-tuples ``(tau, y_lo, y_hi, z_lo,
    z_hi)``); returns the checker for inspection."""
    checker = DependencyChecker(ny, nz)
    for job in jobs:
        checker.execute(job)
    if timesteps is not None:
        checker.assert_complete(timesteps)
    return checker
