"""Wavefront traversal of an extruded diamond tile.

A diamond tile of :mod:`repro.core.diamond` lives in the (time, y) plane;
the third dimension z (the outer array dimension) is covered by *extruding*
the diamond and traversing it as a multi-level wavefront (Fig. 4 of the
paper): each sub-step level of the diamond sweeps along z, trailing the
level below it so that all z-dependencies are honoured while the moving
window of ``B_z`` planes per level stays cache resident.

Offsets
-------
Along z the dependency rule mirrors the y rule: a magnetic node reads the
electric field at ``z`` and ``z + 1``, an electric node at ``z`` and
``z - 1``.  Hence a magnetic level must trail the level below it by one
plane, while an electric level may run flush with it.  The cumulative
trailing offset of level ``l`` is::

    off(0) = 0,   off(l) = off(l-1) + (1 if level l is magnetic else 0)

Advancing the levels bottom-up within each front step keeps every level
exactly at its offset, which is the tightest valid pipeline -- and the
wavefront tile width of the paper, ``W_w = D_w + B_z - 1``, is exactly the
z-extent such a pipeline occupies for an interior diamond (``D_w - 1``
cumulative offsets + a ``B_z`` window).

The schedule
------------
:func:`tile_rows` is the one producer of a tile's traversal: a ``(5,
jobs)`` array whose columns are row jobs ``(tau, y_lo, y_hi, z_lo,
z_hi)`` in execution order.  Each consumer lowers it: the plan compiles
it into kernel calls, the dependency checker replays its columns, the
substrate replays it with ``tau & 1`` as the recipe.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, NamedTuple, Tuple

import numpy as np

from .diamond import DiamondTile

__all__ = ["RowJob", "level_offsets", "tile_row_jobs", "tile_rows",
           "wavefront_width"]


class RowJob(NamedTuple):
    """One kernel invocation -- a column of a row schedule: a half-step
    update of rows ``[y_lo, y_hi)`` over planes ``[z_lo, z_hi)``."""

    tau: int
    y_lo: int
    y_hi: int
    z_lo: int
    z_hi: int

    @property
    def is_h(self) -> bool:
        return self.tau % 2 == 0

    @property
    def cells_per_x(self) -> int:
        """Node-cells covered (multiply by nx for grid cells)."""
        return (self.y_hi - self.y_lo) * (self.z_hi - self.z_lo)


def level_offsets(tile: DiamondTile) -> List[int]:
    """Cumulative z-trailing offset of each sub-step level of the tile."""
    offsets: List[int] = []
    off = 0
    for idx, row in enumerate(tile.rows):
        if idx > 0 and row.is_h:
            off += 1
        offsets.append(off)
    return offsets


def wavefront_width(dw: int, bz: int) -> int:
    """The paper's wavefront tile width ``W_w = D_w + B_z - 1``."""
    if bz < 1:
        raise ValueError("bz must be >= 1")
    return dw + bz - 1


def tile_rows(tile: DiamondTile, nz: int, bz: int) -> np.ndarray:
    """The tile's row schedule: a ``(5, jobs)`` int64 array whose rows are
    ``tau``, ``y_lo``, ``y_hi``, ``z_lo`` and ``z_hi``, one column per row
    job in a valid execution order (see :func:`_congruent_rows`).  Tiles
    of one :attr:`~repro.core.diamond.DiamondTile.congruence` class share
    one memoized schedule, shifted here in ``tau`` and ``y``."""
    tau0, y0, rows = tile.congruence
    return _congruent_rows(rows, nz, bz) + np.array((tau0, y0, y0, 0, 0))[:, None]


def tile_row_jobs(tile: DiamondTile, nz: int, bz: int) -> List[RowJob]:
    """:func:`tile_rows` as :class:`RowJob` s, column by column."""
    return [RowJob(*col) for col in tile_rows(tile, nz, bz).T.tolist()]


@lru_cache(maxsize=4096)
def _congruent_rows(rows: Tuple[Tuple[int, int, int], ...], nz: int, bz: int
                    ) -> np.ndarray:
    """The (read-only) row schedule of the tile with rows ``(tau - tau0,
    y_lo - y0, y_hi - y0)`` (``tau0`` even, so ``tau & 1`` is kept).

    Per front step ``f`` the levels advance bottom-up, level ``l`` to
    ``clip(bz * f - off(l), 0, nz)``, so every z-read of a level lands in
    the already-updated span of the level below; a job exists wherever a
    target advances, and the top level -- the largest offset -- arrives
    last, at front ``ceil((nz + off) / bz)``.  Columns are front-major,
    level-minor."""
    if bz < 1:
        raise ValueError("bz must be >= 1")
    if nz < 1:
        raise ValueError("nz must be >= 1")
    rows = np.array(rows, dtype=np.int64)
    is_h = 1 - (rows[:, 0] & 1)
    off = np.cumsum(is_h) - is_h[0]
    fronts = np.arange(-(-(nz + off[-1]) // bz) + 1, dtype=np.int64)
    target = np.clip(bz * fronts[:, None] - off, 0, nz)
    lo, hi = target[:-1], target[1:]
    advances = hi > lo
    out = np.vstack((rows[np.nonzero(advances)[1]].T, lo[advances], hi[advances]))
    out.flags.writeable = False
    return out
