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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Tuple

import numpy as np

from .diamond import DiamondTile, RowSpan

__all__ = ["RowJob", "level_offsets", "tile_job_arrays", "tile_row_jobs",
           "tile_rows", "wavefront_width"]


@dataclass(frozen=True)
class RowJob:
    """One kernel invocation: a half-step update of rows ``[y_lo, y_hi)``
    over planes ``[z_lo, z_hi)``."""

    tau: int
    y_lo: int
    y_hi: int
    z_lo: int
    z_hi: int

    @property
    def is_h(self) -> bool:
        return self.tau % 2 == 0

    @property
    def field(self) -> str:
        return "H" if self.is_h else "E"

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


def tile_row_jobs(tile: DiamondTile, nz: int, bz: int) -> Iterator[RowJob]:
    """Serialize one tile into dependency-ordered row jobs.

    Parameters
    ----------
    tile:
        The diamond tile to traverse.
    nz:
        z-extent of the grid.
    bz:
        Wavefront block width: planes advanced per level per front step
        (``B_z`` of the paper).

    Yields
    ------
    RowJob
        Jobs in a valid execution order: per front step the levels are
        advanced bottom-up, each to ``bz * front - off(level)``, so every
        z-read of a level lands in the already-updated span of the level
        below.
    """
    if bz < 1:
        raise ValueError("bz must be >= 1")
    if nz < 1:
        raise ValueError("nz must be >= 1")
    offsets = level_offsets(tile)
    progress = [0] * len(tile.rows)
    front = 1
    while progress[-1] < nz:
        for lvl, row in enumerate(tile.rows):
            target = bz * front - offsets[lvl]
            target = 0 if target < 0 else (nz if target > nz else target)
            if target > progress[lvl]:
                yield RowJob(row.tau, row.y_lo, row.y_hi, progress[lvl], target)
                progress[lvl] = target
        front += 1


def tile_job_arrays(tile: DiamondTile, nz: int, bz: int
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`tile_row_jobs` as arrays ``(level, z_lo, z_hi)``: job ``k``
    updates ``tile.rows[level[k]]`` over planes ``[z_lo[k], z_hi[k])``, in
    the generator's order (front-major, level-minor).  Per level the
    front targets are ``clip(bz * front - off, 0, nz)``; a job exists
    where the target advances, and the top level -- the largest offset --
    arrives last, at front ``ceil((nz + off) / bz)``."""
    if bz < 1:
        raise ValueError("bz must be >= 1")
    if nz < 1:
        raise ValueError("nz must be >= 1")
    off = np.array(level_offsets(tile), dtype=np.int64)
    fronts = np.arange(-(-(nz + off[-1]) // bz) + 1, dtype=np.int64)
    target = np.clip(bz * fronts[:, None] - off, 0, nz)
    lo, hi = target[:-1], target[1:]
    advances = hi > lo
    return np.nonzero(advances)[1], lo[advances], hi[advances]


def tile_rows(tile: DiamondTile, nz: int, bz: int) -> np.ndarray:
    """:func:`tile_row_jobs` as a row schedule: a ``(5, jobs)`` array
    whose rows are ``tau & 1``, ``y_lo``, ``y_hi``, ``z_lo`` and ``z_hi``.
    Tiles of one :attr:`~repro.core.diamond.DiamondTile.congruence` class
    share one memoized schedule, shifted here to the tile's rows."""
    y0, rows = tile.congruence
    return _congruent_rows(rows, nz, bz) + y0 * _Y_ROWS


#: Which rows of a schedule are y coordinates.
_Y_ROWS = np.array([[0], [1], [1], [0], [0]], dtype=np.int64)


@lru_cache(maxsize=4096)
def _congruent_rows(rows: Tuple[Tuple[int, int, int], ...], nz: int, bz: int
                    ) -> np.ndarray:
    """The (read-only) row schedule of the tile with rows ``(tau & 1,
    y_lo, y_hi)``."""
    level, z_lo, z_hi = tile_job_arrays(
        DiamondTile(0, 0, 0, tuple(RowSpan(*r) for r in rows)), nz, bz)
    out = np.vstack((np.array(rows, dtype=np.int64)[level].T, z_lo, z_hi))
    out.flags.writeable = False
    return out
