"""Tiling plans: the full tile set + dependency DAG for a grid and horizon.

A :class:`TilingPlan` assembles the diamond tessellation of
:mod:`repro.core.diamond` over a concrete grid and number of time steps,
derives the inter-tile dependency DAG, and concatenates the tiles' row
schedules (:func:`~repro.core.wavefront.tile_rows`) for the dependency
checker and lowers them into kernel calls for the executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..fdfd.grid import Grid
from ..fdfd.kernels import BoundRegion, clip_region, region_lups
from ..fdfd.specs import E_COMPONENTS, H_COMPONENTS, SPECS
from .diamond import DiamondTile, enumerate_tiles
from .wavefront import tile_rows

__all__ = ["TilingPlan"]

TileIndex = Tuple[int, int]


def pack_dag(tiles, preds, succs) -> Tuple[np.ndarray, ...]:
    """A tile DAG as the flat arrays ``machine/_des_kernel.c`` walks, tile
    ``k`` of ``tiles`` at position ``k``: LUPs per x-cell (float64), then
    (int64) row counts, predecessor counts, CSR starts and successor
    positions, each run in ``succs`` order, and the root positions in
    :class:`~repro.core.queue.TileQueue`'s initial order."""
    pos = {idx: k for k, idx in enumerate(tiles)}
    ints = (
        [len(tile.rows) for tile in tiles.values()],
        [len(preds[idx]) for idx in tiles],
        np.cumsum([0] + [len(succs[idx]) for idx in tiles]),
        [pos[s] for idx in tiles for s in succs[idx]],
        [pos[idx] for idx in sorted(tiles) if not preds[idx]],
    )
    return (np.array([tile.lups for tile in tiles.values()], dtype=np.float64),
            *(np.array(a, dtype=np.int64) for a in ints))


@lru_cache(maxsize=256)
def _tile_dag(ny: int, timesteps: int, dw: int):
    """Tessellation + dependency DAG + its packed form, shared across
    plans (the DAG does not depend on nz or bz; builders get shallow dict
    copies)."""
    tiles = enumerate_tiles(ny, timesteps, dw)
    preds: Dict[TileIndex, Tuple[TileIndex, ...]] = {}
    succs_mut: Dict[TileIndex, List[TileIndex]] = {idx: [] for idx in tiles}
    for idx, tile in tiles.items():
        ps = tuple(p for p in tile.predecessors() if p in tiles)
        preds[idx] = ps
        for p in ps:
            succs_mut[p].append(idx)
    succs = {idx: tuple(s) for idx, s in succs_mut.items()}
    return tiles, preds, succs, pack_dag(tiles, preds, succs)


@lru_cache(maxsize=16)
def _compiled(timesteps: int, dw: int, bz: int,
              shape: Tuple[int, int, int], periodic: Tuple[bool, bool, bool]):
    """A plan resolved against a grid, process-wide (a solve re-walks its
    plan every chunk, a campaign every job): tile -> (its kernel calls in
    order ``(component, clipped BoundRegion, LUPs)``, its row-job count),
    each tile's row schedule lowered column by column."""
    grid = Grid(*shape, periodic=periodic)
    out: Dict[TileIndex, tuple] = {}
    for idx, tile in _tile_dag(grid.ny, timesteps, dw)[0].items():
        rows = tile_rows(tile, grid.nz, bz)
        clipped = ((name, clip_region(grid, SPECS[name], z=(z_lo, z_hi),
                                      y=(y_lo, y_hi)))
                   for tau, y_lo, y_hi, z_lo, z_hi in rows.T.tolist()
                   for name in (E_COMPONENTS if tau & 1 else H_COMPONENTS))
        out[idx] = (tuple((name, BoundRegion(region), region_lups(region))
                          for name, region in clipped if region), rows.shape[1])
    return out


@dataclass
class TilingPlan:
    """All diamond tiles + dependencies for ``timesteps`` steps of a grid.

    Parameters
    ----------
    ny, nz:
        Grid extents along the diamond (middle) and wavefront (outer)
        dimensions.  The inner dimension x never affects scheduling.
    timesteps:
        Full THIIM time steps covered by the plan.
    dw:
        Diamond width (even, >= 2).
    bz:
        Wavefront block width ``B_z`` used when serializing tiles.
    """

    ny: int
    nz: int
    timesteps: int
    dw: int
    bz: int
    tiles: Dict[TileIndex, DiamondTile] = field(repr=False, default_factory=dict)
    preds: Dict[TileIndex, Tuple[TileIndex, ...]] = field(repr=False, default_factory=dict)
    succs: Dict[TileIndex, Tuple[TileIndex, ...]] = field(repr=False, default_factory=dict)

    @classmethod
    def build(cls, ny: int, nz: int, timesteps: int, dw: int, bz: int = 1) -> "TilingPlan":
        if nz < 1:
            raise ValueError("nz must be >= 1")
        if bz < 1:
            raise ValueError("bz must be >= 1")
        tiles, preds, succs, packed = _tile_dag(ny, timesteps, dw)
        plan = cls(ny=ny, nz=nz, timesteps=timesteps, dw=dw, bz=bz,
                   tiles=dict(tiles), preds=dict(preds), succs=dict(succs))
        plan.packed = packed  # shared; a hand-built plan packs its own
        return plan

    @cached_property
    def packed(self) -> Tuple[np.ndarray, ...]:
        """:func:`pack_dag` of this plan, for the compiled DES (``tiles``,
        ``preds`` and ``succs`` are final once it is taken)."""
        return pack_dag(self.tiles, self.preds, self.succs)

    # -- inspection ------------------------------------------------------------

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)

    @property
    def bands(self) -> List[int]:
        return sorted({t.band for t in self.tiles.values()})

    def band_tiles(self, band: int) -> List[DiamondTile]:
        return [t for t in self.tiles.values() if t.band == band]

    def max_band_concurrency(self) -> int:
        """Upper bound on simultaneously executable tiles (tiles of one
        band are mutually independent)."""
        counts: Dict[int, int] = {}
        for t in self.tiles.values():
            counts[t.band] = counts.get(t.band, 0) + 1
        return max(counts.values())

    def interior_tiles(self) -> List[DiamondTile]:
        return [t for t in self.tiles.values() if t.is_interior]

    # -- ordering ------------------------------------------------------------

    def fifo_order(self) -> List[TileIndex]:
        """The canonical FIFO schedule: by band, then by position."""
        return sorted(self.tiles, key=lambda idx: (idx[0] + idx[1], idx[1]))

    def random_topological_order(self, rng: np.random.Generator) -> List[TileIndex]:
        """A random linear extension of the tile DAG.

        Emulates an arbitrary interleaving of concurrent thread groups;
        used by the property tests to show that any DAG-respecting
        execution order yields the same fields.
        """
        remaining = {idx: len(self.preds[idx]) for idx in self.tiles}
        ready = [idx for idx, n in remaining.items() if n == 0]
        order: List[TileIndex] = []
        while ready:
            k = int(rng.integers(len(ready)))
            idx = ready.pop(k)
            order.append(idx)
            for s in self.succs[idx]:
                remaining[s] -= 1
                if remaining[s] == 0:
                    ready.append(s)
        if len(order) != len(self.tiles):
            raise RuntimeError("tile DAG has a cycle (bug)")
        return order

    # -- serialization ------------------------------------------------------------

    def rows(self, order: Sequence[TileIndex] | None = None) -> np.ndarray:
        """The row schedule of the whole plan, ``(5, jobs)``: the tiles'
        schedules concatenated in a given (or the FIFO) tile order."""
        if order is None:
            order = self.fifo_order()
        return np.concatenate(
            [tile_rows(self.tiles[idx], self.nz, self.bz) for idx in order], axis=1)

    def compiled(self, grid: Grid) -> Dict[TileIndex, tuple]:
        """tile -> (ops, row jobs) on ``grid``; see :func:`_compiled`."""
        return _compiled(self.timesteps, self.dw, self.bz, grid.shape,
                         grid.periodic)

    def validate(self, order: Sequence[TileIndex] | None = None) -> None:
        """Replay the plan through the dependency checker (raises on error)."""
        from .deps import validate_jobs

        validate_jobs(self.rows(order).T.tolist(), self.ny, self.nz,
                      self.timesteps)

    def describe(self) -> str:
        interior = len(self.interior_tiles())
        return (
            f"TilingPlan(ny={self.ny}, nz={self.nz}, T={self.timesteps}, "
            f"Dw={self.dw}, Bz={self.bz}): {self.n_tiles} tiles "
            f"({interior} interior), {len(self.bands)} bands, "
            f"max concurrency {self.max_band_concurrency()}"
        )
