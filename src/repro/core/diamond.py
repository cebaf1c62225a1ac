"""Diamond tile geometry for the THIIM stencil.

The paper tiles the (y, time) plane with diamonds (Fig. 2), splitting the
H and E updates because their dependencies point in opposite directions
(Fig. 3).  This module gives that construction an exact integer
formulation.

Sub-step lattice
----------------
Time is refined to *sub-steps* ``tau = 0, 1, 2, ...``: even ``tau`` is a
magnetic half step (producing ``H^{tau/2 + 1/2}``), odd ``tau`` an
electric half step (producing ``E^{(tau+1)/2}``).  A *node* ``(tau, y)``
is the update of all six components of that class at grid row ``y`` (the
z and x extents of a node are handled by the wavefront traversal and the
vectorized kernels respectively).

Physical coordinates
--------------------
On the staggered grid the H rows physically sit half a cell above the E
rows.  Writing ``p = y`` for E nodes and ``p = y + 1/2`` for H nodes, the
dependency rule of Fig. 3 becomes *symmetric*: node ``(tau, p)`` reads the
other field class at ``(tau - 1, p - 1/2)`` and ``(tau - 1, p + 1/2)``
and itself at ``(tau - 2, p)``.

Diamond tessellation
--------------------
In the sheared coordinates ``u = tau/2 + p`` and ``v = tau/2 - p`` every
dependency points in the non-increasing ``(u, v)`` direction, and the
plane tiles exactly into squares of side ``Dw``::

    tile(i, j) = { (tau, p) : i*Dw <= u < (i+1)*Dw,  j*Dw <= v < (j+1)*Dw }

which in the (tau, y) plane is precisely the paper's diamond: height
``Dw`` full time steps, footprint ``Dw`` rows for H and ``Dw - 1`` rows
for E (the counts of Eq. 12), first and last row an E update (Fig. 2),
area ``Dw^2 / 2`` lattice-site updates.  Tile ``(i, j)`` depends only on
``(i-1, j)``, ``(i, j-1)`` and ``(i-1, j-1)``.

All arithmetic below is integer-exact: with ``P = 2p`` the tile
membership test is ``2*i*Dw <= tau + P < 2*(i+1)*Dw`` and
``2*j*Dw <= tau - P < 2*(j+1)*Dw``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, Tuple

__all__ = ["RowSpan", "DiamondTile", "enumerate_tiles", "node_tile_index"]


@dataclass(frozen=True, slots=True)
class RowSpan:
    """The nodes of one sub-step inside a tile: rows ``y in [y_lo, y_hi)``.

    ``tau`` even -> magnetic half step, odd -> electric half step.  A
    tessellation holds thousands of them (no per-instance ``__dict__``).
    """

    tau: int
    y_lo: int
    y_hi: int

    @property
    def is_h(self) -> bool:
        return self.tau % 2 == 0

    @property
    def field(self) -> str:
        return "H" if self.is_h else "E"

    @property
    def width(self) -> int:
        return self.y_hi - self.y_lo

    @property
    def time_step(self) -> int:
        """The full time-step index this sub-step belongs to."""
        return self.tau // 2


@dataclass(frozen=True)
class DiamondTile:
    """One (possibly clipped) diamond tile of the tessellation."""

    i: int
    j: int
    dw: int
    rows: Tuple[RowSpan, ...]

    @property
    def index(self) -> Tuple[int, int]:
        return (self.i, self.j)

    @property
    def band(self) -> int:
        """Execution band ``i + j``: tiles of equal band are mutually
        independent; band ``b`` tiles depend only on bands ``< b``."""
        return self.i + self.j

    @property
    def tau_lo(self) -> int:
        return self.rows[0].tau

    @property
    def tau_hi(self) -> int:
        return self.rows[-1].tau

    @cached_property
    def n_nodes(self) -> int:
        return sum(r.width for r in self.rows)

    @property
    def lups(self) -> float:
        """Full lattice-site updates in the tile (a LUP = one E plus one H
        node at a cell, so each node contributes half a LUP)."""
        return self.n_nodes / 2.0

    @property
    def y_footprint(self) -> Tuple[int, int]:
        """Row range ``[lo, hi)`` touched by any sub-step of the tile."""
        return (min(r.y_lo for r in self.rows), max(r.y_hi for r in self.rows))

    @cached_property
    def congruence(self) -> Tuple[int, int, Tuple[Tuple[int, int, int], ...]]:
        """``(tau0, y0, rows)``: the tile's first sub-step rounded down to
        even, its lowest row, and its rows as ``(tau - tau0, y_lo - y0,
        y_hi - y0)`` -- equal for tiles that are (tau, y) translations of
        one another (every interior diamond of a tessellation), which
        traverse identically up to that shift.  A tile's sub-steps are
        consecutive and ``tau0`` is even, so the classes are those of the
        rows' H/E pattern."""
        tau0 = self.rows[0].tau & ~1
        y0 = min(r.y_lo for r in self.rows)
        return tau0, y0, tuple((r.tau - tau0, r.y_lo - y0, r.y_hi - y0)
                               for r in self.rows)

    @property
    def is_interior(self) -> bool:
        """True for an unclipped diamond (full height, full waist)."""
        return (
            self.rows[0].tau % 2 == 1
            and len(self.rows) == 2 * self.dw - 1
            and max(r.width for r in self.rows) == self.dw
        )

    def predecessors(self) -> Tuple[Tuple[int, int], ...]:
        """Tile indices this tile may depend on (before clipping)."""
        return ((self.i - 1, self.j), (self.i, self.j - 1), (self.i - 1, self.j - 1))


@lru_cache(maxsize=None)
def _template(dw: int) -> Tuple[Tuple[int, int, int], ...]:
    """``(tau, y_lo, y_hi)`` per sub-step of the unclipped tile ``(0, 0)``.

    Tile ``(i, j)`` is this diamond translated by ``(i + j) * dw`` in
    ``tau`` and ``(i - j) * dw / 2`` in ``y`` (a shift of ``i`` in ``u``
    and ``j`` in ``v``; ``dw`` is even, so both are integers and the H/E
    parity of a row is kept), then clipped to the domain.
    """
    rows = []
    two_dw = 2 * dw
    for tau in range(two_dw):
        # P = 2p constraints: closed/open bounds from u, open/closed from v.
        p_lo = max(-tau, tau - two_dw + 1)
        p_hi = min(two_dw - tau - 1, tau)
        parity = 1 - tau % 2  # H rows (even tau) have odd P = 2y + 1
        first = p_lo + ((parity - p_lo) % 2)  # smallest P >= p_lo of that parity
        if first > p_hi:
            continue
        # H: y = (P - 1) / 2, E: y = P / 2
        rows.append((tau, (first - parity) // 2, (p_hi - parity) // 2 + 1))
    return tuple(rows)


def enumerate_tiles(ny: int, timesteps: int, dw: int) -> Dict[Tuple[int, int], DiamondTile]:
    """All non-empty (clipped) diamond tiles for ``timesteps`` full steps.

    Parameters
    ----------
    ny:
        Rows along the diamond (middle) dimension.
    timesteps:
        Full time steps to cover; the sub-step range is ``[0, 2*timesteps)``.
    dw:
        Diamond width; must be an even integer >= 2 (the paper uses 4, 8,
        12, 16).

    Returns
    -------
    dict
        ``(i, j) -> DiamondTile`` containing every node exactly once.
    """
    return dict(_enumerate_tiles_cached(ny, timesteps, dw))


@lru_cache(maxsize=512)
def _enumerate_tiles_cached(
    ny: int, timesteps: int, dw: int
) -> Dict[Tuple[int, int], DiamondTile]:
    # The tessellation depends only on (ny, timesteps, dw) -- not on bz or
    # nz -- so every B_z candidate of an auto-tuning sweep shares one
    # enumeration.  Tiles are frozen; the public wrapper hands each caller
    # its own shallow dict copy.
    if dw < 2 or dw % 2:
        raise ValueError(f"diamond width must be an even integer >= 2, got {dw}")
    if ny < 1:
        raise ValueError("ny must be >= 1")
    if timesteps < 1:
        raise ValueError("timesteps must be >= 1")
    total_substeps = 2 * timesteps
    template = _template(dw)

    # Tile (i, j) spans tau in [(i+j) dw, (i+j+2) dw) and P = 2p strictly
    # inside ((i-j-1) dw, (i-j+1) dw); only cells whose span meets the
    # domain [0, total_substeps) x [0, 2 ny - 1] can hold a node.
    band_hi = (total_substeps - 1) // dw  # i + j in [-1, band_hi]
    diff_hi = (2 * ny - 2) // dw + 1  # i - j in [0, diff_hi]

    tiles: Dict[Tuple[int, int], DiamondTile] = {}
    for i in range((band_hi + diff_hi) // 2 + 1):
        for j in range(max(-1 - i, i - diff_hi), min(band_hi - i, i) + 1):
            tau0 = (i + j) * dw
            y0 = (i - j) * dw // 2
            rows = tuple(
                RowSpan(tau0 + tau, max(y0 + y_lo, 0), min(y0 + y_hi, ny))
                for tau, y_lo, y_hi in template
                if 0 <= tau0 + tau < total_substeps
                and y0 + y_lo < ny and y0 + y_hi > 0
            )
            if rows:
                tiles[(i, j)] = DiamondTile(i=i, j=j, dw=dw, rows=rows)
    return tiles


def node_tile_index(tau: int, y: int, is_h: bool, dw: int) -> Tuple[int, int]:
    """The tile owning node ``(tau, y)`` (for tests and diagnostics)."""
    p2 = 2 * y + (1 if is_h else 0)
    return ((tau + p2) // (2 * dw), (tau - p2) // (2 * dw))
