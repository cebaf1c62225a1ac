"""Cartesian domain decomposition and its communication cost model.

The production THIIM code is hybrid MPI+OpenMP; the paper treats the
intra-socket (OpenMP) part and leaves communication analysis as future
work, but its Section VI discusses the distributed-memory geometry at
length: decomposing the leading (x) dimension is the most expensive
because that halo is not contiguous in memory, and *thin* domains are
attractive because mapping the thin dimension to x avoids decomposing it
while keeping a favourable surface-to-volume ratio.

This module provides the decomposition geometry (who owns which slab,
which faces have neighbours) and a transfer-cost model that prices each
face by volume and contiguity; :mod:`repro.cluster.distributed` runs a
real (simulated-rank) halo-exchanged solve on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterator, List, Tuple

from ..fdfd.grid import Grid
from ..fdfd.specs import BYTES_PER_NUMBER

__all__ = [
    "RankLayout",
    "Subdomain",
    "CommCostModel",
    "candidate_layouts",
    "choose_decomposition",
    "step_bytes_by_axis",
]

Coord = Tuple[int, int, int]


@dataclass(frozen=True)
class Subdomain:
    """The slab owned by one rank: global index ranges per axis."""

    coord: Coord
    z: Tuple[int, int]
    y: Tuple[int, int]
    x: Tuple[int, int]

    @property
    def shape(self) -> Tuple[int, int, int]:
        return (self.z[1] - self.z[0], self.y[1] - self.y[0], self.x[1] - self.x[0])

    @property
    def n_cells(self) -> int:
        nz, ny, nx = self.shape
        return nz * ny * nx

    @property
    def own(self) -> Tuple[slice, slice, slice]:
        """Index of the owned cells in the global arrays."""
        return (slice(*self.z), slice(*self.y), slice(*self.x))

    def face_cells(self, axis: int) -> int:
        """Cells on one face perpendicular to ``axis``."""
        nz, ny, nx = self.shape
        return (ny * nx, nz * nx, nz * ny)[axis]


def _split(n: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``n`` cells into ``parts`` contiguous nearly-equal ranges."""
    base, rem = divmod(n, parts)
    out = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < rem else 0)
        out.append((start, start + size))
        start += size
    return out


@dataclass(frozen=True)
class RankLayout:
    """A (pz, py, px) Cartesian process grid over a global grid."""

    grid: Grid
    pz: int
    py: int
    px: int

    def __post_init__(self) -> None:
        for p, n, label in ((self.pz, self.grid.nz, "z"), (self.py, self.grid.ny, "y"),
                            (self.px, self.grid.nx, "x")):
            if p < 1:
                raise ValueError(f"p{label} must be >= 1")
            if n // p < 2:
                raise ValueError(
                    f"{label} axis of {n} cells cannot feed {p} ranks "
                    f"(each needs >= 2 cells)"
                )

    @property
    def n_ranks(self) -> int:
        return self.pz * self.py * self.px

    @property
    def dims(self) -> Coord:
        return (self.pz, self.py, self.px)

    def coords(self) -> Iterator[Coord]:
        return product(range(self.pz), range(self.py), range(self.px))

    def subdomain(self, coord: Coord) -> Subdomain:
        cz, cy, cx = coord
        return Subdomain(
            coord=coord,
            z=_split(self.grid.nz, self.pz)[cz],
            y=_split(self.grid.ny, self.py)[cy],
            x=_split(self.grid.nx, self.px)[cx],
        )

    def subdomains(self) -> Dict[Coord, Subdomain]:
        return {c: self.subdomain(c) for c in self.coords()}

    def neighbor(self, coord: Coord, axis: int, direction: int) -> Coord | None:
        """Neighbouring rank coordinate along an axis (periodic-aware)."""
        c = list(coord)
        c[axis] += direction
        dims = self.dims
        if 0 <= c[axis] < dims[axis]:
            return (c[0], c[1], c[2])
        if self.grid.periodic[axis]:
            # Wrap-around; with one rank on the axis this is the rank
            # itself (its ghost is filled from its own opposite face).
            c[axis] %= dims[axis]
            return (c[0], c[1], c[2])
        return None


@dataclass(frozen=True)
class CommCostModel:
    """Per-face halo transfer cost.

    Parameters
    ----------
    latency_us:
        Per-message latency (microseconds).
    bandwidth_gbs:
        Network bandwidth per rank pair.
    strided_penalty:
        Multiplier on the byte cost of non-contiguous halos.  A z-face
        halo (one full (y, x) plane) is contiguous in the ``(z, y, x)``
        layout; a y-face halo is a strided set of x-rows (mildly
        penalized by pack/unpack); an x-face halo is fully strided, one
        element per row -- the expensive case Section VI calls out.
    arrays:
        Field arrays exchanged per half step (the six components of the
        class being read).
    """

    latency_us: float = 2.0
    bandwidth_gbs: float = 10.0
    strided_penalty: float = 3.0
    arrays: int = 6

    #: Pack/unpack friction per axis: z contiguous, y strided by rows,
    #: x gather/scatter element-wise.
    def axis_factor(self, axis: int) -> float:
        return (1.0, 1.0 + (self.strided_penalty - 1.0) / 2.0, self.strided_penalty)[axis]

    def face_cost_us(self, cells: int, axis: int) -> float:
        bytes_ = cells * self.arrays * BYTES_PER_NUMBER * self.axis_factor(axis)
        return self.latency_us + bytes_ / (self.bandwidth_gbs * 1e3)  # us

    def step_cost_us(self, layout: RankLayout) -> float:
        """Worst-rank halo time for one full time step (both half steps)."""
        worst = 0.0
        for coord, sub in layout.subdomains().items():
            total = 0.0
            for axis in range(3):
                for direction in (-1, +1):
                    if layout.neighbor(coord, axis, direction) is not None:
                        total += self.face_cost_us(sub.face_cells(axis), axis)
            worst = max(worst, total)
        return worst  # one exchange per half step x 2 halves = x2 below

    def surface_to_volume(self, layout: RankLayout) -> float:
        """Max over ranks of exchanged halo cells per owned cell."""
        worst = 0.0
        for coord, sub in layout.subdomains().items():
            surface = 0
            for axis in range(3):
                for direction in (-1, +1):
                    if layout.neighbor(coord, axis, direction) is not None:
                        surface += sub.face_cells(axis)
            worst = max(worst, surface / sub.n_cells)
        return worst


def step_bytes_by_axis(layout: RankLayout, arrays: int = 6) -> Dict[int, int]:
    """Halo bytes moved per full time step, summed over all ranks and
    both half steps, keyed by axis.

    Each half step fills one ghost plane per (rank, axis, direction)
    pair that has a neighbour, moving ``face_cells * arrays`` complex
    numbers into the receiver -- the same accounting
    :class:`repro.cluster.distributed.CommStats` keeps, so measured and
    modeled traffic can be compared exactly.
    """
    out = {0: 0, 1: 0, 2: 0}
    for coord, sub in layout.subdomains().items():
        for axis in range(3):
            # +1 direction feeds the E-read (H half step), -1 the
            # H-read (E half step): one exchange each per time step.
            for direction in (-1, +1):
                if layout.neighbor(coord, axis, direction) is not None:
                    out[axis] += sub.face_cells(axis) * arrays * BYTES_PER_NUMBER
    return out


def candidate_layouts(
    grid: Grid,
    n_ranks: int,
    cost: CommCostModel | None = None,
) -> List[Tuple[float, RankLayout]]:
    """All feasible (pz, py, px) factorizations of ``n_ranks`` over
    ``grid``, cheapest halo step first.

    Returns ``(step_cost_us, layout)`` pairs; ties break toward "avoid
    x, then y" (strided halos), reproducing the paper's Section VI
    guidance mechanically.  Raises when no factorization fits (some axis
    would get fewer than 2 cells per rank).
    """
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    cost = cost or CommCostModel()
    ranked: List[Tuple[Tuple[float, int, int], RankLayout]] = []
    for pz in range(1, n_ranks + 1):
        if n_ranks % pz:
            continue
        rest = n_ranks // pz
        for py in range(1, rest + 1):
            if rest % py:
                continue
            px = rest // py
            try:
                layout = RankLayout(grid, pz, py, px)
            except ValueError:
                continue
            key = (round(cost.step_cost_us(layout), 9), px, py)
            ranked.append((key, layout))
    if not ranked:
        raise ValueError(f"no feasible decomposition of {grid.shape} over {n_ranks} ranks")
    ranked.sort(key=lambda pair: pair[0])
    return [(key[0], layout) for key, layout in ranked]


def choose_decomposition(
    grid: Grid,
    n_ranks: int,
    cost: CommCostModel | None = None,
) -> RankLayout:
    """Pick the (pz, py, px) factorization with the cheapest halo step.

    Reproduces the paper's guidance mechanically: the x axis is only
    split as a last resort (strided halos), and thin dimensions end up
    undivided.
    """
    return candidate_layouts(grid, n_ranks, cost)[0][1]
