"""Functional distributed-memory THIIM: simulated ranks + halo exchange.

Runs the solver decomposed over a Cartesian process grid *inside one
process*: every rank owns a ghosted slab of the twelve field arrays and
the coefficient arrays, ghosts are exchanged before each half step
(exactly the planes the dependency structure requires -- E ghosts on the
*high* faces before an H step, H ghosts on the *low* faces before an E
step, Fig. 3 of the paper), and the result is bit-identical to the
single-domain sweep.

This is the MPI layer of the production code with the transport replaced
by array copies; the byte/message counters it keeps are the inputs to
the :class:`repro.cluster.decomposition.CommCostModel` analysis of
Section VI (thin domains, non-contiguous x halos).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

from ..fdfd.coefficients import CoefficientSet
from ..fdfd.fields import FieldState
from ..fdfd.grid import Grid
from ..fdfd.kernels import update_component
from ..fdfd.specs import (
    ALL_COMPONENTS,
    BYTES_PER_NUMBER,
    E_COMPONENTS,
    H_COMPONENTS,
    SPECS,
)
from .decomposition import Coord, RankLayout, Subdomain

__all__ = ["CommStats", "DistributedTHIIM", "HALF_STEPS", "component_region"]

#: Fig. 3's time step, for every kind of rank: per half step the
#: components updated, the class their stencils read across a face and
#: the neighbour whose boundary plane fills that ghost (H reads E at +1,
#: high-face ghosts; E reads H at -1, low-face ghosts).
HALF_STEPS = ((H_COMPONENTS, E_COMPONENTS, +1),
              (E_COMPONENTS, H_COMPONENTS, -1))


@dataclass
class CommStats:
    """Halo-exchange traffic counters."""

    messages: int = 0
    bytes_total: int = 0
    bytes_by_axis: Dict[int, int] = field(default_factory=lambda: {0: 0, 1: 0, 2: 0})

    def record(self, axis: int, nbytes: int) -> None:
        if axis not in (0, 1, 2):
            raise ValueError(f"axis must be 0, 1 or 2, got {axis!r}")
        self.messages += 1
        self.bytes_total += nbytes
        self.bytes_by_axis[axis] += nbytes

    def merge(self, other: "CommStats") -> "CommStats":
        """Fold another rank's counters into this one (parent-side
        aggregation of per-rank stats); returns self for chaining."""
        self.messages += other.messages
        self.bytes_total += other.bytes_total
        for axis, nbytes in other.bytes_by_axis.items():
            if axis not in (0, 1, 2):
                raise ValueError(f"axis must be 0, 1 or 2, got {axis!r}")
            self.bytes_by_axis[axis] += nbytes
        return self

    def to_dict(self) -> Dict:
        return {
            "messages": self.messages,
            "bytes_total": self.bytes_total,
            "bytes_by_axis": {str(k): v for k, v in self.bytes_by_axis.items()},
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "CommStats":
        stats = cls(
            messages=int(d.get("messages", 0)),
            bytes_total=int(d.get("bytes_total", 0)),
        )
        for k, v in (d.get("bytes_by_axis") or {}).items():
            axis = int(k)
            if axis not in (0, 1, 2):
                raise ValueError(f"axis must be 0, 1 or 2, got {axis!r}")
            stats.bytes_by_axis[axis] += int(v)
        return stats


def component_region(global_grid: Grid, sub: Subdomain, name: str):
    """Local update region of ``name`` on a ghosted slab: the owned
    cells, shrunk along the derivative axis where the far read would
    cross a non-periodic *global* boundary (matching the naive sweep's
    clipping).  Returns ``None`` when the region is empty."""
    spec = SPECS[name]
    local_n = sub.shape
    lo = [1, 1, 1]
    hi = [1 + local_n[0], 1 + local_n[1], 1 + local_n[2]]
    axis = spec.deriv_axis
    bounds = (sub.z, sub.y, sub.x)[axis]
    if not global_grid.periodic[axis]:
        if spec.shift > 0 and bounds[1] == global_grid.axis_len(axis):
            hi[axis] -= 1
        if spec.shift < 0 and bounds[0] == 0:
            lo[axis] += 1
    if lo[axis] >= hi[axis]:
        return None
    return (slice(lo[0], hi[0]), slice(lo[1], hi[1]), slice(lo[2], hi[2]))


class _Rank:
    """One rank's ghosted slab -- local fields + coefficients (slabbed
    along their full axes only) -- and the index geometry the simulated
    and the process ranks both exchange by."""

    def __init__(self, global_grid: Grid, sub: Subdomain,
                 global_fields: FieldState, global_coeffs: CoefficientSet):
        nz, ny, nx = sub.shape
        self.sub = sub
        # Ghost ring of one cell on every face (unused faces stay zero,
        # which doubles as the homogeneous Dirichlet value).
        self.grid = Grid(nz + 2, ny + 2, nx + 2)
        #: The owned cells in the ghosted local arrays.
        self.inner = (slice(1, 1 + nz), slice(1, 1 + ny), slice(1, 1 + nx))
        self.regions = {name: component_region(global_grid, sub, name)
                        for name in ALL_COMPONENTS}

        def slab(global_array: np.ndarray) -> np.ndarray:
            # A coefficient's broadcast (length-1) axes stay length 1; a
            # full axis becomes the ghosted local one.
            bcast = [n == 1 < m for n, m in zip(global_array.shape, global_grid.shape)]
            a = np.zeros([1 if b else n for b, n in zip(bcast, self.grid.shape)],
                         dtype=np.complex128)
            a[tuple(slice(None) if b else s for b, s in zip(bcast, self.inner))] = \
                global_array[tuple(slice(None) if b else s for b, s in zip(bcast, sub.own))]
            return a

        self.fields = FieldState(
            self.grid, {name: slab(global_fields[name])
                        for name in ALL_COMPONENTS})
        self.coeffs = CoefficientSet(
            grid=self.grid, omega=global_coeffs.omega, tau=global_coeffs.tau,
            arrays={n: slab(a) for n, a in global_coeffs.arrays.items()},
        )

    def owned(self, name: str) -> np.ndarray:
        return self.fields[name][self.inner]

    def _plane(self, axis: int, at: int):
        idx = list(self.inner)
        idx[axis] = at
        return tuple(idx)

    def boundary(self, axis: int, direction: int):
        """The owned plane that fills a neighbour's ghost when ghosts are
        read from ``direction`` (+1: our first plane, -1: our last)."""
        return self._plane(axis, 1 if direction > 0 else self.sub.shape[axis])

    def ghost(self, axis: int, direction: int):
        """The ghost plane filled from the neighbour in ``direction``."""
        return self._plane(
            axis, 1 + self.sub.shape[axis] if direction > 0 else 0)

    def half_step(self, half, exchange: Callable[..., Iterable[int]],
                  stats: CommStats) -> None:
        """One row of :data:`HALF_STEPS` on this rank: ``exchange(names,
        direction)`` fills the ghosts the update reads and returns the
        axis of each face it filled (received or wrapped locally), which
        is counted receiver-side, as the cost model counts it; then the
        update over the owned cells."""
        components, names, direction = half
        for axis in exchange(names, direction):
            for _ in names:
                stats.record(axis, self.sub.face_cells(axis) * BYTES_PER_NUMBER)
        for name in components:
            if self.regions[name] is not None:
                update_component(name, self.fields, self.coeffs,
                                 self.regions[name])


class DistributedTHIIM:
    """Halo-exchanged THIIM over simulated ranks.

    Parameters
    ----------
    layout:
        The Cartesian decomposition.
    fields, coeffs:
        Global initial state and coefficients (as for the naive sweep).
    """

    def __init__(self, layout: RankLayout, fields: FieldState, coeffs: CoefficientSet):
        if fields.grid.shape != layout.grid.shape:
            raise ValueError("fields do not match the layout's grid")
        if coeffs.grid.shape != layout.grid.shape:
            raise ValueError("coefficients do not match the layout's grid")
        self.layout = layout
        self.ranks: Dict[Coord, _Rank] = {
            c: _Rank(layout.grid, layout.subdomain(c), fields, coeffs)
            for c in layout.coords()
        }
        self.stats = CommStats()
        self.steps_done = 0

    def _exchange(self, coord: Coord, names: Tuple[str, ...],
                  direction: int) -> List[int]:
        """The in-process transport: fill ``coord``'s ghosts of ``names``
        by copying the neighbour's boundary planes."""
        rank, axes = self.ranks[coord], []
        for axis in range(3):
            nb_coord = self.layout.neighbor(coord, axis, direction)
            if nb_coord is None:
                continue
            nb = self.ranks[nb_coord]
            dst, src = rank.ghost(axis, direction), nb.boundary(axis, direction)
            for name in names:
                rank.fields[name][dst] = nb.fields[name][src]
            axes.append(axis)
        return axes

    def step(self, n: int = 1) -> None:
        """Advance ``n`` full THIIM time steps across all ranks."""
        if n < 0:
            raise ValueError("n must be >= 0")
        for _ in range(n):
            # A half step writes only the class its ghosts do not read,
            # so the ranks may take it one after another.
            for half in HALF_STEPS:
                for coord, rank in self.ranks.items():
                    rank.half_step(half, partial(self._exchange, coord),
                                   self.stats)
            self.steps_done += 1

    def gather(self) -> FieldState:
        """Assemble the global field state from the ranks."""
        out = FieldState(self.layout.grid)
        for rank in self.ranks.values():
            for name in ALL_COMPONENTS:
                out[name][rank.sub.own] = rank.owned(name)
        return out

    def halo_bytes_per_step(self) -> float:
        if self.steps_done == 0:
            return 0.0
        return self.stats.bytes_total / self.steps_done
