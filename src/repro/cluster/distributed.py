"""One rank of the distributed THIIM: its slab, its halo edges and the
Fig. 3 half step.

Every rank owns a ghosted slab of the twelve field arrays and of the
coefficient arrays; ghosts are exchanged before each half step (exactly
the planes the dependency structure requires -- E ghosts on the *high*
faces before an H step, H ghosts on the *low* faces before an E step,
Fig. 3 of the paper) through the shared-memory
:class:`~repro.cluster.transport.ShmTransport`, so a decomposed run is
bit-identical to the single-domain sweep.  :mod:`repro.cluster.runtime`
forks one process per rank and drives them.

The byte/message counters a rank keeps are the inputs to the
:class:`repro.cluster.decomposition.CommCostModel` analysis of Section VI
(thin domains, non-contiguous x halos).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

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
from .transport import ShmTransport, edge_shapes

__all__ = ["CommStats", "HALF_STEPS", "component_region"]

#: Fig. 3's time step: per half step the components updated, the class
#: their stencils read across a face and the neighbour whose boundary
#: plane fills that ghost (H reads E at +1, high-face ghosts; E reads H
#: at -1, low-face ghosts).
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
    along their full axes only) -- and its halo edges over ``transport``
    (built in the parent before the ranks start, so every rank shares
    its buffers and semaphores)."""

    def __init__(self, layout: RankLayout, coord: Coord,
                 global_fields: FieldState, global_coeffs: CoefficientSet,
                 transport: ShmTransport):
        global_grid = layout.grid
        self.sub = sub = layout.subdomain(coord)
        nz, ny, nx = sub.shape
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

        # The halo edges, each set keyed by exchange direction: the
        # transported edges this rank sends and receives, and its local
        # self-edges (a periodic axis with a single rank: the ghost is
        # our own far face).
        keys = list(edge_shapes(layout))

        def by_direction(edges) -> Dict[int, List[Tuple[Coord, int, int]]]:
            return {d: [key for key in edges if key[2] == d] for d in (-1, +1)}

        self.transport = transport
        self._send = by_direction(
            [k for k in keys if layout.neighbor(*k) == coord])
        self._recv = by_direction([k for k in keys if k[0] == coord])
        self._self = by_direction(
            [(coord, axis, d) for axis in range(3) for d in (-1, +1)
             if layout.neighbor(coord, axis, d) == coord])

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

    def _fill_ghosts(self, names: Tuple[str, ...], direction: int) -> List[int]:
        """Fill the ghosts of ``names`` read from ``direction``: send our
        boundary planes, wrap the self-edges, receive and unpack (the
        order the ping-pong invariant of :mod:`~repro.cluster.transport`
        rests on).  Returns the axis of every face filled."""
        fields = self.fields
        for key in self._send[direction]:
            src = self.boundary(key[1], direction)
            self.transport.send(key, [fields[name][src] for name in names])
        for _, axis, _ in self._self[direction]:
            dst, src = self.ghost(axis, direction), self.boundary(axis, direction)
            for name in names:
                fields[name][dst] = fields[name][src]
        for key in self._recv[direction]:
            block = self.transport.recv(key)
            dst = self.ghost(key[1], direction)
            for i, name in enumerate(names):
                fields[name][dst] = block[i]
        return [key[1] for key in self._self[direction] + self._recv[direction]]

    def half_step(self, half, stats: CommStats) -> None:
        """One row of :data:`HALF_STEPS` on this rank: fill the ghosts
        the update reads, count every filled face receiver-side (as the
        cost model counts it), then update the owned cells."""
        components, names, direction = half
        for axis in self._fill_ghosts(names, direction):
            for _ in names:
                stats.record(axis, self.sub.face_cells(axis) * BYTES_PER_NUMBER)
        for name in components:
            if self.regions[name] is not None:
                update_component(name, self.fields, self.coeffs,
                                 self.regions[name])
