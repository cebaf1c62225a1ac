"""Export of simulation state for visualization.

:func:`export_vtk` writes a legacy-ASCII VTK structured-points file of
the recombined physical fields (|E|, |H|, per-component real/imag) for
ParaView-style inspection.  Snapshots of a solve are checkpoints
(:class:`repro.resilience.checkpoint.CheckpointManager`), the one
versioned, token-guarded state format.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .fdfd.fields import FieldState
from .ioutil import atomic_write

__all__ = ["export_vtk"]


def export_vtk(fields: FieldState, path: str, quantities: tuple[str, ...] = ("Emag", "Hmag")) -> str:
    """Write a legacy-ASCII VTK STRUCTURED_POINTS file.

    Supported quantities: ``Emag``/``Hmag`` (field magnitudes) and any
    physical component name like ``Ex``/``Hz`` (exported as real and
    imaginary scalars).  VTK's fastest-varying axis is x, matching the
    array layout, so the data streams out in natural order.
    """
    grid = fields.grid
    nz, ny, nx = grid.shape

    def magnitude(which: str) -> np.ndarray:
        comps = fields.e_vector() if which == "E" else fields.h_vector()
        return np.sqrt(sum(np.abs(c) ** 2 for c in comps))

    scalars: Dict[str, np.ndarray] = {}
    for q in quantities:
        if q == "Emag":
            scalars["Emag"] = magnitude("E")
        elif q == "Hmag":
            scalars["Hmag"] = magnitude("H")
        elif q[0] in "EH" and len(q) == 2:
            c = fields.combined(q)
            scalars[f"{q}_re"] = c.real
            scalars[f"{q}_im"] = c.imag
        else:
            raise ValueError(f"unknown quantity {q!r}")

    def write(f) -> None:
        f.write((
            "# vtk DataFile Version 3.0\n"
            "repro THIIM field export\n"
            "ASCII\n"
            "DATASET STRUCTURED_POINTS\n"
            f"DIMENSIONS {nx} {ny} {nz}\n"
            "ORIGIN 0 0 0\n"
            f"SPACING {grid.dx:g} {grid.dy:g} {grid.dz:g}\n"
            f"POINT_DATA {nx * ny * nz}\n").encode())
        for name, arr in scalars.items():
            f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n".encode())
            flat = arr.astype(np.float64).ravel()  # (z, y, x) C-order = x fastest
            np.savetxt(f, flat, fmt="%.9g")

    return atomic_write(path, write)
