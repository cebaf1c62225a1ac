"""Observables: energy, Poynting flux, absorption, residuals.

These are the quantities a solar-cell designer extracts from a converged
THIIM run (Section I of the paper: the point of the simulation is the
optical absorption in each layer of the stack) plus the diagnostics the
test suite uses to validate the physics (energy decay, PML transmission,
convergence of the inverse iteration).
"""

from __future__ import annotations

import numpy as np

from .fields import FieldState
from .kernels import _scratch

__all__ = [
    "field_energy",
    "electric_energy_density",
    "poynting_z",
    "poynting_flux_z",
    "absorption_density",
    "absorbed_power",
    "relative_change",
]


def field_energy(fields: FieldState, eps: np.ndarray | float = 1.0, mu: np.ndarray | float = 1.0) -> float:
    """Total electromagnetic energy ``1/2 sum(eps |E|^2 + mu |H|^2)``.

    Uses the recombined physical fields.  With complex THIIM amplitudes
    this is the cycle-averaged energy up to a factor of two; the tests
    only rely on monotonicity/boundedness so the convention is immaterial.
    """
    ex, ey, ez = fields.e_vector()
    hx, hy, hz = fields.h_vector()
    e2 = np.abs(ex) ** 2 + np.abs(ey) ** 2 + np.abs(ez) ** 2
    h2 = np.abs(hx) ** 2 + np.abs(hy) ** 2 + np.abs(hz) ** 2
    return float(0.5 * np.sum(np.abs(eps) * e2 + mu * h2))


def electric_energy_density(fields: FieldState, eps: np.ndarray | float = 1.0) -> np.ndarray:
    """Per-cell ``1/2 eps |E|^2`` (the absorber diagnostic of interest)."""
    ex, ey, ez = fields.e_vector()
    return 0.5 * np.abs(eps) * (np.abs(ex) ** 2 + np.abs(ey) ** 2 + np.abs(ez) ** 2)


def poynting_z(fields: FieldState) -> np.ndarray:
    """Cycle-averaged z-component of the Poynting vector per cell.

    ``S_z = 1/2 Re(Ex Hy* - Ey Hx*)`` -- positive values carry power toward
    +z.  Evaluated collocated (no stagger interpolation); adequate for the
    plane-flux diagnostics in the tests and examples.
    """
    ex, ey, _ = fields.e_vector()
    hx, hy, _ = fields.h_vector()
    return 0.5 * np.real(ex * np.conj(hy) - ey * np.conj(hx))


def poynting_flux_z(fields: FieldState, z_index: int) -> float:
    """Net power crossing the plane ``z = z_index`` toward +z."""
    grid = fields.grid
    if not (0 <= z_index < grid.nz):
        raise IndexError(f"z_index {z_index} outside grid")
    return float(np.sum(poynting_z(fields)[z_index, :, :]) * grid.dy * grid.dx)


def absorption_density(fields: FieldState, sigma: np.ndarray | float) -> np.ndarray:
    """Cycle-averaged absorbed power density ``1/2 sigma |E|^2`` per cell."""
    ex, ey, ez = fields.e_vector()
    return 0.5 * np.asarray(sigma) * (np.abs(ex) ** 2 + np.abs(ey) ** 2 + np.abs(ez) ** 2)


def absorbed_power(fields: FieldState, sigma: np.ndarray | float, mask: np.ndarray | None = None) -> float:
    """Total absorbed power, optionally restricted to a material mask.

    This is the per-layer absorption figure a photovoltaic optimization
    loop maximizes (e.g. absorption in the a-Si:H layer vs. parasitic
    absorption in the silver back contact).
    """
    dens = absorption_density(fields, sigma)
    if mask is not None:
        dens = dens * mask
    grid = fields.grid
    return float(np.sum(dens) * grid.dz * grid.dy * grid.dx)


#: Slots of the kernels' thread-local scratch pool the residual works in
#: (the kernel bodies use 0, 1, 100 and 101): one component's difference
#: and its squared magnitudes.
_DIFF_SLOT, _MAG_SLOT = 200, 201


def relative_change(current: FieldState, previous) -> float:
    """``|E_now - E_prev| / |E_now|`` over the electric components.

    The THIIM convergence monitor: the inverse iteration has converged to
    the time-harmonic solution when successive iterates stop changing.
    ``previous`` needs only the E components (any mapping of name to
    array).  Each component's difference and squared magnitudes are
    computed in reused thread-local scratch, with the elementwise ops and
    pairwise sums of ``np.sum(np.abs(a - b) ** 2)``, so the residual is
    bit-identical to that expression and allocates nothing per call.
    """
    num = 0.0
    den = 0.0
    for name in current:
        if not name.startswith("E"):
            continue
        now = current[name]
        mag = _scratch(now.shape, np.float64, _MAG_SLOT)
        diff = np.subtract(now, previous[name],
                           out=_scratch(now.shape, now.dtype, _DIFF_SLOT))
        num += float(np.sum(np.square(np.abs(diff, out=mag), out=mag)))
        den += float(np.sum(np.square(np.abs(now, out=mag), out=mag)))
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return float(np.sqrt(num / den))
