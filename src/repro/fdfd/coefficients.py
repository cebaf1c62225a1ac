"""Precomputation of the 28 domain-sized THIIM coefficient arrays.

The THIIM update of every split-field component has the two- or
three-coefficient form of the paper's Listings 1 and 2::

    F_new = t * (curl difference) + c * F_old (+ src)

This module derives ``t``, ``c`` and ``src`` per component from the
discretized scheme (Eqs. 3-5 of the paper) so that the kernels stay the
simple bandwidth-bound streaming loops the paper analyzes.

Derivation
----------
Electric field, *forward* iteration (Eq. 3), solved for ``E^{n+1}`` with
split-axis conductivity ``sigma_a`` (PML profile of the derivative axis
plus the material conductivity)::

    E^{n+1} = D * E^n  +  D * (tau / (eps * d_a)) * e^{i w tau / 2} * dH
              +  D * tau * S_E,
    D = e^{-i w tau} / (1 + tau * sigma_a / eps)

Electric field, *back* iteration (Eq. 5) on cells with negative real
permittivity (metals, e.g. the silver back contact)::

    E^{n+1} = B * e^{i w tau} * E^n  -  B * (tau / (eps * d_a)) *
              e^{i w tau / 2} * dH  -  B * tau * S_E,
    B = 1 / (1 - tau * sigma_a / eps)

Magnetic field (Eq. 4), with matched PML magnetic conductivity
``sigma*_a`` (equal to the electric profile in normalized units)::

    H^{n+1/2} = (e^{-i w tau / 2} / Q) * H^{n-1/2}
                + (tau / (mu * d_a) / Q) * dE  +  (tau / Q) * S_H,
    Q = e^{i w tau / 2} + tau * sigma*_a / mu

Stability: for metals the back iteration gives ``|c| = 1/|1 - tau
sigma/eps| < 1`` (damped) where the forward iteration would be amplifying
-- this is the numerical-stability property THIIM is built around, and it
is covered by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

import numpy as np

from .grid import Grid
from .pml import PMLSpec, pml_profile
from .specs import (
    ALL_COMPONENTS,
    AXIS_NAMES,
    COEFF_ARRAY_COUNT,
    SPECS,
    ComponentSpec,
)

__all__ = [
    "CoefficientSet",
    "BatchedCoefficientSet",
    "build_coefficients",
    "random_coefficients",
]


@dataclass
class CoefficientSet:
    """The 28 coefficient arrays plus scheme metadata.

    ``arrays`` maps coefficient names (``tExy``, ``cExy``, ..., ``SrcHy``)
    to domain-sized complex128 arrays.  Every coefficient is stored
    domain-sized even where it is spatially constant -- that is the memory
    layout of the production code and the entire point of the paper's
    traffic analysis (640 bytes of state per cell).
    """

    grid: Grid
    omega: float
    tau: float
    arrays: Dict[str, np.ndarray]
    back_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        expected = {
            name for s in SPECS.values() for name in s.coeff_names
        }
        missing = expected - set(self.arrays)
        if missing:
            raise KeyError(f"missing coefficient arrays: {sorted(missing)}")
        if len(self.arrays) != COEFF_ARRAY_COUNT:
            extra = set(self.arrays) - expected
            raise KeyError(f"unexpected coefficient arrays: {sorted(extra)}")
        for name, a in self.arrays.items():
            if a.shape != self.grid.shape:
                raise ValueError(f"{name}: shape {a.shape} != {self.grid.shape}")

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def t(self, component: str) -> np.ndarray:
        return self.arrays[SPECS[component].coeff_t]

    def c(self, component: str) -> np.ndarray:
        return self.arrays[SPECS[component].coeff_c]

    def src(self, component: str) -> np.ndarray | None:
        s = SPECS[component].source
        return self.arrays[s] if s is not None else None

    def spectral_radius_bound(self) -> float:
        """Max |c| over all components -- a quick stability indicator."""
        return max(float(np.max(np.abs(self.arrays[SPECS[n].coeff_c]))) for n in ALL_COMPONENTS)


class BatchedCoefficientSet:
    """``k`` stacked coefficient sets: 28 arrays of shape ``(k,) + grid.shape``.

    Assembled once per campaign batch (:meth:`stack`) from per-point
    :class:`CoefficientSet` objects that were built through the ordinary
    :func:`build_coefficients` path -- each lane's coefficients are
    therefore bit-identical to the ones an unbatched solve of that point
    would use.  The kernels read the stacked arrays through the same
    ``t``/``c``/``src`` accessors as the scalar set.
    """

    __slots__ = ("grid", "omegas", "taus", "arrays")

    def __init__(self, grid: Grid, omegas: Sequence[float],
                 taus: Sequence[float], arrays: Dict[str, np.ndarray]):
        if len(omegas) != len(taus) or not omegas:
            raise ValueError("need one (omega, tau) pair per lane")
        k = len(omegas)
        expected = {name for s in SPECS.values() for name in s.coeff_names}
        missing = expected - set(arrays)
        if missing:
            raise KeyError(f"missing coefficient arrays: {sorted(missing)}")
        for name, a in arrays.items():
            if a.shape != (k,) + grid.shape:
                raise ValueError(
                    f"{name}: shape {a.shape} != {(k,) + grid.shape}"
                )
        self.grid = grid
        self.omegas = list(omegas)
        self.taus = list(taus)
        self.arrays = arrays

    @classmethod
    def stack(cls, sets: Sequence[CoefficientSet]) -> "BatchedCoefficientSet":
        """One-pass batched assembly: stack per-point sets lane by lane."""
        if not sets:
            raise ValueError("cannot stack an empty sequence of coefficient sets")
        grid = sets[0].grid
        for s in sets:
            if s.grid.shape != grid.shape:
                raise ValueError("all coefficient sets must share one grid shape")
        arrays = {
            name: np.ascontiguousarray(
                np.stack([s.arrays[name] for s in sets])
            )
            for name in sets[0].arrays
        }
        return cls(grid, [s.omega for s in sets], [s.tau for s in sets], arrays)

    @property
    def batch_width(self) -> int:
        return len(self.omegas)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def t(self, component: str) -> np.ndarray:
        return self.arrays[SPECS[component].coeff_t]

    def c(self, component: str) -> np.ndarray:
        return self.arrays[SPECS[component].coeff_c]

    def src(self, component: str) -> np.ndarray | None:
        s = SPECS[component].source
        return self.arrays[s] if s is not None else None

    def lane(self, i: int) -> CoefficientSet:
        """Zero-copy scalar view of lane ``i``."""
        return CoefficientSet(
            grid=self.grid, omega=self.omegas[i], tau=self.taus[i],
            arrays={n: a[i] for n, a in self.arrays.items()},
        )

    def compact(self, keep: Sequence[int]) -> None:
        """Drop all lanes not in ``keep`` in place (mirror of
        :meth:`BatchedFieldState.compact`)."""
        idx = list(keep)
        if not idx:
            raise ValueError("cannot compact to zero lanes")
        self.arrays = {n: a[idx] for n, a in self.arrays.items()}
        self.omegas = [self.omegas[i] for i in idx]
        self.taus = [self.taus[i] for i in idx]


def _axis_profile(grid: Grid, axis: int, spec: PMLSpec | None, staggered: bool) -> np.ndarray:
    """PML conductivity profile along ``axis`` broadcast to grid shape."""
    n = grid.axis_len(axis)
    prof = pml_profile(n, grid.spacing[axis], spec, staggered=staggered)
    shape = [1, 1, 1]
    shape[axis] = n
    return prof.reshape(shape)


def build_coefficients(
    grid: Grid,
    omega: float,
    tau: float,
    eps: np.ndarray | float = 1.0,
    sigma: np.ndarray | float = 0.0,
    *,
    mu: np.ndarray | float = 1.0,
    pml: Mapping[str, PMLSpec] | None = None,
    sources: Mapping[str, np.ndarray] | None = None,
) -> CoefficientSet:
    """Build the coefficient arrays for a scene.

    Parameters
    ----------
    grid:
        The simulation grid.
    omega:
        Angular frequency of the incident plane wave (normalized units).
    tau:
        Time step of the inverse iteration; see :meth:`Grid.cfl_time_step`.
    eps, sigma:
        Per-cell real permittivity and conductivity (scalars broadcast);
        typically from :meth:`repro.fdfd.geometry.Scene.rasterize`.
        Cells with ``eps < 0`` automatically take the back iteration.
    mu:
        Relative permeability (the solar-cell stack is non-magnetic).
    pml:
        Optional per-axis PML specs keyed ``"z"``/``"y"``/``"x"``.
    sources:
        Raw source amplitude arrays ``S`` keyed by source coefficient name
        (``SrcEx``, ``SrcEy``, ``SrcHx``, ``SrcHy``); the builder folds in
        the ``tau`` factor and the per-cell denominator.  Missing entries
        default to zero.
    """
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    eps = np.asarray(np.broadcast_to(np.asarray(eps, dtype=np.float64), grid.shape))
    sigma = np.asarray(np.broadcast_to(np.asarray(sigma, dtype=np.float64), grid.shape))
    mu = np.asarray(np.broadcast_to(np.asarray(mu, dtype=np.float64), grid.shape))
    if np.any(eps == 0):
        raise ValueError("permittivity must be nonzero everywhere")
    if np.any(mu <= 0):
        raise ValueError("permeability must be positive")
    if np.any(sigma < 0):
        raise ValueError("conductivity must be >= 0")
    pml = dict(pml or {})
    sources = dict(sources or {})

    back = eps < 0.0

    phase_full = np.exp(-1j * omega * tau)        # e^{-i w tau}
    phase_half = np.exp(1j * omega * tau / 2.0)   # e^{+i w tau/2}

    arrays: Dict[str, np.ndarray] = {}
    axis_spec = {0: pml.get("z"), 1: pml.get("y"), 2: pml.get("x")}

    def full(a: np.ndarray) -> np.ndarray:
        """``a`` as a writable, C-contiguous, owning complex128 array of
        grid shape (the kernel binds raw addresses, ``compact`` writes
        them): ``a`` itself when it already is one, else one copy."""
        if (a.shape == grid.shape and a.dtype == np.complex128
                and a.flags.c_contiguous and a.flags.writeable
                and a.flags.owndata):
            return a
        return np.array(np.broadcast_to(a, grid.shape), dtype=np.complex128,
                        order="C")

    for name in ALL_COMPONENTS:
        spec = SPECS[name]
        a = spec.deriv_axis
        d_a = grid.spacing[a]
        # The source factor s_* is only needed where a source is given.
        sourced = sources.get(spec.source) is not None
        if spec.field == "E":
            sig_a = _axis_profile(grid, a, axis_spec[a], staggered=False) + sigma
            # Forward iteration (Eq. 3).
            denom_f = 1.0 + tau * sig_a / eps
            c_f = phase_full / denom_f
            t_f = spec.sign * (tau / (eps * d_a)) * phase_half / denom_f * phase_full
            # Back iteration (Eq. 5) for metals.
            denom_b = 1.0 - tau * sig_a / eps
            c_b = np.exp(1j * omega * tau) / denom_b
            t_b = -spec.sign * (tau / (eps * d_a)) * phase_half / denom_b
            c_arr = np.where(back, c_b, c_f)
            t_arr = np.where(back, t_b, t_f)
            if sourced:
                s_arr = np.where(back, -tau / denom_b,
                                 tau / denom_f * phase_full)
        else:
            # Magnetic split parts: matched PML profile, staggered sampling,
            # no material magnetic loss.
            sig_star = _axis_profile(grid, a, axis_spec[a], staggered=True)
            q = np.exp(1j * omega * tau / 2.0) + tau * sig_star / mu
            c_arr = np.exp(-1j * omega * tau / 2.0) / q
            t_arr = spec.sign * (tau / (mu * d_a)) / q
            if sourced:
                s_arr = tau / q

        arrays[spec.coeff_t] = full(t_arr)
        arrays[spec.coeff_c] = full(c_arr)
        if spec.source is not None:
            raw = sources.get(spec.source)
            if raw is None:
                src = np.zeros(grid.shape, dtype=np.complex128)
            else:
                raw = np.asarray(raw, dtype=np.complex128)
                if raw.shape != grid.shape:
                    raise ValueError(
                        f"source {spec.source} has shape {raw.shape}, expected {grid.shape}"
                    )
                src = full(raw * np.broadcast_to(s_arr, grid.shape))
            arrays[spec.source] = src

    return CoefficientSet(grid=grid, omega=omega, tau=tau, arrays=arrays,
                          back_mask=back if bool(np.any(back)) else None)


def random_coefficients(grid: Grid, seed: int = 0, contraction: float = 0.9) -> CoefficientSet:
    """Random but stable coefficient arrays (testing / benchmarking aid).

    Produces arrays with ``|c| < contraction`` and small ``|t|`` so that
    arbitrary traversal-order experiments (tiled vs. naive equivalence)
    run on generic data without constructing a physical scene.  The
    ``omega``/``tau`` metadata are nominal.
    """
    if not (0 < contraction < 1):
        raise ValueError("contraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    arrays: Dict[str, np.ndarray] = {}

    def rand(scale: float) -> np.ndarray:
        mag = rng.uniform(0.1, 1.0, grid.shape) * scale
        ph = rng.uniform(0, 2 * np.pi, grid.shape)
        return np.ascontiguousarray(mag * np.exp(1j * ph))

    for name in ALL_COMPONENTS:
        spec = SPECS[name]
        arrays[spec.coeff_t] = rand(0.1)
        arrays[spec.coeff_c] = rand(contraction)
        if spec.source is not None:
            arrays[spec.source] = rand(0.05)
    return CoefficientSet(grid=grid, omega=1.0, tau=0.1, arrays=arrays)
