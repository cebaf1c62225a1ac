"""Field state container for the twelve split-field components.

The THIIM kernel evolves twelve domain-sized double-complex arrays (the
split parts of the six E and six H vector components).  ``FieldState``
bundles them with convenience accessors for the recombined physical fields
(``Ex = Exy + Exz`` etc.) used by the observables module.

:class:`BatchedFieldState` stacks ``k`` scenarios (e.g. the wavelengths
of a campaign) into ``12 x k`` arrays of shape ``(k,) + grid.shape`` so
the kernels update every scenario in one pass over the shared stencil
working set.  Lanes are views (``lane``) or copies (``extract``) that
round-trip through plain :class:`FieldState` (which answers the same two
methods as a width-1 stack, so one convergence loop serves both), and
``compact`` drops converged lanes in place so a long-running batch only
spends sweeps on the points that still need them.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence

import numpy as np

from .grid import Grid
from .specs import ALL_COMPONENTS, E_COMPONENTS, H_COMPONENTS, SPECS

__all__ = ["FieldState", "BatchedFieldState"]


class FieldState:
    """Twelve split-field component arrays on a :class:`Grid`.

    The arrays are exposed through item access (``state["Exy"]``) so the
    kernels can be written generically over the component specs.  All
    arrays are C-contiguous complex128 of shape ``grid.shape``.
    """

    __slots__ = ("grid", "_arrays", "_bound")  # _bound: see kernels._bind

    def __init__(self, grid: Grid, arrays: Dict[str, np.ndarray] | None = None):
        self.grid = grid
        self._bound = None
        if arrays is None:
            arrays = {name: grid.zeros() for name in ALL_COMPONENTS}
        else:
            for name in ALL_COMPONENTS:
                if name not in arrays:
                    raise KeyError(f"missing component {name}")
                a = arrays[name]
                if a.shape != grid.shape:
                    raise ValueError(
                        f"component {name} has shape {a.shape}, expected {grid.shape}"
                    )
                if a.dtype != np.complex128:
                    raise TypeError(f"component {name} must be complex128, got {a.dtype}")
        self._arrays = arrays

    # -- mapping-style access -------------------------------------------------

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        if name not in self._arrays:
            raise KeyError(name)
        self._arrays[name][...] = value

    def __iter__(self) -> Iterator[str]:
        return iter(ALL_COMPONENTS)

    def components(self) -> Dict[str, np.ndarray]:
        """The underlying component dict (live references, not copies)."""
        return self._arrays

    # -- lifecycle -------------------------------------------------------------

    def copy(self) -> "FieldState":
        return FieldState(self.grid, {k: v.copy() for k, v in self._arrays.items()})

    def __reduce__(self):  # a kernel binding is raw addresses: not pickled
        return (FieldState, (self.grid, self._arrays))

    def fill_random(self, rng: np.random.Generator, scale: float = 1.0) -> "FieldState":
        """Fill every component with random complex data (testing aid)."""
        for name in ALL_COMPONENTS:
            shape = self.grid.shape
            self._arrays[name][...] = scale * (
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            )
        return self

    def zero_boundary(self) -> "FieldState":
        """Impose homogeneous Dirichlet values on the outermost cell layer
        of every non-periodic axis (the paper's benchmark boundary
        condition)."""
        per = self.grid.periodic
        for a in self._arrays.values():
            if not per[0]:
                a[0, :, :] = 0
                a[-1, :, :] = 0
            if not per[1]:
                a[:, 0, :] = 0
                a[:, -1, :] = 0
            if not per[2]:
                a[:, :, 0] = 0
                a[:, :, -1] = 0
        return self

    # -- recombined physical fields ---------------------------------------------

    def combined(self, which: str) -> np.ndarray:
        """Recombine split parts: ``combined("Ex") == Exy + Exz`` etc."""
        parts = [n for n in ALL_COMPONENTS if n.startswith(which)]
        if len(parts) != 2:
            raise KeyError(f"unknown physical field {which!r}")
        return self._arrays[parts[0]] + self._arrays[parts[1]]

    def e_vector(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The physical (Ex, Ey, Ez)."""
        return self.combined("Ex"), self.combined("Ey"), self.combined("Ez")

    def h_vector(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The physical (Hx, Hy, Hz)."""
        return self.combined("Hx"), self.combined("Hy"), self.combined("Hz")

    # -- comparisons -------------------------------------------------------------

    def allclose(self, other: "FieldState", rtol: float = 1e-10, atol: float = 1e-12) -> bool:
        """Component-wise closeness (the tiled-vs-naive correctness check)."""
        return all(
            np.allclose(self._arrays[n], other._arrays[n], rtol=rtol, atol=atol)
            for n in ALL_COMPONENTS
        )

    def max_abs_difference(self, other: "FieldState") -> float:
        return max(
            float(np.max(np.abs(self._arrays[n] - other._arrays[n])))
            for n in ALL_COMPONENTS
        )

    def norm(self) -> float:
        """Root-sum-square magnitude over all components."""
        return float(
            np.sqrt(
                sum(float(np.sum(np.abs(self._arrays[n]) ** 2)) for n in ALL_COMPONENTS)
            )
        )

    def field_norm(self, field: str) -> float:
        """Norm over the E ("E") or H ("H") components only."""
        comps = E_COMPONENTS if field == "E" else H_COMPONENTS
        return float(
            np.sqrt(sum(float(np.sum(np.abs(self._arrays[n]) ** 2)) for n in comps))
        )

    #: Scenario lanes carried by this state (kernels scale their LUP
    #: counters by this; the batched subclass reports its stack width).
    @property
    def batch_width(self) -> int:
        return 1

    def lane(self, i: int) -> "FieldState":
        """The lane protocol of :class:`BatchedFieldState` at k = 1: the
        only lane is the state itself, viewed (``lane``) or frozen
        (``extract``) -- so a point solve's result *is* its solver's
        fields, never a copy."""
        if i != 0:
            raise IndexError(f"lane index {i} out of range for width 1")
        return self

    extract = lane

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FieldState(grid={self.grid.shape}, |E|={self.field_norm('E'):.3e}, |H|={self.field_norm('H'):.3e})"


class BatchedFieldState:
    """``k`` stacked field states: twelve ``(k,) + grid.shape`` arrays.

    The kernels accept this anywhere they accept :class:`FieldState`
    (they detect the leading axis), and every lane of a batched sweep is
    bit-identical to sweeping that lane alone -- the stacked update is
    purely elementwise in the batch axis.
    """

    __slots__ = ("grid", "_arrays", "_bound")

    def __init__(self, grid: Grid, width: int | None = None,
                 arrays: Dict[str, np.ndarray] | None = None):
        self.grid = grid
        self._bound = None
        if arrays is None:
            if width is None or width < 1:
                raise ValueError("batch width must be >= 1")
            shape = (width,) + grid.shape
            arrays = {
                name: np.zeros(shape, dtype=np.complex128)
                for name in ALL_COMPONENTS
            }
        else:
            widths = set()
            for name in ALL_COMPONENTS:
                if name not in arrays:
                    raise KeyError(f"missing component {name}")
                a = arrays[name]
                if a.ndim != 4 or a.shape[1:] != grid.shape:
                    raise ValueError(
                        f"component {name} has shape {a.shape}, expected "
                        f"(k,) + {grid.shape}"
                    )
                if a.dtype != np.complex128:
                    raise TypeError(f"component {name} must be complex128, got {a.dtype}")
                widths.add(a.shape[0])
            if len(widths) != 1:
                raise ValueError(f"inconsistent batch widths {sorted(widths)}")
            if width is not None and width != widths.pop():
                raise ValueError("width does not match the provided arrays")
        self._arrays = arrays

    # -- construction -----------------------------------------------------------

    @classmethod
    def stack(cls, states: Sequence[FieldState]) -> "BatchedFieldState":
        """Stack per-point states into one batch (lane ``i`` == state ``i``)."""
        if not states:
            raise ValueError("cannot stack an empty sequence of states")
        grid = states[0].grid
        for s in states:
            if s.grid.shape != grid.shape:
                raise ValueError("all states must share one grid shape")
        arrays = {
            name: np.ascontiguousarray(np.stack([s[name] for s in states]))
            for name in ALL_COMPONENTS
        }
        return cls(grid, arrays=arrays)

    # -- mapping-style access ---------------------------------------------------

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        if name not in self._arrays:
            raise KeyError(name)
        self._arrays[name][...] = value

    def __iter__(self) -> Iterator[str]:
        return iter(ALL_COMPONENTS)

    def components(self) -> Dict[str, np.ndarray]:
        return self._arrays

    @property
    def batch_width(self) -> int:
        return self._arrays[ALL_COMPONENTS[0]].shape[0]

    # -- lanes ------------------------------------------------------------------

    def lane(self, i: int) -> FieldState:
        """Zero-copy :class:`FieldState` view of lane ``i`` (each lane of
        a C-contiguous stack is itself C-contiguous)."""
        return FieldState(self.grid, {n: a[i] for n, a in self._arrays.items()})

    def extract(self, i: int) -> FieldState:
        """Deep copy of lane ``i`` (used to keep a converged point when
        compaction drops its lane from the stack)."""
        return FieldState(
            self.grid, {n: a[i].copy() for n, a in self._arrays.items()})

    def compact(self, keep: Sequence[int]) -> None:
        """Drop all lanes not in ``keep``, **in place** (the executor and
        the solver share this object by reference, so compaction must not
        change its identity).  Lane data survives bit-for-bit -- a fancy
        index copy is exact.  Components are replaced one at a time and
        the kernel binding is dropped first, so an old array nothing else
        holds is freed before the next one is copied."""
        idx = list(keep)
        if not idx:
            raise ValueError("cannot compact to zero lanes")
        width = self.batch_width
        if any(i < 0 or i >= width for i in idx):
            raise IndexError(f"lane index out of range for width {width}")
        self._bound = None
        for n, a in self._arrays.items():
            self._arrays[n] = a[idx]

    # -- lifecycle --------------------------------------------------------------

    def copy(self) -> "BatchedFieldState":
        return BatchedFieldState(
            self.grid, arrays={k: v.copy() for k, v in self._arrays.items()}
        )

    def __reduce__(self):
        return (BatchedFieldState, (self.grid, None, self._arrays))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchedFieldState(grid={self.grid.shape}, k={self.batch_width})"
