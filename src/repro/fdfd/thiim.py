"""THIIM solver driver.

Ties the substrate together: grid + scene + PML + sources -> coefficient
arrays -> iterate the twelve-component kernel until the fields converge to
the time-harmonic solution.  The driver can run the naive sweep, the
spatially blocked sweep, or (through :class:`repro.core.executor`) a
wavefront-diamond tiled traversal -- all numerically equivalent.

Every solve entry point -- scalar and batched here, their tiled drivers
in :mod:`repro.core.tiled_solver`, the rank-decomposed
:func:`repro.cluster.runtime.run_distributed` -- is a shell over the one
convergence loop :func:`_converge`.

The *inverse iteration* view: the leapfrog scheme with the ``e^{i w tau}``
phase factors is a fixed-point iteration whose fixed point satisfies the
discrete frequency-domain Maxwell equations (Eqs. 6-7 of the paper).
Cells with negative real permittivity take the back iteration (Eq. 5),
which keeps the spectral radius below one for metals -- the property that
makes silver back contacts tractable without auxiliary differential
equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..resilience import faults
from ..resilience.errors import SolverDiverged
from .coefficients import BatchedCoefficientSet, CoefficientSet, build_coefficients
from .fields import BatchedFieldState, FieldState
from .geometry import Scene
from .grid import Grid
from .kernels import naive_sweep, refresh, spatial_blocked_sweep, step
from .observables import relative_change
from .pml import PMLSpec
from .sources import PlaneWaveSource
from .specs import E_COMPONENTS

__all__ = [
    "SolveResult",
    "BatchSolveResult",
    "THIIMSolver",
    "BatchedTHIIMSolver",
    "divergence_reason",
]

#: Residual blow-up policy: diverged once the residual grew for this many
#: consecutive checks AND sits this far above the best residual seen.  A
#: healthy inverse iteration decreases (roughly) monotonically; a spectral
#: radius above one grows geometrically and trips this within a few checks
#: instead of burning the whole ``max_steps`` budget.
_BLOWUP_RUN = 3
_BLOWUP_FACTOR = 1e4


def divergence_reason(res: float, history: list[float]) -> str | None:
    """Why the iteration counts as diverged, or ``None`` while healthy."""
    if not np.isfinite(res):
        return "non-finite residual (NaN/Inf in the fields)"
    if len(history) > _BLOWUP_RUN:
        tail = history[-(_BLOWUP_RUN + 1):]
        if all(b > a for a, b in zip(tail, tail[1:])) and \
                res > _BLOWUP_FACTOR * min(history):
            return (f"residual blow-up ({_BLOWUP_RUN} consecutive increases, "
                    f"{res:.3e} vs best {min(history):.3e})")
    return None


@dataclass
class SolveResult:
    """Outcome of a THIIM run."""

    fields: FieldState
    iterations: int
    residual: float
    converged: bool
    residual_history: list[float] = dc_field(default_factory=list)
    #: Sweeps restored from a checkpoint rather than run by this call
    #: (0 for a fresh solve): ``iterations - resumed_from`` is the work
    #: this attempt did.
    resumed_from: int = 0


class THIIMSolver:
    """Time Harmonic Inverse Iteration Method driver.

    Parameters
    ----------
    grid:
        Simulation grid.
    omega:
        Angular frequency of the illumination (normalized units, vacuum
        wavelength ``2 pi / omega`` in grid-length units).
    scene:
        Optional material scene; vacuum if omitted.
    source:
        Optional plane-wave source.
    pml:
        Per-axis PML specs (typically ``{"z": PMLSpec(...)}`` with
        periodic x/y, mirroring the production setup).
    tau:
        Time step; defaults to the CFL-stable step of the grid.  The CFL
        limit is evaluated with the maximum wave speed in the scene.
    supersample:
        FIT-style supersampling factor for rasterizing curved interfaces.
    """

    def __init__(
        self,
        grid: Grid,
        omega: float,
        scene: Scene | None = None,
        source: PlaneWaveSource | None = None,
        pml: Mapping[str, PMLSpec] | None = None,
        tau: float | None = None,
        supersample: int = 1,
    ) -> None:
        self.grid = grid
        self.omega = omega
        self.scene = scene
        self.source = source

        if scene is not None:
            self.eps, self.sigma = scene.rasterize(grid, omega, supersample=supersample)
        else:
            self.eps = np.ones(grid.shape, dtype=np.float64)
            self.sigma = np.zeros(grid.shape, dtype=np.float64)

        if tau is None:
            # Wave speed is 1/sqrt(eps mu); eps < 1 (but > 0) raises the
            # speed, metals (eps < 0) are evanescent and do not constrain
            # the CFL step.
            pos = self.eps[self.eps > 0]
            max_speed = float(1.0 / np.sqrt(np.min(pos))) if pos.size else 1.0
            tau = grid.cfl_time_step(light_speed=max(max_speed, 1.0))
        self.tau = tau

        if source is not None:
            if source.z_width > 0 and source.wavenumber is None:
                # Default phasing for a thick source: vacuum dispersion.
                from dataclasses import replace

                source = replace(source, wavenumber=omega)
            raw_sources = source.build(grid)
        else:
            raw_sources = None
        self.coefficients: CoefficientSet = build_coefficients(
            grid,
            omega,
            self.tau,
            eps=self.eps,
            sigma=self.sigma,
            pml=pml,
            sources=raw_sources,
        )
        self.fields = FieldState(grid)

    # -- stepping ----------------------------------------------------------------

    def reset(self) -> None:
        """Zero the fields (restart the inverse iteration)."""
        self.fields = FieldState(self.grid)

    def run(self, nsteps: int, traversal: str = "naive", *,
            block_y: int = 16, block_z: int | None = None) -> FieldState:
        """Advance ``nsteps`` time steps with a chosen traversal.

        ``traversal`` is ``"naive"`` or ``"spatial"`` (blocked by
        ``block_y`` / ``block_z``) here; the diamond traversal lives in
        :class:`repro.core.executor.TiledExecutor` (which operates on
        the same ``fields``/``coefficients``).
        """
        if traversal == "naive":
            naive_sweep(self.fields, self.coefficients, nsteps)
        elif traversal == "spatial":
            spatial_blocked_sweep(
                self.fields, self.coefficients, nsteps, block_y, block_z
            )
        else:
            raise ValueError(f"unknown traversal {traversal!r}")
        return self.fields

    def solve(
        self,
        tol: float = 1e-6,
        max_steps: int = 5000,
        check_every: int = 20,
        checkpoint=None,
        on_divergence: str = "return",
    ) -> SolveResult:
        """Iterate until the fields converge to the time-harmonic solution.

        Convergence is measured as the relative change of the electric
        components over ``check_every`` steps, normalized per step.

        ``checkpoint`` is an optional
        :class:`~repro.resilience.checkpoint.CheckpointManager`: the loop
        resumes from its snapshot (bit-identically -- the sweep sequence
        is deterministic) and re-snapshots on the manager's cadence.
        ``on_divergence`` is ``"return"`` (a non-converged
        :class:`SolveResult`, the historical behaviour) or ``"raise"``
        (:class:`~repro.resilience.errors.SolverDiverged` with a
        diagnostic payload -- what the solve service uses to fail jobs
        fast instead of iterating a blown-up state to ``max_steps``).
        """
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        return _converge(
            self.fields,
            self.coefficients,
            advance=lambda n: naive_sweep(self.fields, self.coefficients, n),
            step_size=lambda steps: min(check_every, max_steps - steps),
            tol=tol,
            max_steps=max_steps,
            checkpoint=checkpoint,
            on_divergence=on_divergence,
        ).results[0]

    # -- diagnostics ----------------------------------------------------------------

    def frequency_domain_residual(self) -> float:
        """Residual of the discrete frequency-domain equations.

        At the THIIM fixed point one full time step leaves the fields
        invariant up to the analytic phase advance.  We measure
        ``|step(F) - F| / |F|`` over all components, which tends to zero as
        the iteration converges (and is exactly the fixed-point defect of
        the inverse iteration).
        """
        # A step changes all twelve components: keep them all to roll back.
        snapshot = {name: self.fields[name].copy() for name in self.fields}
        step(self.fields, self.coefficients)
        num = 0.0
        den = 0.0
        for name in self.fields:
            d = self.fields[name] - snapshot[name]
            num += float(np.sum(np.abs(d) ** 2))
            den += float(np.sum(np.abs(snapshot[name]) ** 2))
        # Roll back so the diagnostic is side-effect free.
        for name in self.fields:
            self.fields[name] = snapshot[name]
        if den == 0.0:
            return 0.0 if num == 0.0 else np.inf
        return float(np.sqrt(num / den))

    def material_mask(self, name: str) -> np.ndarray:
        """Boolean mask of the cells occupied by a named material."""
        if self.scene is None:
            raise ValueError("solver has no scene")
        ids, palette = self.scene.material_id_map(self.grid)
        mask = np.zeros(self.grid.shape, dtype=bool)
        for mid, mat in enumerate(palette):
            if mat.name == name:
                mask |= ids == mid
        return mask


# -- batched (campaign) driver -------------------------------------------------


@dataclass
class BatchSolveResult:
    """Outcome of a batched THIIM run: one :class:`SolveResult` per point,
    in the original lane order, plus per-point divergence reasons."""

    results: List[SolveResult]
    diverged: List[Optional[str]]

    @property
    def batch_width(self) -> int:
        return len(self.results)


def _publish_progress(steps: int, residuals: Dict[str, float], **event) -> None:
    """The per-check event of a point solve."""
    telemetry.publish("progress", sweeps=steps, residual=residuals["0"])


def _publish_batch(steps: int, residuals: Dict[str, float], width: int,
                   active: int, finished: int, **event) -> None:
    """The per-check event of a batch: every active lane's residual plus
    how many lanes just froze/compacted away."""
    if telemetry.enabled():
        telemetry.publish("batch", sweeps=steps, residuals=residuals,
                          active=active, frozen=width - active,
                          compacted=finished)
        telemetry.batch_occupancy().set(active)
        if finished:
            telemetry.lanes_compacted().inc(finished)


def _snapshot_e(fields, snapshot: Optional[Dict[str, np.ndarray]]
                ) -> Dict[str, np.ndarray]:
    """The E components of ``fields`` copied into ``snapshot`` in place --
    all the residual reads of the previous iterate.  New buffers only
    when there are none (first check, or lane compaction dropped them);
    each copy is :func:`~repro.fdfd.kernels.refresh`, which keeps the
    GIL below the gate."""
    if snapshot is None:
        snapshot = {name: np.empty_like(fields[name]) for name in E_COMPONENTS}
    for name, buf in snapshot.items():
        refresh(buf, fields[name])
    return snapshot


def _lane(snapshot: Dict[str, np.ndarray], pos: int) -> Dict[str, np.ndarray]:
    """Lane ``pos`` of a snapshot, viewed (arrays without a lane axis are
    a point solve's, the k = 1 case)."""
    return {name: a[pos] if a.ndim == 4 else a for name, a in snapshot.items()}


def _converge(
    fields,
    coeffs,
    advance: Callable[[int], None],
    step_size: Callable[[int], int],
    tol: float,
    max_steps: int,
    checkpoint=None,
    counters: Optional[Tuple[Callable[[], Dict], Callable[[Dict], None]]] = None,
    publish: Callable[..., None] = _publish_progress,
    on_divergence: str = "return",
    label: str = "THIIM",
) -> BatchSolveResult:
    """The one convergence loop under every solve entry point: step ->
    per-lane residual -> divergence guard -> freeze finished lanes ->
    event -> checkpoint.

    *Traversal*: ``advance(n)`` sweeps all *currently active* lanes ``n``
    steps (naive sweep, one tiling-plan execution, or "tell the ranks and
    gather"); ``step_size(steps)`` is its chunk policy.  *Lanes*:
    ``fields`` answers ``batch_width`` / ``lane`` / ``extract`` (a
    :class:`FieldState` is the k = 1 case); each lane's residual is the
    lane-view :func:`relative_change` -- the reduction order of a scalar
    solve of that point -- and lanes that converge or diverge are frozen
    and compacted out of ``fields`` / ``coeffs`` in place, so the rest
    stop paying for them.  *One copy of the state* (DESIGN §5 item 14):
    the previous iterate is an E-only snapshot whose buffers are
    allocated once per solve (again only after compaction changes the
    width), refreshed in place before each chunk and never after the
    last.  *Persistence*: ``checkpoint`` answers
    ``resume`` / ``due`` / ``save``; the snapshot is always full width
    (every lane's arrays and history, divergence reasons, finished
    lanes, the driver's ``counters`` ``(get, restore)`` pair), so a
    resumed run continues bit-identically.  A due check at the step
    budget saves nothing (the loop ends there; a crash before the result
    is stored resumes from the previous snapshot to the same result).

    ``publish`` is the entry point's per-check event; ``on_divergence``
    ``"raise"`` turns a diverged lane into
    :class:`~repro.resilience.errors.SolverDiverged`.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if on_divergence not in ("return", "raise"):
        raise ValueError("on_divergence must be 'return' or 'raise'")
    width = fields.batch_width
    grid = fields.grid
    active: List[int] = list(range(width))
    histories: List[List[float]] = [[] for _ in range(width)]
    results: List[Optional[SolveResult]] = [None] * width
    reasons: List[Optional[str]] = [None] * width
    steps = start = 0

    # ``fields`` is still full width here, so the full-width snapshot
    # restores straight into it (a point solve's arrays take the unit
    # lane axis by broadcasting); lanes it lists as done are then frozen
    # and compacted away exactly as the loop below would have.
    restored = checkpoint.resume(fields) if checkpoint is not None else None
    if restored is not None:
        steps = start = restored.steps
        lanes = restored.extras["lanes"]
        histories = [[float(v) for v in h] for h in restored.history]
        reasons = list(lanes["reasons"])
        for idx, iterations in ((int(i), n) for i, n in lanes["done"].items()):
            active.remove(idx)
            results[idx] = SolveResult(
                fields.extract(idx), iterations, histories[idx][-1],
                reasons[idx] is None, list(histories[idx]), start)
        if counters is not None:
            counters[1](restored.extras)
        if not active:  # a finished snapshot: nothing left to sweep
            return BatchSolveResult(results=list(results), diverged=reasons)
        if len(active) != width:
            fields.compact(active)
            coeffs.compact(active)

    previous: Optional[Dict[str, np.ndarray]] = None
    while steps < max_steps and active:
        previous = _snapshot_e(fields, previous)
        n = step_size(steps)
        faults.hit("solver.sweep")
        advance(n)
        steps += n
        finished: List[int] = []
        lane_res: Dict[str, float] = {}
        for pos, idx in enumerate(active):
            res = relative_change(fields.lane(pos), _lane(previous, pos)) / n
            lane_res[str(idx)] = float(res)
            histories[idx].append(res)
            reasons[idx] = divergence_reason(res, histories[idx])
            if reasons[idx] is not None or res < tol:
                results[idx] = SolveResult(
                    fields.lane(pos), steps, res, reasons[idx] is None,
                    list(histories[idx]), start)
                finished.append(pos)
        publish(steps=steps, residuals=lane_res, width=width,
                active=len(active) - len(finished), finished=len(finished),
                n=n, previous=previous)
        if on_divergence == "raise":
            for idx in active:
                if reasons[idx] is not None:
                    raise SolverDiverged(
                        f"{label} iteration diverged after {steps} steps: "
                        f"{reasons[idx]}",
                        steps=steps, residual=float(histories[idx][-1]),
                        history_tail=[float(r) for r in histories[idx][-6:]])
        if finished:
            keep = [p for p in range(len(active)) if p not in finished]
            if keep:
                # The width changes: frozen lanes move out of the stack
                # compaction drops, and the snapshot goes before the kept
                # lanes are copied (a new one is sized next check).
                for pos in finished:
                    results[active[pos]].fields = fields.extract(pos)
                previous = None
                fields.compact(keep)
                coeffs.compact(keep)
            active = [active[p] for p in keep]
            if not active:
                break
        if checkpoint is not None and steps < max_steps and checkpoint.due(steps):
            _save(checkpoint, fields, grid, width, active, results, reasons,
                  histories, steps, counters)

    # Lanes that ran out of budget: frozen as non-converged, their lanes
    # of the working arrays (a point solve's result is its fields).
    for pos, idx in enumerate(active):
        res = histories[idx][-1] if histories[idx] else np.inf
        results[idx] = SolveResult(
            fields.lane(pos), steps, res, False, list(histories[idx]), start)
    return BatchSolveResult(results=list(results), diverged=reasons)


def lane_record(results: Sequence[Optional[SolveResult]],
                reasons: Sequence[Optional[str]]) -> Dict[str, Any]:
    """The lane record a snapshot carries (``extras["lanes"]``): every
    lane's divergence reason, and the sweep count of each lane that
    finished -- converged or diverged -- which a resume restores as
    finished instead of sweeping it again."""
    return {"reasons": list(reasons),
            "done": {str(idx): int(r.iterations)
                     for idx, r in enumerate(results)
                     if r is not None and (r.converged
                                           or reasons[idx] is not None)}}


def _save(checkpoint, fields, grid, width, active, results, reasons,
          histories, steps, counters) -> None:
    """One full-width snapshot of the loop state (see :func:`_converge`),
    in its own frame so that a stacked copy is freed when the save
    returns instead of living on through the next chunk."""
    extras = {"lanes": lane_record(results, reasons)}
    if counters is not None:
        extras.update(counters[0]())
    if len(active) == width:
        # Nothing frozen yet: the working arrays themselves, viewed with
        # the lane axis.
        full = BatchedFieldState(grid, arrays={
            n: a.reshape((width,) + grid.shape)
            for n, a in fields.components().items()})
    else:
        # Original lane order: finished lanes from their results, active
        # ones from ``fields``.
        position = {idx: pos for pos, idx in enumerate(active)}
        full = BatchedFieldState.stack([
            fields.lane(position[idx]) if r is None else r.fields
            for idx, r in enumerate(results)])
    checkpoint.save(full, steps, [[float(v) for v in h] for h in histories],
                    extras=extras)


def run_batched_loop(
    fields: BatchedFieldState,
    coeffs: BatchedCoefficientSet,
    advance: Callable[[int], None],
    step_size: Callable[[int], int],
    tol: float,
    max_steps: int,
    checkpoint=None,
    counters=None,
) -> BatchSolveResult:
    """The batched drivers' (naive and tiled) way into :func:`_converge`:
    every lane bit-identical to a scalar solve of that point, one
    ``batch`` event per check, diverged lanes reported, never raised."""
    return _converge(fields, coeffs, advance, step_size, tol, max_steps,
                     checkpoint=checkpoint, counters=counters,
                     publish=_publish_batch)


class BatchedTHIIMSolver:
    """THIIM over ``k`` wavelengths of one scene in a single sweep loop.

    Builds one ordinary :class:`THIIMSolver` per lane (identical
    construction path, hence bit-identical coefficients -- ``sigma`` is
    omega-dependent, so rasterization genuinely differs per lane), then
    stacks fields and coefficients into ``12 x k`` / ``28 x k`` arrays
    the kernels update in one pass over the shared stencil working set.

    The per-lane solvers stay available as ``self.lanes`` -- the
    checkpoint token hashes every lane's content, and diagnostics can
    drop to a single lane.
    """

    def __init__(
        self,
        grid: Grid,
        omegas: Sequence[float],
        scene: Scene | None = None,
        source: PlaneWaveSource | None = None,
        pml: Mapping[str, PMLSpec] | None = None,
        tau: float | None = None,
        supersample: int = 1,
    ) -> None:
        omegas = [float(w) for w in omegas]
        if not omegas:
            raise ValueError("need at least one omega")
        self.grid = grid
        self.omegas = omegas
        self.scene = scene
        self.lanes = [
            THIIMSolver(grid, w, scene=scene, source=source, pml=pml,
                        tau=tau, supersample=supersample)
            for w in omegas
        ]
        self.fields = BatchedFieldState.stack([lane.fields for lane in self.lanes])
        self.coefficients = BatchedCoefficientSet.stack(
            [lane.coefficients for lane in self.lanes]
        )

    @property
    def batch_width(self) -> int:
        return len(self.omegas)

    def reset(self) -> None:
        """Zero all lanes and restore any compacted-away ones."""
        self.fields = BatchedFieldState(self.grid, width=self.batch_width)
        self.coefficients = BatchedCoefficientSet.stack(
            [lane.coefficients for lane in self.lanes]
        )

    def solve(
        self,
        tol: float = 1e-6,
        max_steps: int = 5000,
        check_every: int = 20,
        checkpoint=None,
    ) -> BatchSolveResult:
        """Iterate all lanes to convergence with per-point masking.

        Every lane's result is bit-identical to a scalar
        :meth:`THIIMSolver.solve` of that point with the same ``tol`` /
        ``max_steps`` / ``check_every`` -- the property tests assert it,
        staggered convergence included.
        """
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        return run_batched_loop(
            self.fields,
            self.coefficients,
            advance=lambda n: naive_sweep(self.fields, self.coefficients, n),
            step_size=lambda steps: min(check_every, max_steps - steps),
            tol=tol,
            max_steps=max_steps,
            checkpoint=checkpoint,
        )
