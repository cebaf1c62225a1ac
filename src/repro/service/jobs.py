"""Declarative job specs and the job lifecycle.

A :class:`JobSpec` is everything needed to reproduce one unit of work --
a THIIM solve on a preset scene or an autotuner run -- as plain data.
Its identity is *content-addressed*: the job id is a SHA-256 over the
canonical JSON of the computational fields (execution policy such as
priority and retry budget is excluded), so two submissions of the same
computation share one id, one execution, and one stored result.

:class:`Job` is the runtime record: lifecycle state (QUEUED -> RUNNING
-> DONE | FAILED | CANCELLED, with RUNNING -> QUEUED requeues on worker
crash), attempt counter and timestamps.  :func:`run_job` executes a spec
deterministically -- it is the *same* code path for thread workers,
forked process workers and an in-process call, which is what makes the
bit-identical serving guarantee testable.  (``repro solve`` is not a
job: it shares :func:`_solve_geometry`, then ``cli.py: _cmd_solve``
builds and drives its own solver.)
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from .. import telemetry
from ..resilience import faults

__all__ = ["JobSpec", "Job", "JobState", "run_job"]

KINDS = ("solve", "tune", "batch", "distributed")
TUNING_POLICIES = ("spec", "registry")
VARIANTS = ("spatial", "1wd", "mwd")

#: Fields that define *what* is computed (hashed into the job id).
#: Everything else on JobSpec is execution policy.
_IDENTITY_FIELDS = (
    "kind", "preset", "grid", "wavelength", "thickness", "tol", "max_steps",
    "tiled", "dw", "bz", "threads", "variant", "tg_size", "bandwidth",
    "tuning",
)


def _parse_ranks(ranks: str):
    """Parse a spec's ranks request: ``("dims", (pz, py, px))`` for an
    explicit layout, ``("count", n)`` when the cost model factorizes."""
    s = str(ranks).strip().lower()
    if "x" in s:
        parts = s.split("x")
        try:
            dims = tuple(int(p) for p in parts)
        except ValueError:
            raise ValueError(
                f"ranks must be 'N' or 'PZxPYxPX', got {ranks!r}") from None
        if len(dims) != 3:
            raise ValueError(
                f"ranks must be 'N' or 'PZxPYxPX', got {ranks!r}")
        if any(d < 1 for d in dims):
            raise ValueError("every ranks dimension must be >= 1")
        return "dims", dims
    try:
        n = int(s)
    except ValueError:
        raise ValueError(
            f"ranks must be 'N' or 'PZxPYxPX', got {ranks!r}") from None
    if n < 1:
        raise ValueError("ranks count must be >= 1")
    return "count", n


class JobState:
    """The JOB lifecycle states (plain strings for JSON friendliness)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    ALL = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
    TERMINAL = (DONE, FAILED, CANCELLED)


@dataclass(frozen=True)
class JobSpec:
    """One declarative unit of work for the solve service."""

    kind: str = "solve"
    # -- scene ---------------------------------------------------------------
    preset: str = "absorber"
    grid: int = 48
    wavelength: float = 12.0
    thickness: Optional[float] = None
    #: Batch jobs only: the k wavelengths solved in one batched sweep
    #: (``kind="batch"``; ``wavelength`` is ignored for identity purposes
    #: and each point inherits every other field).
    wavelengths: Optional[Tuple[float, ...]] = None
    # -- solve numerics ------------------------------------------------------
    tol: float = 1e-5
    max_steps: int = 3000
    tiled: bool = False
    dw: int = 4
    bz: int = 2
    #: Distributed jobs only: the process-grid request, either an
    #: explicit ``"PZxPYxPX"`` layout or a rank count ``"N"`` the
    #: communication cost model factorizes (``kind="distributed"``).
    ranks: Optional[str] = None
    # -- machine / tuning ----------------------------------------------------
    threads: int = 18
    variant: str = "mwd"
    tg_size: Optional[int] = None
    bandwidth: Optional[float] = None
    tuning: str = "spec"
    # -- execution policy (excluded from the job id) -------------------------
    priority: int = 0
    max_retries: int = 2
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        from ..fdfd.presets import PRESETS

        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.preset not in PRESETS:
            raise ValueError(f"preset must be one of {PRESETS}, got {self.preset!r}")
        if self.grid < 8 or (self.kind in ("solve", "distributed")
                             and self.grid < 10):
            # Solves need nz = 2*grid to clear the source plane at
            # max(nz//8, 12) and the incident-flux plane 4 cells below it.
            raise ValueError("grid must be >= 10 for solves (>= 8 for tune)")
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if self.kind == "batch":
            if not self.wavelengths:
                raise ValueError("batch jobs need a non-empty wavelengths tuple")
            ws = tuple(float(w) for w in self.wavelengths)
            if any(w <= 0 for w in ws):
                raise ValueError("every batch wavelength must be positive")
            if len(set(ws)) != len(ws):
                raise ValueError("batch wavelengths must be unique")
            # Normalize (lists from JSON -> tuple) so identity hashing and
            # frozen-dataclass equality are canonical.
            object.__setattr__(self, "wavelengths", ws)
        elif self.wavelengths is not None:
            raise ValueError("wavelengths is only valid for kind='batch'")
        if self.kind == "distributed":
            if self.ranks is None:
                raise ValueError(
                    "distributed jobs need a ranks field ('N' or 'PZxPYxPX')")
            mode, value = _parse_ranks(self.ranks)
            if self.tiled:
                raise ValueError(
                    "distributed jobs run the naive sweep (tiled=False)")
            # Canonical form so identity hashing is whitespace/case-proof.
            canonical = ("x".join(str(d) for d in value)
                         if mode == "dims" else str(value))
            object.__setattr__(self, "ranks", canonical)
        elif self.ranks is not None:
            raise ValueError("ranks is only valid for kind='distributed'")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.dw < 4 or self.dw % 2:
            raise ValueError("dw must be an even integer >= 4")
        if self.bz < 1:
            raise ValueError("bz must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.tuning not in TUNING_POLICIES:
            raise ValueError(f"tuning must be one of {TUNING_POLICIES}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    # -- identity --------------------------------------------------------------

    def identity(self) -> Dict[str, Any]:
        """The computational fields, canonically ordered."""
        d = {f: getattr(self, f) for f in _IDENTITY_FIELDS}
        if self.wavelengths is not None:
            # Included only for batch jobs so per-point job ids predating
            # the batch axis are unchanged.
            d["wavelengths"] = list(self.wavelengths)
            # A batch's identity is its wavelength *set*; the scalar
            # wavelength field is inert for batch jobs.
            d["wavelength"] = None
        if self.ranks is not None:
            # Included only for distributed jobs (the layout namespaces
            # registry/store tokens) so pre-existing job ids are
            # unchanged.
            d["ranks"] = self.ranks
        return d

    def point_spec(self, wavelength: float) -> "JobSpec":
        """The per-point solve spec of one batch lane: identical in every
        computational field, so its job id is exactly the id a direct
        per-point submission of that wavelength would get -- the handle
        the batch path dedups and fans out through."""
        if self.kind != "batch":
            raise ValueError("point_spec is only meaningful on batch jobs")
        return dataclasses.replace(
            self, kind="solve", wavelength=float(wavelength), wavelengths=None
        )

    def single_domain_spec(self) -> "JobSpec":
        """The scalar solve of the same computation: identical in every
        numeric field, so its result document is the bytes a distributed
        run must reproduce (stored under the scalar job id)."""
        if self.kind != "distributed":
            raise ValueError(
                "single_domain_spec is only meaningful on distributed jobs")
        return dataclasses.replace(self, kind="solve", ranks=None)

    @property
    def job_id(self) -> str:
        payload = json.dumps(self.identity(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:24]

    # -- (de)serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "JobSpec":
        """Build a spec from client JSON; unknown keys are an error."""
        if not isinstance(d, dict):
            raise ValueError("job spec must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown job spec fields: {sorted(unknown)}")
        return cls(**d)


@dataclass
class Job:
    """Runtime record of one submitted spec."""

    spec: JobSpec
    state: str = JobState.QUEUED
    attempts: int = 0
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Result served straight from the persistent store (no execution).
    from_store: bool = False
    #: Extra submissions that coalesced onto this job.
    dedup_count: int = 0
    #: Typed taxonomy name of the failure (``SolverDiverged``, ...).
    error_kind: Optional[str] = None
    #: Sweep count the last attempt resumed from (checkpoint provenance;
    #: kept off the result dict to preserve bit-identical serving).
    resumed_from: Optional[int] = None
    #: Last checkpoint report: ``{"path", "saves", "resumed_from"}``.
    checkpoint: Optional[Dict[str, Any]] = None
    #: Trace id threaded through every span/event of this job's life
    #: (submit -> queue -> tune -> sweep -> checkpoint -> store), across
    #: thread and forked-process workers alike.
    trace_id: str = field(default_factory=telemetry.new_trace_id)
    #: When the job last entered the queue: monotonic clock (queue-wait
    #: histogram) and trace timestamp (the ``queued`` span); reset on
    #: every dispatch so crash requeues measure each wait separately.
    queued_mono: Optional[float] = None
    queued_ts_us: Optional[float] = None

    #: Legal lifecycle transitions (RUNNING -> QUEUED is the crash requeue).
    _TRANSITIONS = {
        JobState.QUEUED: (JobState.RUNNING, JobState.CANCELLED),
        JobState.RUNNING: (JobState.DONE, JobState.FAILED, JobState.QUEUED),
        JobState.DONE: (),
        JobState.FAILED: (),
        JobState.CANCELLED: (),
    }

    @property
    def id(self) -> str:
        return self.spec.job_id

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    def transition(self, new: str) -> None:
        if new not in self._TRANSITIONS[self.state]:
            raise ValueError(f"illegal job transition {self.state} -> {new}")
        self.state = new
        if new == JobState.RUNNING and self.started_at is None:
            self.started_at = time.time()
        if new in JobState.TERMINAL:
            self.finished_at = time.time()

    def to_dict(self, include_result: bool = True) -> Dict[str, Any]:
        d = {
            "id": self.id,
            "state": self.state,
            "attempts": self.attempts,
            "error": self.error,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "from_store": self.from_store,
            "dedup_count": self.dedup_count,
            "error_kind": self.error_kind,
            "resumed_from": self.resumed_from,
            "checkpoint": self.checkpoint,
            "trace_id": self.trace_id,
            "spec": self.spec.to_dict(),
        }
        if include_result:
            d["result"] = self.result
        return d


# -- execution -----------------------------------------------------------------


def machine_spec_for(spec: JobSpec):
    """The machine model a spec tunes/solves against."""
    from ..machine import HASWELL_EP

    m = HASWELL_EP
    if spec.bandwidth:
        m = m.with_bandwidth(spec.bandwidth)
    return m


def _field_checksum(fields) -> str:
    """SHA-256 over the raw bytes of all twelve components, in canonical
    order -- the bit-identity witness for served results.  Each array's
    buffer is hashed where it lies (a C-contiguous array is not copied)."""
    import numpy as np

    from ..fdfd.specs import ALL_COMPONENTS

    h = hashlib.sha256()
    for name in ALL_COMPONENTS:
        h.update(np.ascontiguousarray(fields[name]))
    return h.hexdigest()


def _registry_plan(spec: JobSpec, registry):
    """The registry's tuned point for the spec's key -> ``(point, hit)``,
    tuning on a miss: the one lookup of tune jobs and tiled solves."""
    with telemetry.span("tune", "service", args={
            "grid": spec.grid, "variant": spec.variant}) as sp:
        point, hit = registry.get_or_tune(
            machine_spec_for(spec), spec.grid, spec.threads,
            tg_size=spec.tg_size, variant=spec.variant,
        )
        sp.set(registry_hit=hit)
    return point, hit


def _run_tune(spec: JobSpec, registry) -> Dict[str, Any]:
    from ..core.autotuner import point_to_json, tune_variant

    hit = False
    if registry is not None:
        point, hit = _registry_plan(spec, registry)
    else:
        point = tune_variant(machine_spec_for(spec), spec.grid, spec.threads,
                             variant=spec.variant, tg_size=spec.tg_size)
    return {
        "kind": "tune",
        "registry_hit": hit,
        "point": point_to_json(point),
        "describe": None if point is None else point.describe(),
    }


def _resolve_plan(spec: JobSpec, registry) -> Dict[str, Any]:
    """The (dw, bz) a tiled solve runs with, per the tuning policy."""
    if not spec.tiled:
        return {"tiled": False}
    if spec.tuning == "spec" or registry is None:
        return {"tiled": True, "dw": spec.dw, "bz": spec.bz,
                "source": "spec", "registry_hit": False}
    point, hit = _registry_plan(spec, registry)
    if point is None:  # no feasible tuned plan: fall back to the spec's
        return {"tiled": True, "dw": spec.dw, "bz": spec.bz,
                "source": "fallback", "registry_hit": hit}
    return {"tiled": True, "dw": point.dw, "bz": point.bz,
            "source": "registry", "registry_hit": hit}


def _solve_geometry(spec: JobSpec):
    """The solve-service geometry of a spec: grid, scene, source and PML
    (identical for every wavelength of a batch -- the shared-structure
    property the batched engine exploits)."""
    from ..fdfd import Grid, PMLSpec, PlaneWaveSource
    from ..fdfd.presets import preset_scene

    n = spec.grid
    nz = 2 * n
    # Same geometry as ``repro solve``: tiled traversal needs
    # non-periodic y/z.
    periodic = (False, not spec.tiled, not spec.tiled)
    grid = Grid(nz=nz, ny=n, nx=n, periodic=periodic)
    scene = preset_scene(spec.preset, nz, thickness=spec.thickness)
    source_plane = max(nz // 8, 12)
    source = PlaneWaveSource(z_plane=source_plane, z_width=2.0)
    pml = {"z": PMLSpec(thickness=max(nz // 10, 6))}
    return grid, scene, source_plane, source, pml


def _point_doc(grid, omega: float, plan: Dict[str, Any], result,
               sigma, scene, source_plane: int) -> Dict[str, Any]:
    """The per-point result document -- one assembly path for scalar and
    batched solves, so fan-out results are field-for-field the dicts a
    per-point execution would store."""
    from ..fdfd import absorbed_power, poynting_flux_z

    out: Dict[str, Any] = {
        "kind": "solve",
        "grid": list(grid.shape),
        "omega": omega,
        "plan": plan,
        "iterations": result.iterations,
        "residual": float(result.residual),
        "converged": bool(result.converged),
        "checksum": _field_checksum(result.fields),
    }
    if scene is not None:
        out["absorbed"] = float(absorbed_power(result.fields, sigma))
        out["incident"] = float(poynting_flux_z(result.fields, source_plane + 4))
    return out


def _note_solve_rates(grid, results, elapsed: float) -> None:
    """Reflect a finished solve into the sweeps/MLUP/s instruments
    (single cheap gate; metrics never touch the solver state).  Only the
    sweeps this attempt ran count: the ones a checkpoint restored took
    none of ``elapsed``."""
    sweeps = sum(max(r.iterations - r.resumed_from, 0) for r in results)
    if not telemetry.enabled() or sweeps <= 0:
        return
    telemetry.sweeps_total().inc(sweeps)
    if elapsed > 0:
        cells = grid.nz * grid.ny * grid.nx
        telemetry.sweep_rate().set(sweeps / elapsed)
        telemetry.solve_rate().set(sweeps * cells / elapsed / 1e6)


def _solve_points(spec: JobSpec, wavelengths, registry,
                  checkpoint_dir: Optional[str], attempt: int = 1):
    """Solve ``wavelengths`` of ``spec``'s scene the way its kind asks --
    one point, one point across rank processes, or all of them as lanes
    of one batched loop -- through one body (build, plan, checkpoint,
    solve, rates, clear, document), so a served point is the same dict
    whichever way it was computed.  Returns ``(plan, docs, reasons)``,
    per wavelength the :func:`_point_doc` document (``None`` for a
    diverged lane) and the divergence reason (``None`` when healthy).
    """
    import numpy as np

    from .. import config
    from ..core.tiled_solver import BatchedTiledTHIIM, TiledTHIIM
    from ..fdfd import BatchedTHIIMSolver, THIIMSolver
    from ..resilience.checkpoint import CheckpointManager, solver_token

    grid, scene, source_plane, source, pml = _solve_geometry(spec)
    omegas = [2 * np.pi / w for w in wavelengths]
    plan = _resolve_plan(spec, registry)
    batch = spec.kind == "batch"
    if batch:
        solver = BatchedTHIIMSolver(grid, omegas, scene=scene, source=source,
                                    pml=pml)
        lanes = solver.lanes
        policy = {}  # diverged lanes become failed points, not exceptions
    else:
        solver = THIIMSolver(grid, omegas[0], scene=scene, source=source,
                             pml=pml)
        lanes = [solver]
        policy = {"on_divergence": "raise"}
    if plan["tiled"]:
        driver = (BatchedTiledTHIIM if batch else TiledTHIIM)(
            solver, dw=plan["dw"], bz=plan["bz"])
        cadence = {"chunk": driver.chunk}
    else:
        driver, cadence = solver, {"check_every": 20}
    directory = checkpoint_dir or config.get("REPRO_CHECKPOINT_DIR")
    every = config.get("REPRO_CHECKPOINT_EVERY")
    # One snapshot of the global state for every kind: a distributed
    # solve's is a point solve's, valid under any rank layout.
    ckpt = (CheckpointManager(
        directory, name=spec.job_id, every=every,
        token=solver_token(solver, tol=spec.tol, max_steps=spec.max_steps,
                           **cadence))
        if directory and every >= 1 else None)

    t0 = time.perf_counter()
    if spec.kind == "distributed":
        from ..cluster import RankLayout, choose_decomposition, run_distributed

        mode, value = _parse_ranks(spec.ranks)
        layout = (RankLayout(grid, *value) if mode == "dims"
                  else choose_decomposition(grid, value))
        with telemetry.span(f"cluster {layout.pz}x{layout.py}x{layout.px}",
                            "cluster", args={"ranks": layout.n_ranks,
                                             "grid": spec.grid}):
            solved, _info = run_distributed(
                layout, solver, tol=spec.tol, max_steps=spec.max_steps,
                checkpoint=ckpt, attempt=attempt, **cadence, **policy)
    else:
        solved = driver.solve(tol=spec.tol, max_steps=spec.max_steps,
                              checkpoint=ckpt, **policy)
    results, reasons = ((solved.results, solved.diverged) if batch
                        else ([solved], [None]))
    _note_solve_rates(grid, results, time.perf_counter() - t0)
    # The solve is complete; its results are about to be stored.  The
    # snapshot has served its purpose (a crash after this point requeues
    # the job, which the result store then serves).
    if ckpt is not None:
        ckpt.clear()
    docs = [None if reason is not None else
            _point_doc(grid, omega, plan, result, lane.sigma, scene,
                       source_plane)
            for omega, result, lane, reason
            in zip(omegas, results, lanes, reasons)]
    return plan, docs, reasons


def _run_batch_solve(spec: JobSpec, registry, store=None,
                     checkpoint_dir: Optional[str] = None) -> Dict[str, Any]:
    """Solve a wavelength batch: dedup stored points, run the remainder
    as ONE batched sweep loop, fan per-point results back out.

    Every solved point's document is stored under the per-point job id,
    so later per-point submissions are served from the store
    bit-identically.  Lanes that diverge become failed points (reported,
    never stored); they do not fail the batch.
    """
    wavelengths = list(spec.wavelengths or ())
    point_specs = [spec.point_spec(w) for w in wavelengths]
    docs: Dict[int, Optional[Dict[str, Any]]] = {}
    errors: Dict[int, str] = {}
    from_store = [False] * len(wavelengths)
    todo = []
    for i, ps in enumerate(point_specs):
        cached = store.get(ps.job_id) if store is not None else None
        if cached is not None:
            docs[i] = cached
            from_store[i] = True
        else:
            todo.append(i)

    if todo:
        plan, solved, reasons = _solve_points(
            spec, [wavelengths[i] for i in todo], registry, checkpoint_dir)
        for i, doc, reason in zip(todo, solved, reasons):
            docs[i] = doc
            if reason is not None:
                errors[i] = f"SolverDiverged: {reason}"
            elif store is not None:
                store.put(point_specs[i].job_id, doc)
    else:
        plan = _resolve_plan(spec, registry)

    points = []
    for i, w in enumerate(wavelengths):
        entry: Dict[str, Any] = {
            "wavelength": w,
            "id": point_specs[i].job_id,
            "from_store": from_store[i],
            "result": docs.get(i),
        }
        if i in errors:
            entry["error"] = errors[i]
        points.append(entry)
    return {
        "kind": "batch",
        "batch_width": len(wavelengths),
        "plan": plan,
        "dedup_hits": sum(from_store),
        "solved": len(todo),
        "failed": len(errors),
        "points": points,
    }


def run_job(
    spec: JobSpec,
    registry=None,
    attempt: int = 1,
    checkpoint_dir: Optional[str] = None,
    store=None,
) -> Dict[str, Any]:
    """Execute a spec and return its JSON-serializable result.

    Deterministic in ``spec`` (and ``registry`` contents for tuned
    plans): repeat runs return equal dicts bit for bit, which is the
    contract the result store's dedup relies on.  Checkpoint/resume
    preserves this: a run resumed from a snapshot replays the identical
    sweep sequence, and resume provenance travels on the Job record
    (never in this result dict).

    ``store`` is only consulted by batch jobs: already-stored points are
    deduplicated away and freshly solved points are fanned back out
    under their per-point job ids.

    The run scopes a telemetry :class:`~repro.telemetry.JobContext` for
    the duration, so solver progress events and every nested span carry
    the job's trace id: the caller's (the scheduler's context, inherited
    across a fork), else a fresh one (progress/metrics stay off the
    result dict -- bit-identity is untouched).
    """
    faults.set_attempt(attempt)
    outer = telemetry.current()
    ctx = telemetry.JobContext(
        job_id=spec.job_id,
        trace_id=(outer.trace_id if outer is not None
                  else telemetry.new_trace_id()),
        attempt=attempt,
    )
    with telemetry.use(ctx), telemetry.span(
        f"job {spec.job_id[:12]}", "service",
        args={"kind": spec.kind, "attempt": attempt, "grid": spec.grid},
    ):
        faults.hit("job.run")
        if spec.kind == "tune":
            return _run_tune(spec, registry)
        if spec.kind == "batch":
            return _run_batch_solve(spec, registry, store=store,
                                    checkpoint_dir=checkpoint_dir)
        # One point -- across rank processes when distributed (an
        # explicit "PZxPYxPX" layout or a count the communication cost
        # model factorizes): byte-identical documents, the latter stored
        # under the layout-namespaced job id.
        _plan, docs, _reasons = _solve_points(
            spec, [spec.wavelength], registry, checkpoint_dir, attempt)
        return docs[0]
