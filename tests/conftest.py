"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import ctypes
import dataclasses
import sys
import threading
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro import nativelib, telemetry
from repro.core.wavefront import RowJob, level_offsets
from repro.fdfd import (ALL_COMPONENTS, SPECS, BatchedCoefficientSet, BatchedFieldState,
                        BatchedTHIIMSolver, CoefficientSet, FieldState, Grid, Scene,
                        THIIMSolver, kernels, random_coefficients)
from repro.fdfd.materials import A_SI_H, SILVER
from repro.fdfd.pml import pml_profile
from repro.service.jobs import _solve_geometry
from repro.fleet import gateway_over
from repro.fleet.router import poll_job
from repro.machine import BatchLRU, BatchStreamEmitter, measure
from repro.service import (JobSpec, PlanRegistry, ResultStore, Scheduler,
                           make_server)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_grid():
    return Grid(nz=8, ny=9, nx=7)


@pytest.fixture
def small_setup(small_grid, rng):
    """A small random (fields, coefficients) pair for traversal tests."""
    coeffs = random_coefficients(small_grid, seed=7)
    fields = FieldState(small_grid).fill_random(rng)
    return fields, coeffs


@contextmanager
def numpy_kernels():
    """Run the enclosed kernel calls on the NumPy body (the oracle)."""
    saved, kernels._THIIM = kernels._THIIM, False
    try:
        yield
    finally:
        kernels._THIIM = saved


def thiim_int(name: str, ctype=ctypes.c_int):
    """The compiled pass's exported C variable ``name`` (the pass loaded),
    read through the library the pass bound: a build of the source as it
    is now may be another library, whose globals no kernel call uses."""
    return ctype.in_dll(kernels._LIB, name)


@pytest.fixture
def reload_native(monkeypatch):
    """``reload(name)`` makes the next use of compiled library ``name``
    load and bind it again (it drops ``name`` from the one load memo,
    :func:`repro.nativelib.load`) and returns the ``native_degraded``
    count at that moment; the memo is put back afterwards."""
    monkeypatch.setattr(nativelib, "_LOADED", dict(nativelib._LOADED))
    monkeypatch.setattr(kernels, "_THIIM", kernels._THIIM)

    def reload(name):
        nativelib._LOADED.pop(name, None)
        if name == "_thiim_kernel":
            kernels._THIIM = None  # the kernel's mirror of its memo entry
        return telemetry.resilience_counts().get("native_degraded", 0)

    return reload


@contextmanager
def thiim_ints(**values):
    """Set exported C ints of the compiled pass for the block (without the
    compiled pass this changes nothing: the NumPy body runs serial)."""
    if not kernels._native():
        yield
        return
    ints = {name: thiim_int(name) for name in values}
    saved = {name: var.value for name, var in ints.items()}
    for name, var in ints.items():
        var.value = values[name]
    try:
        yield
    finally:
        for name, var in ints.items():
            var.value = saved[name]


def split_ways(ways):
    """Split every compiled update, whatever its size, into ``ways`` row
    ranges over the helper group (1 = serial; ranges beyond the helpers
    are the caller's)."""
    return thiim_ints(thiim_split_min=0, thiim_helper_cap=ways - 1)


def immediate():
    """Open no stream window: every compiled call of the block runs before
    it returns (:func:`repro.fdfd.kernels.stream` queues nothing)."""
    return thiim_ints(thiim_ring_cap=0)


@pytest.fixture(params=["native", "numpy"])
def kernel_backend(request):
    """Run a test once per kernel back end (the compiled pass is skipped
    where it is unavailable: no compiler, REPRO_NO_NATIVE, failed probe)."""
    if request.param == "native":
        if not kernels._native():
            pytest.skip("compiled THIIM kernel unavailable")
        yield "native"
    else:
        with numpy_kernels():
            yield "numpy"


def random_state(grid: Grid, seed: int = 0) -> FieldState:
    return FieldState(grid).fill_random(np.random.default_rng(seed))


def run_ranks(layout, fields: FieldState, coeffs: CoefficientSet,
              steps: int) -> dict:
    """Exactly ``steps`` sweeps of ``(fields, coeffs)`` on ``layout``'s
    forked rank processes -- the runtime a distributed job runs, with
    its one convergence check after the last sweep.  ``fields`` ends up
    holding the gathered result; returns ``run_distributed``'s info."""
    from types import SimpleNamespace

    from repro.cluster import run_distributed

    solver = SimpleNamespace(grid=fields.grid, fields=fields,
                             coefficients=coeffs)
    result, info = run_distributed(layout, solver, tol=1e-300,
                                   max_steps=steps,
                                   check_every=max(steps, 1))
    assert result.iterations == steps
    return info


def contracted_problem(grid, k, seed, keeps):
    """Fields, and coefficients stored at one broadcast shape per component
    (``keeps``: 12 triples, a kept axis is full); plain for k = 1, ``k``
    stacked lanes else."""
    rng = np.random.default_rng(seed)
    arrays = {}
    for comp, keep in zip(ALL_COMPONENTS, keeps):
        shape = (k,) + tuple(n if kept else 1 for n, kept in zip(grid.shape, keep))
        for name in SPECS[comp].coeff_names:
            arrays[name] = (rng.standard_normal(shape)
                            + 1j * rng.standard_normal(shape)) * 0.5
    coeffs = BatchedCoefficientSet(grid, [1.0] * k, [0.1] * k, arrays)
    states = [random_state(grid, seed + 1 + i) for i in range(k)]
    if k == 1:
        return states[0], coeffs.lane(0)
    return BatchedFieldState.stack(states), coeffs


def full_coefficients(grid, omega, tau, eps=1.0, sigma=0.0, *, mu=1.0,
                      pml=None, sources=None) -> CoefficientSet:
    """The domain-sized coefficient build -- the oracle of
    ``build_coefficients``: every input broadcast to the grid first, every
    array stored at grid shape (the production code's layout)."""
    eps = np.asarray(np.broadcast_to(np.asarray(eps, dtype=np.float64), grid.shape))
    sigma = np.asarray(np.broadcast_to(np.asarray(sigma, dtype=np.float64), grid.shape))
    mu = np.asarray(np.broadcast_to(np.asarray(mu, dtype=np.float64), grid.shape))
    pml = dict(pml or {})
    sources = dict(sources or {})
    back = eps < 0.0
    phase_full = np.exp(-1j * omega * tau)
    phase_half = np.exp(1j * omega * tau / 2.0)
    arrays = {}
    axis_spec = {0: pml.get("z"), 1: pml.get("y"), 2: pml.get("x")}

    def profile(axis, staggered):
        n = grid.axis_len(axis)
        shape = [1, 1, 1]
        shape[axis] = n
        return pml_profile(n, grid.spacing[axis], axis_spec[axis],
                           staggered=staggered).reshape(shape)

    def full(a):
        return np.array(np.broadcast_to(a, grid.shape), dtype=np.complex128, order="C")

    for name in ALL_COMPONENTS:
        spec = SPECS[name]
        a = spec.deriv_axis
        d_a = grid.spacing[a]
        sourced = sources.get(spec.source) is not None
        if spec.field == "E":
            sig_a = profile(a, staggered=False) + sigma
            denom_f = 1.0 + tau * sig_a / eps
            c_f = phase_full / denom_f
            t_f = spec.sign * (tau / (eps * d_a)) * phase_half / denom_f * phase_full
            denom_b = 1.0 - tau * sig_a / eps
            c_b = np.exp(1j * omega * tau) / denom_b
            t_b = -spec.sign * (tau / (eps * d_a)) * phase_half / denom_b
            c_arr = np.where(back, c_b, c_f)
            t_arr = np.where(back, t_b, t_f)
            if sourced:
                s_arr = np.where(back, -tau / denom_b, tau / denom_f * phase_full)
        else:
            sig_star = profile(a, staggered=True)
            q = np.exp(1j * omega * tau / 2.0) + tau * sig_star / mu
            c_arr = np.exp(-1j * omega * tau / 2.0) / q
            t_arr = spec.sign * (tau / (mu * d_a)) / q
            if sourced:
                s_arr = tau / q
        arrays[spec.coeff_t] = full(t_arr)
        arrays[spec.coeff_c] = full(c_arr)
        if spec.source is not None:
            raw = sources.get(spec.source)
            arrays[spec.source] = (
                np.zeros(grid.shape, dtype=np.complex128) if raw is None else
                full(np.asarray(raw, dtype=np.complex128)
                     * np.broadcast_to(s_arr, grid.shape)))
    return CoefficientSet(grid=grid, omega=omega, tau=tau, arrays=arrays,
                          back_mask=back if bool(np.any(back)) else None)


def sphere_scene(grid) -> Scene:
    """A silver back contact under an a-Si:H sphere: a scene whose
    permittivity varies along all three axes."""
    nz, ny, nx = grid.shape
    return Scene().add_layer(SILVER, nz - nz // 4, nz).add_sphere(
        A_SI_H, (nz / 2, ny / 2, nx / 2), min(ny, nx) / 3)


def service_solver(scene: str, n: int = 10, wavelengths=(10.0,), tiled=False):
    """The solve service's solver of a preset, or of ``"sphere"`` (the
    service geometry around :func:`sphere_scene`): a point solver, or a
    batch for several wavelengths."""
    spec = JobSpec(kind="solve", preset="vacuum" if scene == "sphere" else scene,
                   grid=n, wavelength=wavelengths[0], tiled=tiled)
    grid, layers, _, source, pml = _solve_geometry(spec)
    kw = dict(scene=sphere_scene(grid) if scene == "sphere" else layers,
              source=source, pml=pml)
    omegas = [2 * np.pi / w for w in wavelengths]
    if len(omegas) == 1:
        return THIIMSolver(grid, omegas[0], **kw)
    return BatchedTHIIMSolver(grid, omegas, **kw)


def expanded(coeffs):
    """A copy of ``coeffs`` (point or stacked lanes) with every array
    broadcast out to the domain-sized layout, still a valid one."""
    arrays = {n: np.array(np.broadcast_to(a, a.shape[:-3] + coeffs.grid.shape), order="C")
              for n, a in coeffs.arrays.items()}
    if isinstance(coeffs, BatchedCoefficientSet):
        return BatchedCoefficientSet(coeffs.grid, coeffs.omegas, coeffs.taus, arrays)
    return dataclasses.replace(coeffs, arrays=arrays)


def front_stepping_jobs(tile, nz: int, bz: int):
    """A tile's row jobs from a literal front-stepping loop -- the oracle
    of ``wavefront.tile_rows``: per front step the levels advance
    bottom-up, each to ``bz * front - off(level)``, so every z-read of a
    level lands in the already-updated span of the level below."""
    if bz < 1 or nz < 1:
        raise ValueError("bz and nz must be >= 1")
    offsets = level_offsets(tile)
    progress = [0] * len(tile.rows)
    front = 1
    while progress[-1] < nz:
        for lvl, row in enumerate(tile.rows):
            target = min(max(bz * front - offsets[lvl], 0), nz)
            if target > progress[lvl]:
                yield RowJob(row.tau, row.y_lo, row.y_hi, progress[lvl], target)
                progress[lvl] = target
        front += 1


def plan_oracle_jobs(plan, order=None):
    """Every tile's :func:`front_stepping_jobs`, in ``order`` (FIFO by
    default): the oracle of ``TilingPlan.rows``."""
    for idx in plan.fifo_order() if order is None else order:
        yield from front_stepping_jobs(plan.tiles[idx], plan.nz, plan.bz)


def exhaustive_tune_tiled(spec, grid_n, threads, tg_size=None, variant=None):
    """The tuner's search without its bound -- enumerate, score every
    candidate, keep the first maximum in enumeration order (a strict
    ``>``): the oracle of the pruned ``autotuner.tune_tiled``, and the
    widest set of schedules any search of that point can replay."""
    from repro.core import autotuner

    machine = spec.with_cores(threads) if threads != spec.cores else spec
    best = None
    for cand in autotuner._tiled_candidates(spec, grid_n, threads, tg_size,
                                            variant):
        point = autotuner._score_tiled(spec, machine, grid_n, threads, cand)
        if best is None or point.mlups > best.mlups:
            best = point
    return best


def python_des():
    """Run the enclosed simulations on the Python event loop (the oracle)."""
    return mock.patch.dict(nativelib._LOADED, _des_kernel=False)


def batch_emitter(capacity, layout, ny, nz, nx):
    """The batched emitter over the pure-Python ``BatchLRU`` (what a host
    without the compiled kernel measures with)."""
    cache = BatchLRU(capacity, layout.key_space(ny, nz))
    return cache, BatchStreamEmitter(cache, ny=ny, nz=nz, nx=nx, layout=layout)


#: The three replay engines as emitter factories of the uncached
#: measurement bodies (``measure._measure_tiled`` / ``_measure_sweep``):
#: the per-access oracle, ``BatchLRU``, and the host's engine --
#: ``NativeLRU`` when the compiled kernel loads, ``BatchLRU`` otherwise.
REPLAY_ENGINES = {"reference": measure._reference_emitter,
                  "batch": batch_emitter,
                  "native": measure._host_emitter}


def run_concurrently(work, cases, timeout: float = 120.0) -> None:
    """``work(case)`` for every case at once, one thread each, released
    together on a shortened switch interval; raises what a thread raised
    and fails if one is still running after ``timeout``."""
    errors = []
    start = threading.Barrier(len(cases))

    def run(case):
        try:
            start.wait(timeout=30)
            work(case)
        except BaseException as exc:  # surfaced below, in the test thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(case,)) for case in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert not any(t.is_alive() for t in threads)


# -- fleet E2E: in-process serve nodes behind a gateway ------------------------

FAST = dict(kind="solve", preset="vacuum", grid=10, wavelength=10.0,
            tol=1e-4, max_steps=20)


def fleet_poll(base, job_id, timeout=90.0):
    """The job's terminal document; every poll on the way must answer
    200 (a 503/404 seen through the gateway after a node death is a
    failover that was not transparent)."""
    return poll_job(base, job_id, timeout=timeout, strict=True)


class FleetNode:
    """One in-process serve node (scheduler + HTTP server), optionally
    with a persistent store / plan registry."""

    def __init__(self, i, store_root=None, registry_root=None):
        self.store_root = store_root
        self.sched = Scheduler(
            workers=1, retry_base_s=0.001,
            store=ResultStore(store_root, node_id=f"node{i}"),
            registry=PlanRegistry(registry_root, node_id=f"node{i}"),
        ).start()
        self.server = make_server(self.sched, port=0, node_id=f"node{i}")
        # shutdown() waits out one poll interval: keep teardown short.
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05}, daemon=True)
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_port}"
        self.dead = False

    def kill(self):
        """Abrupt node death: the socket starts refusing."""
        if self.dead:
            return
        self.dead = True
        self.server.shutdown()
        self.server.server_close()
        self.sched.stop()
        self.thread.join(timeout=5.0)


@pytest.fixture()
def fleet(request):
    """Three live nodes + a gateway with telemetry on; heartbeats are
    manual (``check_once``) so every liveness transition is
    deterministic.  Parametrize gateway kwargs indirectly via
    ``request.param`` (a dict), e.g. ``{"quota": 0.001}``."""
    with telemetry.switched_on(), gateway_over(
            [FleetNode(i) for i in range(3)],
            **(getattr(request, "param", None) or {})) as fl:
        yield fl


def node_by_url(fleet, url):
    return next(n for n in fleet.nodes if n.url == url)


def spec_homed_on(fleet, url, *, grid=10):
    """A FAST-shaped spec whose home shard is ``url``."""
    smap = fleet.registry.shard_map()
    for w in range(10, 200):
        spec = JobSpec(**dict(FAST, grid=grid, wavelength=float(w)))
        if smap.owners(spec.job_id)[0] == url:
            return spec
    raise AssertionError(f"no spec homed on {url}")
