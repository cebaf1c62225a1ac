"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro import telemetry
from repro.fdfd import FieldState, Grid, kernels, random_coefficients
from repro.fleet import gateway_over
from repro.fleet.router import poll_job
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
