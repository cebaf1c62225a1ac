"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.fdfd import FieldState, Grid, kernels, random_coefficients


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
