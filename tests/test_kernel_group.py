"""The host thread group: a whole-domain half step split by component.

Every split must equal the serial sweep as raw bytes (one half step's
components write disjoint arrays); a half step borrows only idle helpers
and never waits for one to start; a forked child runs serial; concurrent
solves through the shared group each equal their serial solve.
"""

import multiprocessing as mp
import os
import threading
import time
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fdfd import (
    ALL_COMPONENTS,
    BatchedCoefficientSet,
    BatchedFieldState,
    Grid,
    kernels,
    naive_sweep,
    random_coefficients,
    spatial_blocked_sweep,
    update_h,
)
from repro.service import JobSpec, JobState, Scheduler, run_job

from conftest import random_state, run_concurrently, split_ways

HELPER = "repro-half-step"
#: The solve service's geometry of ``grid=24`` (27,648 cells: it splits).
G24 = Grid(nz=48, ny=24, nx=24, periodic=(False, True, True))

needs_helpers = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="one CPU: the group runs serial")


def _bits(fields):
    return b"".join(fields[n].tobytes() for n in ALL_COMPONENTS)


def _problem(grid, k, seed):
    """Random state and coefficients: plain for k = 1, k stacked lanes else."""
    if k == 1:
        return random_state(grid, seed), random_coefficients(grid, seed=seed + 1)
    return (BatchedFieldState.stack([random_state(grid, seed + i) for i in range(k)]),
            BatchedCoefficientSet.stack([random_coefficients(grid, seed=seed + 10 + i)
                                         for i in range(k)]))


@st.composite
def _cases(draw):
    grid = Grid(*(draw(st.integers(3, 9)) for _ in range(3)),
                periodic=tuple(draw(st.booleans()) for _ in range(3)))
    return (grid, draw(st.integers(1, 3)), draw(st.sampled_from((1, 2, 3, 6))),
            draw(st.integers(1, 3)), draw(st.integers(0, 1000)))


@contextmanager
def helpers_first():
    """Hold each of the caller's updates 0.2 ms, so that on boxes this
    small the helpers start their shares before the caller would cancel
    them (without it most tiny half steps end up all the caller's)."""
    raw = kernels.update_component

    def late(name, fields, coeffs, region):
        if not threading.current_thread().name.startswith(HELPER):
            time.sleep(2e-4)
        raw(name, fields, coeffs, region)

    with mock.patch.object(kernels, "update_component", late):
        yield


@pytest.fixture
def spy(monkeypatch):
    """``calls``: (component, thread name) of every update_component call."""
    calls = []
    raw = kernels.update_component

    def recording(name, fields, coeffs, region):
        calls.append((name, threading.current_thread().name))
        raw(name, fields, coeffs, region)

    monkeypatch.setattr(kernels, "update_component", recording)
    return calls


class TestSplitEqualsSerial:
    """Hypothesis over grid shape, periodicity, lanes and 1/2/3/6 ways."""

    @given(case=_cases())
    @settings(max_examples=60, deadline=None)
    def test_naive_sweep(self, case):
        grid, k, ways, steps, seed = case
        fields, coeffs = _problem(grid, k, seed)
        oracle = fields.copy()
        with split_ways(1):
            lups = naive_sweep(oracle, coeffs, steps)
        with split_ways(ways), helpers_first():
            assert naive_sweep(fields, coeffs, steps) == lups
        assert _bits(fields) == _bits(oracle)

    @given(case=_cases(), block=st.tuples(st.integers(1, 9), st.integers(1, 9)))
    @settings(max_examples=40, deadline=None)
    def test_spatial_blocked_sweep(self, case, block):
        grid, k, ways, steps, seed = case
        fields, coeffs = _problem(grid, k, seed)
        oracle = fields.copy()
        with split_ways(1):
            lups = spatial_blocked_sweep(oracle, coeffs, steps, *block)
        with split_ways(ways), helpers_first():
            assert spatial_blocked_sweep(fields, coeffs, steps, *block) == lups
        assert _bits(fields) == _bits(oracle)


@needs_helpers
class TestWhoRuns:
    def test_a_g24_sweep_reaches_a_helper(self, spy):
        mask = os.sched_getaffinity(0)
        fields, coeffs = _problem(G24, 1, 3)
        naive_sweep(fields, coeffs, 4)
        assert any(who.startswith(HELPER) for _, who in spy)
        assert len(spy) == 4 * 12
        assert os.sched_getaffinity(0) == mask  # the caller's hold ended

    def test_serve_sized_jobs_stay_serial(self, spy):
        grid = Grid(nz=20, ny=10, nx=10, periodic=(False, True, True))
        fields, coeffs = _problem(grid, 3, 3)  # 3 lanes: still under the gate
        naive_sweep(fields, coeffs, 4)
        assert {who for _, who in spy} == {threading.current_thread().name}

    @pytest.mark.skipif(not kernels._native(), reason="compiled kernel unavailable")
    def test_the_caller_binds_before_fan_out(self, monkeypatch, spy):
        binders = []
        raw = kernels._bind

        def recording(fields, coeffs):
            binders.append(threading.current_thread().name)
            return raw(fields, coeffs)

        monkeypatch.setattr(kernels, "_bind", recording)
        fields, coeffs = _problem(G24, 1, 5)
        naive_sweep(fields, coeffs, 2)
        fields.components()["Hzy"] = fields["Hzy"].copy()  # a replaced array
        naive_sweep(fields, coeffs, 2)
        assert any(who.startswith(HELPER) for _, who in spy)
        assert binders == [threading.current_thread().name] * 2

    def test_a_half_step_never_waits_for_a_busy_helper(self, monkeypatch):
        """Caller A holds the helpers; B's half step borrows none, runs
        serial on B's thread and returns while A's share is still held."""
        grid = Grid.cube(8)
        (fa, ca), (fb, cb) = _problem(grid, 1, 1), _problem(grid, 1, 2)
        oracle_b = fb.copy()
        with split_ways(1):
            update_h(oracle_b, cb)
        started, release = threading.Event(), threading.Event()
        raw = kernels.update_component
        who_b = []
        group = kernels._host_group()
        submitters = []
        raw_submit = group._submit

        def submit(*args):
            submitters.append(threading.current_thread().name)
            return raw_submit(*args)

        monkeypatch.setattr(group, "_submit", submit)

        def gated(name, fields, coeffs, region):
            if fields is fa:
                if threading.current_thread().name.startswith(HELPER):
                    started.set()
                    assert release.wait(30)
                else:
                    assert started.wait(30)
            elif fields is fb:
                who_b.append(threading.current_thread().name)
            raw(name, fields, coeffs, region)

        monkeypatch.setattr(kernels, "update_component", gated)
        with split_ways(6):  # A borrows every helper of up to six CPUs
            a = threading.Thread(target=update_h, args=(fa, ca))
            a.start()
            try:
                assert started.wait(30)
                update_h(fb, cb)
            finally:
                release.set()
                a.join(30)
        assert not a.is_alive()
        assert who_b == [threading.current_thread().name] * 6
        assert threading.current_thread().name not in submitters
        assert _bits(fb) == _bits(oracle_b)

    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_a_failed_share_raises_in_the_caller(self, monkeypatch, where):
        """A share that raises, on a helper or on the caller: the half
        step raises it after every started share has ended, and the
        group's books and the caller's CPU mask are as before."""
        fields, coeffs = _problem(Grid.cube(8), 1, 1)
        raw = kernels.update_component
        started = threading.Event()
        helper_done = []

        def failing(name, fields, coeffs, region):
            on_helper = threading.current_thread().name.startswith(HELPER)
            if on_helper:
                started.set()
                time.sleep(0.02)  # still running when the caller fails
            else:
                started.wait(5)  # let the helper start its share first
            if on_helper == (where == "helper") and name in ("Hxy", "Hzy"):
                raise RuntimeError(f"{name} failed")
            raw(name, fields, coeffs, region)
            if on_helper:
                helper_done.append(name)

        monkeypatch.setattr(kernels, "update_component", failing)
        mask = os.sched_getaffinity(0)
        with split_ways(2), pytest.raises(RuntimeError, match="failed"):
            update_h(fields, coeffs)
        assert helper_done == (["Hyx", "Hzx"] if where == "helper"
                               else ["Hyx", "Hzx", "Hzy"])
        group = kernels._host_group()
        assert (group._idle, group._busy) == (len(group.cpus) - 1, 0)
        assert group._home_free and os.sched_getaffinity(0) == mask

    def test_a_share_no_helper_started_is_the_callers(self, spy):
        """The helper is busy outside the group's books: the queued share
        is cancelled and run by the caller, and the result is the same."""
        grid = Grid.cube(8)
        fields, coeffs = _problem(grid, 1, 4)
        oracle = fields.copy()
        with split_ways(1):
            update_h(oracle, coeffs)
        group = kernels._host_group()
        release = threading.Event()
        blockers = [group.pool.submit(release.wait, 30)
                    for _ in range(len(group.cpus) - 1)]
        try:
            with split_ways(2):
                update_h(fields, coeffs)
        finally:
            release.set()
            for blocker in blockers:
                blocker.result(30)
        assert {who for _, who in spy} == {threading.current_thread().name}
        assert _bits(fields) == _bits(oracle)


def _fork_child(conn):
    fields, coeffs = _problem(G24, 1, 7)
    naive_sweep(fields, coeffs, 3)
    conn.send((_bits(fields), kernels._GROUP, threading.active_count()))


@needs_helpers
class TestForkedChildRunsSerial:
    """Processes or threads, never both: after the parent has split a
    sweep, a forked child sweeps serial and bit-identically."""

    @pytest.fixture(autouse=True)
    def parent_split(self, spy):
        fields, coeffs = _problem(G24, 1, 6)
        naive_sweep(fields, coeffs, 2)
        assert any(who.startswith(HELPER) for _, who in spy)

    def test_fork_context_child(self):
        fields, coeffs = _problem(G24, 1, 7)
        with split_ways(1):
            naive_sweep(fields, coeffs, 3)
        parent, child = mp.Pipe()
        proc = mp.get_context("fork").Process(target=_fork_child, args=(child,))
        proc.start()
        try:
            assert parent.poll(60), "forked child did not finish its sweep"
            bits, group, threads = parent.recv()
        finally:
            proc.join(10)
            if proc.is_alive():
                proc.kill()
        assert bits == _bits(fields)
        assert group is False and threads == 1

    def test_process_mode_scheduler_job(self):
        spec = JobSpec(kind="solve", preset="tandem", grid=24, wavelength=11.0,
                       tol=1e-12, max_steps=8)
        with split_ways(1):
            serial = run_job(spec)
        sched = Scheduler(workers=1, mode="process", retry_base_s=0.001).start()
        try:
            job = sched.wait(sched.submit(spec).id, timeout=120.0)
        finally:
            sched.stop()
        assert job.state == JobState.DONE and job.attempts == 1
        assert job.result == serial


@needs_helpers
def test_concurrent_solves_share_the_group():
    """Thread stress: four threads solve four g24 points through the one
    group; each result equals that point's serial solve, and every
    borrowed helper is returned."""
    specs = [JobSpec(kind="solve", preset="tandem", grid=24, wavelength=w,
                     tol=1e-12, max_steps=12) for w in (9.0, 10.5, 12.0, 13.5)]
    with split_ways(1):
        serial = {s.wavelength: run_job(s)["checksum"] for s in specs}
    got = {}
    run_concurrently(lambda s: got.__setitem__(s.wavelength, run_job(s)["checksum"]),
                     specs)
    assert got == serial
    group = kernels._host_group()
    assert (group._idle, group._busy) == (len(group.cpus) - 1, 0)
