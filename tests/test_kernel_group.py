"""The helper group of the compiled pass and its one job queue: a big box
is one job of several parts cut by rows, and a tile's calls are streamed
to the queue as jobs that every thread claims, the caller included.

Every split must equal the serial update -- and the NumPy oracle -- as raw
bytes (each cell runs the same instructions on whichever thread takes its
row); a caller never waits for a busy group; a part no helper has started
is the caller's; a forked child runs serial; concurrent solves through the
one group each equal their serial solve; an idle helper burns no CPU.
A streamed tile pass equals the immediate one and the oracle as raw
bytes, every rule that drains the queue holds when its call returns, and
a helper the OS does not run holds the caller up by at most the part it
holds.  The vector and the scalar body of the pass equal each other and
the oracle the same way, however their calls run.
"""

import ctypes
import math
import multiprocessing as mp
import os
import subprocess
import sys
import threading
import time
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TiledExecutor, TiledTHIIM, TilingPlan
from repro.fdfd import (
    ALL_COMPONENTS,
    SPECS,
    BatchedCoefficientSet,
    BatchedFieldState,
    Grid,
    clip_region,
    kernels,
    naive_sweep,
    random_coefficients,
    spatial_blocked_sweep,
    update_component,
    update_h,
)
from repro.fdfd.kernels import BoundRegion, stream
from repro.service import JobSpec, JobState, Scheduler, run_job

from conftest import (contracted_problem, immediate, numpy_kernels, random_state,
                      run_concurrently, service_solver, split_ways, thiim_int, thiim_ints)

HELPER = "thiim-helper"
#: The solve service's geometry of ``grid=24`` (27,648 cells: it splits).
G24 = Grid(nz=48, ny=24, nx=24, periodic=(False, True, True))
#: Ways the property tests split a box: up to three parts more than a
#: 2-CPU host has helpers, so the caller runs parts no helper started.
MAX_WAYS = max(5, len(os.sched_getaffinity(0)) + 3)

needs_native = pytest.mark.skipif(
    not kernels._native(), reason="compiled THIIM kernel unavailable")
needs_helpers = pytest.mark.skipif(
    not kernels._native() or thiim_int("thiim_helper_cap").value < 1,
    reason="no helper group: one CPU, or no compiled kernel")

#: Coefficient layouts of the compiled pass: (nz, 1, 1), (1, 1, 1),
#: (1, 1, nx) and full.
_LAYOUTS = ((True, False, False), (False,) * 3, (False, False, True), (True,) * 3)


def _bits(fields):
    return b"".join(fields[n].tobytes() for n in ALL_COMPONENTS)


def _problem(grid, k, seed):
    """Random state and coefficients: plain for k = 1, k stacked lanes else."""
    if k == 1:
        return random_state(grid, seed), random_coefficients(grid, seed=seed + 1)
    return (BatchedFieldState.stack([random_state(grid, seed + i) for i in range(k)]),
            BatchedCoefficientSet.stack([random_coefficients(grid, seed=seed + 10 + i)
                                         for i in range(k)]))


def _helper_parts():
    return thiim_int("thiim_helper_parts", ctypes.c_int64).value


def _stream_ops():
    """Jobs run from the queue, by any thread."""
    return thiim_int("thiim_stream_ops", ctypes.c_int64).value


def _helper_tids() -> list:
    """Thread ids of the helper threads."""
    tids = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/comm") as f:
                if f.read().strip() == HELPER:
                    tids.append(int(tid))
        except FileNotFoundError:
            continue
    return tids


def _helper_ticks() -> dict:
    """tid -> user + system CPU ticks of each helper thread."""
    ticks = {}
    for tid in _helper_tids():
        try:
            with open(f"/proc/self/task/{tid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:
            continue
        ticks[str(tid)] = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks


@st.composite
def _cases(draw):
    grid = Grid(*(draw(st.integers(3, 9)) for _ in range(3)),
                periodic=tuple(draw(st.booleans()) for _ in range(3)))
    return (grid, draw(st.integers(1, 3)), draw(st.integers(1, MAX_WAYS)),
            draw(st.integers(1, 3)), draw(st.integers(0, 1000)))


@st.composite
def _boxes(draw, grid):
    box = []
    for n in grid.shape:
        lo = draw(st.integers(0, n - 1))
        box.append((lo, draw(st.integers(lo + 1, n))))
    return box


class TestSplitEqualsSerial:
    """Hypothesis over grid shape, periodicity, lanes and 1..N ways, the
    gate forced to 0 so that every box splits."""

    @needs_native
    @given(case=_cases(), data=st.data(),
           keeps=st.lists(st.sampled_from(_LAYOUTS), min_size=12, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_every_component_equals_the_oracle(self, case, data, keeps):
        grid, k, ways, _, seed = case
        z, y, x = data.draw(_boxes(grid))
        fields, coeffs = contracted_problem(grid, k, seed, keeps)
        oracle = fields.copy()
        with numpy_kernels():
            for name in ALL_COMPONENTS:
                region = clip_region(grid, SPECS[name], z=z, y=y, x=x)
                if region is not None:
                    update_component(name, oracle, coeffs, region)
        with split_ways(ways):
            for name in ALL_COMPONENTS:
                region = clip_region(grid, SPECS[name], z=z, y=y, x=x)
                if region is not None:
                    update_component(name, fields, coeffs, region)
        assert all(op[0] is not None for op in fields._bound.values())
        for name in ALL_COMPONENTS:
            assert fields[name].tobytes() == oracle[name].tobytes(), name

    @given(case=_cases())
    @settings(max_examples=60, deadline=None)
    def test_naive_sweep(self, case):
        grid, k, ways, steps, seed = case
        fields, coeffs = _problem(grid, k, seed)
        oracle = fields.copy()
        with split_ways(1):
            lups = naive_sweep(oracle, coeffs, steps)
        with split_ways(ways):
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
        with split_ways(ways):
            assert spatial_blocked_sweep(fields, coeffs, steps, *block) == lups
        assert _bits(fields) == _bits(oracle)


@st.composite
def _body_cases(draw):
    """A grid whose boxes have rows of 1 to 10 cells, each axis periodic or
    not; a box that spans each axis whole (so that a far read wraps where
    the axis is periodic) or a random part of it; 1-3 lanes; one
    coefficient layout per component."""
    grid = Grid(draw(st.integers(3, 5)), draw(st.integers(3, 5)), draw(st.integers(3, 10)),
                periodic=tuple(draw(st.booleans()) for _ in range(3)))
    box = [(0, n) if draw(st.booleans()) else span
           for n, span in zip(grid.shape, draw(_boxes(grid)))]
    keeps = draw(st.lists(st.sampled_from(_LAYOUTS), min_size=12, max_size=12))
    return grid, box, keeps, draw(st.integers(1, 3)), draw(st.integers(0, 1000))


#: ``thiim_vector`` of each compiled body of the fused form: the vector
#: body and the scalar body with the CPU's fma (both only where the CPU has
#: AVX2 and FMA; the next body elsewhere), the scalar body with libm's fma.
_BODIES = {"vector": 1, "scalar": 0, "portable": -1}


class TestVectorEqualsScalar:
    """The compiled pass's vector body (two complex numbers per AVX2
    instruction) against its scalar bodies, which a test reaches through
    the exported ``thiim_vector``, and the NumPy body: raw-byte equal,
    with the calls immediate, split or streamed."""

    @needs_native
    @given(case=_body_cases(), mode=st.sampled_from(("immediate", "split", "streamed")),
           ways=st.integers(2, MAX_WAYS))
    @settings(max_examples=80, deadline=None)
    def test_every_body_equals_the_oracle(self, case, mode, ways):
        grid, box, keeps, k, seed = case
        fields, coeffs = contracted_problem(grid, k, seed, keeps)
        regions = [(name, clip_region(grid, SPECS[name], *box)) for name in ALL_COMPONENTS]
        calls = {"immediate": immediate, "split": lambda: split_ways(ways),
                 "streamed": stream}[mode]
        runs = {}
        for body in ("numpy", *_BODIES):
            f = fields.copy()
            with (numpy_kernels() if body == "numpy"
                  else thiim_ints(thiim_vector=_BODIES[body])), calls():
                for _ in range(2):
                    for name, region in regions:
                        if region is not None:
                            update_component(name, f, coeffs, region)
            runs[body] = _bits(f)
        for body in _BODIES:
            assert runs[body] == runs["numpy"], body


def _serial_child(conn, ways):
    """A forked child's G24 half step and sweep at ``ways`` ways (``None``:
    as the child finds the group), and what ran them."""
    fields, coeffs = _problem(G24, 1, 7)
    before = _helper_parts()
    with split_ways(ways) if ways else nullcontext():
        update_h(fields, coeffs)
        naive_sweep(fields, coeffs, 2)
        cap = thiim_int("thiim_helper_cap").value
    conn.send((_bits(fields), cap, _helper_parts() - before, sorted(_helper_ticks()),
               len(os.listdir("/proc/self/task"))))


def _in_fork(target, *args, timeout=60.0):
    """``target(conn, *args)`` in a forked child; what it sent."""
    parent, child = mp.Pipe()
    proc = mp.get_context("fork").Process(target=target, args=(child,) + args)
    proc.start()
    try:
        assert parent.poll(timeout), "forked child did not finish"
        return parent.recv()
    finally:
        proc.join(10)
        if proc.is_alive():
            proc.kill()


def _until_a_helper_runs(work, bound_s=5.0):
    """Repeat ``work()`` until a helper has run a part, failing only
    after ``bound_s``: the callers claim parts from the same queue as the
    helpers, so one pass may leave them none."""
    before = _helper_parts()
    deadline = time.monotonic() + bound_s
    work()
    while _helper_parts() == before and time.monotonic() < deadline:
        work()
    assert _helper_parts() > before, f"no helper ran a part within {bound_s} s"


def _serial_g24():
    fields, coeffs = _problem(G24, 1, 7)
    with split_ways(1):
        update_h(fields, coeffs)
        naive_sweep(fields, coeffs, 2)
    return _bits(fields)


@needs_helpers
class TestWhoRuns:
    def test_a_g24_sweep_reaches_a_helper(self, monkeypatch):
        calls = []
        raw = kernels.update_component

        def recording(name, fields, coeffs, region):
            calls.append(name)
            raw(name, fields, coeffs, region)

        monkeypatch.setattr(kernels, "update_component", recording)
        fields, coeffs = _problem(G24, 1, 3)

        def sweep():
            calls.clear()
            naive_sweep(fields, coeffs, 4)

        _until_a_helper_runs(sweep)
        assert len(calls) == 4 * 12  # one call per component: the split is inside

    def test_serve_sized_jobs_stay_serial(self):
        grid = Grid(nz=20, ny=10, nx=10, periodic=(False, True, True))
        fields, coeffs = _problem(grid, 3, 3)  # 3 lanes: still under the gate
        before = _helper_parts()
        naive_sweep(fields, coeffs, 4)
        assert _helper_parts() == before

    def test_a_half_step_never_waits_for_a_busy_helper(self):
        """The group is held (as by another caller mid-split): a G24 half
        step that would split runs serial on its own thread instead of
        waiting, and its result is the serial one."""
        fields, coeffs = _problem(G24, 1, 2)
        oracle = fields.copy()
        with split_ways(1):
            update_h(oracle, coeffs)
        borrowed = thiim_int("thiim_borrowed")
        assert borrowed.value == 0
        before = _helper_parts()
        borrowed.value = 1
        caller = threading.Thread(target=update_h, args=(fields, coeffs))
        try:
            caller.start()
            caller.join(30)
            waited = caller.is_alive()
        finally:
            borrowed.value = 0
            caller.join()
        assert not waited and _helper_parts() == before
        assert _bits(fields) == _bits(oracle)

    def test_a_share_no_helper_started_is_the_callers(self):
        """A forked child has no helpers: a box split four ways there is
        run whole by the caller, part by part, with the serial result."""
        bits, cap, helper_parts, helpers, _ = _in_fork(_serial_child, 4)
        assert (cap, helper_parts, helpers) == (3, 0, [])
        assert bits == _serial_g24()

    def test_an_idle_helper_burns_no_cpu(self):
        """Serve nodes' interpreter threads need the CPU a helper would
        spin on: once idle, a helper sleeps."""
        naive_sweep(*_problem(G24, 1, 4), 2)  # wake the helpers
        time.sleep(0.05)  # past their spin
        before = _helper_ticks()
        time.sleep(0.2)
        assert before and _helper_ticks() == before


@needs_helpers
class TestForkedChildRunsSerial:
    """Processes or threads, never both: after the parent has split a
    sweep, a forked child sweeps serial and bit-identically."""

    @pytest.fixture(autouse=True)
    def parent_split(self):
        _until_a_helper_runs(lambda: naive_sweep(*_problem(G24, 1, 6), 2))

    def test_fork_context_child(self):
        bits, cap, helper_parts, helpers, threads = _in_fork(_serial_child, None)
        assert bits == _serial_g24()
        assert (cap, helper_parts, helpers, threads) == (0, 0, [], 1)

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
    group; each result equals that point's serial solve, and the group is
    free again afterwards."""
    specs = [JobSpec(kind="solve", preset="tandem", grid=24, wavelength=w,
                     tol=1e-12, max_steps=12) for w in (9.0, 10.5, 12.0, 13.5)]
    with split_ways(1):
        serial = {s.wavelength: run_job(s)["checksum"] for s in specs}
    got = {}
    _until_a_helper_runs(lambda: run_concurrently(
        lambda s: got.__setitem__(s.wavelength, run_job(s)["checksum"]), specs))
    assert got == serial
    assert thiim_int("thiim_borrowed").value == 0


# -- the stream window ---------------------------------------------------------

#: Every full-box op here (at most 16,000 cells) stays just under the gate,
#: so a few queued ops keep a helper busy for milliseconds.
HEAVY = Grid(nz=40, ny=20, nx=20, periodic=(False, False, True))


@st.composite
def _tiled_cases(draw):
    grid = Grid(nz=draw(st.integers(4, 14)), ny=draw(st.integers(4, 14)),
                nx=draw(st.integers(3, 8)), periodic=(False, False, draw(st.booleans())))
    plan = TilingPlan.build(ny=grid.ny, nz=grid.nz, timesteps=draw(st.integers(1, 6)),
                            dw=draw(st.sampled_from((2, 4, 6, 8))), bz=draw(st.integers(1, 5)))
    return grid, plan, draw(st.integers(1, 3)), draw(st.integers(0, 1000))


def _queue_then(fields, coeffs, then):
    """Two naive steps over HEAVY queued in a window (24 ops), then
    ``then()`` inside the same window; the queued ops run when it returned."""
    before = _stream_ops()
    with stream():
        naive_sweep(fields, coeffs, 2)
        then()
        ran = _stream_ops() - before
    return ran


class TestStreamEqualsImmediate:
    """Streamed, immediate and NumPy tile passes: raw-byte equal."""

    @given(case=_tiled_cases(), keeps=st.lists(st.sampled_from(_LAYOUTS), min_size=12,
                                               max_size=12),
           gate=st.sampled_from((16384, 64)), ring=st.sampled_from((1, 3, 256)))
    @settings(max_examples=60, deadline=None)
    def test_tile_passes_equal_the_oracle(self, case, keeps, gate, ring):
        """Random grids, 1-3 lanes, D_w / B_z, topological orders,
        contracted coefficients, queue capacities, and a gate low enough
        that some boxes are queued as jobs of several parts and drained
        inside the window."""
        grid, plan, k, seed = case
        fields, coeffs = contracted_problem(grid, k, seed, keeps)
        order = plan.random_topological_order(np.random.default_rng(seed))
        runs, streamed = {}, 0
        for mode, ints in (("numpy", None), ("immediate", 0), ("streamed", ring)):
            f = fields.copy()
            before = _stream_ops() if kernels._native() else 0
            with (numpy_kernels() if ints is None
                  else thiim_ints(thiim_split_min=gate, thiim_ring_cap=ints)):
                TiledExecutor(f, coeffs, plan).run(order)
            if mode == "streamed" and kernels._native():
                streamed = _stream_ops() - before
            runs[mode] = _bits(f)
        assert runs["immediate"] == runs["numpy"]
        assert runs["streamed"] == runs["numpy"]
        if gate == 16384 and kernels._native() and thiim_int("thiim_helper_cap").value:
            assert streamed > 0

    @needs_helpers
    @pytest.mark.parametrize("ring", [1, 2, None])
    def test_a_window_holds_more_ops_than_the_ring(self, ring):
        """A spatially blocked sweep inside one window queues thousands of
        ops through a queue of 256 jobs (or fewer): the caller claims jobs
        until there is room, and the result is the immediate one."""
        ring = ring or thiim_int("thiim_ring_cap").value
        grid = Grid(nz=20, ny=12, nx=10, periodic=(False, False, True))
        fields, coeffs = _problem(grid, 2, 14)
        oracle = fields.copy()
        with immediate():
            lups = spatial_blocked_sweep(oracle, coeffs, 4, 2, 2)
        before = _stream_ops()
        with thiim_ints(thiim_ring_cap=ring), stream():
            assert spatial_blocked_sweep(fields, coeffs, 4, 2, 2) == lups
        assert _stream_ops() - before > 4 * 256
        assert _bits(fields) == _bits(oracle)

    @needs_helpers
    def test_a_refused_box_raises_once_the_queue_ran(self):
        """A box that leaves the grid is refused on the caller and raises
        ``IndexError``; by then every op queued before it has been
        applied, and nothing of the refused box was written."""
        fields, coeffs = _problem(HEAVY, 1, 12)
        oracle = fields.copy()
        with numpy_kernels():
            naive_sweep(oracle, coeffs, 2)
        outside = BoundRegion((slice(0, HEAVY.nz + 1), slice(0, 2), slice(0, 2)))
        seen = {}

        def refused():
            with pytest.raises(IndexError):
                update_component("Hxy", fields, coeffs, outside)
            seen["bits"] = _bits(fields)  # still inside the window

        assert _queue_then(fields, coeffs, refused) == 24
        assert seen["bits"] == _bits(oracle)

    @needs_helpers
    @pytest.mark.parametrize("then", ["numpy body", "rebind", "nested rebind"])
    def test_a_numpy_op_and_a_rebind_drain_first(self, then):
        """A NumPy-body op reads what queued ops write, and a rebind drops
        the arrays queued ops point into: both drain the queue first --
        also after a nested block, which leaves the window to its owner."""
        fields, coeffs = _problem(HEAVY, 1, 13)
        oracle = fields.copy()
        region = clip_region(HEAVY, SPECS["Hxy"])
        with numpy_kernels():
            naive_sweep(oracle, coeffs, 2)
            update_component("Hxy", oracle, coeffs, region)
        t = SPECS["Hxy"].coeff_t

        def op():
            if then == "numpy body":
                with numpy_kernels():
                    update_component("Hxy", fields, coeffs, region)
            else:
                if then == "nested rebind":
                    with stream():
                        pass
                coeffs.arrays[t] = coeffs.arrays[t].copy()  # the old one goes with the binding
                update_component("Hxy", fields, coeffs, region)

        ran = _queue_then(fields, coeffs, op)
        assert ran == 24 if then == "numpy body" else ran >= 24
        assert _bits(fields) == _bits(oracle)

    @staticmethod
    def _count_drains(monkeypatch) -> list:
        """One entry per call of the library's ``thiim_drain`` from now."""
        calls = []
        opener, closer, drain = kernels._WINDOW
        monkeypatch.setattr(kernels, "_WINDOW",
                            (opener, closer, lambda: calls.append(drain())))
        return calls

    @needs_native
    def test_no_window_no_drain_call(self, monkeypatch):
        """A thread with no window has queued nothing: its first bind and
        a NumPy-body op do not call the library's drain, which releases
        the GIL."""
        calls = self._count_drains(monkeypatch)
        fields, coeffs = _problem(HEAVY, 1, 17)
        region = clip_region(HEAVY, SPECS["Hxy"])
        update_component("Hxy", fields, coeffs, region)  # binds
        with numpy_kernels():
            update_component("Hxy", fields, coeffs, region)
        assert calls == []

    @needs_helpers
    def test_a_window_drains_after_a_nested_block(self, monkeypatch):
        """A nested block leaves the window open: a rebind after it still
        calls the drain, once."""
        calls = self._count_drains(monkeypatch)
        fields, coeffs = _problem(HEAVY, 1, 18)
        region = clip_region(HEAVY, SPECS["Hxy"])
        t = SPECS["Hxy"].coeff_t
        update_component("Hxy", fields, coeffs, region)  # binds outside
        with stream():
            with stream():
                update_component("Hxy", fields, coeffs, region)
            coeffs.arrays[t] = coeffs.arrays[t].copy()
            update_component("Hxy", fields, coeffs, region)  # rebinds
        assert len(calls) == 1

    @needs_helpers
    def test_a_streaming_and_an_immediate_solve_at_once(self):
        """One thread holds a window over its whole tiled run while
        another runs: the second opens none (the group is borrowed) and
        runs immediate, the first streams every op, and each equals its
        serial run."""
        def build(wavelength):
            solver = service_solver("tandem", 16, wavelengths=(wavelength,), tiled=True)
            return solver, TiledTHIIM(solver, dw=8, bz=2)

        serial = {}
        with immediate():
            for w in (10.0, 12.0):
                solver, tiled = build(w)
                tiled.run(16)
                serial[w] = _bits(solver.fields)
        runs = {w: build(w) for w in serial}
        solver, tiled = runs[10.0]
        calls = sum(len(ops) for ops, _ in tiled.plan.compiled(solver.grid).values())
        opened, done = threading.Event(), threading.Event()
        before = _stream_ops()

        def solve(w):
            solver, tiled = runs[w]
            if w == 10.0:
                with stream():
                    assert thiim_int("thiim_borrowed").value == 1
                    opened.set()
                    tiled.run(16)
                    assert done.wait(60)
            else:
                assert opened.wait(60)
                tiled.run(16)
                done.set()

        run_concurrently(solve, list(serial))
        assert _stream_ops() - before == 2 * calls  # both passes of the first, none of the second
        assert {w: _bits(solver.fields) for w, (solver, _) in runs.items()} == serial
        assert thiim_int("thiim_borrowed").value == 0

    @needs_helpers
    def test_an_idle_helper_burns_no_cpu_after_a_window(self):
        fields, coeffs = _problem(HEAVY, 1, 15)
        before = _stream_ops()
        with stream():
            naive_sweep(fields, coeffs, 2)
        assert _stream_ops() > before
        time.sleep(0.05)  # past the spin
        ticks = _helper_ticks()
        time.sleep(0.2)
        assert ticks and _helper_ticks() == ticks


def _sched_idle_reversible() -> bool:
    """Whether a thread of this process may enter ``SCHED_IDLE`` and leave
    it again (leaving it needs ``CAP_SYS_NICE`` or a high ``RLIMIT_NICE``);
    tried on a thread of the test's own."""
    ok = []

    def probe():
        try:
            os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
            os.sched_setscheduler(0, os.SCHED_OTHER, os.sched_param(0))
            ok.append(True)
        except PermissionError:
            pass

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join()
    return bool(ok)


@needs_helpers
def test_a_starved_helper_does_not_hold_the_caller():
    """Beside one busy-looping process, every helper pinned to the hog's
    CPU at ``SCHED_IDLE`` (so it runs only in the scraps of time the hog
    leaves): streamed HEAVY tile passes equal the immediate pass as raw
    bytes and take at most a generous multiple of their unstarved time.
    The caller claims the queued jobs itself, so a helper the OS is not
    running delays it by at most the part that helper holds."""
    if not _sched_idle_reversible():
        pytest.skip("this process may not leave SCHED_IDLE once in it")
    fields, coeffs = _problem(HEAVY, 1, 16)
    plan = TilingPlan.build(ny=HEAVY.ny, nz=HEAVY.nz, timesteps=8, dw=8, bz=4)
    oracle = fields.copy()
    with immediate():
        TiledExecutor(oracle, coeffs, plan).run()

    def passes(n):
        """Seconds for ``n`` streamed passes, each from ``fields``; their
        results."""
        runs = [TiledExecutor(fields.copy(), coeffs, plan) for _ in range(n)]
        t0 = time.perf_counter()
        for run in runs:
            run.run()
        return time.perf_counter() - t0, [_bits(run.fields) for run in runs]

    unstarved = min(passes(1)[0] for _ in range(3))
    n = max(3, math.ceil(0.1 / unstarved))  # at least 0.1 s of work
    limit = 100 * n * unstarved
    cpus = os.sched_getaffinity(0)
    hog_cpu = max(cpus)
    tids = _helper_tids()
    starved = []
    runner = threading.Thread(target=lambda: starved.extend(passes(n)))
    hog = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        os.sched_setaffinity(hog.pid, {hog_cpu})
        for tid in tids:
            os.sched_setaffinity(tid, {hog_cpu})
            os.sched_setscheduler(tid, os.SCHED_IDLE, os.sched_param(0))
        runner.start()
        runner.join(limit)
        held = runner.is_alive()
    finally:
        hog.kill()
        hog.wait()
        for tid in tids:
            os.sched_setscheduler(tid, os.SCHED_OTHER, os.sched_param(0))
            os.sched_setaffinity(tid, cpus)
        if runner.ident is not None:
            runner.join()
    seconds, bits = starved
    assert not held, (f"{n} starved passes took {seconds:.2f} s, over {limit:.2f} s "
                      f"(100 x {n} x {1e3 * unstarved:.1f} ms unstarved)")
    assert all(b == _bits(oracle) for b in bits)
