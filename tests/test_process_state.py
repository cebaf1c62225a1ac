"""Process-wide state: one after-fork rule, one load-once path, and the
shared caches under threads.

* Every lock of the package is made by :func:`repro.forksafe.lock` and
  named after its row of the fork table (DESIGN.md section 5, item 15).
  The fork stress test holds each row's lock on a helper thread while a
  child forks the way ranks do; the child must still finish a g10 solve,
  a small cold tune, a fault hit under an installed plan and a metrics
  bump, taking at most 2 s longer than that work takes in the parent.
* :func:`repro.nativelib.load` loads each compiled library once: two
  threads racing on a cold build directory both get the library.
* The caches several solver or tuner threads share -- the shape table,
  ``kernels._clipped_ops`` and ``FieldState._bound`` -- give the serial
  result bytewise under :func:`conftest.run_concurrently`.
"""

import http.client
import multiprocessing as mp
import os
import pathlib
import re
import threading
import time

import pytest

import repro
from repro import config, forksafe, nativelib, telemetry
from repro.core import TiledTHIIM, autotuner
from repro.core.diamond import enumerate_tiles
from repro.core.wavefront import tile_rows
from repro.fdfd import (ALL_COMPONENTS, Grid, kernels, random_coefficients,
                        spatial_blocked_sweep)
from repro.fleet import NodeRegistry, make_gateway, router
from repro.fleet.admission import TenantQuotas, TokenBucket
from repro.machine import (HASWELL_EP, SUBSTRATE_COUNTERS, clear_substrate_caches,
                           make_lru, native, native_available, streams)
from repro.resilience import faults
from repro.service import JobSpec, PlanRegistry, ResultStore, run_job
from repro.telemetry import RingBuffer

from conftest import random_state, run_concurrently, service_solver, thiim_int

G10 = JobSpec(kind="solve", preset="vacuum", grid=10, wavelength=10.0,
              tol=1e-12, max_steps=4)
G10_TILED = JobSpec(kind="solve", preset="vacuum", grid=10, wavelength=10.0,
                    tol=1e-12, max_steps=8, tiled=True)
#: The fault site the child passes under the installed plan.
SITE = "fork.rule"
#: How much longer than in the parent the child's work may take.
CHILD_S = 2.0


def _bits(fields):
    return b"".join(fields[n].tobytes() for n in ALL_COMPONENTS)


def _solve_and_tune():
    """The g10 solve and a small tune from cold substrate caches."""
    checksum = run_job(G10)["checksum"]
    clear_substrate_caches()
    return checksum, autotuner.tune_tiled(HASWELL_EP, 16, 1).describe()


# -- the fork table ------------------------------------------------------------


def _counter():
    return telemetry.METRICS.counter("fork_rule_total", "Fork stress test bumps",
                                     labelnames=("side",))


def _loader(name):
    """A library's load lock, held mid-load: the memo entry is gone too,
    so the child loads the library itself."""
    def row(ctx):
        ctx.reload_native(name)
        return nativelib._LOAD_LOCKS[name], None
    return row


def _module(get_lock):
    """A module-level lock that the child's workload takes anyway."""
    return lambda ctx: (get_lock(), None)


def _instance(make, touch):
    """The lock of an object made here; the child touches that object."""
    def row(ctx):
        obj = make(ctx)
        return obj._lock, lambda: touch(obj)
    return row


def _gateway(ctx):
    server = make_gateway(NodeRegistry(["http://127.0.0.1:9"]))
    ctx.finalizers.append(server.server_close)
    return server


def _pool(ctx):
    """The idle connection list, holding a connection: the child starts
    with none (its sockets would be the parent's)."""
    node = ("127.0.0.1", 9)
    router._IDLE[node] = [http.client.HTTPConnection(*node)]
    ctx.finalizers.append(lambda: router._IDLE.pop(node, None))

    def touch():
        assert router._IDLE == {}, router._IDLE
    return router._IDLE_LOCK, touch


def _connections(ctx):
    server = _gateway(ctx)
    return server._open_lock, server.server_close


#: Row of the fork table -> ``row(ctx)`` returning the lock to hold and
#: what the child does with its object beyond the common workload.
ROWS = {
    "nativelib._lru_kernel": _loader("_lru_kernel"),
    "nativelib._des_kernel": _loader("_des_kernel"),
    "nativelib._thiim_kernel": _loader("_thiim_kernel"),
    "streams.table": _module(lambda: streams._TABLE_LOCK),
    "counters.substrate": _module(lambda: SUBSTRATE_COUNTERS._lock),
    "faults.plan": _module(lambda: faults.active()._lock),
    "metrics.registry": _module(lambda: telemetry.METRICS._lock),
    "metrics.instrument": _instance(lambda ctx: _counter(),
                                    lambda c: c.labels(side="child").inc()),
    "metrics.series": _instance(lambda ctx: _counter()._child(("parent",)),
                                lambda s: _counter()._inc(s, 1.0)),
    "progress.hub": _module(lambda: telemetry.PROGRESS._lock),
    "progress.ring": _instance(lambda ctx: RingBuffer(),
                               lambda r: r.append({"kind": "step"})),
    "service.registry": _instance(lambda ctx: PlanRegistry(), PlanRegistry.counters),
    "service.store": _instance(lambda ctx: ResultStore(), lambda s: s.get("absent")),
    "fleet.nodes": _instance(lambda ctx: NodeRegistry(["http://127.0.0.1:9"]),
                             lambda r: r.urls),
    "fleet.bucket": _instance(lambda ctx: TokenBucket(10.0, 10.0), TokenBucket.try_take),
    "fleet.quotas": _instance(lambda ctx: TenantQuotas(10.0),
                              lambda q: q.try_take("tenant")),
    "fleet.gateway": _instance(_gateway, lambda g: g.remember_spec("job", {})),
    "fleet.pool": _pool,
    "service.connections": _connections,
}


def test_every_lock_is_a_row_of_the_table():
    """The stress test covers every lock the package makes, and DESIGN.md
    states the rule of each."""
    root = pathlib.Path(repro.__file__).parent
    made = {row for path in root.rglob("*.py")
            for row in re.findall(r'forksafe\.lock\(\s*"([\w.]+)"', path.read_text())}
    made |= {f"nativelib.{name}" for name in nativelib.SOURCES}
    assert made == set(ROWS)
    design = (root.parents[1] / "DESIGN.md").read_text()
    assert [row for row in ROWS if f"`{row}`" not in design] == []


@pytest.fixture(scope="module")
def expected():
    """The child's solve and tune results, and the seconds a second run
    takes here (its tune is cold: ~0.1 s on the compiled engines, ~1.4 s
    on the pure-Python ones)."""
    _solve_and_tune()
    t0 = time.perf_counter()
    return _solve_and_tune(), time.perf_counter() - t0


def _child(conn, touch):
    t0 = time.perf_counter()
    table = id(streams._TABLE)
    telemetry.fork_child()
    checksum, point = _solve_and_tune()
    fired = faults.hit(SITE)
    telemetry.count_event("fork_rule")
    if touch is not None:
        touch()
    conn.send((time.perf_counter() - t0, table, checksum, point, fired,
               telemetry.resilience_counts().get("fork_rule"), forksafe.forked))


class _Ctx:
    def __init__(self, reload_native):
        self.reload_native = reload_native
        self.finalizers = []


@pytest.mark.parametrize("row", sorted(ROWS))
def test_a_fork_while_a_lock_is_held(row, expected, reload_native):
    """A child forked while another thread holds ``row``'s lock finds it
    released: it finishes its work, with the parent's results, at most
    2 s slower than the parent.  A child forked with the shape table's
    lock held starts from an empty table (an append may have been torn)."""
    (want, work_s), ctx = expected, _Ctx(reload_native)
    faults.install(faults.FaultPlan.parse(f"{SITE}:corrupt"))
    held, release = threading.Event(), threading.Event()
    try:
        lock, touch = ROWS[row](ctx)

        def hold():
            with lock:
                held.set()
                release.wait(60)

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        assert held.wait(10)
        table = id(streams._TABLE)
        fork = mp.get_context("fork")
        parent, child = fork.Pipe()
        proc = fork.Process(target=_child, args=(child, touch))
        proc.start()
        child.close()  # a child that dies reads as EOF here
        try:
            assert parent.poll(10 * CHILD_S + work_s), f"child blocked on {row}"
            seconds, child_table, *results, forked = parent.recv()
        finally:
            release.set()
            holder.join(10)
            proc.join(10)
            if proc.is_alive():
                proc.kill()
    finally:
        faults.uninstall()
        for close in ctx.finalizers:
            close()
    assert results == [*want, "corrupt", 1]
    assert forked and not forksafe.forked
    assert (child_table != table) == (row == "streams.table")
    assert seconds < work_s + CHILD_S, (seconds, work_s)


def _tiled_child(conn):
    borrowed = thiim_int("thiim_borrowed").value if kernels._native() else 0
    conn.send((run_job(G10_TILED)["checksum"], borrowed,
               len(os.listdir("/proc/self/task"))))


def test_a_fork_while_another_thread_streams():
    """The kernel's fork handler drops the job queue and the window with the
    helpers: a child forked while another thread holds a stream window
    open (the group borrowed, ops maybe queued) finds the group free and
    finishes a tiled g10 solve alone, with the parent's checksum."""
    want = run_job(G10_TILED)["checksum"]
    held, release = threading.Event(), threading.Event()

    def hold():
        fields = random_state(Grid(nz=40, ny=20, nx=20), 3)
        with kernels.stream():
            spatial_blocked_sweep(fields, random_coefficients(fields.grid, seed=4), 1, 5)
            held.set()
            release.wait(60)

    holder = threading.Thread(target=hold, daemon=True)
    holder.start()
    assert held.wait(30)
    fork = mp.get_context("fork")
    parent, child = fork.Pipe()
    proc = fork.Process(target=_tiled_child, args=(child,))
    proc.start()
    child.close()
    try:
        assert parent.poll(60), "child blocked on the stream window"
        checksum, borrowed, threads = parent.recv()
    finally:
        release.set()
        holder.join(30)
        proc.join(10)
        if proc.is_alive():
            proc.kill()
    assert (checksum, borrowed, threads) == (want, 0, 1)


# -- one load-once path --------------------------------------------------------


def test_concurrent_first_loads_share_one_build(tmp_path, monkeypatch, reload_native):
    """Two threads asking at once on a cold build directory both get the
    compiled replay kernel, the same handle: the second waits for the
    first one's compile instead of reading a load still in flight."""
    if not native_available():
        pytest.skip("no compiled replay kernel here")
    monkeypatch.setenv("REPRO_NATIVE_BUILD_DIR", str(tmp_path))
    assert config.get("REPRO_NATIVE_BUILD_DIR") == str(tmp_path)
    reload_native("_lru_kernel")
    got = {}

    def first_load(i):
        got[i] = native_available(), nativelib.load("_lru_kernel", native._bind)

    run_concurrently(first_load, range(2))
    assert got[0][0] and got[1][0]
    assert got[0][1] is got[1][1]
    assert list(tmp_path.glob("_lru_kernel-*.so"))


# -- shared caches under threads -----------------------------------------------


@pytest.fixture
def cold_table():
    clear_substrate_caches()
    yield
    clear_substrate_caches()


def test_concurrent_emitters_of_different_shapes_equal_serial(cold_table):
    """Four emitters resolving schedules of different D_w and B_z (mostly
    different shapes) into the one shape table at once: every cache sees the serial
    traffic, and every shape holds the serial segments."""
    cases = ((4, 2), (6, 3), (8, 4), (10, 5))
    ny, nz, nx = 36, 20, 8

    def emit(case):
        dw, bz = case
        emitter = streams.BatchStreamEmitter(
            make_lru(2e5, streams.BatchStreamEmitter.key_space(ny, nz)), ny, nz, nx)
        for tile in enumerate_tiles(ny, 8, dw).values():
            rows = tile_rows(tile, nz, bz)
            rows[0] &= 1
            emitter.emit_rows(*rows)
        return emitter.cache.stats

    def shapes():
        table = streams.shape_table()
        return {key: table.segments()[lo:hi].tobytes()
                for key, (lo, hi, _) in table.shapes.items()}

    serial = {case: emit(case) for case in cases}
    want = shapes()
    clear_substrate_caches()
    got = {}
    run_concurrently(lambda case: got.__setitem__(case, emit(case)), cases)
    assert got == serial
    assert shapes() == want


def test_clipped_ops_under_eviction_equal_serial(kernel_backend):
    """Four spatially blocked sweeps of different block sizes at once
    clip more boxes than ``_clipped_ops`` keeps, so threads evict each
    other's entries: each result equals its serial run bytewise."""
    grid = Grid(nz=12, ny=12, nx=6, periodic=(False, True, True))
    coeffs = random_coefficients(grid, seed=3)
    cases = ((1, 1), (1, 2), (2, 3), (3, 1))

    def sweep(case):
        fields = random_state(grid, 5)
        spatial_blocked_sweep(fields, coeffs, 2, *case)
        return _bits(fields)

    serial = {case: sweep(case) for case in cases}
    kernels._clipped_ops.cache_clear()
    got = {}
    run_concurrently(lambda case: got.__setitem__(case, sweep(case)), cases)
    assert got == serial
    info = kernels._clipped_ops.cache_info()
    assert info.currsize == info.maxsize


def test_bound_ops_across_plan_switches_on_threads(kernel_backend):
    """Two tiled drivers of different D_w take turns over one solver, each
    driver on its own thread: the kernels' per-state binding
    (``FieldState._bound``) serves both plans, and the fields equal the
    same turns taken on one thread bytewise."""
    turns = 6

    def drivers():
        solver = service_solver("tandem", 16, tiled=True)
        return solver, (TiledTHIIM(solver, dw=4, bz=2), TiledTHIIM(solver, dw=6, bz=3))

    solver, pair = drivers()
    for turn in range(turns):
        pair[turn % 2].run(1)
    serial = _bits(solver.fields)

    solver, pair = drivers()
    done = [0]
    cv = threading.Condition()

    def take_turns(side):
        for turn in range(side, turns, 2):
            with cv:
                assert cv.wait_for(lambda: done[0] == turn, timeout=60)
            pair[side].run(1)
            with cv:
                done[0] += 1
                cv.notify_all()

    run_concurrently(take_turns, (0, 1))
    assert done[0] == turns
    assert _bits(solver.fields) == serial
    assert (solver.fields._bound is not None) == (kernel_backend == "native")
