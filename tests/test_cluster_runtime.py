"""Tests for the real-multiprocess distributed runtime: bit-identity of
rank-decomposed solves with the single-domain sweep, halo accounting
against the cost model, the data plane (shared arrays, per-edge
signalling and its ping-pong invariant, typed timeouts, orphaned ranks,
the control-pipe payload bound), the ``kind="distributed"`` job path,
and rank-crash resume through the scheduler."""

import multiprocessing as mp
import os
import pickle
import random
import signal
import time
from multiprocessing.connection import Connection

import numpy as np
import pytest

from repro.cluster import RankLayout, step_bytes_by_axis
from repro.cluster.runtime import run_distributed
from repro.cluster.transport import ShmTransport, edge_shapes, shared_arrays
from repro.resilience import faults
from repro.resilience.checkpoint import CheckpointManager, solver_token
from repro.resilience.errors import InjectedFault, RankCrash
from repro.fdfd import ALL_COMPONENTS, Grid, PlaneWaveSource, PMLSpec, THIIMSolver
from repro.fdfd.presets import preset_scene
from repro.service.jobs import JobSpec, run_job


#: The transports that exist, by the name ``info["transport"]`` reports
#: (the ``pipe`` fallback went with PR 24; the case ids stayed).
TRANSPORTS = ["shm"]


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for var in ("REPRO_FAULTS", "REPRO_CHECKPOINT_EVERY",
                "REPRO_CHECKPOINT_DIR"):
        monkeypatch.delenv(var, raising=False)


def _make_solver(n=10, periodic=(False, True, True)):
    """The served-solve geometry (untiled): z doubled, absorber scene."""
    nz = 2 * n
    grid = Grid(nz=nz, ny=n, nx=n, periodic=periodic)
    return THIIMSolver(
        grid, 2 * np.pi / 12.0, scene=preset_scene("absorber", nz),
        source=PlaneWaveSource(z_plane=max(nz // 8, 12), z_width=2.0),
        pml={"z": PMLSpec(thickness=max(nz // 10, 6))},
    )


def _checkpoint(solver, directory):
    """The point solve's manager: a distributed snapshot is a point
    snapshot, valid under any layout."""
    return CheckpointManager(str(directory), "cluster", every=20,
                             token=solver_token(solver))


class TestRunDistributed:
    def test_one_rank_equals_plain_solver(self):
        """A 1x1x1 layout is the scalar solve, object for object."""
        scalar = _make_solver().solve(tol=1e-12, max_steps=60)
        solver = _make_solver()
        layout = RankLayout(solver.grid, 1, 1, 1)
        result, info = run_distributed(layout, solver, tol=1e-12,
                                       max_steps=60)
        assert result.iterations == scalar.iterations
        assert result.residual == scalar.residual
        assert result.converged == scalar.converged
        assert result.residual_history == scalar.residual_history
        for name in ALL_COMPONENTS:
            assert np.array_equal(result.fields[name], scalar.fields[name])
        assert info["ranks"] == 1 and len(info["pids"]) == 1

    @pytest.mark.parametrize("dims", [(2, 1, 1), (1, 2, 1), (1, 1, 2),
                                      (2, 2, 1)])
    def test_bitwise_equality_real_processes(self, dims):
        scalar = _make_solver().solve(tol=1e-12, max_steps=60)
        solver = _make_solver()
        layout = RankLayout(solver.grid, *dims)
        result, info = run_distributed(layout, solver, tol=1e-12,
                                       max_steps=60)
        # Real OS processes, not threads: distinct child pids.
        assert len(set(info["pids"])) == layout.n_ranks
        assert os.getpid() not in info["pids"] or layout.n_ranks == 1
        assert result.residual_history == scalar.residual_history
        for name in ALL_COMPONENTS:
            assert np.array_equal(result.fields[name], scalar.fields[name])

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_both_transports_bit_identical(self, transport):
        scalar = _make_solver().solve(tol=1e-12, max_steps=40)
        solver = _make_solver()
        result, info = run_distributed(RankLayout(solver.grid, 2, 1, 1),
                                       solver, tol=1e-12, max_steps=40)
        assert info["transport"] == transport
        for name in ALL_COMPONENTS:
            assert np.array_equal(result.fields[name], scalar.fields[name])

    def test_halo_bytes_match_cost_model(self):
        solver = _make_solver()
        layout = RankLayout(solver.grid, 2, 2, 1)
        _, info = run_distributed(layout, solver, tol=1e-12, max_steps=40)
        expected = step_bytes_by_axis(layout)
        measured = info["halo"]["bytes_by_axis"]  # JSON-safe string keys
        assert measured == {str(a): 40 * b for a, b in expected.items()}

    def test_mismatched_solver_rejected(self):
        solver = _make_solver()
        other = Grid(nz=24, ny=12, nx=12)
        with pytest.raises(ValueError):
            run_distributed(RankLayout(other, 2, 1, 1), solver,
                            tol=1e-6, max_steps=20)
        # Same shape, different periodicity: also rejected (ghost
        # clipping depends on it).
        twisted = Grid(nz=solver.grid.nz, ny=solver.grid.ny,
                       nx=solver.grid.nx, periodic=(False, False, False))
        with pytest.raises(ValueError):
            run_distributed(RankLayout(twisted, 2, 1, 1), solver,
                            tol=1e-6, max_steps=20)


def _stat(pid):
    """``(state, ppid)`` of a process from /proc; ``None`` once it is
    gone (a zombie counts as gone: nobody may be left to reap it)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state, ppid = f.read().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return None
    return None if state == "Z" else (state, int(ppid))


def _alive(pid):
    return _stat(pid) is not None


def _children(pid):
    """Live child pids of ``pid``."""
    pids = [int(entry) for entry in os.listdir("/proc") if entry.isdigit()]
    return [p for p in pids if (_stat(p) or (None, None))[1] == pid]


def _gone_within(pids, seconds):
    deadline = time.monotonic() + seconds
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not any(_alive(p) for p in pids)


def _transport(layout, timeout_s):
    return ShmTransport(layout, shared_arrays(edge_shapes(layout)), timeout_s)


class TestTransport:
    LAYOUT = RankLayout(Grid(nz=8, ny=4, nx=6), 2, 1, 1)

    def test_shared_arrays_are_one_zeroed_mapping(self):
        arrays = shared_arrays({"a": (2, 3), "b": (4,), "none": (0, 5)})
        assert arrays["a"].shape == (2, 3) and arrays["b"].shape == (4,)
        assert all(a.dtype == np.complex128 and not a.any()
                   for a in arrays.values())
        arrays["a"][...] = 1 + 2j
        assert not arrays["b"].any()            # carved back to back,
        assert arrays["a"].base is not None     # over one mapping

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_send_then_recv_round_trips_the_faces(self, kind):
        transport = _transport(self.LAYOUT, 5.0)
        assert transport.name == kind
        for key, shape in edge_shapes(self.LAYOUT).items():
            faces = [np.full(shape[1:], i + 1j) for i in range(shape[0])]
            transport.send(key, faces)
            assert np.array_equal(transport.recv(key), np.stack(faces))

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_unposted_edge_times_out_as_rank_crash(self, kind):
        """A stalled peer is the same (retryable) fault as a dead one."""
        transport = _transport(self.LAYOUT, 0.05)
        assert transport.name == kind
        key = ((0, 0, 0), 0, +1)
        with pytest.raises(RankCrash, match=r"\(0, 0, 0\), 0, 1") as err:
            transport.recv(key)
        assert err.value.retryable and err.value.details["edge"] == list(key)

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_rank_in_a_halo_wait_leaves_when_its_parent_is_killed(self, kind):
        """``timeout_s`` is a minute: only the parent check frees it."""
        ctx = mp.get_context("fork")
        here, there = ctx.Pipe()

        def parent():
            transport = _transport(self.LAYOUT, 60.0)
            pid = os.fork()
            if pid == 0:
                try:
                    transport.recv(((0, 0, 0), 0, +1))
                finally:
                    os._exit(0)
            there.send(pid)
            time.sleep(60.0)

        proc = ctx.Process(target=parent)
        proc.start()
        try:
            assert here.poll(10.0)
            rank = here.recv()
            time.sleep(0.2)             # let it block
            assert _alive(rank)
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(10.0)
        assert _gone_within([rank], 2.0)


class TestPingPong:
    """Attack on the invariant ``cluster/transport.py`` states: edge
    buffers are reused every sweep with no acknowledgement, safe only
    because the two edges of a rank interface alternate strictly."""

    @staticmethod
    def _skew(monkeypatch, cls, seed):
        """Seeded random stalls before a rank packs an edge and between
        receiving a block and unpacking it (the window in which a sender
        that ran ahead would overwrite the buffer being read)."""
        send, recv = cls.send, cls.recv
        calls = {}

        def stall(key, what):
            n = calls[key, what] = calls.get((key, what), 0) + 1
            rng = random.Random(hash((seed, key, what, n)))
            if rng.random() < 0.3:
                time.sleep(rng.random() * 2e-3)

        def slow_send(self, key, faces):
            stall(key, 0)
            send(self, key, faces)

        def slow_recv(self, key):
            block = recv(self, key)
            stall(key, 1)
            return block

        monkeypatch.setattr(cls, "send", slow_send)
        monkeypatch.setattr(cls, "recv", slow_recv)

    # 4x1x1 oversubscribes a 2-CPU box; 1x2x1 and 1x1x2 put two ranks on
    # a periodic axis, so both interfaces join the same two peers.
    @pytest.mark.parametrize("dims", [(2, 1, 1), (3, 1, 1), (4, 1, 1),
                                      (1, 2, 1), (1, 1, 2), (2, 2, 1)])
    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_skewed_ranks_still_equal_single_domain(self, kind, dims,
                                                    monkeypatch):
        self._skew(monkeypatch, ShmTransport, seed=20260806 + sum(dims))
        scalar = _make_solver().solve(tol=1e-12, max_steps=40)
        solver = _make_solver()
        layout = RankLayout(solver.grid, *dims)
        result, info = run_distributed(layout, solver, tol=1e-12,
                                       max_steps=40)
        assert info["transport"] == kind
        assert result.residual_history == scalar.residual_history
        for name in ALL_COMPONENTS:
            assert np.array_equal(result.fields[name], scalar.fields[name])
        assert info["halo"]["bytes_by_axis"] == {
            str(a): 40 * b for a, b in step_bytes_by_axis(layout).items()}


class TestRankErrors:
    def test_a_rank_error_comes_home_typed_and_no_rank_outlives_it(self):
        """A rank that raises sends its typed error home: the parent
        raises it naming the rank (not a :class:`RankCrash` for the
        death that follows), and stops every rank before it returns."""
        before = set(_children(os.getpid()))
        solver = _make_solver()
        faults.install(faults.FaultPlan.parse("cluster.rank.1:raise"))
        try:
            with pytest.raises(InjectedFault, match="^rank 1,0,0: "):
                run_distributed(RankLayout(solver.grid, 2, 1, 1), solver,
                                tol=1e-12, max_steps=40)
        finally:
            faults.uninstall()
        assert set(_children(os.getpid())) <= before


class TestControlPlane:
    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_no_array_rides_a_control_pipe(self, kind, monkeypatch, tmp_path):
        """Every control message, either direction, of a checkpointed
        solve pickles to < 4 KiB at g16 (one owned slab is 64 KiB); an
        oversized send fails the solve, in the parent or in a rank."""
        send = Connection.send
        sent = []

        def bounded_send(self, obj):
            size = len(pickle.dumps(obj))
            assert size < 4096, f"{size} B control message: {str(obj)[:80]}"
            sent.append(obj.get("type"))
            send(self, obj)

        monkeypatch.setattr(Connection, "send", bounded_send)
        scalar = _make_solver(16).solve(tol=1e-12, max_steps=60)
        solver = _make_solver(16)
        result, info = run_distributed(
            RankLayout(solver.grid, 2, 1, 1), solver, tol=1e-12, max_steps=60,
            checkpoint=_checkpoint(solver, tmp_path))
        assert info["saves"] == 2 and info["transport"] == kind
        commands = 3 * ["step"] + ["stop"]
        assert sent == [c for c in commands for _rank in range(2)]
        for name in ALL_COMPONENTS:
            assert np.array_equal(result.fields[name], scalar.fields[name])
        with pytest.raises(AssertionError, match="control message"):
            bounded_send(None, {"type": "check", "fields": np.zeros(512)})

    def test_a_resume_at_the_final_boundary_forks_no_rank(self, tmp_path):
        """A resume at the final boundary runs zero sweeps on a fresh
        (all-zero) solver: no rank is forked, and the fields and history
        are those of a run to that boundary, restored by the one
        checkpoint loop.  The loop saves nothing at its own budget, so a
        longer run leaves the snapshot."""
        def solve(max_steps, checkpoint=True):
            solver = _make_solver()
            return run_distributed(
                RankLayout(solver.grid, 2, 1, 1), solver, tol=1e-12,
                max_steps=max_steps,
                checkpoint=_checkpoint(solver, tmp_path) if checkpoint else None)

        first, _ = solve(40, checkpoint=False)
        _, info = solve(60)
        assert info["resumed_from"] is None and info["saves"] == 2
        again, info = solve(40)
        assert info["resumed_from"] == 40 and again.iterations == 40
        assert info["pids"] == []
        assert again.residual_history == first.residual_history
        assert any(again.fields[name].any() for name in ALL_COMPONENTS)
        for name in ALL_COMPONENTS:
            assert np.array_equal(again.fields[name], first.fields[name])


class TestDistributedJobSpec:
    def test_requires_ranks(self):
        with pytest.raises(ValueError, match="ranks"):
            JobSpec(kind="distributed", grid=10)

    def test_ranks_only_for_distributed(self):
        with pytest.raises(ValueError, match="ranks"):
            JobSpec(kind="solve", grid=10, ranks="2")

    def test_distributed_must_be_untiled(self):
        with pytest.raises(ValueError, match="tiled"):
            JobSpec(kind="distributed", grid=10, ranks="2", tiled=True)

    @pytest.mark.parametrize("bad", ["0", "2x2", "axb", "-1", "2x2x0"])
    def test_bad_ranks_rejected(self, bad):
        with pytest.raises(ValueError):
            JobSpec(kind="distributed", grid=10, ranks=bad)

    def test_ranks_canonicalized(self):
        spec = JobSpec(kind="distributed", grid=10, ranks=" 2X2x1 ")
        assert spec.ranks == "2x2x1"

    def test_identity_omits_ranks_when_none(self):
        """Pre-existing solve job ids must not shift."""
        spec = JobSpec(kind="solve", grid=10)
        assert "ranks" not in spec.identity()

    def test_job_ids_namespaced_by_layout(self):
        a = JobSpec(kind="distributed", grid=10, ranks="2x1x1")
        b = JobSpec(kind="distributed", grid=10, ranks="1x2x1")
        plain = JobSpec(kind="solve", grid=10)
        assert len({a.job_id, b.job_id, plain.job_id}) == 3

    def test_single_domain_spec(self):
        spec = JobSpec(kind="distributed", grid=10, ranks="2x2x1")
        plain = spec.single_domain_spec()
        assert plain.kind == "solve" and plain.ranks is None
        assert plain.grid == spec.grid and plain.tol == spec.tol


class TestDistributedJobs:
    @pytest.mark.parametrize("ranks", ["2x1x1", "2"])
    def test_run_job_matches_single_domain(self, ranks):
        spec = JobSpec(kind="distributed", preset="absorber", grid=10,
                       tol=1e-12, max_steps=60, ranks=ranks)
        assert run_job(spec) == run_job(spec.single_domain_spec())

    def test_infeasible_layout_raises(self):
        # 10-cell axes cannot host 8 ranks on one axis.
        spec = JobSpec(kind="distributed", grid=10, ranks="1x8x1",
                       tol=1e-6, max_steps=20)
        with pytest.raises(ValueError):
            run_job(spec)


class TestRankCrashResume:
    def test_killed_worker_leaves_no_ranks_and_the_retry_resumes(
            self, monkeypatch, tmp_path):
        """SIGKILL of a process-mode worker mid-solve (no ``finally``
        runs, no EOF reaches the ranks): every rank is gone within 2 s,
        and the scheduler's retry resumes bit-identically."""
        from repro.service import Scheduler
        from repro.service.jobs import JobState

        spec = JobSpec(kind="distributed", preset="absorber", grid=12,
                       tol=1e-12, max_steps=3000, max_retries=2,
                       ranks="2x1x1")
        clean = run_job(spec)

        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "100")
        ckpt_dir = str(tmp_path)
        snapshot = os.path.join(ckpt_dir, f"ckpt-{spec.job_id}.npz")
        sched = Scheduler(workers=1, mode="process", retry_base_s=0.001,
                          checkpoint_dir=ckpt_dir).start()
        try:
            job = sched.submit(spec)
            deadline = time.monotonic() + 60.0
            while not os.path.exists(snapshot):   # mid-solve, resumable
                assert time.monotonic() < deadline and not job.terminal
                time.sleep(0.005)
            workers = [p for p in _children(os.getpid()) if _children(p)]
            assert len(workers) == 1
            ranks = _children(workers[0])
            assert len(ranks) == 2
            os.kill(workers[0], signal.SIGKILL)
            assert _gone_within(ranks, 2.0)
            sched.wait(job.id, timeout=300.0)
        finally:
            sched.stop()
        assert job.state == JobState.DONE, job.error
        assert sched.n_crashes >= 1 and job.attempts >= 2
        assert job.resumed_from is not None and job.resumed_from >= 100
        assert job.result == clean
