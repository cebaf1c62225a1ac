"""Real multiprocess distributed THIIM: ranks, halos, checkpoints.

The promotion of :mod:`repro.cluster.distributed` from simulated ranks
to actual OS processes.  One parent (the scheduler's worker, or a thread
worker's call frame) forks ``layout.n_ranks`` rank processes; each rank
owns the same ghosted slab a simulated ``_Rank`` would, exchanges halos
through :mod:`repro.cluster.transport` (shared memory), and advances the
exact Fig. 3 half-step sequence with the shared
:func:`~repro.cluster.distributed.component_region` clipping.

Parent and ranks talk over a *control plane* -- one pipe per rank,
small dicts only: ``hello/begin/step/save/stop``, stats, typed errors --
and the shared-memory *data plane* of :mod:`repro.cluster.transport`.

Bit-identity with the single-domain sweep is preserved by construction:

* Ranks are forked from a parent that already built the full global
  :class:`~repro.fdfd.thiim.THIIMSolver`, so every slab is cut from the
  *same* coefficient arrays a scalar solve uses.
* Ranks never compute residuals.  The parent runs the same convergence
  loop as every other entry point (:func:`repro.fdfd.thiim._converge`);
  its ``advance`` tells the ranks to step, each writes its owned slabs
  into the field plane, and the parent copies the plane into its global
  :class:`~repro.fdfd.fields.FieldState` -- so the residual is the
  full-domain reduction of :meth:`THIIMSolver.solve`, which is what
  makes the residual history (and hence the stop step) identical.

Resilience: each rank snapshots its slab through the ordinary
:class:`~repro.resilience.checkpoint.CheckpointManager` (name and token
namespaced by layout and coordinate), and the parent commits a *marker*
file once every rank has acknowledged a boundary -- a group checkpoint
is only resumable when all of its members exist at the same step.
:class:`_GroupCheckpoint` puts that behind the manager's
``resume/due/save``, which is all the loop knows.  A rank death (or a
halo wait that times out) surfaces as :class:`~repro.resilience.errors.
RankCrash` (retryable); the scheduler's retry re-enters this module,
reads the marker, and resumes every rank from the committed boundary.
"""

from __future__ import annotations

import hashlib
import os
import time
from types import SimpleNamespace
from typing import Dict, Optional, Tuple

import numpy as np

from .. import config, telemetry
from ..fdfd.fields import FieldState
from ..fdfd.observables import relative_change
from ..fdfd.specs import (
    ALL_COMPONENTS,
    BYTES_PER_NUMBER,
    E_COMPONENTS,
    H_COMPONENTS,
)
from ..fdfd.thiim import SolveResult, _converge
from ..ioutil import atomic_write_json, read_json
from ..resilience import faults
from ..resilience.checkpoint import Checkpoint, CheckpointManager, solver_token
from ..resilience.errors import RankCrash, SolverDiverged, error_from_kind
from .decomposition import Coord, RankLayout
from .distributed import CommStats, _Rank
from .transport import (
    SYNC_TIMEOUT_S,
    WAIT_SLICE_S,
    ShmTransport,
    edge_shapes,
    shared_arrays,
)

__all__ = ["run_distributed", "clear_checkpoints", "MARKER_VERSION"]

#: 2: per-lane histories and loop extras, as in checkpoint payload v2.
MARKER_VERSION = 2


def _marker_path(directory: str, name: str) -> str:
    return os.path.join(directory, f"ckpt-{name}.cluster.json")


def _rank_token(base: str, coord: Coord) -> str:
    return hashlib.sha256(f"{base}:{coord}".encode()).hexdigest()[:32]


def _rank_name(name: str, coord: Coord) -> str:
    return f"{name}.r{coord[0]}-{coord[1]}-{coord[2]}"


def _rank_label(coord: Coord) -> str:
    return f"rank {coord[0]},{coord[1]},{coord[2]}"


def clear_checkpoints(layout: RankLayout, directory: Optional[str],
                      name: str) -> None:
    """Drop every rank snapshot and the group marker (result stored)."""
    if not directory:
        return
    paths = [os.path.join(directory, f"ckpt-{_rank_name(name, coord)}.npz")
             for coord in layout.coords()]
    for path in paths + [_marker_path(directory, name)]:
        try:
            os.unlink(path)
        except OSError:
            pass


class _SlabSnapshot:
    """Duck-typed ``fields`` adapter over one rank's owned slab, so a
    slab snapshot rides the ordinary :class:`CheckpointManager` (atomic
    write, token guard, quarantine) without a full :class:`Grid`."""

    __slots__ = ("grid", "_owned")

    def __init__(self, grid_meta, owned: Dict[str, np.ndarray]):
        self.grid = grid_meta
        self._owned = owned

    def __iter__(self):
        return iter(ALL_COMPONENTS)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._owned[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        self._owned[name][...] = value


# -- rank side -----------------------------------------------------------------


def _rank_edges(layout: RankLayout, coord: Coord):
    """This rank's halo edges, each set keyed by exchange direction: the
    transported edges it sends and receives, and its local self-edges (a
    periodic axis with a single rank: the ghost is our own far face)."""
    keys = list(edge_shapes(layout))

    def by_direction(edges):
        return {d: [key for key in edges if key[2] == d] for d in (-1, +1)}

    return (
        by_direction([k for k in keys if layout.neighbor(*k) == coord]),
        by_direction([k for k in keys if k[0] == coord]),
        by_direction([(coord, axis, d) for axis in range(3) for d in (-1, +1)
                      if layout.neighbor(coord, axis, d) == coord]))


def _pin_rank(index: int) -> Optional[int]:
    """Pin this rank to one CPU when ``REPRO_CLUSTER_PIN`` is set.

    Round-robin over the CPUs the process may already use (respects any
    outer cgroup/affinity mask).  Returns the pinned CPU id, or ``None``
    when pinning is off or unsupported -- pinning is an optimization
    hint, never a correctness requirement, so every failure is soft.
    """
    if not config.get("REPRO_CLUSTER_PIN"):
        return None
    try:
        cpus = sorted(os.sched_getaffinity(0))
        if not cpus:
            return None
        cpu = cpus[index % len(cpus)]
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def _rank_main(index: int, coord: Coord, layout: RankLayout, solver,
               transport, plane: Dict[str, np.ndarray], conn, attempt: int,
               group: Optional[CheckpointManager]) -> None:
    """Entry point of one rank process (fork: everything is inherited,
    the job context included).  Ranks publish no progress: the parent
    does; their spans and counts go home with the ``bye``."""
    faults.set_attempt(attempt)
    telemetry.fork_child()
    telemetry.disable()
    pinned_cpu = _pin_rank(index)

    def next_command() -> dict:
        # A SIGKILLed parent sends no EOF (this rank and its siblings
        # inherited copies of the pipe's far end): watch for reparenting.
        while not conn.poll(WAIT_SLICE_S):
            if transport.orphaned():
                os._exit(1)
        return conn.recv()

    try:
        sub = layout.subdomain(coord)
        rank = _Rank(layout.grid, sub, solver.fields, solver.coefficients)
        stats = CommStats()
        send_edges, recv_edges, self_edges = _rank_edges(layout, coord)

        def exchange(names: Tuple[str, ...], direction: int) -> None:
            for key in send_edges[direction]:
                src = rank.boundary(key[1], direction)
                transport.send(key, [rank.fields[name][src] for name in names])
            for _, axis, _ in self_edges[direction]:
                dst = rank.ghost(axis, direction)
                src = rank.boundary(axis, direction)
                for name in names:
                    rank.fields[name][dst] = rank.fields[name][src]
            for key in recv_edges[direction]:
                block = transport.recv(key)
                dst = rank.ghost(key[1], direction)
                for i, name in enumerate(names):
                    rank.fields[name][dst] = block[i]
            # Receiver-side accounting, as the simulated ranks and the
            # cost model keep it: a local wrap still moves a face.
            for _, axis, _ in recv_edges[direction] + self_edges[direction]:
                for _ in names:
                    stats.record(axis, sub.face_cells(axis) * BYTES_PER_NUMBER)

        def run_block(n: int) -> None:
            for _ in range(n):
                # H half step reads E at +1 -> high-face E ghosts.
                exchange(E_COMPONENTS, +1)
                rank.update(H_COMPONENTS)
                # E half step reads H at -1 -> low-face H ghosts.
                exchange(H_COMPONENTS, -1)
                rank.update(E_COMPONENTS)

        def publish() -> None:
            """This rank's half of the gather: owned slabs into the plane."""
            for name in ALL_COMPONENTS:
                plane[name][sub.own] = rank.owned(name)

        ckpt = snap = None
        if group is not None:
            ckpt = CheckpointManager(
                group.directory, name=_rank_name(group.name, coord),
                token=_rank_token(group.token, coord), every=group.every)
            grid_meta = SimpleNamespace(
                shape=tuple(sub.shape), spacing=tuple(layout.grid.spacing),
                periodic=tuple(layout.grid.periodic))
            snap = _SlabSnapshot(
                grid_meta, {n: rank.owned(n) for n in ALL_COMPONENTS})

        loaded = ckpt.load() if ckpt is not None else None
        conn.send({"type": "hello", "pid": os.getpid(), "cpu": pinned_cpu,
                   "resumed": None if loaded is None else int(loaded.steps)})
        msg = next_command()
        if msg.get("type") != "begin":
            raise RuntimeError(f"expected begin, got {msg!r}")
        if msg["restore"] and loaded is not None:
            for name in ALL_COMPONENTS:
                rank.owned(name)[...] = loaded.arrays[name]
            ckpt.resumed_from = loaded.steps
            publish()
        conn.send({"type": "ready"})

        while True:
            msg = next_command()
            t = msg.get("type")
            if t == "step":
                faults.hit("cluster.rank")
                faults.hit(f"cluster.rank.{index}")
                with telemetry.span(f"{_rank_label(coord)} sweep", "cluster",
                                    args={"n": msg["n"]}):
                    run_block(msg["n"])
                publish()
                conn.send({"type": "check", "stats": stats.to_dict()})
            elif t == "save":
                path = None if ckpt is None else ckpt.save(
                    snap, msg["steps"], msg["history"])
                conn.send({"type": "saved", "ok": path is not None})
            elif t == "stop":
                conn.send({"type": "bye", "stats": stats.to_dict(),
                           "telemetry": telemetry.child_report()})
                break
            else:
                raise RuntimeError(f"unknown command {t!r}")
        conn.close()
        os._exit(0)
    except EOFError:
        os._exit(1)
    except BaseException as exc:  # surface typed errors to the parent
        try:
            conn.send({"type": "error", "kind": type(exc).__name__,
                       "message": str(exc),
                       "telemetry": telemetry.child_report()})
        except OSError:
            pass
        os._exit(1)


# -- parent side ---------------------------------------------------------------


def _recv(coord: Coord, conns: Dict[Coord, object],
          procs: Dict[Coord, object], timeout_s: float) -> dict:
    """One checked message from a rank, watching *every* rank's health
    (a dead sibling stalls its neighbours' halo waits, so waiting on one
    pipe must not mask another rank's crash; clean exits don't count)."""
    conn = conns[coord]
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            if conn.poll(0.05):
                return _check_payload(conn.recv(), coord)
            if procs[coord].exitcode is not None:
                if conn.poll(0.2):
                    return _check_payload(conn.recv(), coord)
                raise RankCrash(
                    f"rank {coord} exited with code "
                    f"{procs[coord].exitcode} mid-solve",
                    coord=list(coord), exitcode=procs[coord].exitcode)
        except (EOFError, OSError):
            raise RankCrash(
                f"rank {coord} closed its pipe mid-solve", coord=list(coord))
        for c, proc in procs.items():
            if c == coord or proc.exitcode in (None, 0):
                continue
            # Prefer the sibling's own typed error, if it sent one
            # before dying; otherwise report the death itself.
            try:
                if conns[c].poll(0.1):
                    _check_payload(conns[c].recv(), c)
            except (EOFError, OSError):
                pass
            raise RankCrash(
                f"rank {c} exited with code {proc.exitcode} mid-solve",
                coord=list(c), exitcode=proc.exitcode)
        if time.monotonic() > deadline:
            raise RankCrash(
                f"rank {coord} unresponsive for {timeout_s:.0f}s",
                coord=list(coord))


def _check_payload(msg: dict, coord: Coord) -> dict:
    if msg.get("type") == "error":
        telemetry.merge_child(msg.get("telemetry"), label=_rank_label(coord))
        raise error_from_kind(msg.get("kind"),
                              f"rank {coord}: {msg.get('message')}")
    return msg


class _GroupCheckpoint(CheckpointManager):
    """A rank group's snapshots as one :class:`CheckpointManager`, which
    is all the convergence loop knows: cadence, resume bookkeeping and
    reports are inherited, anchored on the group *marker* file.

    ``save`` has every rank snapshot its own slab and commits the marker
    (the loop state: steps, histories, extras) once all acknowledged;
    ``load`` is the committed boundary :meth:`agree` accepted because
    the marker and *every* rank snapshot name the same step -- anything
    else restarts from sweep 0 (safe and still bit-identical:
    determinism makes restarts free).
    """

    def __init__(self, directory: str, name: str, token: str, every: int,
                 layout: RankLayout, fields: FieldState, command):
        super().__init__(directory, name, token, every)
        self.path = _marker_path(directory, name)
        self.layout = layout
        #: The parent's global fields (the restored state is gathered
        #: there) and ``command(msg) -> {coord: reply}`` to the ranks.
        self.fields = fields
        self.command = command
        self.committed: Optional[dict] = None

    def agree(self, rank_steps) -> bool:
        """Whether to restore: every rank loaded the committed boundary."""
        doc = read_json(self.path)
        if (isinstance(doc, dict) and doc.get("version") == MARKER_VERSION
                and doc.get("token") == self.token
                and isinstance(doc.get("steps"), int)
                and all(s == doc["steps"] for s in rank_steps)):
            self.committed = doc
        return self.committed is not None

    def load(self) -> Optional[Checkpoint]:
        doc = self.committed
        if doc is None:
            return None
        return Checkpoint(
            arrays=self.fields.components(), steps=doc["steps"],
            history=doc["history"], token=doc["token"], extras=doc["extras"])

    def save(self, stack, steps: int, history: list, extras: dict) -> None:
        acks = self.command({"type": "save", "steps": steps,
                             "history": history})
        if all(ack.get("ok") for ack in acks.values()):
            atomic_write_json(
                self.path,
                {"version": MARKER_VERSION, "token": self.token,
                 "steps": steps, "history": history, "extras": extras,
                 "layout": list(self.layout.dims)},
                checksum=True)
            self.saves += 1
            self.last_saved_steps = steps
            self._publish()


def run_distributed(
    layout: RankLayout,
    solver,
    tol: float,
    max_steps: int,
    check_every: int = 20,
    name: str = "cluster",
    checkpoint_dir: Optional[str] = None,
    every: int = 0,
    attempt: int = 1,
    timeout_s: float = SYNC_TIMEOUT_S,
    on_divergence: str = "return",
) -> Tuple[SolveResult, Dict]:
    """Solve ``solver``'s problem across real rank processes.

    Returns ``(result, info)`` where ``result`` is a plain
    :class:`SolveResult` (``solver.fields``, bit-identical to the scalar
    sweep) and ``info`` carries the cluster provenance: pids, transport,
    merged halo stats, resume point and group-checkpoint saves.
    """
    import multiprocessing as mp

    if tuple(solver.grid.shape) != tuple(layout.grid.shape):
        raise ValueError("solver grid does not match the layout's grid")
    if tuple(solver.grid.periodic) != tuple(layout.grid.periodic):
        raise ValueError("solver periodicity does not match the layout's grid")
    if check_every < 1:
        raise ValueError("check_every must be >= 1")

    coords = list(layout.coords())
    fields = solver.fields
    # The data plane (twelve global fields + one block per halo edge),
    # created before the fork so every rank inherits it.
    shapes = dict.fromkeys(ALL_COMPONENTS, fields.grid.shape)
    plane = shared_arrays({**shapes, **edge_shapes(layout)})
    transport = ShmTransport(layout, plane, timeout_s=timeout_s)
    ctx = mp.get_context("fork")
    procs: Dict[Coord, object] = {}
    conns: Dict[Coord, object] = {}
    stats = CommStats()

    def command(msg: Optional[dict],
                into_fields: bool = False) -> Dict[Coord, dict]:
        """Send ``msg`` (if any) to every rank, collect one checked reply
        each; ``into_fields`` then copies the field plane (every rank
        wrote its owned slabs there before replying) into ``fields``."""
        if msg is not None:
            for coord in coords:
                conns[coord].send(msg)
        replies = {coord: _recv(coord, conns, procs, timeout_s)
                   for coord in coords}
        if into_fields:
            for name in ALL_COMPONENTS:
                fields[name] = plane[name]
        return replies

    group = None
    if checkpoint_dir and every >= 1:
        group = _GroupCheckpoint(
            checkpoint_dir, name,
            solver_token(solver, tol=tol, max_steps=max_steps,
                         check_every=check_every,
                         ranks="x".join(str(d) for d in layout.dims)),
            every, layout, fields, command)

    def stop_ranks() -> None:
        """Graceful stop: collect stats and telemetry from every rank."""
        for coord, bye in command({"type": "stop"}).items():
            stats.merge(CommStats.from_dict(bye["stats"]))
            telemetry.merge_child(bye.get("telemetry"),
                                  label=_rank_label(coord))
        for coord in coords:
            procs[coord].join(timeout=timeout_s)

    try:
        for index, coord in enumerate(coords):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_rank_main,
                args=(index, coord, layout, solver, transport, plane,
                      child_conn, attempt, group),
                daemon=True,
                name=f"repro-rank-{coord[0]}-{coord[1]}-{coord[2]}",
            )
            proc.start()
            child_conn.close()
            procs[coord] = proc
            conns[coord] = parent_conn

        hellos = command(None)
        pids = [int(hellos[c]["pid"]) for c in coords]
        cpu_pins = [hellos[c].get("cpu") for c in coords]
        restore = group is not None and group.agree(
            [hellos[c]["resumed"] for c in coords])
        command({"type": "begin", "restore": restore}, into_fields=restore)
        resumed_from = (group.committed["steps"] or None) if restore else None

        if telemetry.enabled():
            telemetry.cluster_ranks().set(layout.n_ranks)
            telemetry.publish(
                "cluster", phase="start", ranks=layout.n_ranks,
                layout=list(layout.dims), transport=transport.name,
                pids=pids, sweeps=resumed_from or 0,
                resumed_from=resumed_from)
        telemetry.instant("cluster.start", "cluster",
                          args={"ranks": layout.n_ranks,
                                "layout": list(layout.dims),
                                "transport": transport.name})

        checks: Dict[Coord, dict] = {}
        published = CommStats()

        def advance(n: int) -> None:
            checks.update(command({"type": "step", "n": n},
                                  into_fields=True))

        def publish_boundary(steps, residuals, n, previous, **event) -> None:
            nonlocal published
            if not telemetry.enabled():
                return
            merged = CommStats()
            for coord in coords:
                merged.merge(CommStats.from_dict(checks[coord]["stats"]))
            for axis in (0, 1, 2):
                delta = (merged.bytes_by_axis[axis]
                         - published.bytes_by_axis[axis])
                if delta > 0:
                    telemetry.cluster_halo_bytes().labels(
                        axis="zyx"[axis]).inc(delta)
            if merged.messages > published.messages:
                telemetry.cluster_halo_messages().inc(
                    merged.messages - published.messages)
            published = merged

            rank_res = {}
            for coord in coords:
                own = layout.subdomain(coord).own
                rank_res[",".join(map(str, coord))] = relative_change(
                    {name: fields[name][own] for name in E_COMPONENTS},
                    {name: previous[name][own] for name in E_COMPONENTS}) / n
            telemetry.publish(
                "cluster", sweeps=steps, residual=residuals["0"],
                ranks=layout.n_ranks, rank_residuals=rank_res,
                halo_bytes=merged.bytes_total,
                halo_messages=merged.messages)

        try:
            result = _converge(
                fields, solver.coefficients, advance,
                step_size=lambda steps: min(check_every, max_steps - steps),
                tol=tol, max_steps=max_steps, checkpoint=group,
                publish=publish_boundary, on_divergence=on_divergence,
            ).results[0]
        except SolverDiverged:
            stop_ranks()
            raise
        stop_ranks()
        info = {
            "layout": list(layout.dims),
            "ranks": layout.n_ranks,
            "pids": pids,
            "transport": transport.name,
            "halo": stats.to_dict(),
            "resumed_from": resumed_from,
            "saves": group.saves if group is not None else 0,
        }
        if any(cpu is not None for cpu in cpu_pins):
            # REPRO_CLUSTER_PIN was on and at least one rank pinned: the
            # per-rank CPU ids (rank order) for benches and tests.
            info["cpu_pins"] = cpu_pins
        return result, info
    except RankCrash:
        if telemetry.enabled():
            telemetry.cluster_rank_failures().inc()
            telemetry.publish("cluster", phase="rank-crash",
                              ranks=layout.n_ranks)
        raise
    finally:
        for proc in procs.values():
            if proc.exitcode is None:
                proc.terminate()
        for proc in procs.values():
            proc.join(timeout=5.0)
        for conn in conns.values():
            try:
                conn.close()
            except OSError:
                pass
