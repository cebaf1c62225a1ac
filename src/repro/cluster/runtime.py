"""Real multiprocess distributed THIIM: ranks and halos.

The promotion of :mod:`repro.cluster.distributed` from simulated ranks
to actual OS processes.  One parent (the scheduler's worker, or a thread
worker's call frame) forks ``layout.n_ranks`` rank processes; each rank
owns the same ghosted slab a simulated ``_Rank`` would, exchanges halos
through :mod:`repro.cluster.transport` (shared memory), and advances the
one Fig. 3 half-step sequence, :data:`~repro.cluster.distributed.
HALF_STEPS`, with the shared :func:`~repro.cluster.distributed.
component_region` clipping.

Parent and ranks talk over a *control plane* -- one pipe per rank,
small dicts only: the parent sends ``step`` and ``stop``, a rank answers
``hello``, ``check``, ``bye`` or a typed ``error`` -- and the
shared-memory *data plane* of :mod:`repro.cluster.transport`.

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

Resilience: the parent holds the whole global state at every check, so
a distributed solve checkpoints like every other solve -- the loop saves
and resumes the parent's fields through the caller's
:class:`~repro.resilience.checkpoint.CheckpointManager`.  Ranks are
forked at the first ``advance``, from fields the loop has already
resumed, and keep no state of their own; a resume at the final boundary
forks none.  A rank death (or a halo wait that times out) surfaces as
:class:`~repro.resilience.errors.RankCrash` (retryable); the scheduler's
retry re-enters this module and resumes from the last snapshot.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..fdfd.observables import relative_change
from ..fdfd.specs import ALL_COMPONENTS, E_COMPONENTS
from ..fdfd.thiim import SolveResult, _converge
from ..resilience import faults
from ..resilience.checkpoint import CheckpointManager
from ..resilience.errors import RankCrash, SolverDiverged, error_from_kind
from .decomposition import Coord, RankLayout
from .distributed import HALF_STEPS, CommStats, _Rank
from .transport import (
    SYNC_TIMEOUT_S,
    WAIT_SLICE_S,
    ShmTransport,
    edge_shapes,
    shared_arrays,
)

__all__ = ["run_distributed"]


def _rank_label(coord: Coord) -> str:
    return f"rank {coord[0]},{coord[1]},{coord[2]}"


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


def _rank_main(index: int, coord: Coord, layout: RankLayout, solver,
               transport, plane: Dict[str, np.ndarray], conn,
               attempt: int) -> None:
    """Entry point of one rank process (fork: everything is inherited,
    the job context and the resumed global fields included).  Ranks
    publish no progress: the parent does; their spans and counts go home
    with the ``bye``."""
    faults.set_attempt(attempt)
    telemetry.fork_child()
    telemetry.disable()

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

        def exchange(names: Tuple[str, ...], direction: int) -> List[int]:
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
            return [key[1] for key in self_edges[direction]
                    + recv_edges[direction]]

        conn.send({"type": "hello", "pid": os.getpid()})
        while True:
            msg = next_command()
            t = msg.get("type")
            if t == "step":
                faults.hit("cluster.rank")
                faults.hit(f"cluster.rank.{index}")
                with telemetry.span(f"{_rank_label(coord)} sweep", "cluster",
                                    args={"n": msg["n"]}):
                    for _ in range(msg["n"]):
                        for half in HALF_STEPS:
                            rank.half_step(half, exchange, stats)
                # This rank's half of the gather: owned slabs into the plane.
                for name in ALL_COMPONENTS:
                    plane[name][sub.own] = rank.owned(name)
                conn.send({"type": "check", "stats": stats.to_dict()})
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


def run_distributed(
    layout: RankLayout,
    solver,
    tol: float,
    max_steps: int,
    check_every: int = 20,
    checkpoint: Optional[CheckpointManager] = None,
    attempt: int = 1,
    timeout_s: float = SYNC_TIMEOUT_S,
    on_divergence: str = "return",
) -> Tuple[SolveResult, Dict]:
    """Solve ``solver``'s problem across real rank processes.

    Returns ``(result, info)`` where ``result`` is a plain
    :class:`SolveResult` (``solver.fields``, bit-identical to the scalar
    sweep) and ``info`` carries the cluster provenance: pids (none when
    a resume left no sweep to run), transport, merged halo stats, resume
    point and checkpoint saves.  ``checkpoint`` snapshots the global
    state, so the same manager resumes under any layout or none.
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
    pids: List[int] = []
    stats = CommStats()

    def command(msg: Optional[dict],
                into_fields: bool = False) -> Dict[Coord, dict]:
        """Send ``msg`` (if any) to every rank, collect one checked reply
        each; ``into_fields`` then copies the field plane (every rank
        wrote its owned slabs there before replying) into ``fields``."""
        if msg is not None:
            for coord in procs:
                conns[coord].send(msg)
        replies = {coord: _recv(coord, conns, procs, timeout_s)
                   for coord in procs}
        if into_fields:
            for name in ALL_COMPONENTS:
                fields[name] = plane[name]
        return replies

    def start_ranks() -> None:
        """Fork every rank from the current (possibly resumed) fields."""
        for index, coord in enumerate(coords):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_rank_main,
                args=(index, coord, layout, solver, transport, plane,
                      child_conn, attempt),
                daemon=True,
                name=f"repro-rank-{coord[0]}-{coord[1]}-{coord[2]}",
            )
            proc.start()
            child_conn.close()
            procs[coord] = proc
            conns[coord] = parent_conn
        hellos = command(None)
        pids.extend(int(hellos[c]["pid"]) for c in coords)
        resumed_from = checkpoint and checkpoint.resumed_from
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

    def stop_ranks() -> None:
        """Graceful stop: collect stats and telemetry from every rank."""
        for coord, bye in command({"type": "stop"}).items():
            stats.merge(CommStats.from_dict(bye["stats"]))
            telemetry.merge_child(bye.get("telemetry"),
                                  label=_rank_label(coord))
        for proc in procs.values():
            proc.join(timeout=timeout_s)

    try:
        checks: Dict[Coord, dict] = {}
        published = CommStats()

        def advance(n: int) -> None:
            if not procs:
                start_ranks()
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
                tol=tol, max_steps=max_steps, checkpoint=checkpoint,
                publish=publish_boundary, on_divergence=on_divergence,
            ).results[0]
        except SolverDiverged:
            stop_ranks()
            raise
        stop_ranks()
        return result, {
            "layout": list(layout.dims),
            "ranks": layout.n_ranks,
            "pids": pids,
            "transport": transport.name,
            "halo": stats.to_dict(),
            "resumed_from": checkpoint and checkpoint.resumed_from,
            "saves": checkpoint.saves if checkpoint is not None else 0,
        }
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
