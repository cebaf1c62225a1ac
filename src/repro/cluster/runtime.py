"""The distributed THIIM's rank runtime: forked rank processes.

One parent (the scheduler's worker, or a thread worker's call frame)
forks ``layout.n_ranks`` rank processes, each a
:class:`~repro.forksafe.Child`; each builds its
:class:`~repro.cluster.distributed._Rank` -- the ghosted slab, its halo
edges over the shared-memory :mod:`repro.cluster.transport` -- and
advances the one Fig. 3 half-step sequence, :data:`~repro.cluster.
distributed.HALF_STEPS`, with the shared :func:`~repro.cluster.
distributed.component_region` clipping.

Parent and ranks talk over a *control plane* -- each child's one pipe,
small dicts only: the parent sends ``step`` and ``stop``, a rank answers
``check`` or ``bye`` (or the child's typed ``error``), and the parent
waits on one rank's reply while watching every rank's exit
(:meth:`Child.recv <repro.forksafe.Child.recv>`) -- and the
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
from ..forksafe import Child
from ..resilience import faults
from ..resilience.checkpoint import CheckpointManager
from ..resilience.errors import RankCrash, SolverDiverged
from .decomposition import Coord, RankLayout
from .distributed import HALF_STEPS, CommStats, _Rank
from .transport import (SYNC_TIMEOUT_S, WAIT_SLICE_S, ShmTransport,
                        edge_shapes, shared_arrays)

__all__ = ["run_distributed"]


def _rank_label(coord: Coord) -> str:
    return f"rank {coord[0]},{coord[1]},{coord[2]}"


# -- rank side -----------------------------------------------------------------


def _rank_main(conn, index: int, coord: Coord, layout: RankLayout, solver,
               transport, plane: Dict[str, np.ndarray]) -> None:
    """Body of one rank process, a :class:`~repro.forksafe.Child` (fork:
    everything is inherited, the job context and the resumed global
    fields included).  Ranks publish no progress: the parent does; their
    spans and counts go home with the ``bye``."""
    telemetry.disable()

    def next_command() -> dict:
        # A SIGKILLed parent sends no EOF (this rank and its siblings
        # inherited copies of the pipe's far end): watch for reparenting.
        while not conn.poll(WAIT_SLICE_S):
            if transport.orphaned():
                os._exit(1)
        return conn.recv()

    rank = _Rank(layout, coord, solver.fields, solver.coefficients, transport)
    stats = CommStats()
    while True:
        msg = next_command()
        if msg["type"] == "stop":
            conn.send({"type": "bye", "stats": stats.to_dict(),
                       "telemetry": telemetry.child_report()})
            return
        faults.hit("cluster.rank")
        faults.hit(f"cluster.rank.{index}")
        with telemetry.span(f"{_rank_label(coord)} sweep", "cluster",
                            args={"n": msg["n"]}):
            for _ in range(msg["n"]):
                for half in HALF_STEPS:
                    rank.half_step(half, stats)
        # This rank's half of the gather: owned slabs into the plane.
        for name in ALL_COMPONENTS:
            plane[name][rank.sub.own] = rank.owned(name)
        conn.send({"type": "check", "stats": stats.to_dict()})


# -- parent side ---------------------------------------------------------------


def run_distributed(
    layout: RankLayout,
    solver,
    tol: float,
    max_steps: int,
    check_every: int = 20,
    checkpoint: Optional[CheckpointManager] = None,
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
    if tuple(solver.grid.shape) != tuple(layout.grid.shape):
        raise ValueError("solver grid does not match the layout's grid")
    if tuple(solver.grid.periodic) != tuple(layout.grid.periodic):
        raise ValueError("solver periodicity does not match the layout's grid")
    if check_every < 1:
        raise ValueError("check_every must be >= 1")
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")

    coords = list(layout.coords())
    fields = solver.fields
    # The data plane (twelve global fields + one block per halo edge),
    # created before the fork so every rank inherits it.
    shapes = dict.fromkeys(ALL_COMPONENTS, fields.grid.shape)
    plane = shared_arrays({**shapes, **edge_shapes(layout)})
    transport = ShmTransport(layout, plane, timeout_s=timeout_s)
    ranks: Dict[Coord, Child] = {}
    pids: List[int] = []
    stats = CommStats()

    def command(msg: dict, into_fields: bool = False) -> Dict[Coord, dict]:
        """Send ``msg`` to every rank, collect one reply each while
        watching them all; ``into_fields`` then copies the field plane
        (every rank wrote its owned slabs there before replying) into
        ``fields``."""
        for rank in ranks.values():
            rank.conn.send(msg)
        deadline = time.monotonic() + timeout_s
        replies = {coord: rank.recv(deadline, watch=ranks.values())
                   for coord, rank in ranks.items()}
        if into_fields:
            for name in ALL_COMPONENTS:
                fields[name] = plane[name]
        return replies

    def start_ranks() -> None:
        """Fork every rank from the current (possibly resumed) fields."""
        for index, coord in enumerate(coords):
            ranks[coord] = Child(_rank_main, index, coord, layout, solver,
                                 transport, plane, name=_rank_label(coord),
                                 crash=RankCrash)
        pids.extend(rank.proc.pid for rank in ranks.values())
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
            telemetry.merge_child(bye["telemetry"], label=ranks[coord].name)

    try:
        checks: Dict[Coord, dict] = {}
        published = CommStats()

        def advance(n: int) -> None:
            if not ranks:
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
        for rank in ranks.values():
            rank.stop()
