"""The data plane of the multiprocess cluster runtime: shared arrays and
the halo transport.

:mod:`repro.cluster.runtime` commands its ranks over pipes that carry
small dicts only (its *control plane*); every array moves through
:func:`shared_arrays` -- one anonymous shared mapping the parent creates
before forking: inherited by every rank, no name in ``/dev/shm``,
nothing to unlink, freed with its last array.  It holds the twelve
global field arrays (ranks write their owned slabs there, the parent's
gather is a memcpy) and one buffer per halo edge.

The transport moves one *edge block* -- the six read-class components of a
ghost plane, packed ``(6,) + face shape`` complex128 -- from the sending
rank to the receiving rank.  Edges are keyed ``(receiver_coord, axis,
direction)``; the sender is ``layout.neighbor(receiver, axis,
direction)``, the rank whose owned boundary plane fills that ghost.
Self-edges (a periodic axis with one rank) never reach the transport:
the runtime copies them locally.

:class:`ShmTransport` -- ``send`` packs the faces straight into the
edge's shared buffer and posts the edge's semaphore; ``recv`` waits on
it and returns the buffer itself.  No collective: a rank waits only for
the one peer it reads from.  There is no second transport to fall back
to: anything forked ranks could signal through (``multiprocessing``
queues included) is built on the same POSIX semaphores, so a host that
refuses them cannot run ranks at all and the ``OSError`` propagates.

**The ping-pong invariant** (owned here; ``tests/test_cluster_runtime.py
::TestPingPong`` attacks it).  An edge buffer is reused every sweep with
no acknowledgement from its reader, which is safe because the two edges
across one rank interface alternate strictly.  Let edge ``e = (R, axis,
d)`` have sender ``S``; its *partner* ``(S, axis, -d)`` always exists
and has sender ``R``.  The THIIM step exchanges direction ``+1``, then
``-1``, then ``+1`` ..., and within one exchange a rank sends, then
receives *and unpacks*.  So between two sends on ``e``, ``S`` receives
the partner edge, which ``R`` posted only after it had unpacked ``e``:
``S`` never repacks a buffer its reader is still in, and no semaphore
ever counts past one.  This holds per interface, so also for two ranks
on a periodic axis (two interfaces, four edges between the same peers).

A wait that outlasts ``timeout_s`` raises :class:`~repro.resilience.
errors.RankCrash` naming the edge -- a stalled peer is the same
(retryable) fault as a dead one -- and runs in slices of
``WAIT_SLICE_S``, so a rank whose parent was killed notices and leaves
instead of sitting out the timeout as an orphan.
"""

from __future__ import annotations

import mmap
import multiprocessing as mp
import os
import time
from typing import Dict, Hashable, Mapping, Sequence, Tuple

import numpy as np

from ..resilience.errors import RankCrash
from .decomposition import Coord, RankLayout

__all__ = [
    "EdgeKey",
    "ShmTransport",
    "edge_shapes",
    "shared_arrays",
]

#: (receiver coordinate, axis, direction): the ghost plane being filled.
EdgeKey = Tuple[Coord, int, int]

#: How long a rank waits on one halo edge (or the parent on one reply).
SYNC_TIMEOUT_S = 120.0

#: Longest a blocked rank goes without checking its parent is alive.
WAIT_SLICE_S = 0.5

#: How long a halo wait polls (yielding the CPU) before it sleeps.
SPIN_S = 2e-3


def edge_shapes(layout: RankLayout,
                arrays: int = 6) -> Dict[EdgeKey, Tuple[int, int, int]]:
    """Every transported edge of a layout with its block shape,
    ``(arrays,)`` + the plane perpendicular to the axis.  Skips faces
    with no neighbour (non-periodic boundary) and self-edges (sender ==
    receiver), which the runtime copies locally."""
    out = {}
    for coord, sub in layout.subdomains().items():
        nz, ny, nx = sub.shape
        for axis, face in enumerate(((ny, nx), (nz, nx), (nz, ny))):
            for direction in (-1, +1):
                sender = layout.neighbor(coord, axis, direction)
                if sender is not None and sender != coord:
                    out[coord, axis, direction] = (arrays,) + face
    return out


def shared_arrays(
    shapes: Mapping[Hashable, Tuple[int, ...]],
) -> Dict[Hashable, np.ndarray]:
    """Zero-filled complex128 arrays of ``shapes``, carved back to back
    out of one anonymous shared mapping.  Create it before forking: the
    children inherit the same physical pages.  The mapping lives exactly
    as long as some array over it does."""
    item = np.dtype(np.complex128).itemsize
    counts = {key: int(np.prod(shape)) for key, shape in shapes.items()}
    buf = mmap.mmap(-1, max(1, sum(counts.values())) * item)
    out, offset = {}, 0
    for key, shape in shapes.items():
        out[key] = np.frombuffer(
            buf, np.complex128, counts[key], offset).reshape(shape)
        offset += counts[key] * item
    return out


class ShmTransport:
    """Edge buffers in shared memory, one semaphore per edge.

    ``buffers`` maps every edge key to its shared block (from
    :func:`shared_arrays` over :func:`edge_shapes`); construct in the
    parent *before* the ranks fork, so they inherit views and semaphores.
    """

    name = "shm"

    def __init__(self, layout: RankLayout,
                 buffers: Mapping[EdgeKey, np.ndarray],
                 timeout_s: float = SYNC_TIMEOUT_S):
        ctx = mp.get_context("fork")
        self.timeout_s = timeout_s
        self._creator = os.getpid()
        self._views = buffers
        self._posted = {key: ctx.Semaphore(0) for key in edge_shapes(layout)}

    def orphaned(self) -> bool:
        """Whether this forked rank's parent (the creator) is gone."""
        return os.getpid() != self._creator and os.getppid() != self._creator

    def send(self, key: EdgeKey, faces: Sequence[np.ndarray]) -> None:
        """Pack ``faces`` (one boundary plane per component) into the
        edge's buffer and post it; never blocks on the peer."""
        view = self._views[key]
        for i, face in enumerate(faces):
            view[i] = face
        self._posted[key].release()

    def recv(self, key: EdgeKey) -> np.ndarray:
        """The edge's next block, valid until the partner edge is sent;
        :class:`RankCrash` once ``timeout_s`` is spent or this (forked)
        process is orphaned."""
        posted = self._posted[key]
        # Poll through the usual skew between two ranks before sleeping:
        # where a woken process lands on its waker's CPU (KVM guests,
        # EXPERIMENTS.md) a sleep costs the *sender* compute time and hides
        # the imbalance from the load balancer.  Yielding keeps the poll
        # harmless when ranks outnumber CPUs.
        spin_until = time.perf_counter() + SPIN_S
        while not posted.acquire(False):
            os.sched_yield()
            if time.perf_counter() >= spin_until:
                self._sleep_until_posted(key)
                break
        return self._views[key]

    def _sleep_until_posted(self, key: EdgeKey) -> None:
        deadline = time.monotonic() + self.timeout_s
        while True:
            left = max(0.0, deadline - time.monotonic())
            if self._posted[key].acquire(timeout=min(WAIT_SLICE_S, left)):
                return
            if self.orphaned():
                raise RankCrash(f"halo edge {key}: parent process is gone",
                                edge=list(key))
            if time.monotonic() >= deadline:
                raise RankCrash(
                    f"halo edge {key} not posted within {self.timeout_s:g}s",
                    edge=list(key))
