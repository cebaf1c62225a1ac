"""Distributed-memory layer: decomposition and rank processes.

The paper's production code is hybrid MPI+OpenMP; its Section VI
discusses decomposition geometry (non-contiguous x halos, thin domains).
This package provides the Cartesian decomposition with a communication
cost model (:mod:`~repro.cluster.decomposition`), one rank's slab and
halo exchange (:mod:`~repro.cluster.distributed`), and the forked rank
processes over a shared-memory data plane (:mod:`~repro.cluster.runtime`
/ :mod:`~repro.cluster.transport`) that reproduce the single-domain
sweep bit for bit -- what the serving stack runs ``kind="distributed"``
jobs on.
"""

from .decomposition import (
    CommCostModel,
    RankLayout,
    Subdomain,
    candidate_layouts,
    choose_decomposition,
    step_bytes_by_axis,
)
from .distributed import CommStats
from .runtime import run_distributed
from .transport import ShmTransport

__all__ = [
    "CommCostModel",
    "CommStats",
    "RankLayout",
    "ShmTransport",
    "Subdomain",
    "candidate_layouts",
    "choose_decomposition",
    "run_distributed",
    "step_bytes_by_axis",
]
