"""Distributed-memory layer: decomposition, simulated ranks, real ranks.

The paper's production code is hybrid MPI+OpenMP; its Section VI
discusses decomposition geometry (non-contiguous x halos, thin domains).
This package provides the Cartesian decomposition with a communication
cost model, a functional halo-exchanged solver over simulated ranks that
reproduces the single-domain sweep bit for bit, and (in
:mod:`~repro.cluster.runtime` / :mod:`~repro.cluster.transport`) the
promotion of that layer to real ``multiprocessing`` rank processes the
serving stack runs ``kind="distributed"`` jobs on.
"""

from .decomposition import (
    CommCostModel,
    RankLayout,
    Subdomain,
    candidate_layouts,
    choose_decomposition,
    step_bytes_by_axis,
)
from .distributed import CommStats, DistributedTHIIM
from .runtime import run_distributed
from .transport import ShmTransport

__all__ = [
    "CommCostModel",
    "CommStats",
    "DistributedTHIIM",
    "RankLayout",
    "ShmTransport",
    "Subdomain",
    "candidate_layouts",
    "choose_decomposition",
    "run_distributed",
    "step_bytes_by_axis",
]
