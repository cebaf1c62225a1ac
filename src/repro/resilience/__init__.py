"""Resilience layer: checkpoint/restart, fault injection, degradation.

Long THIIM campaigns treat restartability and tolerance of partial
failure as prerequisites for production use; this package is where that
lives, in three cooperating pieces and the table that attacks them:

``errors``
    The typed failure taxonomy (:class:`SolverDiverged`,
    :class:`CorruptArtifact`, :class:`EngineUnavailable`,
    :class:`CheckpointMismatch`, ...) with HTTP status and retryability
    semantics.
``faults``
    The deterministic fault-injection registry: ``REPRO_FAULTS=
    "site:kind[:after_n[:attempt]]"`` schedules crashes, exceptions and
    artifact corruption at named sites across the stack -- the one
    seedable mechanism behind the chaos scenarios.
``checkpoint``
    Atomic, token-guarded snapshots of solver loop state with
    bit-identical resume.
``scenarios``
    The chaos scenario table: three harnesses x rows of named
    invariants, run by ``repro chaos``, CI and tier-1 pytest.  Not
    imported here (it reaches into ``service`` and ``fleet``); use
    ``from repro.resilience import scenarios``.
"""

from .checkpoint import Checkpoint, CheckpointManager, latest_lag_s, solver_token
from .errors import (
    CheckpointMismatch,
    CorruptArtifact,
    EngineUnavailable,
    InjectedFault,
    ReproError,
    SolverDiverged,
    error_from_kind,
)
from .faults import FaultPlan, FaultSpec

__all__ = [
    "Checkpoint",
    "CheckpointManager",
    "CheckpointMismatch",
    "CorruptArtifact",
    "EngineUnavailable",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "ReproError",
    "SolverDiverged",
    "error_from_kind",
    "latest_lag_s",
    "solver_token",
]
