"""Typed failure taxonomy.

Every recoverable failure mode of the stack gets one exception class so
callers can branch on *what went wrong* instead of string-matching
messages, and the HTTP layer can map failures to status codes uniformly
(:attr:`ReproError.http_status`).  The taxonomy also records whether a
failure is worth retrying: a worker crash is transient, a diverged solve
is deterministic -- retrying it burns the budget reproducing the same
blow-up, so :attr:`ReproError.retryable` lets the scheduler fail fast.

The degradation events themselves (quarantined artifacts, checkpoint
saves/resumes, native-engine fallbacks, fired faults) are counted by
:func:`repro.telemetry.count_event`.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "SolverDiverged",
    "CorruptArtifact",
    "EngineUnavailable",
    "CheckpointMismatch",
    "InjectedFault",
    "NodeUnavailable",
    "QuotaExceeded",
    "RankCrash",
    "error_from_kind",
]


class ReproError(RuntimeError):
    """Base of the typed failure taxonomy.

    ``details`` is the machine-readable diagnostic payload (residual
    history tails, quarantined paths, ...) serialized verbatim into HTTP
    error bodies and job records.
    """

    #: Status the serving layer answers with when this escapes a handler.
    http_status = 500
    #: Whether the scheduler should spend retry budget on this failure.
    retryable = True

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details

    def payload(self) -> dict:
        """JSON body for HTTP error responses / job diagnostics."""
        d = {"error": str(self), "kind": type(self).__name__}
        if self.details:
            d["details"] = self.details
        return d


class SolverDiverged(ReproError):
    """The THIIM fixed-point iteration blew up (NaN/Inf or runaway
    residual growth).  Deterministic in the spec: never retried."""

    http_status = 422
    retryable = False


class CorruptArtifact(ReproError):
    """A persisted JSON/npz artifact failed its integrity check
    (malformed, truncated, or checksum mismatch).  The file is
    quarantined to ``*.corrupt`` and the artifact recomputed."""

    http_status = 500


class EngineUnavailable(ReproError):
    """A replay/compute engine could not be loaded.  The degradation
    chain (native -> batched -> pure python) normally absorbs this."""

    http_status = 503


class CheckpointMismatch(ReproError):
    """A checkpoint's scene/plan token does not match the running solve
    -- resuming would silently compute the wrong answer."""

    http_status = 409
    retryable = False


class InjectedFault(ReproError):
    """A fault fired by the deterministic chaos harness
    (:mod:`repro.resilience.faults`)."""

    http_status = 500


class RankCrash(ReproError):
    """A rank process of a distributed solve died mid-step.  Transient
    (like a worker crash): the scheduler retries, and the surviving
    ranks' checkpoints let the retry resume from the last committed
    boundary."""

    http_status = 500


class NodeUnavailable(ReproError):
    """No live fleet node owns the requested shard: the home node and
    its replica are both unreachable.  Transient -- heartbeats revive
    nodes that come back, so the gateway answers 503 with a
    ``Retry-After`` hint and clients should retry."""

    http_status = 503


class QuotaExceeded(ReproError):
    """A tenant blew through its admission-control token bucket at the
    fleet gateway.  Transient by definition -- the bucket refills at the
    quota rate -- so the gateway answers 429 with a ``Retry-After`` hint
    sized to the refill time of one token."""

    http_status = 429


#: Name -> class map used to rehydrate typed errors that crossed a
#: process boundary as strings (a forked worker's envelope, a rank's
#: ``error`` message).
_TAXONOMY = {
    cls.__name__: cls
    for cls in (ReproError, SolverDiverged, CorruptArtifact,
                EngineUnavailable, CheckpointMismatch, InjectedFault,
                RankCrash, NodeUnavailable, QuotaExceeded)
}


def error_from_kind(kind: Optional[str], message: str) -> Exception:
    """Rebuild a typed error from its class name (a fork round trip).

    Unknown/absent kinds come back as plain ``RuntimeError`` so foreign
    error strings never gain retry semantics they did not have.
    """
    cls = _TAXONOMY.get(kind or "")
    return cls(message) if cls is not None else RuntimeError(message)
