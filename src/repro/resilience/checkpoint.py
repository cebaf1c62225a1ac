"""Checkpoint/restart for THIIM solves.

A checkpoint is a bit-exact snapshot of a solve's loop state at a
convergence-check boundary: the twelve complex128 field arrays, the
sweep counter, the residual history, and any driver extras.  The one
convergence loop (:func:`repro.fdfd.thiim._converge`) writes the same
payload for every entry point -- arrays with a leading lane axis (width
1 for a point solve), one history per lane, ``extras["lanes"]``
(divergence reasons, the sweep each finished lane stopped at) plus the
tiled driver's step/LUP/job counters.  Because the THIIM sweep sequence is
deterministic, restoring that state and continuing the loop produces
**bit-identical** final fields, observables and counters versus an
uninterrupted run -- the contract the chaos tests assert.

Snapshots are single ``.npz`` files written atomically (serialized to
memory, then published with tempfile + ``os.replace`` via
:mod:`repro.ioutil`), so a crash *during* a checkpoint write leaves the
previous checkpoint intact.  Each checkpoint embeds a ``token`` -- the
caller's content hash of the scene/plan (for service jobs, derived from
the coefficient arrays and solve cadence) -- and a resume refuses (or
quarantines, in lenient mode) any snapshot whose token does not match:
resuming someone else's state would silently compute the wrong answer
(:class:`~repro.resilience.errors.CheckpointMismatch`).

Cadence and location come from ``REPRO_CHECKPOINT_EVERY`` /
``REPRO_CHECKPOINT_DIR`` (see :mod:`repro.config`); the solvers accept a
:class:`CheckpointManager` and call :meth:`~CheckpointManager.due` /
:meth:`~CheckpointManager.save` at check boundaries, so checkpointing
costs nothing when disabled.
"""

from __future__ import annotations

import hashlib
import io as _stdio
import json
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..ioutil import atomic_write_bytes, corrupt_file, quarantine
from . import faults
from .errors import RESILIENCE_COUNTERS, CheckpointMismatch, InjectedFault

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointManager",
    "solver_token",
    "latest_lag_s",
    "take_report",
]

#: 2: lane-axis arrays, per-lane histories in the JSON meta, lane-list
#: tokens.  Older files fail the version check and are quarantined.
CHECKPOINT_VERSION = 2

_PREFIX = "ckpt-"


@dataclass
class Checkpoint:
    """One restored snapshot (arrays still keyed by component name)."""

    arrays: Dict[str, np.ndarray]
    steps: int
    #: As saved: a flat residual list, or one list per lane.
    history: list
    token: str
    extras: Dict = field(default_factory=dict)


class _Report(threading.local):
    """Per-thread record of the last solve's checkpoint activity, so the
    scheduler can surface resume provenance without polluting the
    bit-identical result payload."""

    value: Optional[dict] = None


_REPORT = _Report()


def take_report() -> Optional[dict]:
    """Pop the calling thread's last checkpoint report (path, saves,
    resumed_from)."""
    value = _REPORT.value
    _REPORT.value = None
    return value


def solver_token(solver, **cadence) -> str:
    """Content hash of what a solve computes, over its lane list (a
    batched solver's ``lanes``; a scalar solver is its own single lane):
    the lane count, per lane every coefficient array, the grid geometry
    and omega/tau, plus the loop cadence (check interval or chunk size
    -- a checkpoint is only valid at its own boundaries).

    A snapshot holds one array slice and one history per lane, so other
    widths must never resume it; a width-1 batch and a point solve of
    one scene share token *and* payload, so that cross-resume is correct.
    """
    lanes = getattr(solver, "lanes", None) or [solver]
    h = hashlib.sha256()
    h.update(json.dumps(
        {"version": CHECKPOINT_VERSION, "width": len(lanes),
         "cadence": dict(sorted(cadence.items()))},
        sort_keys=True).encode())
    for lane in lanes:
        grid = lane.grid
        h.update(json.dumps(
            {"shape": list(grid.shape), "spacing": list(grid.spacing),
             "periodic": list(grid.periodic), "omega": lane.omega,
             "tau": lane.tau},
            sort_keys=True).encode())
        coeffs = lane.coefficients
        for name in sorted(coeffs.arrays):
            h.update(name.encode())
            h.update(np.ascontiguousarray(coeffs.arrays[name]).tobytes())
        if coeffs.back_mask is not None:
            h.update(np.ascontiguousarray(coeffs.back_mask).tobytes())
    return h.hexdigest()[:32]


class CheckpointManager:
    """Writes and restores the snapshots of one named solve.

    Parameters
    ----------
    directory:
        Where snapshots live (created on first save).
    name:
        Stable identity of the solve (the service uses the job id); the
        snapshot file is ``ckpt-<name>.npz``.
    token:
        Scene/plan content hash guarding against resuming foreign state.
    every:
        Sweep cadence: :meth:`due` is true once at least this many sweeps
        ran since the last save.
    strict:
        On a token mismatch, raise :class:`CheckpointMismatch` instead of
        quarantining the snapshot and restarting from sweep 0.
    """

    def __init__(self, directory: str, name: str, token: str,
                 every: int = 100, strict: bool = False):
        if every < 1:
            raise ValueError("checkpoint cadence must be >= 1 sweep")
        self.directory = directory
        self.name = name
        self.token = token
        self.every = every
        self.strict = strict
        self.path = os.path.join(directory, f"{_PREFIX}{name}.npz")
        self.saves = 0
        self.last_saved_steps: Optional[int] = None
        self.resumed_from: Optional[int] = None

    # -- cadence ---------------------------------------------------------------

    def due(self, steps: int) -> bool:
        anchor = self.last_saved_steps
        if anchor is None:
            anchor = self.resumed_from or 0
        return steps - anchor >= self.every

    # -- save ------------------------------------------------------------------

    def save(self, fields, steps: int, history: list,
             extras: Optional[Dict] = None) -> Optional[str]:
        """Snapshot the loop state; best-effort (an unwritable checkpoint
        degrades the resilience, never the solve)."""
        from .. import telemetry
        from ..core import tracing

        try:
            kind = faults.hit("checkpoint.write")
        except InjectedFault:
            RESILIENCE_COUNTERS.bump("checkpoint_write_errors")
            return None
        meta = {"version": CHECKPOINT_VERSION, "token": self.token,
                "name": self.name, "history": history,
                "extras": extras or {}}
        try:
            with tracing.span(f"checkpoint {self.name[:12]}@{steps}",
                              "resilience",
                              args=telemetry.span_args({"steps": steps})) as sp:
                buf = _stdio.BytesIO()
                np.savez(
                    buf,
                    **{n: fields[n] for n in fields},
                    _shape=np.array(fields.grid.shape, dtype=np.int64),
                    _spacing=np.array(fields.grid.spacing, dtype=np.float64),
                    _periodic=np.array(fields.grid.periodic, dtype=np.bool_),
                    _steps=np.array(steps, dtype=np.int64),
                    _meta=np.array(json.dumps(meta, sort_keys=True)),
                )
                data = buf.getvalue()
                atomic_write_bytes(self.path, data)
                sp.set(bytes=len(data))
        except OSError:
            RESILIENCE_COUNTERS.bump("checkpoint_write_errors")
            return None
        if kind == "corrupt":
            corrupt_file(self.path)
        self.saves += 1
        self.last_saved_steps = steps
        RESILIENCE_COUNTERS.bump("checkpoints_written")
        if telemetry.enabled():
            telemetry.checkpoint_writes().inc()
            telemetry.publish("checkpoint", sweeps=steps, saves=self.saves,
                              bytes=len(data))
        self._publish()
        return self.path

    # -- load / resume ---------------------------------------------------------

    def load(self) -> Optional[Checkpoint]:
        """Read the snapshot; corrupt or mismatched files are quarantined
        (or raised in strict mode) and read as a miss."""
        if not os.path.exists(self.path):
            return None
        kind = faults.hit("checkpoint.read")
        if kind == "corrupt":
            corrupt_file(self.path)
        try:
            with np.load(self.path) as data:
                meta = json.loads(str(data["_meta"]))
                if meta.get("version") != CHECKPOINT_VERSION:
                    raise ValueError("checkpoint version mismatch")
                token = meta.get("token")
                steps = int(data["_steps"])
                history = meta["history"]
                arrays = {
                    k: np.ascontiguousarray(data[k])
                    for k in data.files
                    if not k.startswith("_")
                }
        except CheckpointMismatch:
            raise
        except Exception:  # malformed zip/json/fields: quarantine, miss
            quarantine(self.path)
            return None
        if token != self.token:
            if self.strict:
                raise CheckpointMismatch(
                    f"checkpoint {os.path.basename(self.path)} was written "
                    f"for a different scene/plan",
                    expected=self.token, found=token)
            quarantine(self.path)
            return None
        return Checkpoint(arrays=arrays, steps=steps, history=history,
                          token=token, extras=meta.get("extras") or {})

    def resume(self, fields) -> Optional[Checkpoint]:
        """Restore a snapshot into ``fields`` in place; returns it (or
        ``None`` to start from sweep 0)."""
        from .. import telemetry
        from ..core import tracing

        ckpt = self.load()
        if ckpt is None:
            self._publish()
            return None
        for name in fields:
            if name not in ckpt.arrays:
                quarantine(self.path)
                self._publish()
                return None
            fields[name] = ckpt.arrays[name]
        self.resumed_from = ckpt.steps
        RESILIENCE_COUNTERS.bump("checkpoints_resumed")
        if telemetry.enabled():
            telemetry.checkpoint_resumes().inc()
            telemetry.publish("checkpoint", resumed_from=ckpt.steps)
        rec = tracing.active()
        if rec is not None:
            rec.instant("checkpoint.resume", "resilience",
                        args=telemetry.span_args(
                            {"name": self.name[:12], "steps": ckpt.steps}))
        self._publish()
        return ckpt

    # -- bookkeeping -----------------------------------------------------------

    def _publish(self) -> None:
        _REPORT.value = {"path": self.path, "saves": self.saves,
                         "resumed_from": self.resumed_from}

    def clear(self) -> None:
        """Drop the snapshot (called after the result is safely stored)."""
        try:
            os.unlink(self.path)
        except OSError:
            pass


def latest_lag_s(directory: Optional[str]) -> Optional[float]:
    """Seconds since the newest checkpoint in ``directory`` was written
    (``None`` when there is no directory or no checkpoint) -- the
    ``checkpoint_lag_s`` field of ``GET /healthz``."""
    import time

    if not directory or not os.path.isdir(directory):
        return None
    newest: Optional[float] = None
    try:
        for fname in os.listdir(directory):
            if fname.startswith(_PREFIX) and fname.endswith(".npz"):
                try:
                    mtime = os.path.getmtime(os.path.join(directory, fname))
                except OSError:
                    continue
                if newest is None or mtime > newest:
                    newest = mtime
    except OSError:
        return None
    return None if newest is None else max(time.time() - newest, 0.0)
