"""The one place that reads ``REPRO_*`` environment flags.

Every runtime knob of the reproduction is an environment variable with a
``REPRO_`` prefix.  They accumulated across subsystems (autotuner,
stream engines, native kernel, tracing, serving layer); this module is
the registry: each flag is declared once with its default, its type and
a one-line description, and every subsystem reads it through an accessor
here instead of a scattered ``os.environ.get``.

``repro env`` prints the table (flag, current value, default,
description) so a shell session can be audited at a glance.

Flags are always read *live* from ``os.environ`` -- tests and the CLI
mutate the environment mid-process and expect the change to take effect
on the next call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = [
    "Flag",
    "FLAGS",
    "checkpoint_dir",
    "checkpoint_every",
    "cluster_pin",
    "cluster_transport",
    "data_dir",
    "describe",
    "drain_timeout",
    "faults_schedule",
    "fleet_heartbeat",
    "fleet_quota",
    "fleet_quota_burst",
    "fleet_retry_budget",
    "fleet_spec_cache",
    "http_timeout",
    "lease_dir",
    "lease_ttl",
    "native_build_dir",
    "native_disabled",
    "node_id",
    "queue_file",
    "registry_dir",
    "result_dir",
    "stream_engine",
    "telemetry_mode",
    "trace_path",
]


@dataclass(frozen=True)
class Flag:
    """One documented environment flag."""

    name: str
    default: str
    kind: str  # "int" | "path" | "choice" | "bool" | "str"
    help: str

    @property
    def raw(self) -> Optional[str]:
        """The current environment value, or ``None`` when unset."""
        return os.environ.get(self.name)


FLAGS: Dict[str, Flag] = {
    f.name: f
    for f in (
        Flag(
            "REPRO_STREAM_ENGINE", "auto", "choice",
            "stream replay engine: reference, batch, native, or auto",
        ),
        Flag(
            "REPRO_NO_NATIVE", "(unset)", "bool",
            "any non-empty value disables all compiled code (LRU, THIIM, DES)",
        ),
        Flag(
            "REPRO_NATIVE_BUILD_DIR", "src/repro/machine/_build", "path",
            "where the compiled shared objects are cached",
        ),
        Flag(
            "REPRO_TRACE", "(disabled)", "path",
            "Chrome-trace output path; traces any repro CLI command",
        ),
        Flag(
            "REPRO_REGISTRY_DIR", "(in-memory)", "path",
            "persistent plan-registry directory for the solve service",
        ),
        Flag(
            "REPRO_RESULT_DIR", "(in-memory)", "path",
            "persistent result-store directory for the solve service",
        ),
        Flag(
            "REPRO_CHECKPOINT_EVERY", "0", "int",
            "sweep cadence between THIIM solver checkpoints (0 = disabled)",
        ),
        Flag(
            "REPRO_CHECKPOINT_DIR", "(disabled)", "path",
            "directory for solver checkpoint snapshots (crash/resume)",
        ),
        Flag(
            "REPRO_FAULTS", "(none)", "str",
            "deterministic fault schedule: site:kind[:after_n[:attempt]],...",
        ),
        Flag(
            "REPRO_DRAIN_TIMEOUT", "10", "float",
            "seconds repro serve waits for in-flight jobs on SIGTERM/SIGINT",
        ),
        Flag(
            "REPRO_QUEUE_FILE", "(disabled)", "path",
            "spool file persisting queued jobs across graceful restarts",
        ),
        Flag(
            "REPRO_CLUSTER_TRANSPORT", "auto", "choice",
            "distributed halo transport: shm, pipe, or auto "
            "(shared memory with pipe fallback)",
        ),
        Flag(
            "REPRO_TELEMETRY", "(auto)", "bool",
            "metrics + progress events: 1 forces on, 0 vetoes even the "
            "serving stack, unset = on while serving only",
        ),
        Flag(
            "REPRO_NODE_ID", "(generated)", "str",
            "stable node identity reported by /healthz and the "
            "X-Repro-Node header (unset = random per process)",
        ),
        Flag(
            "REPRO_HTTP_TIMEOUT", "30", "float",
            "per-request socket timeout of the serving layer; a stalled "
            "client is disconnected after this many idle seconds",
        ),
        Flag(
            "REPRO_CLUSTER_PIN", "(unset)", "bool",
            "pin each distributed rank process to one CPU via "
            "sched_setaffinity (any non-empty value enables)",
        ),
        Flag(
            "REPRO_FLEET_HEARTBEAT", "1", "float",
            "seconds between gateway heartbeat probes of fleet nodes",
        ),
        Flag(
            "REPRO_DATA_DIR", "(in-memory)", "path",
            "per-node data root for repro serve: derives registry/, "
            "results/, checkpoints/ and queue.json so a rebooted node "
            "rejoins with its shard warm",
        ),
        Flag(
            "REPRO_LEASE_DIR", "(disabled)", "path",
            "shared lease directory for fleet membership: nodes write "
            "heartbeat lease files; the gateway derives the live set",
        ),
        Flag(
            "REPRO_LEASE_TTL", "5", "float",
            "seconds a lease file stays fresh; an unrefreshed lease "
            "reads as node death (join/leave/expiry bump the shard map)",
        ),
        Flag(
            "REPRO_FLEET_QUOTA", "0", "float",
            "per-tenant submit quota at the gateway in requests/second "
            "(token bucket keyed by X-Repro-Api-Key; 0 = unlimited)",
        ),
        Flag(
            "REPRO_FLEET_QUOTA_BURST", "0", "float",
            "burst size of the per-tenant submit bucket "
            "(0 = 2x the quota rate, minimum 1)",
        ),
        Flag(
            "REPRO_FLEET_RETRY_BUDGET", "60", "float",
            "gateway failover/resubmit retries per minute before "
            "NodeUnavailable is returned instead (0 = unlimited)",
        ),
        Flag(
            "REPRO_FLEET_SPEC_CACHE", "4096", "int",
            "entries the gateway's LRU resubmission spec cache holds",
        ),
    )
}


def describe() -> List[Dict[str, str]]:
    """Table rows for ``repro env``: one dict per flag."""
    rows: List[Dict[str, str]] = []
    for flag in FLAGS.values():
        raw = flag.raw
        rows.append(
            {
                "flag": flag.name,
                "value": "(unset)" if raw is None else raw,
                "default": flag.default,
                "description": flag.help,
            }
        )
    return rows


# -- typed accessors (one per flag) -------------------------------------------


def stream_engine() -> Optional[str]:
    """The engine override, or ``None`` (caller resolves ``auto``)."""
    return os.environ.get("REPRO_STREAM_ENGINE") or None


def native_disabled() -> bool:
    """True when compiled code is vetoed (any non-empty value)."""
    return bool(os.environ.get("REPRO_NO_NATIVE"))


def native_build_dir(default: str) -> str:
    return os.environ.get("REPRO_NATIVE_BUILD_DIR", default)


def trace_path() -> Optional[str]:
    return os.environ.get("REPRO_TRACE") or None


def registry_dir() -> Optional[str]:
    """Service plan-registry root, or ``None`` for in-memory only."""
    return os.environ.get("REPRO_REGISTRY_DIR") or None


def result_dir() -> Optional[str]:
    """Service result-store root, or ``None`` for in-memory only."""
    return os.environ.get("REPRO_RESULT_DIR") or None


def checkpoint_every() -> int:
    """Checkpoint cadence in sweeps; 0 (or malformed) disables."""
    try:
        return max(0, int(os.environ.get("REPRO_CHECKPOINT_EVERY", "0")))
    except ValueError:
        return 0


def checkpoint_dir() -> Optional[str]:
    """Checkpoint snapshot root, or ``None`` when checkpointing is off."""
    return os.environ.get("REPRO_CHECKPOINT_DIR") or None


def faults_schedule() -> Optional[str]:
    """The raw ``REPRO_FAULTS`` schedule (parsed by resilience.faults)."""
    return os.environ.get("REPRO_FAULTS") or None


def drain_timeout() -> float:
    """Graceful-shutdown drain budget; malformed values fall back to 10s."""
    try:
        return max(0.0, float(os.environ.get("REPRO_DRAIN_TIMEOUT", "10")))
    except ValueError:
        return 10.0


def queue_file() -> Optional[str]:
    """Queue spool path for graceful restarts, or ``None`` (disabled)."""
    return os.environ.get("REPRO_QUEUE_FILE") or None


def cluster_transport() -> str:
    """Distributed halo transport: ``shm``, ``pipe`` or ``auto``
    (malformed values read as ``auto``)."""
    raw = (os.environ.get("REPRO_CLUSTER_TRANSPORT") or "auto").lower()
    return raw if raw in ("shm", "pipe", "auto") else "auto"


def node_id() -> Optional[str]:
    """The operator-pinned node identity, or ``None`` (generate one)."""
    return os.environ.get("REPRO_NODE_ID") or None


def http_timeout() -> float:
    """Per-request socket timeout of the serving layer (seconds);
    malformed or non-positive values fall back to 30s."""
    try:
        value = float(os.environ.get("REPRO_HTTP_TIMEOUT", "30"))
    except ValueError:
        return 30.0
    return value if value > 0 else 30.0


def cluster_pin() -> bool:
    """True when distributed ranks should pin themselves to one CPU."""
    raw = os.environ.get("REPRO_CLUSTER_PIN")
    return bool(raw) and raw.lower() not in ("0", "off", "false", "no")


def fleet_heartbeat() -> float:
    """Gateway heartbeat cadence; malformed values fall back to 1s."""
    try:
        value = float(os.environ.get("REPRO_FLEET_HEARTBEAT", "1"))
    except ValueError:
        return 1.0
    return value if value > 0 else 1.0


def data_dir() -> Optional[str]:
    """Per-node persistent data root, or ``None`` for in-memory state."""
    return os.environ.get("REPRO_DATA_DIR") or None


def lease_dir() -> Optional[str]:
    """Shared fleet-membership lease directory, or ``None`` (static
    node lists only)."""
    return os.environ.get("REPRO_LEASE_DIR") or None


def lease_ttl() -> float:
    """Lease freshness window; malformed/non-positive values read as 5s."""
    try:
        value = float(os.environ.get("REPRO_LEASE_TTL", "5"))
    except ValueError:
        return 5.0
    return value if value > 0 else 5.0


def fleet_quota() -> float:
    """Per-tenant gateway submit quota in req/s; 0 (or malformed) means
    unlimited."""
    try:
        return max(0.0, float(os.environ.get("REPRO_FLEET_QUOTA", "0")))
    except ValueError:
        return 0.0


def fleet_quota_burst() -> float:
    """Burst size of the per-tenant bucket; 0 (or malformed) lets the
    admission layer derive one from the rate."""
    try:
        return max(0.0, float(os.environ.get("REPRO_FLEET_QUOTA_BURST", "0")))
    except ValueError:
        return 0.0


def fleet_retry_budget() -> float:
    """Gateway failover retries per minute; 0 (or malformed non-number)
    means unlimited."""
    try:
        return max(0.0, float(os.environ.get("REPRO_FLEET_RETRY_BUDGET",
                                             "60")))
    except ValueError:
        return 60.0


def fleet_spec_cache() -> int:
    """Gateway spec-cache capacity; malformed or < 1 falls back to 4096."""
    try:
        value = int(os.environ.get("REPRO_FLEET_SPEC_CACHE", "4096"))
    except ValueError:
        return 4096
    return value if value >= 1 else 4096


def telemetry_mode() -> Optional[bool]:
    """``REPRO_TELEMETRY`` tri-state: True (on), False (vetoed), or
    ``None`` when unset (the serving stack decides)."""
    raw = os.environ.get("REPRO_TELEMETRY")
    if raw is None:
        return None
    return bool(raw) and raw.lower() not in ("0", "off", "false", "no")
