"""The one place that reads ``REPRO_*`` environment flags.

A setting has exactly one route.  It is an environment flag only where
the library reads it at a depth no caller's argument reaches (the
compiled-code veto, tracing, fault schedules, checkpoint cadence under
``run_job``) or where a parent labels a process it spawns
(``REPRO_NODE_ID``); everything else is a CLI flag feeding a constructor
keyword whose default is a literal in the signature.  What the host has
is observed, not set: the replay engine is the compiled one whenever it
loads.

:data:`FLAGS` is the table -- name, kind, default, help, each written
once -- and :func:`get` the one reader: it parses by ``kind`` and
answers the row's default when the variable is unset or malformed.
Flags are read *live* from ``os.environ`` (tests and the CLI patch the
environment mid-process).  ``repro env`` prints :func:`describe`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["FLAGS", "Flag", "describe", "get"]

#: What the ``bool`` kind reads as false, in any letter case; every
#: other value is true.
_FALSE = ("", "0", "off", "false", "no")


@dataclass(frozen=True)
class Flag:
    """One documented environment flag."""

    name: str
    kind: str  # a key of ``_PARSERS``
    default: object  # what ``get`` answers when unset or malformed
    help: str

    @property
    def raw(self) -> Optional[str]:
        """The current environment value, or ``None`` when unset."""
        return os.environ.get(self.name)


def _int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError(raw)
    return value


def _text(raw: str) -> str:
    if not raw:  # an empty string means unset
        raise ValueError(raw)
    return raw


_PARSERS = {
    "int": _int,
    "bool": lambda raw: raw.strip().lower() not in _FALSE,
    "path": _text,
    "str": _text,
}

FLAGS: Dict[str, Flag] = {
    f.name: f
    for f in (
        Flag("REPRO_NO_NATIVE", "bool", False,
             "veto all compiled code (LRU replay, THIIM kernel, DES): the "
             "pure-Python / NumPy bodies run instead"),
        Flag("REPRO_NATIVE_BUILD_DIR", "path",
             os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "machine", "_build"),
             "where the compiled shared objects are cached"),
        Flag("REPRO_TRACE", "path", None,
             "Chrome-trace output path; traces any repro CLI command"),
        Flag("REPRO_FAULTS", "str", None,
             "deterministic fault schedule: site:kind[:after_n[:attempt]],..."),
        Flag("REPRO_TELEMETRY", "bool", None,
             "metrics + progress events: true forces on, false vetoes even "
             "the serving stack, unset = on while serving only"),
        Flag("REPRO_CHECKPOINT_EVERY", "int", 0,
             "sweeps between THIIM solver checkpoints (0 = disabled)"),
        Flag("REPRO_CHECKPOINT_DIR", "path", None,
             "directory for solver checkpoint snapshots (crash/resume); "
             "unset = no checkpoints"),
        Flag("REPRO_NODE_ID", "str", None,
             "stable node identity a fleet parent gives a spawned repro "
             "serve (/healthz, X-Repro-Node); unset = random per process"),
    )
}


def get(name: str):
    """The typed value of flag ``name``: parsed by the row's ``kind``,
    the row's ``default`` when the variable is unset or malformed."""
    flag = FLAGS[name]
    raw = os.environ.get(name)
    if raw is None:
        return flag.default
    try:
        return _PARSERS[flag.kind](raw)
    except ValueError:
        return flag.default


def describe() -> List[Dict[str, str]]:
    """Table rows for ``repro env``: one dict per flag."""
    return [
        {
            "flag": flag.name,
            "value": "(unset)" if flag.raw is None else flag.raw,
            "default": "(unset)" if flag.default is None
            else str(flag.default),
            "description": flag.help,
        }
        for flag in FLAGS.values()
    ]
