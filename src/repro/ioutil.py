"""Atomic filesystem helpers shared by every persistence layer.

Concurrent writers are the norm here: service scheduler workers, rank
processes and fleet nodes all persist into shared directories (the plan
registry, the result store, solver checkpoints).  A
plain ``open(path, "w")`` can interleave two writers and leave a torn
JSON file behind; every writer in this codebase therefore goes through
:func:`atomic_write` (``atomic_write_text`` / ``_bytes`` / ``_json`` are
calls to it), which streams into a per-call unique temporary file in the
destination directory and publishes with ``os.replace`` -- readers see
either the old complete file or the new complete file, never a mix.

(A pid-suffixed temp name is *not* enough: two threads of one process
share a pid.  ``tempfile.mkstemp`` gives a unique name per call.)

Integrity: atomic writes rule out *torn* files from our own writers, but
not bit rot, hand edits, or foreign processes truncating an artifact in
place.  :func:`atomic_write_json` can therefore embed a content checksum
(``checksum=True`` adds a ``_sha256`` key over the canonical payload) and
:func:`read_json_checked` verifies it on the way back in, quarantining
anything malformed or mismatched to ``<path>.corrupt`` so the caller
recomputes instead of crashing -- the resilience layer's
corrupt-artifact contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import BinaryIO, Callable

from . import telemetry

__all__ = [
    "atomic_write",
    "atomic_write_text",
    "atomic_write_bytes",
    "atomic_write_json",
    "read_json",
    "read_json_checked",
    "json_checksum",
    "quarantine",
    "corrupt_file",
]


def atomic_write_text(path: str, text: str) -> str:
    """Atomically replace ``path`` with ``text`` (UTF-8).

    The temporary file lives in the destination directory so the final
    ``os.replace`` is a same-filesystem rename (atomic on POSIX).
    """
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path: str, data: bytes) -> str:
    """Atomically replace ``path`` with raw ``data`` (same mechanism)."""
    return atomic_write(path, lambda f: f.write(data))


def atomic_write(path: str, write: Callable[[BinaryIO], object]) -> str:
    """Atomically replace ``path`` with whatever ``write(f)`` streams into
    the binary file ``f`` -- the one mechanism under every writer here.

    A large artifact (a checkpoint) is written straight into the
    temporary file instead of being assembled in memory first; if
    ``write`` raises, the temporary file is removed and ``path`` keeps
    its previous content.
    """
    path = os.path.abspath(path)
    parent = os.path.dirname(path)
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=parent, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def json_checksum(obj) -> str:
    """SHA-256 over the canonical JSON of ``obj`` (sans any ``_sha256``)."""
    if isinstance(obj, dict):
        obj = {k: v for k, v in obj.items() if k != "_sha256"}
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode("utf-8")
    ).hexdigest()


def atomic_write_json(path: str, obj, checksum: bool = False) -> str:
    """Atomically write ``obj`` as JSON (sorted keys, exact float repr).

    With ``checksum=True`` (dict payloads only) a ``_sha256`` key over
    the canonical payload is embedded so later reads can detect in-place
    corruption, not just torn writes.
    """
    if checksum and isinstance(obj, dict):
        obj = {**obj, "_sha256": json_checksum(obj)}
    return atomic_write_text(path, json.dumps(obj, sort_keys=True))


def read_json(path: str):
    """Load a JSON file, returning ``None`` when missing or unreadable.

    Corrupt or half-written entries (which atomic writes make impossible
    for *our* writers, but a crashed foreign process could still leave)
    read as a miss, never an exception.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def quarantine(path: str) -> str | None:
    """Move a corrupt artifact aside to ``<path>.corrupt`` (atomic rename,
    so concurrent readers see either the bad file or nothing).  Returns
    the quarantine path, or ``None`` when the file vanished first."""
    target = path + ".corrupt"
    try:
        os.replace(path, target)
    except OSError:
        return None
    telemetry.count_event("quarantined_artifacts",
                          path=os.path.basename(path))
    return target


def read_json_checked(path: str):
    """Load a JSON artifact, quarantining anything corrupt.

    Three outcomes:

    * missing file -> ``None`` (an ordinary miss);
    * parses and (when a ``_sha256`` key is present) the checksum
      matches -> the value;
    * malformed JSON or checksum mismatch -> the file is moved to
      ``<path>.corrupt``, a counter is bumped, and ``None`` is returned
      so the caller transparently recomputes.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = f.read()
    except OSError:
        return None
    try:
        doc = json.loads(raw)
    except ValueError:
        quarantine(path)
        return None
    if isinstance(doc, dict) and "_sha256" in doc:
        if doc.pop("_sha256") != json_checksum(doc):
            quarantine(path)
            return None
    return doc


def corrupt_file(path: str) -> None:
    """Scribble over an artifact in place (truncated JSON garbage) --
    the chaos harness's ``corrupt`` fault kind and test helper.  A
    missing artifact stays missing."""
    try:
        with open(path, "r+", encoding="utf-8") as f:
            f.truncate()
            f.write('{"torn": [1, 2,')
    except OSError:
        pass
