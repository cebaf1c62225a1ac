"""Compile-on-first-use C libraries: sha-tagged builds in ``machine/_build``
(or ``REPRO_NATIVE_BUILD_DIR``), each ``dlopen``-ed when its owner first
needs it.  A missing build compiles *every* library, so one warm-up call
leaves no compile for later."""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess

from . import config
from .resilience import faults
from .resilience.errors import RESILIENCE_COUNTERS

_HERE = os.path.dirname(__file__)

#: name -> (C source, compiler flags).  The THIIM kernel must round as
#: NumPy does: only the fma() calls its source spells out may fuse; the
#: DES as Python floats do: nothing may.
SOURCES = {
    "_lru_kernel": (os.path.join(_HERE, "machine", "_lru_kernel.c"), ("-O2",)),
    "_des_kernel": (os.path.join(_HERE, "machine", "_des_kernel.c"),
                    ("-O2", "-ffp-contract=off")),
    "_thiim_kernel": (os.path.join(_HERE, "fdfd", "_thiim_kernel.c"),
                      ("-O3", "-ffp-contract=off", "-lm")),
}


def _build(name: str) -> str:
    """Path of ``name``'s library, compiled unless its source is built."""
    src, flags = SOURCES[name]
    with open(src, "rb") as f:
        tag = hashlib.sha1(f.read()).hexdigest()[:12]
    build_dir = config.native_build_dir(os.path.join(_HERE, "machine", "_build"))
    so_path = os.path.join(build_dir, f"{name}-{tag}.so")
    if not os.path.exists(so_path):
        os.makedirs(build_dir, exist_ok=True)
        tmp = so_path + f".tmp{os.getpid()}"
        subprocess.run([os.environ.get("CC", "cc"), "-shared", "-fPIC", "-o", tmp,
                        src, *flags], check=True, capture_output=True)
        os.replace(tmp, so_path)  # atomic vs concurrent builders
        for other in SOURCES:  # its own failure is counted by its owner
            try:
                _build(other)
            except (OSError, subprocess.CalledProcessError):
                pass
    return so_path


def load(name: str):
    """The ``CDLL`` of ``name``, or ``None``: vetoed by ``REPRO_NO_NATIVE``,
    or degraded (no compiler, build failure, read-only tree, ...) -- the
    first link of the chain native -> pure Python, counted for /metrics."""
    if config.native_disabled():
        return None
    try:
        faults.hit("native.load")
        return ctypes.CDLL(_build(name))
    except Exception:
        RESILIENCE_COUNTERS.bump("native_degraded")
        return None
