"""Compile-on-first-use C libraries: sha-tagged builds in ``machine/_build``
(or ``REPRO_NATIVE_BUILD_DIR``), each ``dlopen``-ed and bound by its owner
once per process through :func:`load`.  A missing build compiles *every*
library, so one warm-up call leaves no compile for later."""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import threading

from . import config, forksafe, telemetry
from .resilience import faults

_HERE = os.path.dirname(__file__)

#: name -> (C source, compiler flags).  The THIIM kernel must round as
#: NumPy does: only the fma() calls its source spells out may fuse; the
#: DES as Python floats do: nothing may.
SOURCES = {
    "_lru_kernel": (os.path.join(_HERE, "machine", "_lru_kernel.c"), ("-O2",)),
    "_des_kernel": (os.path.join(_HERE, "machine", "_des_kernel.c"),
                    ("-O2", "-ffp-contract=off")),
    "_thiim_kernel": (os.path.join(_HERE, "fdfd", "_thiim_kernel.c"),
                      ("-O3", "-ffp-contract=off", "-pthread", "-lm")),
}


def compile_source(name: str, out: str, extra_flags=()) -> None:
    """Compile ``name``'s source with its own flags (plus ``extra_flags``:
    CI's ``-Wall -Wextra -Werror`` pass) into the shared object ``out``."""
    src, flags = SOURCES[name]
    subprocess.run([os.environ.get("CC", "cc"), "-shared", "-fPIC", *extra_flags,
                    "-o", out, src, *flags], check=True, capture_output=True)


def _build(name: str) -> str:
    """Path of ``name``'s library, compiled unless its source is built."""
    with open(SOURCES[name][0], "rb") as f:
        tag = hashlib.sha1(f.read()).hexdigest()[:12]
    build_dir = config.get("REPRO_NATIVE_BUILD_DIR")
    so_path = os.path.join(build_dir, f"{name}-{tag}.so")
    if not os.path.exists(so_path):
        os.makedirs(build_dir, exist_ok=True)
        tmp = so_path + f".tmp{os.getpid()}-{threading.get_ident()}"
        compile_source(name, tmp)
        os.replace(tmp, so_path)  # atomic vs concurrent builders
        for other in SOURCES:  # its own failure is counted by its owner
            try:
                _build(other)
            except (OSError, subprocess.CalledProcessError):
                pass
    return so_path


#: glibc ``mallopt`` parameters (malloc.h) and the values its own dynamic
#: adjustment ends on once a process has freed a 32 MiB block.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 64 << 20


def retain_heap() -> bool:
    """Have glibc serve every block below 32 MiB from the heap and keep
    up to 64 MiB of freed heap top, for the rest of the process.

    A solve allocates and frees tens of MB of MB-sized arrays.  Under the
    default policy the mmap threshold starts at 128 KiB and only rises to
    the largest mmapped block the process happens to free, so what a job
    costs depends on what ran before it: a 24^3 tiled job page-faults
    37 MB in again every time (9,600 minor faults, 200 ms) in a process
    whose largest freed block was small, and none (135 ms) in one that
    once freed 16 MiB (EXPERIMENTS.md, *Shapes are rectangles*).  A
    long-lived solver process pins the second behaviour.  ``False`` where
    libc has no ``mallopt``: nothing changes there.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))


def _open(name: str):
    """The ``CDLL`` of ``name``, or ``None``: vetoed by ``REPRO_NO_NATIVE``,
    or degraded (no compiler, build failure, read-only tree, ...) -- the
    first link of the chain native -> pure Python, counted for /metrics."""
    if config.get("REPRO_NO_NATIVE"):
        return None
    try:
        faults.hit("native.load")
        return ctypes.CDLL(_build(name))
    except Exception:
        telemetry.count_event("native_degraded")
        return None


def gil_kept(lib):
    """``lib`` opened once more as a ``PyDLL``: the same library (the
    same globals), whose calls keep the GIL where ``lib``'s release it."""
    return ctypes.PyDLL(lib._name)


#: name -> what its ``bind`` returned (a handle), or ``False``: vetoed,
#: degraded, or refused by the bind.  Absent until the first :func:`load`.
_LOADED: dict = {}
#: One lock per library: a bind may run a while (the THIIM probe runs
#: kernel code) and must not hold up the other libraries' loads.
_LOAD_LOCKS = {name: forksafe.lock(f"nativelib.{name}") for name in SOURCES}


def load(name: str, bind):
    """``bind(lib)`` over ``name``'s library, once per process: the handle
    it returned, or ``False`` when the library did not open or ``bind``
    returned something false.  Concurrent first callers wait for the one
    that loads, so none of them sees a half-done load."""
    got = _LOADED.get(name)
    if got is None:
        with _LOAD_LOCKS[name]:
            got = _LOADED.get(name)
            if got is None:
                lib = _open(name)
                got = _LOADED[name] = lib is not None and bind(lib) or False
    return got
