"""The C drivers under ``tests/native``, built and run under sanitizers.

``thiim_group_stress.c`` sends random op streams from several pthreads
through the compiled THIIM pass's one job queue -- stream windows,
immediate calls, boxes at a lowered split gate, refused boxes, a fork
mid-window -- and holds every result to a serial pass as raw bytes.  It
runs twice: under ThreadSanitizer, which reports any access the queue
leaves unordered, and under AddressSanitizer with UndefinedBehaviorSanitizer.
Skipped where the C compiler lacks a sanitizer's runtime.

``gil_releases.c`` counts a thread's GIL releases (``PyEval_SaveThread``
interposed by ``LD_PRELOAD``) in a child ``python``: a small served job
keeps the GIL through its kernel calls, residual, snapshot, checksum and
set-up, so it releases it only a budgeted few times.
"""

import json
import os
import subprocess
import sys
import sysconfig

import pytest

from conftest import FAST

NATIVE = os.path.join(os.path.dirname(__file__), "native")
CC = os.environ.get("CC", "cc")
SANITIZERS = ("thread", "address,undefined")


def _build(sanitizer, src, out):
    return subprocess.run(
        [CC, f"-fsanitize={sanitizer}", "-fno-sanitize-recover=all", "-O1", "-g",
         "-ffp-contract=off", src, "-o", out, "-pthread", "-lm"],
        capture_output=True, text=True)


def _runtime_missing(sanitizer, tmp_path):
    """Why ``cc`` cannot build and run a program under ``sanitizer``, or
    None."""
    src = tmp_path / "empty.c"
    src.write_text("int main(void) { return 0; }\n")
    try:
        built = _build(sanitizer, str(src), str(tmp_path / "empty"))
    except OSError as exc:
        return str(exc)
    if built.returncode:
        return built.stderr
    ran = subprocess.run([str(tmp_path / "empty")], capture_output=True, text=True)
    return (ran.stderr or f"exit status {ran.returncode}") if ran.returncode else None


@pytest.mark.parametrize("sanitizer", SANITIZERS)
def test_the_group_stress_driver_runs_clean(sanitizer, tmp_path):
    missing = _runtime_missing(sanitizer, tmp_path)
    if missing is not None:
        pytest.skip(f"no -fsanitize={sanitizer} runtime: {missing.strip()[:200]}")
    exe = str(tmp_path / "stress")
    built = _build(sanitizer, os.path.join(NATIVE, "thiim_group_stress.c"), exe)
    assert built.returncode == 0, built.stderr
    ran = subprocess.run([exe], capture_output=True, text=True, timeout=300)
    assert ran.returncode == 0, ran.stdout + ran.stderr[-4000:]
    assert "Sanitizer" not in ran.stderr, ran.stderr[-4000:]
    assert ran.stdout.rstrip().endswith(": ok"), ran.stdout


#: The child: a warm-up job (it compiles and probes the compiled pass),
#: then the releases of one more job and of one residual below the gate.
#: The calibration is one 4 KiB ``hashlib`` update, which releases the
#: GIL once wherever the interposition works.
_COUNT_RELEASES = """
import ctypes, hashlib, json, sys
import numpy as np

count = ctypes.PyDLL(None).gil_releases
count.restype = ctypes.c_int64

def releases(call):
    before = count()
    call()
    return count() - before

calibration = releases(lambda: hashlib.sha256().update(bytes(4096)))
from repro.fdfd import FieldState, Grid, kernels, relative_change
from repro.service.jobs import JobSpec, run_job

spec = JobSpec(**json.loads(sys.argv[1]))
run_job(spec)
grid = Grid(nz=20, ny=10, nx=10)
now = FieldState(grid).fill_random(np.random.default_rng(1))
prev = FieldState(grid).fill_random(np.random.default_rng(2))
print(json.dumps({
    "calibration": calibration,
    "native": bool(kernels._native()),
    "below_gate": kernels.keeps_gil(grid.n_cells),
    "job": releases(lambda: run_job(spec)),
    "residual": releases(lambda: relative_change(now, prev)),
}))
"""

#: The most GIL releases a g10 ``vacuum`` job of 20 sweeps and one check
#: may make (19 measured; 111 when the residual, checksum, snapshot and
#: set-up released it per array).
JOB_RELEASE_BUDGET = 35


def test_a_small_job_keeps_the_gil(tmp_path):
    if not sysconfig.get_config_var("Py_ENABLE_SHARED"):
        pytest.skip("the interpreter is linked statically: PyEval_SaveThread "
                    "cannot be interposed")
    lib = str(tmp_path / "gil_releases.so")
    try:
        built = subprocess.run([CC, "-shared", "-fPIC", "-O2", "-o", lib,
                                os.path.join(NATIVE, "gil_releases.c"), "-ldl"],
                               capture_output=True, text=True)
    except OSError as exc:
        pytest.skip(f"no C compiler: {exc}")
    assert built.returncode == 0, built.stderr
    ran = subprocess.run(
        [sys.executable, "-c", _COUNT_RELEASES, json.dumps(FAST)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, LD_PRELOAD=lib))
    assert ran.returncode == 0, ran.stderr[-4000:]
    got = json.loads(ran.stdout.splitlines()[-1])
    if not got["calibration"]:
        pytest.skip("the interposed PyEval_SaveThread counts nothing here")
    if not got["native"]:
        pytest.skip("compiled THIIM kernel unavailable")
    assert got["below_gate"]
    assert got["residual"] == 0, got
    assert got["job"] <= JOB_RELEASE_BUDGET, got
