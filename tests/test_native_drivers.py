"""The C drivers under ``tests/native``, built and run under sanitizers.

``thiim_group_stress.c`` sends random op streams from several pthreads
through the compiled THIIM pass's one job queue -- stream windows,
immediate calls, boxes at a lowered split gate, refused boxes, a fork
mid-window -- and holds every result to a serial pass as raw bytes.  It
runs twice: under ThreadSanitizer, which reports any access the queue
leaves unordered, and under AddressSanitizer with UndefinedBehaviorSanitizer.
Skipped where the C compiler lacks a sanitizer's runtime.
"""

import os
import subprocess

import pytest

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
