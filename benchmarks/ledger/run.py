#!/usr/bin/env python3
"""The layered performance ledger.

Two ways in, one code path:

* ``run.py --workload W --seed N --seconds S --trace 0|1`` measures one
  workload and prints one JSON object as its last line (the driver's
  contract: every end-to-end metric untraced, every per-layer metric
  traced).
* ``run.py [--seed N] [--trace] [--record] [--smoke]`` runs every
  workload (untraced, then traced with ``--trace``), prints every metric
  by name with unit, sample count, median and quartiles, and writes
  ``output/ledger.json``.

Each workload runs in fresh child processes with a scrubbed environment;
the children run one after another, each with at most ``nproc`` busy
threads or ranks.  Exits non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import functools
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

import spec
import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUTPUT = os.path.join(HERE, "output")
HISTORY = os.path.join(HERE, "history.jsonl")
PINNED = os.path.join(HERE, "pinned.json")
EXPECTED = os.path.join(HERE, "expected_sim.json")

#: A child that has not reported by then is killed (a run has 180 s).
CHILD_TIMEOUT_S = 150


# -- hermetic children ---------------------------------------------------------


def child_env(workload: str, workdir: str) -> dict:
    """The environment a child sees: every inherited ``REPRO_*`` variable
    scrubbed, thread pools pinned to one thread, then only what the
    workload declares."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(spec.BASE_ENV)
    env.update(spec.WORKLOADS[workload]["env"])
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = workdir  # nothing is written outside the checkout
    return env


def native_built() -> bool:
    return bool(glob.glob(
        os.path.join(SRC, "repro", "machine", "_build", "*.so")))


def ensure_native(env: dict) -> None:
    """Build the native LRU library in a discarded warm-up invocation, so
    the once-per-checkout compile lands in no measurement."""
    if native_built():
        return
    subprocess.run(
        [sys.executable, "-c",
         "from repro.machine import native_available; native_available()"],
        env=env, cwd=ROOT, check=False, capture_output=True, timeout=600)


def spawn(workload: str, workdir: str, env: dict, **flags) -> dict:
    """Run one child to completion; returns its report (``exit`` and
    ``wall_s`` added), or a failure report when it printed none."""
    # Every child starts from an empty directory of its own: a second
    # set-up must not find the first one's registry warm.
    workdir = os.path.join(workdir, f"child{len(os.listdir(workdir))}")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--workdir", workdir,
           "--t-spawn", repr(time.time())]
    for key, value in flags.items():
        if value is not None:
            cmd += [f"--{key.replace('_', '-')}", str(value)]
    t0 = time.perf_counter()
    # A session of its own: a child that hangs is killed together with
    # the rank processes it forked.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        stderr += f"\nkilled after {CHILD_TIMEOUT_S} s"
    wall = time.perf_counter() - t0
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        report = {"attempted": 1, "failed": 1, "failures": [
            f"child exited {proc.returncode} without a report: "
            f"{stderr.strip()[-800:]}"]}
    report["exit"] = proc.returncode
    report["wall_s"] = wall
    return report


# -- one workload --------------------------------------------------------------


def _metric(unit: str, samples, value=None) -> dict:
    s = stats.summary(samples)
    s["unit"] = unit
    s["value"] = s["median"] if value is None else value
    return s


def run_children(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, pin: bool, trace_out: str) -> list:
    """Spawn the children of one run, one after another; their reports."""
    consts = spec.constants(workload, smoke)
    workdir = os.path.join(OUTPUT, "tmp", f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = child_env(workload, workdir)
    ensure_native(env)
    go = functools.partial(spawn, workload, workdir, env, seed=seed,
                           smoke=int(smoke), pin=int(pin))
    # One cold pass per process: the run is a series of children.
    fresh = consts.get("fresh_process", False)
    children = []
    try:
        if trace:
            if fresh:  # the untraced reference is a sibling process
                children.append(go(seconds=seconds, trace=0, first_repeat=1))
            children.append(go(seconds=seconds, trace=1, trace_out=trace_out,
                               first_repeat=len(children) + 1))
            return children
        if fresh:
            used = 0.0
            while not children or used + 0.5 * used / len(children) <= seconds:
                children.append(go(seconds=seconds, trace=0,
                                   first_repeat=len(children)))
                used += children[-1]["wall_s"]
        else:
            children.append(go(seconds=seconds, trace=0))
        # Set-up is timed in every child; top the sample up with
        # children that set up and exit.
        while len(children) < consts["setups"] and all(
                "setup_s" in c for c in children):
            children.append(go(seconds=0, setup_only=1))
        return children
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(measured: list, counts: dict) -> dict:
    """Every per-layer metric of a traced run (0: the layer is not on
    this workload's path)."""
    layers = dict(counts)
    for c in measured:
        layers.update(c.get("layers", {}))
    ref = [x for c in measured for x in c.get("ref_primary", [])] or [
        x for c in measured if "layers" not in c
        for x in c["latencies"]["primary"]]
    traced = [x for c in measured for x in c.get("traced_primary", [])]
    if ref and traced:
        layers["ledger.trace_overhead_pct"] = 100.0 * (
            stats.median(traced) / stats.median(ref) - 1.0)
    out = {}
    for m in spec.PER_LAYER:
        value = float(layers.get(m["name"], 0.0))
        out[m["name"]] = {"value": value, "unit": m["unit"], "n": 1,
                          "median": value, "q1": value, "q3": value,
                          "measured": m["name"] in layers}
    return out


def end_to_end_metrics(measured: list, setups: list) -> dict:
    """Every end-to-end metric of an untraced run."""
    repeats = [r for c in measured for r in c["repeats"]]
    metrics = {"setup_s": _metric("s", setups)}
    # A rate is work completed over the time it took, summed over the
    # run (steadier than a median of few per-repeat rates, whose spread
    # the quartiles still show); a latency is the median over operations.
    for kind, wall_key in (("primary", "primary_wall"),
                           ("secondary", "secondary_wall"), ("ops", "wall")):
        walls = sum(r[wall_key] for r in repeats)
        metrics[f"{kind}_per_s"] = _metric(
            "1/s", [r[kind] / r[wall_key] for r in repeats
                    if r[wall_key] > 0],
            value=sum(r[kind] for r in repeats) / walls if walls else 0.0)
    for kind in ("primary", "secondary"):
        metrics[f"{kind}_p50_ms"] = _metric(
            "ms", [1e3 * x for c in measured for x in c["latencies"][kind]])
    rss = [c["peak_rss_mb"] for c in measured]
    metrics["peak_rss_mb"] = _metric("MB", rss, value=max(rss))
    return {m["name"]: metrics[m["name"]] for m in spec.END_TO_END}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, pin: bool = False) -> dict:
    """Measure one workload; returns its aggregated report."""
    os.makedirs(OUTPUT, exist_ok=True)
    trace_out = os.path.join(OUTPUT, f"trace_{workload}.json")
    children = run_children(workload, seed, seconds, trace, smoke, pin,
                            trace_out)
    report = {
        "workload": workload, "seed": seed, "trace": bool(trace),
        "smoke": bool(smoke), "comparable": not smoke,
        "attempted": sum(c.get("attempted", 0) for c in children),
        "failed": sum(c.get("failed", 0) for c in children),
        "failures": [f for c in children for f in c.get("failures", [])],
        "children": len(children),
        "wall_s": sum(c["wall_s"] for c in children),
        "counts": {}, "pins": {}, "metrics": {},
    }
    measured = [c for c in children if "latencies" in c]
    if any(c["exit"] != 0 for c in children) or not measured:
        report["failed"] = max(report["failed"], 1)
    for c in measured:
        report["pins"].update(c.get("pins", {}))
        for key, value in c.get("counts", {}).items():
            if key in spec.EXACT and report["counts"].get(key, value) != value:
                report["failed"] += 1
                report["failures"].append(
                    f"{key} differs between passes: "
                    f"{report['counts'][key]} vs {value}")
            report["counts"][key] = value
    report["attempted"] = max(report["attempted"], 1)
    if measured and trace:
        report["metrics"] = layer_metrics(measured, report["counts"])
        report["trace_file"] = os.path.relpath(trace_out, ROOT)
    elif measured:
        report["repeats"] = sum(len(c["repeats"]) for c in measured)
        report["metrics"] = end_to_end_metrics(
            measured, [c["setup_s"] for c in children if "setup_s" in c])
        for name, m in report["metrics"].items():
            if not m["n"] or m["value"] <= 0:
                report["failed"] += 1
                report["failures"].append(f"{name} has no samples")
    report["correct"] = report["failed"] == 0
    return report


def contract_line(report: dict) -> str:
    """The driver's last line: exactly correct/attempted/failed/metrics."""
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in report["metrics"].items()},
    })


# -- the ledger ----------------------------------------------------------------


def fingerprint() -> dict:
    """What a comparison must hold fixed: interpreter, numpy, host shape,
    replay engine, and which code was measured."""
    import numpy

    def git(*args: str) -> str:
        try:
            return subprocess.run(["git", *args], cwd=ROOT, text=True,
                                  capture_output=True, timeout=10,
                                  check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    cpu = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    fp = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count() or 1,
        "cpu": cpu,
        "machine": platform.machine(),
        "engine": "native" if native_built() else "batch",
    }
    fp["host"] = hashlib.sha1(
        json.dumps(fp, sort_keys=True).encode()).hexdigest()[:12]
    fp["commit"] = git("rev-parse", "HEAD") or "unknown"
    fp["dirty"] = bool(git("status", "--porcelain"))
    return fp


def print_report(report: dict) -> None:
    mode = "traced" if report["trace"] else "untraced"
    flag = "" if report["comparable"] else "  [smoke sizes: NOT comparable]"
    print(f"\n== {report['workload']} ({mode}, seed {report['seed']}, "
          f"{report['children']} child processes, "
          f"{report['wall_s']:.1f} s){flag}")
    print(f"   attempted {report['attempted']}  failed {report['failed']}  "
          f"failed_share {report['failed'] / report['attempted']:.4f}")
    for name, m in report["metrics"].items():
        if report["trace"] and not m.get("measured"):
            continue
        print(f"   {name:38s} {m['value']:14.6g} {m['unit']:7s} "
              f"n={m['n']:<5d} median={m['median']:.6g} "
              f"q1={m['q1']:.6g} q3={m['q3']:.6g}")
    for failure in report["failures"]:
        print(f"   FAILED: {failure}")


def write_pins(reports: list) -> None:
    """``--pin``: rewrite the pinned checksums and simulated rows from
    what this commit computes."""
    docs = []
    for path in (PINNED, EXPECTED):
        try:
            with open(path, "r", encoding="utf-8") as f:
                docs.append(json.load(f))
        except OSError:
            docs.append({})
    pinned, expected = docs
    for r in reports:
        section = "smoke" if r["smoke"] else "full"
        entry = pinned.setdefault(r["workload"], {})
        entry["seed"] = r["seed"]
        entry[section] = {k: v for k, v in r["pins"].items()
                          if not k.startswith("fig")}
        expected.update({k: v for k, v in r["pins"].items()
                         if k.startswith("fig")})
    for path, doc in ((PINNED, pinned), (EXPECTED, expected)):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", nargs="?", const=1, type=int, default=0,
                    help="also (ledger) or only (--workload) the traced run")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes for the ledger's own test; the output "
                         "is marked non-comparable")
    ap.add_argument("--record", action="store_true",
                    help="append this pass to history.jsonl")
    ap.add_argument("--pin", action="store_true",
                    help="rewrite pinned.json / expected_sim.json")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"ledger: no program to measure under {SRC}", file=sys.stderr)
        return 2

    if args.workload and not args.pin:
        report = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), smoke=args.smoke)
        print_report(report)
        print(contract_line(report))
        return 0 if report["correct"] else 1

    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    reports = []
    for name in names:
        reports.append(measure(name, args.seed, args.seconds, False,
                               smoke=args.smoke, pin=args.pin))
        print_report(reports[-1])
        if args.trace and not args.pin:
            reports.append(measure(name, args.seed, args.seconds, True,
                                   smoke=args.smoke))
            print_report(reports[-1])
    if args.pin:
        write_pins(reports)
        return 0 if all(r["correct"] for r in reports) else 1
    doc = {"fingerprint": fingerprint(), "seed": args.seed,
           "seconds": args.seconds, "comparable": not args.smoke,
           "time": time.time(), "runs": reports}
    os.makedirs(OUTPUT, exist_ok=True)
    with open(os.path.join(OUTPUT, "ledger.json"), "w",
              encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
    if args.record:
        for r in doc["runs"]:  # a line per pass: keep it to what was measured
            r.pop("pins", None)
            r["metrics"] = {k: m for k, m in r["metrics"].items()
                            if m.get("measured", True)}
        with open(HISTORY, "a", encoding="utf-8") as f:
            f.write(json.dumps(doc, sort_keys=True) + "\n")
    ok = all(r["correct"] for r in reports)
    print(f"\nledger: {'ok' if ok else 'FAILED'} -- "
          f"{sum(r['wall_s'] for r in reports):.0f} s, "
          f"{os.path.relpath(os.path.join(OUTPUT, 'ledger.json'), ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
