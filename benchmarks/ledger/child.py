"""One workload, one fresh process: set up, measure, check, report.

Spawned by ``run.py`` with a scrubbed environment; prints one JSON
document as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _classes() -> dict:
    from wl_naive import NaiveScaling
    from wl_serve import ServeSmall
    from wl_tiled import TiledCampaign
    from wl_tune import TuneCold

    return {c.name: c for c in (NaiveScaling, TiledCampaign, TuneCold,
                                ServeSmall)}


def run_repeats(wl, window: float, first: int, limit) -> list:
    """Repeats of fixed work until ``window`` seconds are used up (to the
    nearest whole repeat), at least one."""
    out = []
    t0 = time.perf_counter()
    while True:
        out.append(wl.repeat(first + len(out)))
        elapsed = time.perf_counter() - t0
        if limit is not None and len(out) >= limit:
            break
        if elapsed + 0.5 * elapsed / len(out) > window:
            break
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", type=int, default=0)
    ap.add_argument("--pin", type=int, default=0)
    ap.add_argument("--setup-only", type=int, default=0)
    ap.add_argument("--first-repeat", type=int, default=0)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    import spec

    consts = spec.constants(args.workload, smoke=bool(args.smoke))
    tracer = None
    if args.trace:
        from instrument import instrument
        from spans import Tracer

        tracer = Tracer()
        instrument(tracer)
    os.makedirs(args.workdir, exist_ok=True)
    wl = _classes()[args.workload](consts, args.seed, args.workdir,
                                   bool(args.smoke), bool(args.pin), tracer)
    wl.setup()
    out = {"workload": args.workload, "setup_s": time.time() - args.t_spawn}
    try:
        if args.setup_only:
            return 0
        t0 = time.perf_counter()
        limit = 1 if consts.get("fresh_process") else None
        if tracer is None:
            out["repeats"] = run_repeats(wl, args.seconds,
                                         args.first_repeat, limit)
        else:
            sides = {False: [], True: []}

            def one(k: int, traced: bool) -> None:
                tracer.enabled = traced
                mark = len(wl.latencies["primary"])
                wl.repeat(args.first_repeat + k)
                sides[traced] += wl.latencies["primary"][mark:]

            if limit:
                # A fresh-process workload: the untraced reference is a
                # sibling child.
                one(0, True)
            else:
                # Untraced and traced repeats alternate (U T T U ...), so
                # neither side owns the warm-up or a drift of the box.
                k = 0
                while k < 2 or k % 2 or (time.perf_counter() - t0
                                         < 0.5 * args.seconds):
                    one(k, k % 4 in (1, 2))
                    k += 1
            tracer.enabled = True
            out["ref_primary"], out["traced_primary"] = (sides[False],
                                                         sides[True])
            if args.trace_out:
                from spans import write_chrome_trace

                write_chrome_trace(tracer.spans, args.trace_out)
            import probes

            layers = probes.layer_shares(tracer)
            layers.update(wl.probes())
            layers["host.nproc"] = os.cpu_count() or 1
            out["layers"] = layers
            tracer.enabled = False
        wl.finish()
        out["measure_s"] = time.perf_counter() - t0
        out["latencies"] = wl.latencies
        out["counts"] = wl.counts
        out["pins"] = wl.pins
    finally:
        wl.close()
        out.update(attempted=wl.attempted, failed=wl.failed,
                   failures=wl.failures)
        rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        out["peak_rss_mb"] = rss / 1024.0
        sys.stdout.flush()
        print(json.dumps(out))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
