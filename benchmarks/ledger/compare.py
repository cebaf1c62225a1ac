#!/usr/bin/env python3
"""Compare two sets of ledger runs: A/A (same code twice) or A/B.

    compare.py --a a1.json a2.json ... --b b1.json b2.json ...

Each file is an ``output/ledger.json`` (or a ``history.jsonl`` with one
pass per line).  One row per (end-to-end metric, workload); with
``--layers`` also one per per-layer metric.  The rules are those of the
choosing-metrics guide, sections 6 and 8:

* a *regression* is a median worse than A's by more than the metric's
  bound in ``BENCHMARK.json`` -- or any failed operation, or an exact
  count or simulated statistic that moved;
* where either side's inter-quartile spread is wider than the bound the
  row is *unresolved*, not unchanged, unless every B run reads better
  than every A run;
* a *gain* needs >= 10 pairs (A and B runs alternated, listed in the
  order run), B better in >= 9/10 of them (ties count for neither), and
  a median gap larger than A's own inter-quartile distance.

Runs whose host fingerprint or replay engine differ are refused: a
missing ``cc`` silently degrades native -> batch and moves tune_cold
several-fold.  Exits 1 on a regression, 2 when refused.
"""

from __future__ import annotations

import argparse
import json
import sys

import spec
import stats

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths) -> list:
    """Every ledger pass in ``paths`` (JSON documents or JSONL)."""
    docs = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
        try:
            docs.append(json.loads(text))
        except ValueError:
            docs += [json.loads(line) for line in text.splitlines()
                     if line.strip()]
    return docs


def refuse(docs) -> str:
    """Why these passes cannot be compared, or ''."""
    if any(not d.get("comparable", True) for d in docs):
        return "a pass was run with --smoke sizes (non-comparable)"
    for key in ("host", "engine"):
        seen = sorted({str(d["fingerprint"].get(key)) for d in docs})
        if len(seen) > 1:
            return f"{key} differs between passes: {', '.join(seen)}"
    return ""


def samples(docs, trace: bool) -> dict:
    """(workload, metric) -> one value per pass, in the order given."""
    out = {}
    for d in docs:
        for run in d["runs"]:
            if bool(run["trace"]) != trace:
                continue
            for name, m in run["metrics"].items():
                if trace and not m.get("measured"):
                    continue
                out.setdefault((run["workload"], name), []).append(m["value"])
    return out


def failures(docs) -> int:
    return sum(run["failed"] for d in docs for run in d["runs"])


def judge(a, b, better: str, bound: float) -> dict:
    """One row: medians, signed worsening, spreads, pair wins, verdict."""
    sa, sb = stats.summary(a), stats.summary(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (sb["median"] - sa["median"]) / sa["median"] \
        if sa["median"] else 0.0
    spread_a, spread_b = stats.spread(a), stats.spread(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if max(spread_a, spread_b) > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSION"
    elif (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
          and abs(sb["median"] - sa["median"]) > sa["q3"] - sa["q1"]):
        verdict = "gain"
    else:
        verdict = "within bound"
    return {"a": sa["median"], "b": sb["median"], "worse": worse,
            "spread_a": spread_a, "spread_b": spread_b, "wins": wins,
            "losses": losses, "pairs": len(pairs), "verdict": verdict}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", nargs="+", required=True, help="parent passes")
    ap.add_argument("--b", nargs="+", required=True, help="change passes")
    ap.add_argument("--layers", action="store_true",
                    help="also print the per-layer rows")
    args = ap.parse_args(argv)
    docs_a, docs_b = load(args.a), load(args.b)
    why = refuse(docs_a + docs_b)
    if why:
        print(f"compare: refused -- {why}", file=sys.stderr)
        return 2

    regressions = 0
    a, b = samples(docs_a, False), samples(docs_b, False)
    print(f"{'workload':16s} {'metric':18s} {'A median':>12s} {'B median':>12s}"
          f" {'worse':>8s} {'bound':>6s} {'spread A/B':>13s} {'B wins':>7s}"
          f"  verdict")
    for w in spec.WORKLOADS:
        for m in spec.END_TO_END:
            key = (w, m["name"])
            if key not in a or key not in b:
                print(f"{w:16s} {m['name']:18s} missing on one side"
                      f"  REGRESSION")
                regressions += 1
                continue
            row = judge(a[key], b[key], m["better"], m["bound"])
            regressions += row["verdict"] == "REGRESSION"
            print(f"{w:16s} {m['name']:18s} {row['a']:12.5g} {row['b']:12.5g}"
                  f" {100 * row['worse']:+7.1f}% {100 * m['bound']:5.0f}%"
                  f" {100 * row['spread_a']:5.1f}/{100 * row['spread_b']:4.1f}%"
                  f" {row['wins']:3d}/{row['pairs']:<3d}  {row['verdict']}")
    failed = failures(docs_b)
    print(f"failed operations in B: {failed} (bound: 0)")
    regressions += failed > 0

    la, lb = samples(docs_a, True), samples(docs_b, True)
    for key in sorted(set(la) & set(lb)):
        exact = key[1] in spec.EXACT
        moved = exact and set(la[key]) != set(lb[key])
        regressions += moved
        if args.layers or moved:
            ma = stats.summary(la[key])["median"]
            mb = stats.summary(lb[key])["median"]
            print(f"{key[0]:16s} {key[1]:38s} {ma:12.6g} {mb:12.6g}"
                  + ("  EXACT COUNT MOVED: REGRESSION" if moved else ""))
    print(f"compare: {regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
