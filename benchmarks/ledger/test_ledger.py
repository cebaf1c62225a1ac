"""The ledger's own checks.  Run explicitly (tier-1 does not collect it):

    python -m pytest benchmarks/ledger -q

Uses ``--smoke`` sizes, whose output is marked non-comparable.
"""

import itertools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import compare
import gen
import spans
import spec
import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


# -- the contract file ---------------------------------------------------------


def test_benchmark_json_is_the_spec_and_within_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    assert doc == spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert all(set(m["owners"]) <= set(spec.WORKLOADS)
               for m in spec.PER_LAYER)


# -- helpers -------------------------------------------------------------------


def test_percentile_helper_picks_highest_with_ten_samples_beyond():
    assert stats.highest_percentile(9) is None
    assert stats.highest_percentile(19) is None
    assert stats.highest_percentile(20) == 50.0
    assert stats.highest_percentile(40) == 75.0
    assert stats.highest_percentile(100) == 90.0
    assert stats.highest_percentile(200) == 95.0
    assert stats.highest_percentile(999) == 95.0
    assert stats.highest_percentile(1000) == 99.0
    assert stats.highest_percentile(10000) == 99.9
    xs = list(range(1, 102))
    assert stats.percentile(xs, 50) == 51
    assert stats.percentile(xs, 95) == 96
    assert stats.percentile([3.0], 99) == 3.0
    assert stats.spread([9.0, 10.0, 10.0, 11.0]) == pytest.approx(0.15)


def _span(tracer, name, layer, start, end, parent=None, agg=False):
    s = spans.Span(next(tracer._ids), name, layer, start, parent, None, 0)
    s.end, s.agg = end, agg
    tracer.spans.append(s)
    return s


def test_span_self_time_arithmetic():
    t = spans.Tracer()
    job = _span(t, "service.run_job", "service", 0.0, 10.0)
    solve = _span(t, "fdfd.solve", "fdfd", 1.0, 9.0, parent=job.id)
    # Two real children that overlap: the union counts once.
    _span(t, "fdfd.residual", "fdfd", 2.0, 4.0, parent=solve.id)
    _span(t, "fdfd.residual", "fdfd", 3.0, 5.0, parent=solve.id)
    # An aggregate of hot calls: an exclusive sum, laid at the start.
    _span(t, "fdfd.update_h", "fdfd", 1.0, 3.5, parent=solve.id, agg=True)
    own = spans.self_times(t.spans)
    assert own[job.id] == pytest.approx(2.0)         # 10 - solve's 8
    assert own[solve.id] == pytest.approx(8.0 - 3.0 - 2.5)
    by_layer = spans.self_by_layer(t.spans)
    assert by_layer["service"] == pytest.approx(2.0)
    # Self times add up per layer (the overlapping pair counts twice:
    # on one thread real siblings never overlap).
    assert by_layer["fdfd"] == pytest.approx(2.5 + 2.0 + 2.0 + 2.5)


def test_hot_calls_fold_into_the_innermost_span_without_overlap():
    t = spans.Tracer()
    t.hot_names = lambda key: (
        ("core.tile", "core", None) if key == "tile"
        else ("fdfd.update_h", "fdfd", "core.tile"))
    outer = t.begin("core.executor_run", "core")
    t.hot("Hxy", 0.25)
    t.hot("Hxz", 0.25)
    t.hot("tile", 0.75)     # the tile enclosed both region updates
    t.finish(outer)
    by_name = {s.name: s for s in t.spans}
    assert by_name["fdfd.update_h"].calls == 2
    assert by_name["fdfd.update_h"].dur == pytest.approx(0.5)
    assert by_name["core.tile"].inclusive == pytest.approx(0.75)
    assert by_name["core.tile"].dur == pytest.approx(0.25)   # exclusive


def test_generator_is_deterministic_and_varies_with_the_seed():
    mix = {"cold": .1, "hit": .6, "read": .3}

    def serve_ops(seed):
        return list(itertools.islice(gen.serve_ops(seed, 0, mix), 200))

    for fn, args in ((gen.wavelengths, ("naive_scaling", 7, 40)),
                     (gen.thicknesses, ("tiled_campaign", 7, 10)),
                     (serve_ops, (7,))):
        assert fn(*args) == fn(*args)
    assert serve_ops(7) != serve_ops(8)
    assert gen.wavelengths("naive_scaling", 7, 40) != gen.wavelengths(
        "naive_scaling", 8, 40)
    assert len(set(gen.wavelengths("naive_scaling", 7, 400))) == 400
    # The mix is exact per block: the seed never changes the cold load.
    kinds = [kind for kind, _ in serve_ops(7)[20:40]]
    assert (kinds.count("cold"), kinds.count("hit")) == (2, 12)
    bws = spec.WORKLOADS["tune_cold"]["constants"]["heldback_bandwidths"]
    draws = {tuple(gen.heldback_bandwidths(s, 1, bws)) for s in range(20)}
    assert len(draws) > 1
    # Held back means off the paper's set (Fig. 6/7 and the ablation).
    assert not set(bws) & {25.0, 37.5, 50.0, 75.0}


# -- compare.py ----------------------------------------------------------------


def _pass(value, engine="native", failed=0):
    metrics = {m["name"]: {"value": value, "unit": m["unit"]}
               for m in spec.END_TO_END}
    return {"comparable": True,
            "fingerprint": {"host": "h", "engine": engine},
            "runs": [{"workload": w, "trace": False, "failed": failed,
                      "metrics": metrics} for w in spec.WORKLOADS]}


def test_compare_rules(tmp_path, capsys):
    def write(name, docs):
        path = tmp_path / name
        path.write_text("\n".join(json.dumps(d) for d in docs))
        return str(path)

    same = write("a.jsonl", [_pass(10.0 + 0.01 * k) for k in range(10)])
    assert compare.main(["--a", same, "--b", same]) == 0
    # Every metric twice its parent: the "lower is better" ones regress.
    worse = write("b.jsonl", [_pass(20.0 + 0.01 * k) for k in range(10)])
    assert compare.main(["--a", same, "--b", worse]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    failed = write("f.jsonl", [_pass(10.0, failed=1)])
    assert compare.main(["--a", same, "--b", failed]) == 1
    batch = write("e.jsonl", [_pass(10.0, engine="batch")])
    assert compare.main(["--a", same, "--b", batch]) == 2
    row = compare.judge([10, 11, 9, 10] * 3, [8, 8.2, 7.9, 8.1] * 3,
                        "lower", 0.12)
    assert row["verdict"] == "gain" and row["wins"] == 12
    noisy = compare.judge([10, 14, 7, 12] * 3, [10, 13, 8, 11] * 3,
                          "lower", 0.12)
    assert noisy["verdict"] == "unresolved"


# -- the harness end to end (smoke sizes) --------------------------------------


@pytest.fixture(scope="module")
def ledger():
    proc = run(["--smoke", "--seconds", "1", "--trace"])
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
    with open(os.path.join(HERE, "output", "ledger.json"),
              encoding="utf-8") as f:
        return json.load(f)


def test_every_declared_metric_is_emitted_with_its_unit(ledger):
    assert ledger["comparable"] is False
    runs = {(r["workload"], r["trace"]): r for r in ledger["runs"]}
    assert set(runs) == {(w, t) for w in spec.WORKLOADS
                         for t in (False, True)}
    for w in spec.WORKLOADS:
        untraced, traced = runs[(w, False)], runs[(w, True)]
        assert untraced["correct"] and traced["correct"]
        for m in spec.END_TO_END:
            got = untraced["metrics"][m["name"]]
            assert got["unit"] == m["unit"] and got["value"] > 0
            assert got["n"] >= 1
        assert set(traced["metrics"]) == {m["name"] for m in spec.PER_LAYER}
        for m in spec.PER_LAYER:
            got = traced["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            if w in m["owners"] and m["name"] not in (
                    # Too few sweeps for a snapshot at smoke sizes.
                    "resilience.ckpt_save_mb_per_s", "resilience.ckpt_bytes"):
                assert got["measured"], f"{m['name']} missing on {w}"
        assert os.path.exists(os.path.join(ROOT, traced["trace_file"]))
    with open(os.path.join(HERE, "output", "trace_tiled_campaign.json"),
              encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    assert {"service.run_job", "core.tile", "fdfd.update_h"} <= {
        e["name"] for e in events}


def test_exact_counts_are_equal_across_two_runs(ledger):
    runs = {(r["workload"], r["trace"]): r for r in ledger["runs"]}
    a = runs[("tune_cold", False)]["counts"]
    b = runs[("tune_cold", True)]["counts"]
    for key in ("machine.accesses_replayed", "machine.jobs_replayed"):
        assert a[key] == b[key] > 0


def test_contract_line_and_layer_separation(ledger):
    proc = run(["--workload", "naive_scaling", "--smoke", "--seconds", "1",
                "--trace", "0", "--seed", "3"])
    assert proc.returncode == 0
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in spec.END_TO_END}
    runs = {(r["workload"], r["trace"]): r["metrics"]
            for r in ledger["runs"]}
    assert runs[("naive_scaling", True)]["core.self_share_pct"]["value"] == 0
    assert runs[("tune_cold", True)]["fdfd.self_share_pct"]["value"] == 0
    tune = runs[("tune_cold", True)]
    assert (tune["machine.self_share_pct"]["value"]
            + tune["core.self_share_pct"]["value"]) >= 90


def test_corrupted_pins_and_missing_program_exit_non_zero(tmp_path):
    # A copy of the ledger next to a link to the real program.
    copy = tmp_path / "benchmarks" / "ledger"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns(
        "output", "__pycache__", ".pytest_cache"))
    script = str(copy / "run.py")
    bare = run(["--workload", "tune_cold", "--smoke", "--seconds", "1"],
               cwd=str(tmp_path), script=script)
    assert bare.returncode not in (0, None)
    assert not bare.stdout.strip().startswith("{")
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")

    expected = json.loads((copy / "expected_sim.json").read_text())
    expected["fig6:18"][2]["MLUPs"] += 0.1
    (copy / "expected_sim.json").write_text(json.dumps(expected))
    proc = run(["--workload", "tune_cold", "--smoke", "--seconds", "1"],
               cwd=str(tmp_path), script=script)
    assert proc.returncode == 1
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False

    pinned = json.loads((copy / "pinned.json").read_text())
    pinned["naive_scaling"]["smoke"]["checksum[0]"] = "0" * 64
    (copy / "pinned.json").write_text(json.dumps(pinned))
    proc = run(["--workload", "naive_scaling", "--smoke", "--seconds", "1"],
               cwd=str(tmp_path), script=script)
    assert proc.returncode == 1
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] >= 1
