"""Tests for the command-line interface (driven in-process)."""

import json
import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_args(self):
        args = build_parser().parse_args(
            ["plan", "--ny", "16", "--nz", "16", "--steps", "4", "--dw", "4"]
        )
        assert args.command == "plan" and args.bz == 1


class TestPlanCommand:
    def test_valid_plan(self, capsys):
        rc = main(["plan", "--ny", "24", "--nz", "16", "--steps", "6", "--dw", "4", "--bz", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dependency check: OK" in out
        assert "interior diamond" in out

    def test_invalid_dw(self):
        with pytest.raises(ValueError):
            main(["plan", "--ny", "16", "--nz", "16", "--steps", "4", "--dw", "3"])


class TestTuneCommand:
    def test_spatial(self, capsys):
        rc = main(["tune", "--grid", "128", "--threads", "4", "--variant", "spatial"])
        assert rc == 0
        assert "spatial@4t" in capsys.readouterr().out

    def test_mwd_with_bandwidth_override(self, capsys):
        rc = main(["tune", "--grid", "128", "--threads", "6", "--variant", "mwd",
                   "--bandwidth", "30"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "30 GB/s" in out


class TestFiguresCommand:
    def test_section3_with_json(self, tmp_path, capsys):
        rc = main(["figures", "--which", "section3", "--out", str(tmp_path)])
        assert rc == 0
        data = json.load(open(tmp_path / "section3.json"))
        assert any(r["quantity"] == "flops/LUP" for r in data)
        assert "Section III" in capsys.readouterr().out

    def test_fig5_quick(self, capsys):
        rc = main(["figures", "--which", "fig5", "--quick"])
        assert rc == 0
        assert "Fig. 5" in capsys.readouterr().out


class TestSolveCommand:
    def test_vacuum_solve_with_checkpoint(self, tmp_path, capsys):
        ckpt = str(tmp_path / "state.npz")
        vtk = str(tmp_path / "field.vtk")
        rc = main(["solve", "--preset", "vacuum", "--grid", "10",
                   "--wavelength", "10", "--tol", "1e-4", "--max-steps", "1500",
                   "--save", ckpt, "--vtk", vtk])
        assert rc == 0
        assert os.path.exists(ckpt) and os.path.exists(vtk)
        out = capsys.readouterr().out
        assert "converged" in out

    def test_tiled_solve(self, capsys):
        rc = main(["solve", "--preset", "absorber", "--grid", "10",
                   "--wavelength", "10", "--tol", "1e-4", "--max-steps", "2000",
                   "--tiled", "--dw", "4", "--bz", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "TiledTHIIM" in out and "converged" in out
        # `repro solve` builds the service's geometry: what it prints is
        # what run_job of the same spec stores.
        from repro.service import JobSpec, run_job

        doc = run_job(JobSpec(kind="solve", preset="absorber", grid=10,
                              wavelength=10.0, tol=1e-4, max_steps=2000,
                              tiled=True, dw=4, bz=2))
        assert (f"converged after {doc['iterations']} steps "
                f"(residual {doc['residual']:.3e})") in out
        assert (f"absorbed power: {doc['absorbed']:.4f} "
                f"(incident {doc['incident']:.4f})") in out


class TestBenchCommand:
    def test_bench_plan_profile(self, capsys):
        rc = main(["bench", "plan", "--grid", "48", "--top", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bench plan: result" in out
        assert "cumulative" in out  # pstats sort header

    def test_bench_measure_profile(self, capsys):
        rc = main(["bench", "measure", "--grid", "64", "--threads", "4", "--top", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Ordered by: cumulative time" in out
        assert "substrate counters" in out
        assert "timed sections (most expensive first):" in out
        assert "measure.tiled" in out

    def test_bench_section_times_sorted_descending(self, capsys):
        rc = main(["bench", "tune", "--grid", "64", "--threads", "4", "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        start = lines.index("timed sections (most expensive first):")
        times = []
        for line in lines[start + 1:]:
            if not line.startswith("  "):
                break
            times.append(float(line.split()[-2]))
        assert len(times) >= 2  # tune.score + measure.tiled at least
        assert times == sorted(times, reverse=True)

    def test_bench_rejects_unknown_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "nope"])


class TestCountersCommand:
    def test_tiled_tables(self, capsys):
        rc = main(["counters", "--workload", "tiled", "--grid", "96",
                   "--group", "MEM,CACHE"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Region measure.tiled, Group MEM" in out
        assert "Region measure.tiled, Group CACHE" in out
        assert "Code balance [B/LUP]" in out
        assert "Group WORK" not in out  # not requested

    def test_both_workloads_json(self, capsys):
        rc = main(["counters", "--workload", "both", "--grid", "64", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"measure.tiled", "measure.sweep"}
        for sample in doc.values():
            assert sample["lups"] > 0
            assert sample["derived"]["code_balance_B_per_LUP"] > 0

    def test_rejects_unknown_group(self):
        with pytest.raises(ValueError, match="unknown perf group"):
            main(["counters", "--workload", "tiled", "--grid", "64",
                  "--group", "TLB"])


class TestEngineFlag:
    @pytest.mark.parametrize("before", [None, "reference"])
    @pytest.mark.parametrize("argv", [
        ["bench", "measure", "--grid", "32", "--threads", "2", "--top", "1"],
        ["counters", "--workload", "both", "--grid", "32"],
    ], ids=["bench", "counters"])
    def test_engine_reaches_the_run_and_not_the_caller(
            self, argv, before, monkeypatch, capsys):
        """``--engine`` used to be assigned to ``os.environ`` for good:
        an in-process ``main`` leaked it into whatever ran next."""
        import os

        from repro.machine import measure

        if before is None:
            monkeypatch.delenv("REPRO_STREAM_ENGINE", raising=False)
        else:
            monkeypatch.setenv("REPRO_STREAM_ENGINE", before)
        resolve, seen = measure.resolve_engine, []
        monkeypatch.setattr(
            measure, "resolve_engine",
            lambda engine=None: seen.append(resolve(engine)) or seen[-1])
        assert main(argv + ["--engine", "batch"]) == 0
        capsys.readouterr()
        assert seen and set(seen) == {"batch"}
        assert os.environ.get("REPRO_STREAM_ENGINE") == before


class TestTraceCommand:
    def test_writes_both_formats(self, tmp_path, capsys):
        out_path = tmp_path / "tune.json"
        rc = main(["trace", "--out", str(out_path), "--grid", "64",
                   "--threads", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace:" in out and f"trace -> {out_path}" in out
        doc = json.load(open(out_path))
        cats = {e.get("cat") for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"autotune", "measure", "sim.tile"} <= cats
        assert (tmp_path / "tune.jsonl").exists()


class TestPerfGroupFlag:
    def test_tune_perf_group(self, capsys):
        from repro.machine import measure
        from repro.machine.pmu import GLOBAL_PMU

        measure._measure_tiled_cached.cache_clear()
        GLOBAL_PMU.reset()
        rc = main(["tune", "--grid", "96", "--threads", "4",
                   "--perf-group", "MEM"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MWD@4t" in out
        assert "Region measure.tiled, Group MEM" in out

    def test_solve_perf_group_synthesizes_work(self, capsys):
        from repro.machine.pmu import GLOBAL_PMU

        GLOBAL_PMU.reset()
        rc = main(["solve", "--preset", "vacuum", "--grid", "10",
                   "--wavelength", "10", "--tol", "1e-4",
                   "--max-steps", "1500", "--perf-group", "WORK"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Region solve, Group WORK" in out
        assert "RETIRED_FLOPS" in out


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()  # "repro <semver>"

    def test_version_matches_package_metadata(self):
        from repro.cli import package_version

        v = package_version()
        assert v and v[0].isdigit()


class TestEnvCommand:
    def test_table_lists_every_flag(self, capsys):
        from repro import config

        rc = main(["env"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in config.FLAGS:
            assert name in out
        assert "description" in out.splitlines()[0]

    def test_json_output(self, capsys, monkeypatch):
        from repro import config

        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "3")
        rc = main(["env", "--json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["flag"] for r in rows} == set(config.FLAGS)
        by_flag = {r["flag"]: r for r in rows}
        assert by_flag["REPRO_CHECKPOINT_EVERY"]["value"] == "3"


class TestSubmitCommand:
    def test_submit_wait_roundtrip(self, capsys):
        import threading

        from repro.service import Scheduler, make_server

        sched = Scheduler(workers=2).start()
        server = make_server(sched, port=0)
        t = threading.Thread(target=server.serve_forever, daemon=True)
        t.start()
        url = f"http://127.0.0.1:{server.server_port}"
        try:
            rc = main(["submit", "--url", url, "--preset", "vacuum",
                       "--grid", "10", "--wavelength", "10", "--tol", "1e-4",
                       "--max-steps", "20", "--threads", "2", "--wait"])
        finally:
            server.shutdown()
            server.server_close()
            sched.stop()
            t.join(timeout=5.0)
        assert rc == 0
        out = capsys.readouterr().out
        assert "done after" in out and "checksum:" in out

    def test_submit_validates_locally(self):
        # An invalid spec never leaves the process (no server needed).
        with pytest.raises(ValueError):
            main(["submit", "--url", "http://127.0.0.1:1", "--grid", "3"])


class TestCampaignCommand:
    def test_in_process_sweep_with_registry_reuse(self, tmp_path, capsys):
        out_path = tmp_path / "campaign.json"
        rc = main(["campaign", "--preset", "absorber", "--grid", "16",
                   "--threads", "2", "--tol", "1e-4", "--max-steps", "20",
                   "--wavelengths", "10,12", "--thicknesses", "0.2",
                   "--workers", "2", "--out", str(out_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign:" in out and "registry" in out
        # One tuning for the whole sweep: every job after the first is a
        # plan-registry hit (the compile-once/serve-many contract).
        assert "1 misses" in out
        rows = json.loads(out_path.read_text())
        assert len(rows) == 2
        assert all(r["state"] == "done" for r in rows)
        assert sum(1 for r in rows if r["registry_hit"]) == 1


class TestChaosCommand:
    def test_scenario_choices_are_the_table(self, capsys):
        from repro.resilience.scenarios import SCENARIOS

        parser = build_parser()
        for name in [*SCENARIOS, "all"]:
            args = parser.parse_args(["chaos", "--scenario", name])
            assert args.scenario == name
        with pytest.raises(SystemExit):
            parser.parse_args(["chaos", "--scenario", "no-such-row"])
        # argparse lists the choices in table order, then "all".
        listed = capsys.readouterr().err
        assert all(name in listed for name in SCENARIOS)

    def test_one_scenario_prints_its_line_and_the_summary(self, capsys):
        rc = main(["chaos", "--scenario", "crash-resume", "--seed", "7"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        [chaos] = [line for line in lines if line.startswith("CHAOS {")]
        doc = json.loads(chaos[len("CHAOS "):])
        assert set(doc) >= {"scenario", "ok", "seed", "schedule", "crashes",
                            "attempts", "resumed_from", "state",
                            "bit_identical", "checksum"}
        assert doc["scenario"] == "crash-resume" and doc["ok"] is True
        assert doc["seed"] == 7 and doc["schedule"].startswith("solver.sweep:")
        assert ('CHAOS-SUMMARY {"failed": [], "ok": true, "scenarios": 1}'
                in lines)
