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
        """``--save DIR`` writes the checkpoint a served job of the same
        spec writes: its name, its token, the solver's fields bit for bit."""
        import numpy as np

        from repro.fdfd import THIIMSolver
        from repro.resilience.checkpoint import CheckpointManager, solver_token
        from repro.service.jobs import JobSpec, _solve_geometry

        vtk = str(tmp_path / "field.vtk")
        rc = main(["solve", "--preset", "vacuum", "--grid", "10",
                   "--wavelength", "10", "--tol", "1e-4", "--max-steps", "1500",
                   "--save", str(tmp_path / "ckpt"), "--vtk", vtk])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged" in out and os.path.exists(vtk)

        spec = JobSpec(kind="solve", preset="vacuum", grid=10,
                       wavelength=10.0, tol=1e-4, max_steps=1500)
        grid, scene, _, source, pml = _solve_geometry(spec)
        solver = THIIMSolver(grid, 2 * np.pi / 10.0, scene=scene,
                             source=source, pml=pml)
        result = solver.solve(tol=1e-4, max_steps=1500)
        ckpt = CheckpointManager(
            str(tmp_path / "ckpt"), spec.job_id, strict=True,
            token=solver_token(solver, tol=1e-4, max_steps=1500,
                               check_every=20))
        assert f"checkpoint -> {ckpt.path}" in out
        saved = ckpt.load()
        assert saved.steps == result.iterations
        assert saved.history == [result.residual_history]
        for name in solver.fields:
            assert saved.arrays[name].tobytes() == solver.fields[name].tobytes()
        # The served job resumes the snapshot as finished: no sweep runs
        # (any would raise), and the document is the direct run's.
        from repro.resilience import faults
        from repro.service import run_job

        direct = run_job(spec)
        with faults.patched_env(REPRO_CHECKPOINT_EVERY="20",
                                REPRO_FAULTS="solver.sweep:raise"):
            assert run_job(spec, checkpoint_dir=str(tmp_path / "ckpt")) \
                == direct

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


class TestTraceCommand:
    def test_writes_both_formats(self, tmp_path, capsys, monkeypatch):
        """A trace of any command is ``REPRO_TRACE``; on a cold substrate a
        tune records the tuner, the measurements and the simulated tiles."""
        from repro.machine import clear_substrate_caches

        out_path = tmp_path / "tune.json"
        monkeypatch.setenv("REPRO_TRACE", str(out_path))
        clear_substrate_caches()
        rc = main(["tune", "--grid", "64", "--threads", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MWD@4t" in out and f"trace -> {out_path}" in out
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

    def test_repro_trace_covers_the_campaign(self, tmp_path, capsys,
                                             monkeypatch):
        """``REPRO_TRACE`` is the one route to a campaign trace: the file
        holds the ``campaign`` span and every job's spans."""
        path = tmp_path / "campaign-trace.json"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        rc = main(["campaign", "--preset", "absorber", "--grid", "16",
                   "--threads", "2", "--tol", "1e-4", "--max-steps", "20",
                   "--wavelengths", "10,12", "--thicknesses", "0.2",
                   "--workers", "2"])
        assert rc == 0
        assert f"trace -> {path}" in capsys.readouterr().out
        spans = [e for e in json.load(open(path))["traceEvents"]
                 if e["ph"] == "X"]
        names = [e["name"] for e in spans]
        assert "campaign 2 jobs" in names
        assert sum(n.startswith("job ") for n in names) == 2
        traces = {e["args"]["trace"] for e in spans
                  if e["name"].startswith("job ")}
        assert len(traces) == 2

    def test_parser_rejects_trace_option(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--trace", "t.json"])


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
