"""Command-line interface.

Fourteen subcommands cover the library's workflows::

    repro solve    --preset absorber --grid 48 --wavelength 12 --tol 1e-5
    repro tune     --grid 384 --threads 18 --variant mwd
    repro figures  --which fig6 --out results/
    repro plan     --ny 64 --nz 64 --steps 16 --dw 8 --bz 4
    repro bench    tune --engine reference --top 20
    repro counters --workload tiled --group MEM,CACHE
    repro trace    --out trace.json --grid 192
    repro serve    --port 8642 --workers 4 --registry plans/
    repro submit   --url http://127.0.0.1:8642 --preset tandem --wait
    repro campaign --preset tandem --wavelengths 10:16:0.5 --batch
    repro tail     <job-id> --url http://127.0.0.1:8642
    repro top      --url http://127.0.0.1:8642
    repro fleet    serve --spawn 3 --port 8640
    repro chaos    --seed 7 [--scenario NAME]
    repro env

``repro fleet`` is the multi-node tier: ``fleet serve`` runs a
consistent-hash gateway over N ``repro serve`` nodes (``--spawn N``
launches a local fleet), ``fleet status`` prints per-node liveness and
the shard-map version, and ``fleet spawn`` just launches nodes.

``serve``/``submit``/``campaign`` are the solve service (see
:mod:`repro.service`): a job scheduler + persistent plan registry behind
a stdlib HTTP JSON API.  ``repro serve`` shuts down gracefully on
SIGTERM/SIGINT: it stops accepting requests, drains in-flight jobs
(bounded by ``--drain-timeout``), spools still-queued jobs to
``--queue-file`` for the next process, and exits 0.  ``repro
chaos`` runs the seeded scenario table of
:mod:`repro.resilience.scenarios` (worker, rank and node kills,
corrupted artifacts) and reports, per scenario, which named invariants
held.  ``repro env`` documents every ``REPRO_*`` environment flag.

Observability switches:

* ``--perf-group GROUP[,GROUP]`` on ``solve`` / ``tune`` / ``figures``
  prints the simulated PMU's likwid-style counter tables after the run;
* ``REPRO_TRACE=path.json`` records a structured trace of any command
  and writes Chrome-trace JSON (``chrome://tracing`` / Perfetto) plus a
  JSONL sibling on exit;
* ``repro figures --which drift`` runs the model-vs-measured drift gate
  (exit code 3 when a point drifts beyond the budget).

``repro`` is installed as a console script; :func:`main` accepts an
``argv`` list so the tests can drive it in-process.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser", "package_version"]


def package_version() -> str:
    """The installed distribution version, falling back to the source
    tree's ``repro.__version__`` when running uninstalled."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from . import __version__

        return __version__


def build_parser() -> argparse.ArgumentParser:
    from .fdfd.presets import PRESETS
    from .resilience.scenarios import SCENARIOS

    p = argparse.ArgumentParser(
        prog="repro",
        description="THIIM electromagnetics + multicore wavefront diamond blocking (IPDPS'16 reproduction)",
    )
    p.add_argument("--version", action="version",
                   version=f"repro {package_version()}")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="run a THIIM solve on a preset scene")
    s.add_argument("--preset", choices=PRESETS, default="absorber")
    s.add_argument("--grid", type=int, default=48, help="cells per axis (z gets 2x)")
    s.add_argument("--wavelength", type=float, default=12.0)
    s.add_argument("--tol", type=float, default=1e-5)
    s.add_argument("--max-steps", type=int, default=3000)
    s.add_argument("--tiled", action="store_true",
                   help="advance through the wavefront-diamond traversal")
    s.add_argument("--dw", type=int, default=4)
    s.add_argument("--bz", type=int, default=2)
    s.add_argument("--save", metavar="FILE.npz", help="checkpoint the final fields")
    s.add_argument("--vtk", metavar="FILE.vtk", help="export |E|,|H| for visualization")
    _add_perf_group(s)

    t = sub.add_parser("tune", help="auto-tune blocking parameters on the machine model")
    t.add_argument("--grid", type=int, default=384)
    t.add_argument("--threads", type=int, default=18)
    t.add_argument("--variant", choices=("spatial", "1wd", "mwd"), default="mwd")
    t.add_argument("--tg-size", type=int, default=None,
                   help="pin the thread-group size (kWD)")
    t.add_argument("--bandwidth", type=float, default=None,
                   help="override the socket bandwidth in GB/s")
    _add_perf_group(t)

    f = sub.add_parser("figures", help="regenerate paper exhibits")
    f.add_argument("--which",
                   choices=("section3", "fig5", "fig6", "fig7", "fig8",
                            "ablations", "drift"),
                   default="section3")
    f.add_argument("--out", default=None, help="directory for JSON artifacts")
    f.add_argument("--quick", action="store_true",
                   help="reduced sweeps (for smoke testing)")
    _add_perf_group(f)

    pl = sub.add_parser("plan", help="build + validate a tiling plan")
    pl.add_argument("--ny", type=int, required=True)
    pl.add_argument("--nz", type=int, required=True)
    pl.add_argument("--steps", type=int, required=True)
    pl.add_argument("--dw", type=int, required=True)
    pl.add_argument("--bz", type=int, default=1)

    b = sub.add_parser(
        "bench", help="profile a named benchmark (cProfile, top cumulative hotspots)"
    )
    b.add_argument("name", choices=("tune", "measure", "sweep-measure", "plan", "kernels"),
                   help="which benchmark to profile")
    b.add_argument("--grid", type=int, default=384)
    b.add_argument("--threads", type=int, default=18)
    b.add_argument("--engine", choices=("reference", "batch", "native", "auto"),
                   default=None, help="replay engine (default: process setting)")
    b.add_argument("--top", type=int, default=20,
                   help="hotspot lines to print (default 20)")

    c = sub.add_parser(
        "counters", help="simulated PMU readout (the likwid-perfctr substitute)"
    )
    c.add_argument("--workload", choices=("tiled", "sweep", "both"), default="both",
                   help="which measurement campaign to run through the marker regions")
    c.add_argument("--grid", type=int, default=384)
    c.add_argument("--group", default="ALL",
                   help="counter groups to print: MEM, CACHE, WORK, or ALL "
                        "(comma-separated)")
    c.add_argument("--engine", choices=("reference", "batch", "native", "auto"),
                   default=None, help="replay engine (default: process setting)")
    c.add_argument("--json", action="store_true",
                   help="emit the raw samples as JSON instead of tables")

    tr = sub.add_parser(
        "trace", help="record a structured trace of a small tuned run"
    )
    tr.add_argument("--out", default="trace.json",
                    help="Chrome-trace output path (JSONL written next to it)")
    tr.add_argument("--grid", type=int, default=192)
    tr.add_argument("--threads", type=int, default=18)

    sv = sub.add_parser("serve", help="run the solve service (HTTP JSON API)")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8642,
                    help="listen port (0 = pick an ephemeral port)")
    sv.add_argument("--workers", type=int, default=2)
    sv.add_argument("--queue-size", type=int, default=64,
                    help="bounded queue depth (backpressure beyond this)")
    sv.add_argument("--mode", choices=("thread", "process"), default="process",
                    help="worker isolation (process survives worker crashes)")
    sv.add_argument("--registry", default=None, metavar="DIR",
                    help="plan registry dir (default: in-memory)")
    sv.add_argument("--results", default=None, metavar="DIR",
                    help="result store dir (default: in-memory)")
    sv.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                    help="solver checkpoint dir (needs "
                         "REPRO_CHECKPOINT_EVERY > 0; default: "
                         "REPRO_CHECKPOINT_DIR, else a temp dir)")
    sv.add_argument("--drain-timeout", type=float, default=10.0,
                    metavar="SECONDS",
                    help="graceful-shutdown drain budget")
    sv.add_argument("--queue-file", default=None, metavar="FILE",
                    help="spool queued jobs here on shutdown and restore "
                         "them on start")
    sv.add_argument("--data-dir", default=None, metavar="DIR",
                    help="one persistent per-node state root: derives the "
                         "registry/results/checkpoint dirs and queue file "
                         "unless given explicitly")
    sv.add_argument("--lease-dir", default=None, metavar="DIR",
                    help="heartbeat a membership lease file here so "
                         "lease-driven gateways discover this node")

    tl = sub.add_parser(
        "tail", help="stream a job's live progress events (NDJSON follow)")
    tl.add_argument("job_id", help="the job id to follow")
    tl.add_argument("--url", default="http://127.0.0.1:8642")
    tl.add_argument("--raw", action="store_true",
                    help="print the raw JSON event lines instead of the "
                         "human-readable digest")
    tl.add_argument("--timeout", type=float, default=300.0,
                    help="overall read timeout in seconds")

    tp = sub.add_parser(
        "top", help="one-shot service snapshot: queue, rates, live jobs")
    tp.add_argument("--url", default="http://127.0.0.1:8642")
    tp.add_argument("--json", action="store_true",
                    help="emit the raw snapshot JSON instead of the table")

    ch = sub.add_parser(
        "chaos",
        help="run the seeded chaos scenario table (worker, node and "
             "artifact faults)",
    )
    ch.add_argument("--scenario", choices=[*SCENARIOS, "all"],
                    default="all")
    ch.add_argument("--seed", type=int, default=0,
                    help="derives the injection point and the victim")
    ch.add_argument("--grid", type=int, default=12,
                    help="solve grid of the crash and fleet scenarios")
    ch.add_argument("--list-sites", action="store_true",
                    help="print the named injection sites and exit")

    cl = sub.add_parser(
        "cluster",
        help="rank candidate process-grid decompositions (comm cost model)",
    )
    cl.add_argument("--grid", type=int, default=48,
                    help="cells per axis (z gets 2x, same as solve jobs)")
    cl.add_argument("--ranks", type=int, default=4,
                    help="rank processes to factor into a PZxPYxPX grid")
    cl.add_argument("--json", action="store_true",
                    help="emit the ranked table as JSON instead of text")

    fl = sub.add_parser(
        "fleet",
        help="multi-node serving: a consistent-hash gateway over N nodes",
    )
    flsub = fl.add_subparsers(dest="fleet_command", required=True)
    fls = flsub.add_parser(
        "serve", help="run the gateway (optionally spawning local nodes)")
    fls.add_argument("--host", default="127.0.0.1")
    fls.add_argument("--port", type=int, default=8640,
                     help="gateway listen port (0 = ephemeral)")
    fls.add_argument("--nodes", default=None, metavar="URL,URL,...",
                     help="base URLs of running repro serve nodes")
    fls.add_argument("--spawn", type=int, default=0, metavar="N",
                     help="spawn N local serve nodes on ephemeral ports "
                          "(torn down with the gateway)")
    fls.add_argument("--workers", type=int, default=2,
                     help="workers per spawned node")
    fls.add_argument("--mode", choices=("thread", "process"),
                     default="process", help="worker mode of spawned nodes")
    fls.add_argument("--heartbeat", type=float, default=1.0,
                     metavar="SECONDS", help="node heartbeat cadence")
    fls.add_argument("--node-timeout", type=float, default=60.0,
                     metavar="SECONDS",
                     help="per-request timeout when forwarding to a node")
    fls.add_argument("--lease-dir", default=None, metavar="DIR",
                     help="derive membership from lease files in this "
                          "shared directory instead of (or in addition "
                          "to) --nodes")
    fls.add_argument("--data-root", default=None, metavar="DIR",
                     help="with --spawn: give node i a persistent data "
                          "dir DIR/node<i> (registry, results, "
                          "checkpoints, spooled queue)")
    fls.add_argument("--quota", type=float, default=0.0, metavar="PER_S",
                     help="per-tenant submit quota in requests/second; "
                          "0 disables")
    fls.add_argument("--quota-burst", type=float, default=0.0,
                     metavar="TOKENS",
                     help="per-tenant burst depth (0 = twice the quota "
                          "rate, at least 1)")
    fls.add_argument("--retry-budget", type=float, default=60.0,
                     metavar="PER_MIN",
                     help="global failover/resubmit budget per minute; "
                          "0 disables")
    flst = flsub.add_parser(
        "status", help="one-shot fleet health + shard-map snapshot")
    flst.add_argument("--url", default="http://127.0.0.1:8640",
                      help="gateway base URL")
    flst.add_argument("--json", action="store_true")
    flst.add_argument("--timeout", type=float, default=2.0,
                      metavar="SECONDS",
                      help="per-probe timeout; slow/dead targets degrade "
                           "to DOWN markers instead of hanging the status")
    flsp = flsub.add_parser(
        "spawn", help="spawn N local serve nodes and print their URLs")
    flsp.add_argument("-n", "--count", type=int, default=3)
    flsp.add_argument("--workers", type=int, default=2)
    flsp.add_argument("--mode", choices=("thread", "process"),
                      default="process")
    flsp.add_argument("--data-root", default=None, metavar="DIR",
                      help="give node i the persistent data dir "
                           "<DIR>/node<i>")
    flsp.add_argument("--lease-dir", default=None, metavar="DIR",
                      help="nodes heartbeat membership leases here")

    sb = sub.add_parser("submit", help="submit a job to a running service")
    sb.add_argument("--url", default="http://127.0.0.1:8642")
    _add_jobspec_args(sb)
    sb.add_argument("--priority", type=int, default=0,
                    help="larger runs earlier (FIFO within a level)")
    sb.add_argument("--wait", action="store_true",
                    help="poll until the job is terminal and print the result")
    sb.add_argument("--timeout", type=float, default=300.0)

    cp = sub.add_parser(
        "campaign",
        help="parameter sweep (thickness x wavelength) through the scheduler",
    )
    _add_jobspec_args(cp, campaign=True)
    cp.add_argument("--wavelengths", default="10,12,14,16",
                    metavar="L1,L2,... | LO:HI:STEP",
                    help="comma list and/or inclusive ranges, e.g. "
                         "'10:16:0.5' or '10,12:14:1,16'")
    cp.add_argument("--thicknesses", default="0.10,0.16,0.22",
                    metavar="T1,T2,... | LO:HI:STEP",
                    help="absorber thickness fractions (same syntax)")
    cp.add_argument("--batch", action="store_true",
                    help="solve each thickness's wavelengths as ONE batched "
                         "job (12 x k stacked fields, per-point results "
                         "deduplicated against and fanned out to the store)")
    cp.add_argument("--workers", type=int, default=2)
    cp.add_argument("--url", default=None,
                    help="submit to a running service instead of in-process")
    cp.add_argument("--trace", default=None, metavar="FILE.json",
                    help="write one Chrome trace covering the whole campaign")
    cp.add_argument("--out", default=None, metavar="FILE.json",
                    help="save the campaign table as JSON")
    cp.add_argument("--timeout", type=float, default=600.0)

    e = sub.add_parser("env", help="list every REPRO_* environment flag")
    e.add_argument("--json", action="store_true")
    return p


def _add_jobspec_args(sp: argparse.ArgumentParser, campaign: bool = False) -> None:
    """Shared job-spec arguments of ``submit`` and ``campaign``."""
    from .fdfd.presets import PRESETS

    sp.add_argument("--kind", choices=("solve", "tune", "distributed"),
                    default="solve")
    sp.add_argument("--ranks", default=None, metavar="N | PZxPYxPX",
                    help="fan the solve across real rank processes "
                         "(implies kind=distributed; a bare count lets "
                         "the comm cost model pick the grid)")
    sp.add_argument("--preset", choices=PRESETS,
                    default="tandem" if campaign else "absorber")
    sp.add_argument("--grid", type=int, default=16 if campaign else 48)
    if not campaign:
        sp.add_argument("--wavelength", type=float, default=12.0)
        sp.add_argument("--thickness", type=float, default=None)
    sp.add_argument("--tol", type=float, default=1e-4 if campaign else 1e-5)
    sp.add_argument("--max-steps", type=int, default=3000)
    if campaign:
        sp.add_argument("--no-tiled", dest="tiled", action="store_false",
                        help="plain sweeps instead of tuned MWD traversals")
        sp.set_defaults(tiled=True)
    else:
        sp.add_argument("--tiled", action="store_true")
    sp.add_argument("--dw", type=int, default=4)
    sp.add_argument("--bz", type=int, default=2)
    sp.add_argument("--threads", type=int, default=18)
    sp.add_argument("--tuning", choices=("spec", "registry"),
                    default="registry" if campaign else "spec",
                    help="where tiled solves get their (Dw, Bz) plan")
    if campaign:
        sp.add_argument("--registry", default=None, metavar="DIR",
                        help="plan registry dir (default: in-memory)")


def _add_perf_group(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--perf-group", default=None, metavar="GROUP[,GROUP]",
                    help="print simulated PMU counter groups after the run "
                         "(MEM, CACHE, WORK, or ALL)")


def _cmd_solve(args) -> int:
    from .core.tiled_solver import TiledTHIIM
    from .fdfd import THIIMSolver, absorbed_power, poynting_flux_z
    from .service.jobs import JobSpec, _solve_geometry

    # The construction path of the solve service itself (bit-identical
    # scenes between `repro solve` and served jobs).
    spec = JobSpec(kind="solve", preset=args.preset, grid=args.grid,
                   wavelength=args.wavelength, tol=args.tol,
                   max_steps=args.max_steps, tiled=args.tiled,
                   dw=args.dw, bz=args.bz)
    grid, scene, source_plane, source, pml = _solve_geometry(spec)
    omega = 2 * np.pi / args.wavelength
    solver = THIIMSolver(grid, omega, scene=scene, source=source, pml=pml)
    print(f"solve: preset={args.preset} grid={grid.shape} omega={omega:.4f} "
          f"tau={solver.tau:.4f} tiled={args.tiled}")

    if args.tiled:
        driver = TiledTHIIM(solver, dw=args.dw, bz=args.bz)
        result = driver.solve(tol=args.tol, max_steps=args.max_steps)
        print(driver.describe())
    else:
        result = solver.solve(tol=args.tol, max_steps=args.max_steps)

    status = "converged" if result.converged else "NOT converged"
    print(f"{status} after {result.iterations} steps (residual {result.residual:.3e})")
    if scene is not None:
        total = absorbed_power(solver.fields, solver.sigma)
        inc = poynting_flux_z(solver.fields, source_plane + 4)
        print(f"absorbed power: {total:.4f} (incident {inc:.4f})")

    if args.save:
        from .io import save_state
        print(f"checkpoint -> {save_state(solver.fields, args.save)}")
    if args.vtk:
        from .io import export_vtk
        print(f"vtk -> {export_vtk(solver.fields, args.vtk)}")
    if args.perf_group:
        # The solver runs real kernels, not the cache model, so only the
        # WORK group has nonzero events: synthesize it from the step count.
        from .machine.pmu import GLOBAL_PMU, PerfSample

        cells = grid.nz * grid.ny * grid.nx
        GLOBAL_PMU.add_sample("solve", PerfSample(
            cells=2 * result.iterations * cells,
            lups=float(result.iterations) * cells,
        ))
        print()
        print(GLOBAL_PMU.report(args.perf_group, regions=["solve"]))
    return 0 if result.converged else 2


def _cmd_tune(args) -> int:
    from .core.autotuner import tune_variant
    from .machine import HASWELL_EP

    spec = HASWELL_EP
    if args.bandwidth:
        spec = spec.with_bandwidth(args.bandwidth)
    print(f"machine: {spec.name} ({spec.cores} cores, {spec.bandwidth_gbs:g} GB/s)")

    point = tune_variant(spec, args.grid, args.threads,
                         variant=args.variant, tg_size=args.tg_size)
    if point is None:
        print("no feasible configuration")
        return 2
    print(point.describe())
    _print_perf_groups(args)
    return 0


def _print_perf_groups(args) -> None:
    """Shared ``--perf-group`` epilogue: likwid-style region tables."""
    if getattr(args, "perf_group", None):
        from .machine.pmu import GLOBAL_PMU

        print()
        print(GLOBAL_PMU.report(args.perf_group))


def _save_figure_json(args, name: str, data) -> None:
    import os

    from . import experiments as ex

    path = os.path.join(args.out, f"{name}.json")
    ex.save_json(data, path)
    print(f"saved -> {path}")


def _cmd_drift(args) -> int:
    """The model-vs-measured drift gate (``figures --which drift``)."""
    from . import experiments as ex

    rep = ex.fig5_drift_report()
    print(ex.format_table(
        rep.rows,
        title=f"Fig. 5 drift: PMU-measured vs pinned baseline "
              f"(budget {rep.budget:.1%})",
    ))
    status = "OK" if rep.ok else "FAIL"
    print(f"drift gate: {status} (worst {rep.worst:.2f}%, budget {rep.budget:.1%})")
    if args.out:
        _save_figure_json(args, "drift", rep.to_json())
    return 0 if rep.ok else 3


def _cmd_figures(args) -> int:
    from . import experiments as ex

    quick = args.quick
    if args.which == "drift":
        return _cmd_drift(args)
    if args.which == "section3":
        rows = ex.section3_table()
        title = "Section III"
    elif args.which == "fig5":
        rows = ex.fig5_cache_model(
            dw_values=(4, 8) if quick else (4, 8, 12, 16),
            bz_values=(1,) if quick else (1, 6, 9),
        )
        title = "Fig. 5"
    elif args.which == "fig6":
        rows = ex.fig6_thread_scaling(threads=(1, 6, 18) if quick else None)
        title = "Fig. 6"
    elif args.which == "fig7":
        rows = ex.fig7_grid_scaling(grids=(64, 192) if quick else ex.GRIDS)
        title = "Fig. 7"
    elif args.which == "fig8":
        rows = ex.fig8_tg_size(
            tg_sizes=(1, 18) if quick else (1, 2, 6, 9, 18),
            grids=(64, 192) if quick else ex.GRIDS,
        )
        title = "Fig. 8"
    else:
        rows = ex.ablation_machine_balance(bandwidths=(25.0, 50.0) if quick else (25.0, 37.5, 50.0, 75.0))
        rows += ex.ablation_thin_domain()
        title = "Ablations"
    print(ex.format_table(rows, title=title))
    if args.out:
        _save_figure_json(args, args.which, rows)
    rc = 0
    if args.which == "fig5" and not quick:
        # The fig5 sweep just measured every pinned drift point (and the
        # memoization keeps them warm), so the gate is nearly free here.
        print()
        rc = _cmd_drift(args)
    _print_perf_groups(args)
    return rc


def _cmd_plan(args) -> int:
    from .core import TilingPlan

    plan = TilingPlan.build(ny=args.ny, nz=args.nz, timesteps=args.steps,
                            dw=args.dw, bz=args.bz)
    plan.validate()
    print(plan.describe())
    print("dependency check: OK (every read at the exact time level)")
    interior = plan.interior_tiles()
    if interior:
        t = interior[0]
        print(f"interior diamond: {t.n_nodes} nodes, {t.lups:.0f} LUPs/column, "
              f"rows {t.rows[0].field}...{t.rows[-1].field}")
    return 0


def _bench_cases(args) -> dict:
    """Named benchmark bodies for ``repro bench`` (each runs cold)."""
    from .core.autotuner import tune_tiled
    from .core.plan import TilingPlan
    from .machine import (
        HASWELL_EP,
        measure_sweep_code_balance,
        measure_tiled_code_balance,
    )

    def bench_tune():
        return tune_tiled(HASWELL_EP, args.grid, args.threads)

    def bench_measure():
        return measure_tiled_code_balance(
            HASWELL_EP, nx=args.grid, dw=8, bz=4, n_streams=max(args.threads // 2, 1)
        )

    def bench_sweep_measure():
        return measure_sweep_code_balance(
            HASWELL_EP, nx=args.grid, ny=args.grid, block_y=16, threads=args.threads
        )

    def bench_plan():
        return TilingPlan.build(
            ny=args.grid, nz=args.grid, timesteps=32, dw=16, bz=4
        ).n_tiles

    def bench_kernels():
        import numpy as np

        from .fdfd import FieldState, Grid, naive_sweep, random_coefficients

        n = min(args.grid, 48)
        grid = Grid.cube(n)
        coeffs = random_coefficients(grid, seed=1)
        fields = FieldState(grid).fill_random(np.random.default_rng(2))
        return naive_sweep(fields, coeffs, 2)

    return {
        "tune": bench_tune,
        "measure": bench_measure,
        "sweep-measure": bench_sweep_measure,
        "plan": bench_plan,
        "kernels": bench_kernels,
    }


def _cmd_bench(args) -> int:
    import cProfile
    import io
    import pstats

    from .machine import SUBSTRATE_COUNTERS, clear_substrate_caches
    from .resilience.faults import patched_env

    # Cold-start every memoization layer so the profile reflects real work.
    clear_substrate_caches()
    SUBSTRATE_COUNTERS.reset()
    fn = _bench_cases(args)[args.name]

    prof = cProfile.Profile()
    # --engine reaches the measurements under the tuner through the flag,
    # for this call only.
    engine = {"REPRO_STREAM_ENGINE": args.engine} if args.engine else {}
    with patched_env(**engine):
        result = prof.runcall(fn)
    print(f"bench {args.name}: result = {result!r}")

    buf = io.StringIO()
    stats = pstats.Stats(prof, stream=buf)
    stats.sort_stats("cumulative").print_stats(args.top)
    print(buf.getvalue())
    snap = SUBSTRATE_COUNTERS.snapshot()
    if snap["jobs_replayed"]:
        print(f"substrate counters: {snap}")
    sections = SUBSTRATE_COUNTERS.sections_by_time()
    if sections:
        print("timed sections (most expensive first):")
        for name, secs in sections:
            print(f"  {name:<24} {secs * 1e3:10.2f} ms")
    return 0


def _cmd_counters(args) -> int:
    import json

    from .machine import clear_substrate_caches, measure
    from .machine.pmu import GLOBAL_PMU
    from .machine.spec import HASWELL_EP

    # Cold-start so the marker regions actually fire (memoized results
    # skip the replay, and with it the region enter/exit).
    clear_substrate_caches()
    GLOBAL_PMU.reset()

    n = args.grid
    if args.workload in ("tiled", "both"):
        measure.measure_tiled_code_balance(HASWELL_EP, nx=n, dw=8, bz=9,
                                           n_streams=1, engine=args.engine)
    if args.workload in ("sweep", "both"):
        measure.measure_sweep_code_balance(HASWELL_EP, nx=n, ny=n, block_y=16,
                                           engine=args.engine)

    if args.json:
        print(json.dumps(GLOBAL_PMU.to_json(), indent=2, sort_keys=True))
    else:
        print(GLOBAL_PMU.report(args.group))
    return 0


def _cmd_trace(args) -> int:
    from .core import tracing
    from .core.autotuner import tune_tiled
    from .machine import HASWELL_EP, clear_substrate_caches

    clear_substrate_caches()
    tracing.start_trace(args.out)
    point = tune_tiled(HASWELL_EP, args.grid, args.threads)
    rec, written = tracing.stop_trace()
    if point is not None:
        print(point.describe())
    print(f"trace: {len(rec)} events " +
          " ".join(f"{k}={v}" for k, v in rec.summary().items()))
    for w in written:
        print(f"trace -> {w}")
    return 0


# -- the solve service ---------------------------------------------------------


def _spec_from_args(args, wavelength=None, thickness=None) -> dict:
    """A JobSpec payload from submit/campaign arguments."""
    spec = {
        "kind": args.kind,
        "preset": args.preset,
        "grid": args.grid,
        "wavelength": wavelength if wavelength is not None else args.wavelength,
        "thickness": thickness if thickness is not None else getattr(args, "thickness", None),
        "tol": args.tol,
        "max_steps": args.max_steps,
        "tiled": args.tiled,
        "dw": args.dw,
        "bz": args.bz,
        "threads": args.threads,
        "tuning": args.tuning,
    }
    ranks = getattr(args, "ranks", None)
    if ranks:
        # ``--ranks`` alone is the ergonomic path: promote a plain solve
        # to a distributed job (which always runs the naive sweep).
        if spec["kind"] == "solve":
            spec["kind"] = "distributed"
        spec["ranks"] = ranks
        spec["tiled"] = False
    return spec


def _cmd_serve(args) -> int:
    import os
    import signal
    import threading

    import uuid

    from . import config
    from .service import PlanRegistry, ResultStore, Scheduler, make_server

    # One node identity for the whole process: the HTTP layer reports it
    # (/healthz, X-Repro-Node) and persisted artifacts carry it as
    # provenance, so a fleet's shards stay attributable.
    node_id = config.get("REPRO_NODE_ID") or uuid.uuid4().hex[:12]

    def _in_data(piece: str):
        """--data-dir is one root for every piece of persistent node
        state; an explicit per-piece flag wins."""
        return os.path.join(args.data_dir, piece) if args.data_dir else None

    registry = PlanRegistry(args.registry or _in_data("registry"),
                            node_id=node_id)
    store = ResultStore(args.results or _in_data("results"), node_id=node_id)
    sched = Scheduler(
        workers=args.workers, queue_size=args.queue_size,
        registry=registry, store=store, mode=args.mode,
        checkpoint_dir=args.checkpoint_dir or _in_data("checkpoints"),
    ).start()
    queue_file = args.queue_file or _in_data("queue.json")
    if queue_file and os.path.exists(queue_file):
        restored = sched.restore_queue(queue_file)
        if restored:
            print(f"restored {restored} queued job(s) from {queue_file}",
                  flush=True)
    server = make_server(sched, host=args.host, port=args.port,
                         node_id=node_id)
    # Lease-file membership: heartbeat our URL into the shared lease
    # directory so lease-driven gateways discover (and expire) this node.
    lease = None
    if args.lease_dir:
        from .fleet.leases import LeaseHeartbeat

        os.makedirs(args.lease_dir, exist_ok=True)
        lease = LeaseHeartbeat(
            args.lease_dir, node_id,
            f"http://{args.host}:{server.server_port}").start()

    def _on_signal(signum, frame):
        # Flip /healthz to draining and unwind serve_forever.  shutdown()
        # blocks until the serve loop exits, so it must run off-thread
        # (the handler fires *inside* that loop's thread).
        server.draining = True
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    print(f"repro service on http://{args.host}:{server.server_port} "
          f"(node {node_id}, {args.workers} {args.mode} workers, "
          f"queue {args.queue_size}, "
          f"registry {registry.root or 'in-memory'})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    # Graceful shutdown: no new dispatch, bounded wait for in-flight
    # jobs, then spool whatever is still queued for the next process.
    if lease is not None:
        lease.stop(clear=True)  # graceful leave, not a lease expiry
    budget = args.drain_timeout
    drained = sched.drain(timeout=budget)
    spooled = 0
    if queue_file:
        spooled = sched.persist_queue(queue_file)
    server.server_close()
    sched.stop()
    line = "drained" if drained else f"drain timed out after {budget:g}s"
    if spooled:
        line += f"; spooled {spooled} queued job(s) -> {queue_file}"
    print(f"shutdown: {line}", flush=True)
    return 0


def _cmd_fleet(args) -> int:
    return {
        "serve": _cmd_fleet_serve,
        "status": _cmd_fleet_status,
        "spawn": _cmd_fleet_spawn,
    }[args.fleet_command](args)


def _cmd_fleet_serve(args) -> int:
    import signal
    import threading

    from . import telemetry
    from .fleet import NodeRegistry, make_gateway, spawn_local_fleet

    urls = [u.strip().rstrip("/")
            for u in (args.nodes or "").split(",") if u.strip()]
    spawned = []
    if args.spawn:
        spawned = spawn_local_fleet(args.spawn, workers=args.workers,
                                    mode=args.mode, lease_dir=args.lease_dir,
                                    data_root=args.data_root)
        for node in spawned:
            print(f"spawned {node.node_id} -> {node.url} "
                  f"(pid {node.proc.pid})", flush=True)
        urls += [node.url for node in spawned]
    if not urls and args.lease_dir is None:
        print("fleet serve: no nodes (use --nodes URL,..., --spawn N "
              "and/or --lease-dir DIR)")
        return 2
    telemetry.enable()
    if args.lease_dir:
        import os

        os.makedirs(args.lease_dir, exist_ok=True)
    registry = NodeRegistry(urls, interval_s=args.heartbeat,
                            lease_dir=args.lease_dir)
    registry.check_once()  # learn node ids before the first request
    registry.start()
    gateway = make_gateway(registry, host=args.host, port=args.port,
                           node_timeout_s=args.node_timeout,
                           quota=args.quota, quota_burst=args.quota_burst,
                           retry_budget=args.retry_budget)

    def _on_signal(signum, frame):
        threading.Thread(target=gateway.shutdown, daemon=True).start()

    previous = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    alive = len(registry.alive_urls())
    lease_note = f", leases {args.lease_dir}" if args.lease_dir else ""
    print(f"repro fleet gateway on http://{args.host}:{gateway.server_port} "
          f"({alive}/{len(registry.urls)} node(s) alive, shard map "
          f"v{registry.version}, {registry.replicas} owners/key"
          f"{lease_note})", flush=True)
    try:
        gateway.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    registry.stop()
    gateway.server_close()
    for node in spawned:
        node.terminate()
    line = f"; stopped {len(spawned)} spawned node(s)" if spawned else ""
    print(f"fleet gateway shut down{line}", flush=True)
    return 0


def _cmd_fleet_status(args) -> int:
    """Fleet snapshot that degrades instead of hanging: the gateway and
    every node are probed with a short per-probe timeout, and whatever
    does not answer is shown as DOWN rather than failing the command."""
    import json as _json

    from .fleet.router import http_request

    def _probe(url: str):
        try:
            status, doc, _ = http_request("GET", f"{url}/healthz",
                                          timeout=args.timeout)
        except Exception as exc:  # noqa: BLE001 - a dead probe is data
            return {"ok": False, "error": str(exc) or type(exc).__name__}
        if status != 200:
            return {"ok": False, "error": f"HTTP {status}", **(
                doc if isinstance(doc, dict) else {})}
        return dict(doc, ok=doc.get("ok", True))

    gateway = _probe(args.url)
    nodes = gateway.get("nodes") or []
    probes = {n["url"]: _probe(n["url"]) for n in nodes}
    if args.json:
        print(_json.dumps({"gateway_url": args.url, "gateway": gateway,
                           "probes": probes},
                          indent=2, sort_keys=True))
        return 0 if gateway.get("ok") else 2
    print(f"repro fleet -- {args.url}")
    if "error" in gateway and not nodes:
        print(f"gateway DOWN: {gateway['error']}")
        return 2
    admission = gateway.get("admission") or {}
    quota = admission.get("quota_per_s") or 0
    budget = admission.get("retry_budget_per_min") or 0
    print(f"shard map v{gateway.get('shard_version')}, "
          f"{gateway.get('alive')}/{len(nodes)} "
          f"node(s) alive, {gateway.get('replicas')} owners/key, "
          f"quota {quota:g}/s, retry budget {budget:g}/min"
          + ("" if gateway.get("ok") else "  [NO LIVE NODES]"))
    print(f"{'url':<28} {'node_id':<14} {'state':>6} {'probe':>6} {'flags'}")
    for node in nodes:
        probe = probes.get(node["url"]) or {}
        flags = ",".join(f for f in
                         ("stale" if node.get("stale") else "",
                          "split-brain" if node.get("split_brain") else "")
                         if f) or "-"
        direct = "ok" if probe.get("ok") else "DOWN"
        print(f"{node['url']:<28} {str(node.get('node_id')):<14} "
              f"{node['state']:>6} {direct:>6} {flags}")
    return 0 if gateway.get("ok") else 2


def _cmd_fleet_spawn(args) -> int:
    import time

    from .fleet import spawn_local_fleet

    import os

    if args.lease_dir:
        os.makedirs(args.lease_dir, exist_ok=True)
    nodes = spawn_local_fleet(args.count, workers=args.workers,
                              mode=args.mode,
                              data_root=args.data_root,
                              lease_dir=args.lease_dir)
    for node in nodes:
        print(f"{node.node_id} {node.url} pid {node.proc.pid}", flush=True)
    print("--nodes " + ",".join(node.url for node in nodes), flush=True)
    print("Ctrl-C stops the nodes", flush=True)
    try:
        while any(node.alive for node in nodes):
            time.sleep(0.5)
    except KeyboardInterrupt:
        pass
    for node in nodes:
        node.terminate()
    return 0


def _print_job_result(doc: dict) -> None:
    res = doc.get("result") or {}
    if res.get("kind") == "solve":
        line = (f"solve: {res['iterations']} steps, residual "
                f"{res['residual']:.3e}, "
                f"{'converged' if res['converged'] else 'NOT converged'}")
        if "absorbed" in res:
            line += f", absorbed {res['absorbed']:.4f}"
        print(line)
        print(f"checksum: {res['checksum']}")
    elif res.get("kind") == "tune":
        print(res.get("describe") or "no feasible configuration")
        print(f"registry hit: {res.get('registry_hit')}")


def _cmd_submit(args) -> int:
    from .fleet.router import http_request, poll_job
    from .service.jobs import JobSpec, JobState

    spec = dict(_spec_from_args(args), priority=args.priority)
    JobSpec.from_dict(spec)  # validate locally before the round trip
    status, doc, _ = http_request("POST", f"{args.url}/jobs", payload=spec)
    if status == 503:
        print(f"rejected (backpressure): {doc.get('error')}")
        return 3
    if status != 202:
        print(f"submit failed ({status}): {doc.get('error')}")
        return 2
    dedup = " (deduplicated)" if doc.get("dedup_count") else ""
    cached = " (served from store)" if doc.get("from_store") else ""
    print(f"job {doc['id']} {doc['state']}{dedup}{cached}")
    if not args.wait:
        return 0
    doc = poll_job(args.url, doc["id"], args.timeout)
    print(f"job {doc['id']} {doc['state']} after {doc['attempts']} attempt(s)")
    _print_job_result(doc)
    return 0 if doc["state"] == JobState.DONE else 2


def _parse_sweep_values(text: str, name: str) -> list:
    """Sweep-axis values from comma lists and/or ``lo:hi:step`` ranges.

    Each comma-separated token is a scalar or an inclusive range
    (``10:16:0.5`` -> 10, 10.5, ..., 16).  Range points are generated as
    ``lo + i * step`` with an epsilon-padded count, so binary-fraction
    endpoints land exactly and a ``15.9999...`` never sneaks past ``16``.
    """
    values: list = []
    for token in (t.strip() for t in text.split(",")):
        if not token:
            continue
        if ":" in token:
            parts = token.split(":")
            if len(parts) != 3:
                raise SystemExit(
                    f"bad {name} range {token!r}: expected LO:HI:STEP")
            lo, hi, step = (float(p) for p in parts)
            if step <= 0 or hi < lo:
                raise SystemExit(
                    f"bad {name} range {token!r}: need HI >= LO and STEP > 0")
            count = int((hi - lo) / step + 1e-9) + 1
            values.extend(lo + i * step for i in range(count))
        else:
            values.append(float(token))
    if not values:
        raise SystemExit(f"no {name} values given")
    return values


def _campaign_specs(args) -> list:
    wavelengths = _parse_sweep_values(args.wavelengths, "wavelength")
    thicknesses = _parse_sweep_values(args.thicknesses, "thickness")
    if getattr(args, "ranks", None) and getattr(args, "batch", False):
        raise SystemExit("--ranks cannot be combined with --batch "
                         "(a distributed job owns its own process grid)")
    if getattr(args, "batch", False):
        # One batch job per thickness, all wavelengths in one sweep loop.
        return [
            dict(_spec_from_args(args, wavelength=wavelengths[0], thickness=t),
                 kind="batch", wavelengths=wavelengths)
            for t in thicknesses
        ]
    return [
        _spec_from_args(args, wavelength=w, thickness=t)
        for t in thicknesses
        for w in wavelengths
    ]


def _cmd_campaign(args) -> int:
    """Run a thickness x wavelength sweep (the paper's solar-cell use
    case) through the scheduler, reusing one tuned plan per machine key."""
    from .core import tracing
    from .fleet.router import http_request, poll_job
    from .service import PlanRegistry, Scheduler
    from .service.jobs import JobSpec, JobState

    specs = _campaign_specs(args)
    rec = tracing.start_trace(args.trace) if args.trace else None

    rows = []
    try:
        with tracing.span(f"campaign {len(specs)} jobs", "service",
                          args={"preset": args.preset, "grid": args.grid}):
            if args.url:
                ids = []
                for spec in specs:
                    status, doc, _ = http_request(
                        "POST", f"{args.url}/jobs", payload=spec)
                    if status != 202:
                        print(f"submit failed ({status}): {doc.get('error')}")
                        return 2
                    ids.append(doc["id"])
                docs = [poll_job(args.url, i, args.timeout) for i in ids]
                status_line = f"remote service at {args.url}"
            else:
                registry = PlanRegistry(args.registry)
                sched = Scheduler(
                    workers=args.workers,
                    queue_size=max(len(specs), 1),
                    registry=registry, mode="thread",
                ).start()
                try:
                    jobs = [sched.submit(JobSpec.from_dict(s)) for s in specs]
                    sched.join(timeout=args.timeout)
                finally:
                    sched.stop()
                docs = [j.to_dict() for j in jobs]
                st = sched.stats()
                reg = registry.counters()
                hit_rate = reg["hits"] / max(reg["hits"] + reg["misses"], 1)
                status_line = (
                    f"{st['executed']} executions for {st['submitted']} "
                    f"submissions ({st['deduplicated']} deduplicated); "
                    f"registry {reg['hits']} hits / {reg['misses']} misses "
                    f"({100 * hit_rate:.0f}% hit rate)"
                )
            batch_stats = {"dedup": 0, "solved": 0, "failed": 0}
            for spec, doc in zip(specs, docs):
                res = doc.get("result") or {}
                if spec.get("kind") == "batch":
                    batch_stats["dedup"] += res.get("dedup_hits") or 0
                    batch_stats["solved"] += res.get("solved") or 0
                    batch_stats["failed"] += res.get("failed") or 0
                    points = res.get("points")
                    if points is None:  # batch job itself failed
                        points = [{"wavelength": w, "result": None}
                                  for w in spec["wavelengths"]]
                    for p in points:
                        pres = p.get("result") or {}
                        if doc["state"] != JobState.DONE:
                            state = doc["state"]
                        else:
                            state = ("failed" if p.get("error")
                                     else JobState.DONE)
                        rows.append({
                            "wavelength": p["wavelength"],
                            "thickness": spec["thickness"],
                            "state": state,
                            "iterations": pres.get("iterations"),
                            "converged": pres.get("converged"),
                            "absorbed": pres.get("absorbed"),
                            "registry_hit": (pres.get("plan") or {}).get(
                                "registry_hit"),
                            "from_store": p.get("from_store"),
                        })
                    continue
                rows.append({
                    "wavelength": spec["wavelength"],
                    "thickness": spec["thickness"],
                    "state": doc["state"],
                    "iterations": res.get("iterations"),
                    "converged": res.get("converged"),
                    "absorbed": res.get("absorbed"),
                    "registry_hit": (res.get("plan") or {}).get("registry_hit"),
                })
            if getattr(args, "batch", False):
                status_line += (
                    f"; batched points: {batch_stats['dedup']} deduplicated "
                    f"(served from store), {batch_stats['solved']} solved"
                    + (f", {batch_stats['failed']} failed"
                       if batch_stats["failed"] else "")
                )
    finally:
        if rec is not None:
            _, written = tracing.stop_trace()
            for w in written:
                print(f"trace -> {w}")

    print(f"{'lambda':>7s} {'thick':>6s} {'state':>9s} {'steps':>6s} "
          f"{'absorbed':>9s} {'plan':>9s}")
    for r in rows:
        absorbed = "-" if r["absorbed"] is None else f"{r['absorbed']:.4f}"
        steps = "-" if r["iterations"] is None else str(r["iterations"])
        plan = "hit" if r["registry_hit"] else ("miss" if r["registry_hit"] is False else "-")
        print(f"{r['wavelength']:7.1f} {r['thickness']:6.2f} {r['state']:>9s} "
              f"{steps:>6s} {absorbed:>9s} {plan:>9s}")
    print(f"campaign: {status_line}")
    if args.out:
        import json as _json
        import os as _os

        from .ioutil import atomic_write_text

        atomic_write_text(_os.path.abspath(args.out),
                          _json.dumps(rows, indent=2, sort_keys=True))
        print(f"saved -> {args.out}")
    return 0 if all(r["state"] == JobState.DONE for r in rows) else 2


# -- live telemetry (tail / top) -----------------------------------------------


def _format_event(ev: dict) -> str:
    """One human-readable line per progress event (``repro tail``)."""
    kind = ev.get("kind", "?")
    if kind == "progress":
        line = f"sweep {ev.get('sweeps'):>6}  residual {ev.get('residual'):.3e}"
        if ev.get("tiled"):
            line += "  (tiled)"
        return line
    if kind == "batch":
        residuals = ev.get("residuals") or {}
        worst = max(residuals.values()) if residuals else float("nan")
        line = (f"sweep {ev.get('sweeps'):>6}  {ev.get('active')} lane(s) "
                f"active, worst residual {worst:.3e}")
        if ev.get("compacted"):
            line += f", {ev['compacted']} lane(s) compacted"
        return line
    if kind == "cluster":
        phase = ev.get("phase")
        if phase == "start":
            pz, py, px = ev.get("layout") or ("?", "?", "?")
            line = (f"cluster start: {ev.get('ranks')} rank(s) as "
                    f"{pz}x{py}x{px} over {ev.get('transport')}")
            if ev.get("resumed_from") is not None:
                line += f", resumed from sweep {ev['resumed_from']}"
            return line
        if phase == "rank-crash":
            return f"cluster: a rank died ({ev.get('ranks')} rank(s))"
        rank_res = ev.get("rank_residuals") or {}
        worst = max(rank_res.values()) if rank_res else float("nan")
        return (f"sweep {ev.get('sweeps'):>6}  residual "
                f"{ev.get('residual'):.3e}  ({ev.get('ranks')} rank(s), "
                f"worst rank {worst:.3e}, "
                f"halo {ev.get('halo_bytes', 0)} B / "
                f"{ev.get('halo_messages', 0)} msg)")
    if kind == "state":
        line = f"state -> {ev.get('state')}"
        if ev.get("attempt"):
            line += f" (attempt {ev['attempt']})"
        if ev.get("requeued"):
            line += " [requeued after failure]"
        return line
    if kind == "checkpoint":
        if ev.get("resumed_from") is not None:
            return f"checkpoint resume from sweep {ev['resumed_from']}"
        return (f"checkpoint @ sweep {ev.get('sweeps')} "
                f"({ev.get('bytes', 0)} bytes, save #{ev.get('saves')})")
    if kind == "end":
        line = f"end: {ev.get('state', 'done')}"
        if ev.get("error"):
            line += f" ({ev['error']})"
        return line
    if kind == "gap":
        return f"... {ev.get('missed')} event(s) dropped (ring overflow)"
    return str({k: v for k, v in ev.items() if k not in ("seq", "t")})


def _cmd_tail(args) -> int:
    """Follow ``GET /jobs/<id>/events`` until the terminal event."""
    import json as _json
    import urllib.error
    import urllib.request

    url = f"{args.url}/jobs/{args.job_id}/events"
    try:
        resp = urllib.request.urlopen(
            urllib.request.Request(url), timeout=args.timeout)
    except urllib.error.HTTPError as e:
        try:
            doc = _json.loads(e.read() or b"{}")
        except ValueError:
            doc = {}
        print(f"tail failed ({e.code}): {doc.get('error')}")
        return 2
    state = None
    with resp:
        for raw in resp:
            line = raw.decode("utf-8", "replace").strip()
            if not line:
                continue
            try:
                ev = _json.loads(line)
            except ValueError:
                continue
            print(line if args.raw else _format_event(ev), flush=True)
            if ev.get("kind") == "end":
                state = ev.get("state", "done")
    return 0 if state in (None, "done") else 2


def _telemetry_value(snapshot: dict, name: str, labels=None):
    """One series value out of a ``/metrics?format=json`` telemetry
    snapshot (``None`` when the instrument or series is absent)."""
    inst = snapshot.get(f"repro_{name}") or {}
    for series in inst.get("series") or []:
        if labels is None or series.get("labels") == labels:
            return series.get("value", series.get("count"))
    return None


def _cmd_top(args) -> int:
    """One-shot snapshot of a running service (queue, rates, jobs)."""
    import json as _json

    from .fleet.router import http_request

    status, metrics, _ = http_request("GET",
                                      f"{args.url}/metrics?format=json")
    if status != 200:
        print(f"top failed ({status}): {metrics.get('error')}")
        return 2
    _, jobs_doc, _ = http_request("GET", f"{args.url}/jobs")
    jobs = jobs_doc.get("jobs") or []
    health_status, health, _ = http_request("GET", f"{args.url}/healthz")
    if health_status != 200:
        health = {}
    if args.json:
        print(_json.dumps({"metrics": metrics, "jobs": jobs,
                           "healthz": health},
                          indent=2, sort_keys=True))
        return 0
    print(f"repro top -- {args.url}")
    if health.get("role") == "gateway":
        # A fleet gateway: per-node rollups instead of one scheduler.
        print(f"fleet gateway: shard map v{health.get('shard_version')}, "
              f"{health.get('alive')}/{len(health.get('nodes') or [])} "
              f"node(s) alive")
        flags = {n["url"]: n for n in health.get("nodes") or []}
        for url, rollup in (metrics.get("nodes") or {}).items():
            sched = rollup.get("scheduler") or {}
            states = sched.get("states") or {}
            node = flags.get(url, {})
            marks = [m for m in ("stale", "split_brain") if node.get(m)]
            print(f"  {node.get('node_id') or url}: "
                  f"workers {sched.get('workers')} ({sched.get('mode')}), "
                  f"{states.get('queued', 0)} queued / "
                  f"{states.get('running', 0)} running / "
                  f"{states.get('done', 0)} done / "
                  f"{states.get('failed', 0)} failed"
                  + (f" [{', '.join(marks)}]" if marks else ""))
        for url in (health.get("stale") or []):
            if url not in (metrics.get("nodes") or {}):
                print(f"  {url}: stale (no rollup)")
    else:
        sched = metrics.get("scheduler") or {}
        states = sched.get("states") or {}
        tele = metrics.get("telemetry") or {}
        if health.get("node_id"):
            version = health.get("shard_version")
            print(f"node {health['node_id']}"
                  + (f", shard map v{version}" if version is not None
                     else " (no fleet gateway seen)"))
        print(f"workers {sched.get('workers')} ({sched.get('mode')}), "
              f"queue {states.get('queued', 0)} queued / "
              f"{states.get('running', 0)} running / "
              f"{states.get('done', 0)} done / "
              f"{states.get('failed', 0)} failed"
              + (" [draining]" if sched.get("draining") else ""))
        sweeps = _telemetry_value(tele, "solver_sweeps_per_second")
        mlups = _telemetry_value(tele, "solver_mlups")
        if sweeps is not None or mlups is not None:
            print(f"last solve: {sweeps or 0:.1f} sweeps/s, "
                  f"{mlups or 0:.2f} MLUP/s")
        reg = metrics.get("registry") or {}
        lookups = reg.get("hits", 0) + reg.get("misses", 0)
        ratio = reg.get("hits", 0) / lookups if lookups else 0.0
        print(f"plan registry: {reg.get('hits', 0)} hits / "
              f"{reg.get('misses', 0)} misses ({100 * ratio:.0f}% hit "
              f"rate); store {metrics.get('store', {}).get('entries', 0)} "
              f"result(s)")
        events = _telemetry_value(tele, "progress_events_total")
        if events is not None:
            print(f"progress events published: {events:.0f}")
    if jobs:
        print(f"{'job':<26} {'state':>9} {'attempts':>8}  trace")
        for j in jobs[-10:]:
            print(f"{j['id'][:24]:<26} {j['state']:>9} "
                  f"{j['attempts']:>8}  {j.get('trace_id', '-')}")
    return 0


def _cmd_cluster(args) -> int:
    """Rank every feasible process-grid decomposition of a solve-shaped
    grid by the communication cost model (the table behind the model's
    pick when ``--ranks`` is a bare count)."""
    from .cluster import candidate_layouts, step_bytes_by_axis
    from .fdfd import Grid

    n = args.grid
    # Same geometry as an untiled served solve (distributed jobs always
    # run the naive sweep): z gets 2x and stays non-periodic.
    grid = Grid(nz=2 * n, ny=n, nx=n, periodic=(False, True, True))
    try:
        ranked = candidate_layouts(grid, args.ranks)
    except ValueError as e:
        print(f"cluster: {e}")
        return 2
    rows = []
    for cost, layout in ranked:
        bba = step_bytes_by_axis(layout)
        rows.append({
            "layout": f"{layout.pz}x{layout.py}x{layout.px}",
            "ranks": layout.n_ranks,
            "step_cost_us": cost,
            "bytes_z": bba[0], "bytes_y": bba[1], "bytes_x": bba[2],
            "bytes_total": bba[0] + bba[1] + bba[2],
        })
    if args.json:
        import json

        print(json.dumps({"grid": list(grid.shape), "ranks": args.ranks,
                          "candidates": rows}, indent=2, sort_keys=True))
        return 0
    print(f"cluster: grid={grid.shape} ranks={args.ranks} "
          f"({len(rows)} feasible decomposition(s), halo bytes per sweep)")
    print(f"{'layout':>8s} {'cost us':>9s} {'z bytes':>10s} "
          f"{'y bytes':>10s} {'x bytes':>10s} {'total':>10s}")
    for i, r in enumerate(rows):
        mark = "  <- model pick" if i == 0 else ""
        print(f"{r['layout']:>8s} {r['step_cost_us']:9.1f} "
              f"{r['bytes_z']:>10d} {r['bytes_y']:>10d} "
              f"{r['bytes_x']:>10d} {r['bytes_total']:>10d}{mark}")
    return 0


def _cmd_chaos(args) -> int:
    """Run rows of :data:`repro.resilience.scenarios.SCENARIOS`: one
    machine-readable ``CHAOS {...}`` line per scenario, then one
    ``CHAOS-SUMMARY {...}`` line (CI greps both)."""
    import json

    from .resilience import faults, scenarios

    if args.list_sites:
        for site in faults.SITES:
            print(site)
        return 0
    table = scenarios.SCENARIOS
    names = list(table) if args.scenario == "all" else [args.scenario]
    failed = []
    for name in names:
        print(f"chaos: {name}")
        ok, detail = scenarios.run(table[name], seed=args.seed,
                                   grid=args.grid,
                                   say=lambda line: print(f"  {line}"))
        print(f"  {'PASS' if ok else 'FAIL'}")
        print("CHAOS " + json.dumps(
            dict(detail, scenario=name, ok=ok), sort_keys=True))
        if not ok:
            failed.append(name)
    print("CHAOS-SUMMARY " + json.dumps(
        {"scenarios": len(names), "failed": failed, "ok": not failed},
        sort_keys=True))
    if failed:
        print(f"chaos: {len(failed)}/{len(names)} scenario(s) failed: "
              f"{', '.join(failed)}")
        return 1
    print(f"chaos: all {len(names)} scenario(s) passed")
    return 0


def _cmd_env(args) -> int:
    from . import config

    rows = config.describe()
    if args.json:
        import json

        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    wf = max(len(r["flag"]) for r in rows)
    wv = max(len("current"), max(len(r["value"]) for r in rows))
    wd = max(len("default"), max(len(r["default"]) for r in rows))
    print(f"{'flag'.ljust(wf)}  {'current'.ljust(wv)}  "
          f"{'default'.ljust(wd)}  description")
    for r in rows:
        print(f"{r['flag'].ljust(wf)}  {r['value'].ljust(wv)}  "
              f"{r['default'].ljust(wd)}  {r['description']}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    from . import config

    args = build_parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "tune": _cmd_tune,
        "figures": _cmd_figures,
        "plan": _cmd_plan,
        "bench": _cmd_bench,
        "counters": _cmd_counters,
        "trace": _cmd_trace,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "campaign": _cmd_campaign,
        "tail": _cmd_tail,
        "top": _cmd_top,
        "chaos": _cmd_chaos,
        "cluster": _cmd_cluster,
        "fleet": _cmd_fleet,
        "env": _cmd_env,
    }
    trace_path = config.get("REPRO_TRACE")
    rec = None
    if trace_path:
        from .core import tracing
        rec = tracing.start_trace(trace_path)
    try:
        return handlers[args.command](args)
    finally:
        if rec is not None:
            from .core import tracing
            if tracing.active() is rec:
                _, written = tracing.stop_trace()
                for w in written:
                    print(f"trace -> {w}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
