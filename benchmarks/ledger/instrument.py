"""Wrap each layer's public entry points with ledger spans.

The real request path runs inside ``run_job``; re-enacting it by hand
here would duplicate ``service/jobs.py`` and drift silently.  Instead the
traced run replaces the public functions below with wrappers that record
a span (and the counts known at that boundary) and call through, so the
program's own call path is what gets timed.  Untraced runs never import
this module.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

from spans import Tracer


def _tiled_counts(args, result):
    driver = args[0]
    return {"steps": result.iterations, "chunk": driver.chunk,
            "tiles": driver.plan.n_tiles, "row_jobs": driver.jobs_done,
            "cells": driver.solver.grid.n_cells}


def _batch_counts(args, result):
    driver = args[0]
    return {"lanes": result.batch_width,
            "steps": max(r.iterations for r in result.results)}


def _cluster_counts(args, result):
    solve, info = result
    return {"steps": solve.iterations, "layout": info["layout"],
            "halo_bytes": info["halo"]["bytes_total"],
            "halo_messages": info["halo"]["messages"]}


def _tune_counts(args, result):
    note = {"grid": args[1], "threads": args[2]}
    if result is not None:
        note.update(variant=result.variant, mlups=result.mlups,
                    bytes_per_lup=result.code_balance)
    return note


#: (module, class or None, attribute, span name, layer, counts or None);
#: ``counts(args, result)`` records what is known at that boundary.
SPANS = (
    ("repro.service.jobs", None, "run_job", "service.run_job", "service",
     lambda a, r: {"kind": a[0].kind}),
    ("repro.service.registry", "PlanRegistry", "get_or_tune",
     "service.registry", "service", lambda a, r: {"hit": r[1]}),
    ("repro.service.store", "ResultStore", "put", "service.store_put",
     "service", None),
    ("repro.service.store", "ResultStore", "put_replica",
     "service.store_put", "service", None),
    ("repro.service.store", "ResultStore", "get", "service.store_get",
     "service", None),
    ("repro.service.store", "ResultStore", "get_doc", "service.store_get",
     "service", None),
    ("repro.service.scheduler", "Scheduler", "submit", "service.submit",
     "service", None),
    ("repro.fdfd.thiim", "THIIMSolver", "__init__", "fdfd.build", "fdfd",
     None),
    ("repro.fdfd.thiim", "BatchedTHIIMSolver", "__init__",
     "fdfd.build_batch", "fdfd", None),
    ("repro.fdfd.thiim", "THIIMSolver", "solve", "fdfd.solve", "fdfd",
     lambda a, r: {"steps": r.iterations, "cells": a[0].grid.n_cells}),
    ("repro.fdfd.thiim", None, "run_batched_loop", "fdfd.batch_loop",
     "fdfd", None),
    ("repro.fdfd.observables", None, "relative_change", "fdfd.residual",
     "fdfd", None),
    ("repro.fdfd.fields", "FieldState", "copy", "fdfd.residual", "fdfd",
     None),
    ("repro.fdfd.fields", "BatchedFieldState", "copy", "fdfd.residual",
     "fdfd", None),
    ("repro.fdfd.observables", None, "absorbed_power", "fdfd.observables",
     "fdfd", None),
    ("repro.fdfd.observables", None, "poynting_flux_z", "fdfd.observables",
     "fdfd", None),
    ("repro.core.tiled_solver", "TiledTHIIM", "__init__",
     "core.driver_build", "core", None),
    ("repro.core.tiled_solver", "BatchedTiledTHIIM", "__init__",
     "core.driver_build", "core", None),
    ("repro.core.plan", "TilingPlan", "build", "core.plan_build", "core",
     None),
    ("repro.core.tiled_solver", "TiledTHIIM", "solve", "core.tiled_solve",
     "core", _tiled_counts),
    ("repro.core.tiled_solver", "BatchedTiledTHIIM", "solve",
     "core.batch_solve", "core", _batch_counts),
    ("repro.core.executor", "TiledExecutor", "run", "core.executor_run",
     "core", None),
    ("repro.core.autotuner", None, "tune_tiled", "core.tune_tiled", "core",
     _tune_counts),
    ("repro.core.autotuner", None, "tune_spatial", "core.tune_spatial",
     "core", _tune_counts),
    ("repro.machine.measure", None, "measure_tiled_code_balance",
     "machine.measure_tiled", "machine", None),
    ("repro.machine.measure", None, "measure_sweep_code_balance",
     "machine.measure_sweep", "machine", None),
    ("repro.machine.simulator", None, "simulate_tiled",
     "machine.simulate_tiled", "machine",
     lambda a, r: {"tiles": a[1].n_tiles}),
    ("repro.machine.simulator", None, "simulate_sweep",
     "machine.simulate_sweep", "machine", None),
    ("repro.resilience.checkpoint", "CheckpointManager", "save",
     "resilience.ckpt_save", "resilience",
     lambda a, r: {"bytes": os.path.getsize(a[0].path)}),
    ("repro.resilience.checkpoint", "CheckpointManager", "resume",
     "resilience.ckpt_resume", "resilience", None),
    ("repro.resilience.checkpoint", "CheckpointManager", "load",
     "resilience.ckpt_load", "resilience", None),
    ("repro.resilience.checkpoint", "CheckpointManager", "clear",
     "resilience.ckpt_clear", "resilience", None),
    ("repro.cluster.runtime", None, "run_distributed",
     "cluster.run_distributed", "cluster", _cluster_counts),
    ("repro.fleet.router", "Router", "forward", "fleet.forward", "fleet",
     None),
    ("repro.fleet.gateway", "FleetServer", "maybe_replicate",
     "fleet.replicate", "fleet", None),
)

#: Called thousands of times per job: summed into the enclosing span, not
#: one span each.  (module, class or None, attribute, index of the
#: argument that keys the sum or None); hot_names gives name and layer.
HOT = (
    ("repro.fdfd.kernels", None, "update_component", 0),
    ("repro.core.executor", "TiledExecutor", "execute_tile", None),
)


def hot_names(key):
    """Raw hot key -> (span name, layer, enclosing hot span or None).
    Region updates are keyed by component name on the hot path and only
    here folded into the two half steps; inside the tiled executor they
    run within a tile."""
    if key == "execute_tile":
        return "core.tile", "core", None
    half = "fdfd.update_h" if key[0] == "H" else "fdfd.update_e"
    return half, "fdfd", "core.tile"


#: Imported before wrapping so their ``from x import f`` copies of the
#: functions above are rebound to the wrappers too.
_IMPORT_FIRST = ("repro.service", "repro.fleet", "repro.cluster",
                 "repro.experiments", "repro.core.tiled_solver")


def _span_wrapper(tracer: Tracer, fn, name: str, layer: str, counts):
    is_job = name == "service.run_job"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        span = tracer.begin(name, layer,
                            req=args[0].job_id if is_job else None)
        try:
            result = fn(*args, **kwargs)
            if counts is not None:
                span.args = counts(args, result)
            return result
        finally:
            tracer.finish(span)

    return wrapper


def _hot_wrapper(tracer: Tracer, fn, attr: str, key_index):
    clock = time.perf_counter
    hot = tracer.hot

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            hot(attr if key_index is None else args[key_index], clock() - t0)

    return wrapper


def _install(mod_name: str, cls_name, attr: str, make) -> None:
    mod = importlib.import_module(mod_name)
    owner = getattr(mod, cls_name) if cls_name else mod
    raw = vars(owner)[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    elif cls_name:
        setattr(owner, attr, make(raw))
    else:
        # Rebind every ``from x import f`` copy inside the program too.
        new = make(raw)
        for name, module in list(sys.modules.items()):
            if module is not None and name.startswith("repro"):
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, new)


def instrument(tracer: Tracer) -> None:
    """Install every wrapper (once per process, before the workload
    builds anything)."""
    for mod_name in _IMPORT_FIRST:
        importlib.import_module(mod_name)
    for mod_name, cls_name, attr, name, layer, counts in SPANS:
        _install(mod_name, cls_name, attr,
                 lambda fn, n=name, la=layer, c=counts:
                 _span_wrapper(tracer, fn, n, la, c))
    tracer.hot_names = hot_names
    for mod_name, cls_name, attr, key_index in HOT:
        _install(mod_name, cls_name, attr,
                 lambda fn, a=attr, k=key_index:
                 _hot_wrapper(tracer, fn, a, k))
