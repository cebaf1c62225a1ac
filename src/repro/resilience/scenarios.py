"""The chaos scenario table: seeded faults x named invariants.

Every scenario states one contract -- after a fault the stack returns
the bytes an undisturbed run returns -- so a scenario is data: a
:class:`Scenario` row names one of three *harnesses* (what runs and what
breaks), its parameters, and the *invariants* that must hold over what
the harness observed:

* :func:`worker_fault` -- a seeded ``REPRO_FAULTS`` crash in a
  process-mode scheduler worker (or one rank of its job), retried from
  the checkpoint;
* :func:`fleet` -- a live local fleet behind a gateway, one node
  SIGKILLed (and optionally respawned over its data dir) mid-campaign;
* :func:`corrupt` -- a persisted artifact scribbled over in place.

An invariant is a predicate over the observation dict, defined once,
here, under the name the report prints.  :func:`run` is the only runner;
``repro chaos``, CI (through it) and ``tests/test_chaos_scenarios.py``
read :data:`SCENARIOS`.  A new scenario is one row, plus an invariant
only if it states something new.  ``service``/``fleet`` imports are
function-local so :mod:`repro.resilience` stays free of import cycles.
"""

from __future__ import annotations

import glob
import os
import tempfile
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Tuple

from .faults import FaultPlan, patched_env

__all__ = ["INVARIANTS", "SCENARIOS", "Scenario", "run"]

Say = Callable[[str], None]

#: Sweeps per convergence check (one pass of the fault site) and the
#: snapshot cadence the worker harness sets.
CHECK_EVERY, SNAPSHOT_EVERY = 20, 40
WAVELENGTHS = (10.0, 11.0, 12.0, 13.0, 14.0, 15.0)
#: Nothing the caller's shell schedules may reach a clean run or a node.
NEUTRAL = dict(REPRO_FAULTS=None, REPRO_CHECKPOINT_EVERY=None,
               REPRO_CHECKPOINT_DIR=None)


# -- invariants ----------------------------------------------------------------

INVARIANTS: Dict[str, Callable[[dict], bool]] = {}
#: Verdicts the CHAOS line has always carried as a boolean of its own.
REPORTED_AS = {"bit_identical_to_clean": "bit_identical",
               "distributed_equals_single_domain": "distributed_matches_scalar",
               "replicated_before_kill": "replicated",
               "quarantined": "quarantined"}


def invariant(fn):
    INVARIANTS[fn.__name__] = fn
    return fn


@invariant
def bit_identical_to_clean(o):
    """Everything that came back equals the undisturbed run, byte for byte."""
    return o["_results"] == o["_clean"]


@invariant
def crashed_at_least_once(o):
    """The seeded fault fired: the scheduler saw a worker die."""
    return o["crashes"] >= 1


@invariant
def exactly_once(o):
    """The job ended DONE once: at most the one scheduled crash, one
    attempt per crash plus the one that finished, one completion, no
    failure, and the stored copy is the clean result."""
    return (o["state"] == "done" and o["crashes"] <= 1
            and o["attempts"] == o["crashes"] + 1
            and o["_stats"]["completed"] == 1 and o["_stats"]["failed"] == 0
            and o["_stored"] == o["_clean"])


@invariant
def resumed_from_checkpoint(o):
    """The retry resumed from the newest snapshot older than the crash --
    never later, and from sweep 0 only when none had been written."""
    crash_step = o["_after_n"] * CHECK_EVERY
    snapshot = crash_step // SNAPSHOT_EVERY * SNAPSHOT_EVERY
    return (o["resumed_from"] == (snapshot or None)
            and o["_stats"]["resumed"] == (1 if snapshot else 0))


@invariant
def fanout_equals_store(o):
    """Every point of the resumed batch is stored as the batch reports it."""
    return bool(o["_fanout"]) and all(
        stored == point["result"] for point, stored in o["_fanout"])


@invariant
def distributed_equals_single_domain(o):
    """The rank-decomposed run equals the single-domain solve, fault or not."""
    return o["_clean"] == o["_scalar"]


@invariant
def failed_over(o):
    """The router met the dead home node and re-routed to the replica."""
    return o["failovers"] >= 1


@invariant
def shard_map_bumped(o):
    """Membership followed the victim -- dead once killed, alive again
    if respawned -- with exactly one shard-map version bump per change."""
    states = [o.get("dead_state", o["victim_state"])]
    states += [o["revived_state"]] if "revived_state" in o else []
    v0, v1 = o["shard_version"]
    return states == ["dead", "alive"][:len(states)] and v1 - v0 == len(states)


@invariant
def replicated_before_kill(o):
    """The committed results reached the replica's store before the kill."""
    return o["replications"] >= 1 and (o["replica_puts"] or 0) >= 1


@invariant
def zero_resolves(o):
    """The node holding the committed bytes after the kill (the rebooted
    victim's disk, else the replica) executed nothing but fresh points."""
    return o["executed_after_kill"] <= o["expected_executed"]


@invariant
def served_from_replica_store(o):
    """The first read after the owner's death is a 200 from a store."""
    return o["status_after_kill"] == 200 and o["from_store"]


@invariant
def quarantined(o):
    """The scribbled artifact moved to ``*.corrupt`` and was never served."""
    return o["_moved_aside"] and o["_served"] is None


# -- harnesses -----------------------------------------------------------------

def worker_fault(p: Mapping[str, Any], seed: int, grid: int, say: Say) -> dict:
    """Crash a process-mode worker (or one rank of its job) at a seeded
    convergence check; the scheduler's retry resumes from the checkpoint."""
    from .. import telemetry
    from ..service import Scheduler
    from ..service.jobs import JobSpec, run_job

    spec = JobSpec.from_dict(dict(p["spec"], grid=grid))
    rank = seed % 2  # which of the two ranks a "cluster.rank.{rank}" site kills
    plan = FaultPlan.seeded(seed, p["site"].format(rank=rank), "crash",
                            max_after=spec.max_steps // CHECK_EVERY)
    obs = {"seed": seed, "schedule": plan.env_value(),
           "_after_n": plan.specs[0].after_n}
    if "{rank}" in p["site"]:
        obs["rank"] = rank
    with patched_env(**NEUTRAL):
        obs["_clean"] = run_job(spec)
        if spec.kind == "distributed":
            obs["_scalar"] = run_job(spec.single_domain_spec())
    say(f"fault schedule: {plan.env_value()} (seed {seed})")
    with tempfile.TemporaryDirectory(prefix="repro-chaos-ckpt-") as root, \
            patched_env(**dict(NEUTRAL, REPRO_FAULTS=plan.env_value(),
                               REPRO_CHECKPOINT_EVERY=str(SNAPSHOT_EVERY))), \
            telemetry.switched_on():  # Scheduler.start() opens the gate
        sched = Scheduler(workers=1, mode="process",
                          checkpoint_dir=os.path.join(root, "ckpt")).start()
        try:
            job = sched.submit(spec)
            sched.wait(job.id, timeout=600.0)
            obs.update(_stats=sched.stats(), _stored=sched.store.get(job.id))
            points = (job.result or {}).get("points") or []
            obs["_fanout"] = [(pt, sched.store.get(pt["id"])) for pt in points]
        finally:
            sched.stop()
    obs.update(crashes=sched.n_crashes, attempts=job.attempts,
               resumed_from=job.resumed_from, state=job.state,
               _results=job.result)
    if job.state != "done":
        obs["error"] = job.error
    if points:
        obs["points"] = len(points)
    else:
        obs["checksum"] = obs["_clean"].get("checksum")
    say(f"worker crashes: {sched.n_crashes}, attempts: {job.attempts}, "
        f"resumed from sweep: {job.resumed_from}")
    return obs


def fleet(p: Mapping[str, Any], seed: int, grid: int, say: Say) -> dict:
    """SIGKILL the home node of a seeded campaign point once the first
    half of the campaign has committed, then finish the campaign through
    the gateway.  ``respawn`` first restarts the victim over its data dir
    (and lets heartbeats, not a refused connection, notice both changes);
    ``campaign=False`` runs the seeded point alone."""
    from .. import telemetry
    from ..fleet import gateway_over, respawn_node, spawn_local_fleet
    from ..fleet.router import http_request, poll_job
    from ..service.jobs import JobSpec, run_job

    def fetch(method, url, payload=None, expect=200) -> dict:
        status, doc, _ = http_request(method, url, payload=payload)
        if status != expect:
            raise RuntimeError(f"{method} {url}: HTTP {status} {doc}")
        return doc

    def counter(name, *labels) -> float:
        return telemetry.METRICS.get_value(name, labels=labels)

    telemetry.fleet_failovers()     # create both series before reading them
    telemetry.fleet_replications()
    waves = (WAVELENGTHS if p["campaign"]
             else [WAVELENGTHS[seed % len(WAVELENGTHS)]])
    specs = [JobSpec(kind="solve", preset="vacuum", grid=grid, wavelength=w,
                     tol=1e-4, max_steps=20) for w in waves]
    cut = (len(specs) + 1) // 2
    before, after = specs[:cut], specs[cut:]
    pick = before if p["respawn"] else specs  # a reboot needs committed state
    chosen = pick[seed % len(pick)]
    with patched_env(**NEUTRAL), telemetry.switched_on(), \
            tempfile.TemporaryDirectory(prefix="repro-chaos-data-") as root, \
            gateway_over(spawn_local_fleet(
                p["nodes"], workers=1, mode="thread",
                data_root=root if p["respawn"] else None)) as fl:
        def owners(spec):
            return fl.registry.shard_map().owners(spec.job_id)

        def state() -> str:
            return fl.registry.node(home).state

        clean = {s.job_id: run_job(s) for s in specs}
        home, replica = owners(chosen)[:2]
        victim = {n.url: n for n in fl.nodes}[home]
        failovers0 = counter("fleet_failovers_total")
        replications0 = counter("fleet_replications_total", "ok")
        for s in before:
            fetch("POST", f"{fl.base}/jobs", s.to_dict(), expect=202)
        for s in before:
            poll_job(fl.base, s.job_id)  # a done-poll replicates
        replications = counter("fleet_replications_total", "ok")
        obs = {"seed": seed, "victim": victim.node_id, "points": len(specs),
               "replications": replications - replications0}
        v0 = fl.registry.version

        victim.kill()  # SIGKILL: no drain, in-memory state gone
        say(f"killed {victim.node_id} ({home}) after {len(before)} "
            f"committed point(s) (seed {seed})")
        if p["respawn"]:
            fl.registry.check_once()
            obs["dead_state"] = state()
            fl.nodes[fl.nodes.index(victim)] = respawn_node(victim)
            fl.registry.check_once()
            obs["revived_state"] = state()
            say(f"respawned {victim.node_id} on the same port over {root}")
        # The node that now holds the committed bytes, and how many of the
        # fresh points will route to it.
        holder, dead = (home, None) if p["respawn"] else (replica, home)
        m0 = fetch("GET", f"{holder}/metrics?format=json")
        expected = sum([u for u in owners(s) if u != dead][0] == holder
                       for s in after)

        for s in after:
            fetch("POST", f"{fl.base}/jobs", s.to_dict(), expect=202)
        status, _, _ = http_request("GET", f"{fl.base}/jobs/{chosen.job_id}")
        docs = {s.job_id: poll_job(fl.base, s.job_id) for s in specs}
        m1 = fetch("GET", f"{holder}/metrics?format=json")
        results = {jid: doc.get("result") for jid, doc in docs.items()}
        obs.update(
            _clean=clean, _results=results,
            mismatched=sum(results[jid] != clean[jid] for jid in clean),
            status_after_kill=status, victim_state=state(),
            shard_version=[v0, fl.registry.version],
            failovers=counter("fleet_failovers_total") - failovers0,
            replica_puts=m0["store"].get("replica_puts"),
            executed_after_kill=(m1["scheduler"]["executed"]
                                 - m0["scheduler"]["executed"]),
            expected_executed=expected, store_hits=m1["store"].get("hits"),
            from_store=bool(docs[chosen.job_id].get("from_store")),
            warm_reads=sum(1 for s in specs if owners(s)[0] == home
                           and docs[s.job_id].get("from_store")))
    # The names this row's CHAOS line has always given an observation.
    obs.update({old: obs[new] for old, new in p["also_as"].items()})
    return obs


def corrupt(p: Mapping[str, Any], seed: int, grid: int, say: Say) -> dict:
    """Scribble over a persisted plan (``which="registry"``) or result
    (``"store"``); the next read quarantines it and recomputes."""
    from ..ioutil import corrupt_file
    from ..service import PlanRegistry, ResultStore
    from ..service.jobs import JobSpec, run_job

    spec, registry = JobSpec.from_dict(p["spec"]), p["which"] == "registry"
    with patched_env(REPRO_FAULTS=None), tempfile.TemporaryDirectory(
            prefix=f"repro-chaos-{p['which']}-") as root:
        if registry:
            first = run_job(spec, registry=PlanRegistry(root))
        else:
            first = run_job(spec)
            ResultStore(root).put(spec.job_id, first)
        [path] = glob.glob(os.path.join(root, p["artifact"]))
        corrupt_file(path)
        served = None if registry else ResultStore(root).get(spec.job_id)
        again = run_job(spec, registry=PlanRegistry(root) if registry else None)
        moved = os.path.exists(path + ".corrupt")
    return {"which": p["which"], "artifact": os.path.basename(path),
            "_clean": first, "_results": again, "_served": served,
            "_moved_aside": moved}


# -- the table -----------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One row: ``harness(params, seed, grid, say)`` -> observations, over
    which every named invariant must hold."""

    harness: Callable[[Mapping[str, Any], int, int, Say], dict]
    params: Mapping[str, Any]
    invariants: Tuple[str, ...]


#: tol is unreachably tight, so a solve deterministically runs all 240
#: sweeps: 12 convergence checks at the fixed cadence of 20.
_LONG = dict(preset="absorber", tol=1e-12, max_steps=240, max_retries=2)
_RESUMED = ("bit_identical_to_clean", "crashed_at_least_once",
            "exactly_once", "resumed_from_checkpoint")

SCENARIOS: Dict[str, Scenario] = {
    "crash-resume": Scenario(
        worker_fault, dict(spec=dict(_LONG, kind="solve"),
                           site="solver.sweep"), _RESUMED),
    "batch-resume": Scenario(
        worker_fault, dict(spec=dict(_LONG, kind="batch",
                                     wavelengths=(10.0, 12.0, 14.0)),
                           site="solver.sweep"),
        _RESUMED + ("fanout_equals_store",)),
    "rank-crash": Scenario(
        worker_fault, dict(spec=dict(_LONG, kind="distributed",
                                     ranks="2x1x1", tiled=False),
                           site="cluster.rank.{rank}"),
        _RESUMED + ("distributed_equals_single_domain",)),
    "node-crash": Scenario(
        fleet, dict(nodes=3, campaign=True, respawn=False, also_as={}),
        ("bit_identical_to_clean", "shard_map_bumped", "failed_over")),
    "node-reboot-warm": Scenario(
        fleet, dict(nodes=2, campaign=True, respawn=True,
                    also_as=dict(executed_after_reboot="executed_after_kill")),
        ("bit_identical_to_clean", "shard_map_bumped", "zero_resolves")),
    "replica-promote": Scenario(
        fleet, dict(nodes=3, campaign=False, respawn=False,
                    also_as=dict(owner="victim", replica_executed_delta=
                                 "executed_after_kill")),
        ("replicated_before_kill", "bit_identical_to_clean",
         "served_from_replica_store", "zero_resolves", "shard_map_bumped")),
    "corrupt-registry": Scenario(
        corrupt, dict(which="registry", artifact="plan-*.json",
                      spec=dict(kind="tune", grid=8, threads=2)),
        ("quarantined", "bit_identical_to_clean")),
    "corrupt-store": Scenario(
        corrupt, dict(which="store", artifact="result-*.json",
                      spec=dict(kind="solve", preset="vacuum", grid=10,
                                wavelength=10.0, tol=1e-4, max_steps=20)),
        ("quarantined", "bit_identical_to_clean")),
}


def run(row: Scenario, seed: int = 0, grid: int = 12,
        say: Say = lambda line: None) -> Tuple[bool, dict]:
    """Run one row -> ``(ok, detail)``; ``detail`` is the CHAOS line's
    payload.  A harness or invariant that raises is a failed scenario
    with ``error`` in its detail, never an exception: the caller's report
    and its remaining rows must survive it."""
    try:
        obs = row.harness(row.params, seed, grid, say)
        verdicts = {name: bool(INVARIANTS[name](obs))
                    for name in row.invariants}
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        say(traceback.format_exc().rstrip())
        return False, {"seed": seed, "error": f"{type(exc).__name__}: {exc}"}
    detail = {k: v for k, v in obs.items() if not k.startswith("_")}
    for name, held in verdicts.items():
        doc = " ".join(INVARIANTS[name].__doc__.split())
        say(f"ok   {name}" if held else f"FAIL {name}: {doc}")
        if name in REPORTED_AS:
            detail[REPORTED_AS[name]] = held
    failed = [name for name, held in verdicts.items() if not held]
    if failed:
        detail["failed_invariants"] = failed
    return not failed, detail
