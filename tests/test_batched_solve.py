"""Batched solves are bit-for-bit the per-point solves.

The batched campaign engine's one absolute contract: stacking k
wavelengths into ``12 x k`` arrays and sweeping them together must
produce, for every lane, *exactly* the arrays, iteration counts and
residual histories of k independent scalar solves -- including when the
lanes converge at different sweeps and the batch compacts mid-run.

The property test randomizes the preset and the wavelength set, then
picks the tolerance *adaptively* from probed per-point residual
histories: the candidate tolerance that makes every lane converge while
maximizing the spread of convergence sweeps, so staggered convergence
(and the lane-compaction path it triggers) is exercised rather than
hoped for.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.tiled_solver import BatchedTiledTHIIM, TiledTHIIM
from repro.fdfd import (
    BatchedTHIIMSolver,
    Grid,
    PMLSpec,
    PlaneWaveSource,
    THIIMSolver,
)
from repro.fdfd.presets import PRESETS, preset_scene

SIZE = 8
CHECK_EVERY = 20
PROBE_STEPS = 160


def _problem(preset):
    nz = 2 * SIZE
    grid = Grid(nz=nz, ny=SIZE, nx=SIZE, periodic=(False, False, False))
    scene = preset_scene(preset, nz)
    source = PlaneWaveSource(z_plane=nz // 2, z_width=2.0)
    pml = {"z": PMLSpec(thickness=4)}
    return grid, scene, source, pml


def _scalar(preset, omega):
    grid, scene, source, pml = _problem(preset)
    return THIIMSolver(grid, omega, scene=scene, source=source, pml=pml)


def _batched(preset, omegas):
    grid, scene, source, pml = _problem(preset)
    return BatchedTHIIMSolver(grid, omegas, scene=scene, source=source,
                              pml=pml)


def _probe_histories(preset, omegas):
    """Per-lane residual histories of full-length scalar runs
    (unreachable tolerance, so every lane records PROBE_STEPS worth)."""
    return [
        _scalar(preset, omega).solve(
            tol=1e-30, max_steps=PROBE_STEPS, check_every=CHECK_EVERY
        ).residual_history
        for omega in omegas
    ]


def _staggering_tol(histories):
    """The candidate tolerance (just above a recorded residual) that
    converges every lane while maximizing distinct convergence sweeps.

    Returns ``(tol, expected_iterations, distinct)``.  A converging
    candidate always exists: the largest per-lane minimum residual."""
    best = None
    for base in sorted({r for h in histories for r in h}, reverse=True):
        tol = base * (1 + 1e-9)
        iters = []
        for h in histories:
            idx = next((i for i, r in enumerate(h) if r < tol), None)
            if idx is None:
                break
            iters.append((idx + 1) * CHECK_EVERY)
        else:
            distinct = len(set(iters))
            if best is None or distinct > best[2]:
                best = (tol, iters, distinct)
    assert best is not None
    return best


def _assert_lanes_equal(scalar_results, batch):
    for lane, (a, b) in enumerate(zip(scalar_results, batch.results)):
        assert a.iterations == b.iterations, f"lane {lane}"
        assert a.converged == b.converged, f"lane {lane}"
        assert a.residual == b.residual, f"lane {lane}"
        assert a.residual_history == b.residual_history, f"lane {lane}"
        for name in a.fields:
            assert np.array_equal(a.fields[name], b.fields[name]), \
                f"lane {lane}: {name}"


@given(preset=st.sampled_from(PRESETS), seed=st.integers(0, 2**16))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_batched_equals_per_point_bitwise(preset, seed):
    rng = np.random.default_rng(seed)
    wavelengths = np.sort(rng.uniform(6.0, 18.0, size=3))
    omegas = [2 * np.pi / w for w in wavelengths]

    tol, expected_iters, distinct = _staggering_tol(
        _probe_histories(preset, omegas))

    scalar_results = [
        _scalar(preset, omega).solve(tol=tol, max_steps=PROBE_STEPS,
                                     check_every=CHECK_EVERY)
        for omega in omegas
    ]
    batch = _batched(preset, omegas).solve(tol=tol, max_steps=PROBE_STEPS,
                                           check_every=CHECK_EVERY)

    assert [r.iterations for r in batch.results] == expected_iters
    assert len({r.iterations for r in batch.results}) == distinct
    _assert_lanes_equal(scalar_results, batch)


@pytest.mark.parametrize("preset", PRESETS)
def test_staggered_convergence_compacts_bitwise(preset):
    """A deterministic wide-spread wavelength set where the adaptive
    tolerance yields genuinely staggered convergence, so mid-run lane
    compaction is on the line for every preset -- and, on the compiled
    kernel, so is re-binding its ops to the compacted arrays."""
    wavelengths = [6.0, 10.0, 17.0]
    omegas = [2 * np.pi / w for w in wavelengths]

    tol, expected_iters, distinct = _staggering_tol(
        _probe_histories(preset, omegas))
    assert distinct >= 2, (
        f"no staggering tolerance found for {preset}: {expected_iters}")

    scalar_results = [
        _scalar(preset, omega).solve(tol=tol, max_steps=PROBE_STEPS,
                                     check_every=CHECK_EVERY)
        for omega in omegas
    ]
    batch = _batched(preset, omegas).solve(tol=tol, max_steps=PROBE_STEPS,
                                           check_every=CHECK_EVERY)

    assert [r.iterations for r in batch.results] == expected_iters
    _assert_lanes_equal(scalar_results, batch)


def test_tiled_batched_equals_tiled_per_point_bitwise():
    """The MWD-tiled batched driver matches per-point tiled solves lane
    for lane (fixed sweep count: unreachable tolerance)."""
    preset = "tandem"
    omegas = [2 * np.pi / w for w in (10.0, 11.0, 12.0)]
    tol, max_steps = 1e-12, 24

    scalar_results = []
    for omega in omegas:
        driver = TiledTHIIM(_scalar(preset, omega), dw=4, bz=2)
        scalar_results.append(driver.solve(tol=tol, max_steps=max_steps))

    driver = BatchedTiledTHIIM(_batched(preset, omegas), dw=4, bz=2)
    batch = driver.solve(tol=tol, max_steps=max_steps)

    _assert_lanes_equal(scalar_results, batch)


@pytest.mark.parametrize("tiled", [False, True])
def test_width_one_batch_equals_scalar_equals_one_rank(tiled):
    """A point solve is the k = 1 case of the one loop: a width-1 batch,
    the scalar driver and (untiled) a 1x1x1 rank layout agree bit for
    bit -- fields, stop step, residual history."""
    from repro.cluster import RankLayout
    from repro.cluster.runtime import run_distributed

    omega = 2 * np.pi / 10.0
    kw = dict(tol=1e-12, max_steps=40)
    scalar, batch = _scalar("tandem", omega), _batched("tandem", [omega])
    if tiled:
        point = TiledTHIIM(scalar, dw=4, bz=2).solve(**kw)
        lanes = BatchedTiledTHIIM(batch, dw=4, bz=2).solve(**kw)
    else:
        point = scalar.solve(check_every=CHECK_EVERY, **kw)
        lanes = batch.solve(check_every=CHECK_EVERY, **kw)
    assert lanes.batch_width == 1 and lanes.diverged == [None]
    _assert_lanes_equal([point], lanes)
    # The scalar result *is* the solver's state, never a 4-D copy.
    assert point.fields is scalar.fields
    assert all(a.ndim == 3 for a in scalar.fields.components().values())
    if not tiled:
        solver = _scalar("tandem", omega)
        ranked, _info = run_distributed(
            RankLayout(solver.grid, 1, 1, 1), solver,
            check_every=CHECK_EVERY, **kw)
        _assert_lanes_equal([point], type(lanes)([ranked], [None]))


def test_resume_after_a_lane_froze_is_bitwise(tmp_path):
    """The snapshot is full width: a crash *after* the first lane
    converged and was compacted away resumes with that lane frozen from
    the snapshot and the rest continuing, bit for bit."""
    from repro.resilience import faults
    from repro.resilience.checkpoint import CheckpointManager, solver_token
    from repro.resilience.errors import InjectedFault

    preset = "tandem"
    omegas = [2 * np.pi / w for w in (6.0, 10.0, 17.0)]
    tol, expected_iters, distinct = _staggering_tol(
        _probe_histories(preset, omegas))
    assert distinct >= 2
    kw = dict(tol=tol, max_steps=PROBE_STEPS, check_every=CHECK_EVERY)
    clean = _batched(preset, omegas).solve(**kw)

    def manager(batched):
        return CheckpointManager(
            str(tmp_path), "batch", every=CHECK_EVERY,
            token=solver_token(batched, check_every=CHECK_EVERY))

    froze_at = min(expected_iters)
    faults.install(faults.FaultPlan.parse(
        f"solver.sweep:raise:{froze_at // CHECK_EVERY}"))
    try:
        crashed = _batched(preset, omegas)
        with pytest.raises(InjectedFault):
            crashed.solve(checkpoint=manager(crashed), **kw)
    finally:
        faults.uninstall()

    resumed = _batched(preset, omegas)
    mgr = manager(resumed)
    result = resumed.solve(checkpoint=mgr, **kw)
    assert mgr.resumed_from == froze_at
    assert [r.iterations for r in result.results] == expected_iters
    _assert_lanes_equal(clean.results, result)
