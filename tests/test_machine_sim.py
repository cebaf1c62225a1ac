"""Tests for the machine spec, traffic measurements, the execution
simulator and the calibration -- including the paper-shape contracts of
DESIGN.md section 4."""

import dataclasses
from contextlib import contextmanager

import pytest
from conftest import run_concurrently
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ThreadGroupConfig,
    TilingPlan,
    diamond_code_balance,
    naive_code_balance,
    spatial_code_balance,
)
from repro.core.autotuner import tune_spatial, tune_tiled
from repro.core import tracing
from repro.machine import (
    HASWELL_EP,
    MachineSpec,
    measure_sweep_code_balance,
    measure_tiled_code_balance,
    native_available,
    simulate_sweep,
    simulate_tiled,
    simulator,
    tg_efficiency,
    validate_calibration,
)
from repro.resilience import faults
from repro.resilience.errors import RESILIENCE_COUNTERS


class TestMachineSpec:
    def test_haswell_parameters(self):
        assert HASWELL_EP.cores == 18
        assert HASWELL_EP.l3_bytes == 45 * 2**20
        assert HASWELL_EP.bandwidth_gbs == 50.0
        assert HASWELL_EP.usable_l3_bytes == pytest.approx(22.5 * 2**20)

    def test_peak_flops(self):
        # 18 cores * 2.3 GHz * 16 flops/cy = 662 Gflop/s.
        assert HASWELL_EP.peak_gflops == pytest.approx(662.4)

    def test_with_bandwidth(self):
        starved = HASWELL_EP.with_bandwidth(25.0)
        assert starved.bandwidth_gbs == 25.0
        assert starved.core_bandwidth_gbs <= 25.0
        assert starved.machine_balance() < HASWELL_EP.machine_balance()

    def test_with_cores(self):
        assert HASWELL_EP.with_cores(6).cores == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineSpec("x", cores=0, clock_ghz=1, l3_bytes=1, bandwidth_gbs=1)
        with pytest.raises(ValueError):
            MachineSpec("x", cores=1, clock_ghz=1, l3_bytes=1, bandwidth_gbs=1,
                        usable_cache_fraction=2.0)
        with pytest.raises(ValueError):
            MachineSpec("x", cores=1, clock_ghz=1, l3_bytes=1, bandwidth_gbs=1,
                        tiled_overhead=0.5)


class TestTrafficMeasurements:
    """The cache-sim counterparts of the paper's Section III numbers."""

    def test_naive_at_512_near_1344(self):
        r = measure_sweep_code_balance(HASWELL_EP, nx=512, ny=512, block_y=None)
        assert r.bytes_per_lup == pytest.approx(naive_code_balance(), rel=0.03)

    def test_spatial_blocking_exactly_1216(self):
        r = measure_sweep_code_balance(HASWELL_EP, nx=384, ny=384, block_y=16)
        assert r.bytes_per_lup == pytest.approx(spatial_code_balance(), rel=0.001)

    def test_spatial_saving_is_the_z_layer_condition(self):
        naive = measure_sweep_code_balance(HASWELL_EP, nx=512, ny=512, block_y=None)
        spatial = measure_sweep_code_balance(HASWELL_EP, nx=512, ny=512, block_y=16)
        # 1344 - 1216 = 128 B/LUP saved (Section III-B).
        assert naive.bytes_per_lup - spatial.bytes_per_lup == pytest.approx(128, abs=16)

    @pytest.mark.parametrize("dw", [4, 8])
    def test_tiled_tracks_eq12_when_fitting(self, dw):
        r = measure_tiled_code_balance(HASWELL_EP, nx=384, dw=dw, bz=1, n_streams=1)
        model = diamond_code_balance(dw)
        assert r.bytes_per_lup < 1.05 * model
        assert r.bytes_per_lup > 0.5 * model

    def test_tiled_diverges_when_tile_exceeds_cache(self):
        """Fig. 5: measured balance blows past Eq. 12 once C_s exceeds the
        usable L3 (Dw=16, Bz=1 at nx=384 needs ~34 MiB > 22.5 MiB)."""
        r = measure_tiled_code_balance(HASWELL_EP, nx=384, dw=16, bz=1, n_streams=1)
        assert r.bytes_per_lup > 3 * diamond_code_balance(16)

    def test_larger_bz_needs_more_cache(self):
        """Fig. 5a-c: larger wavefront widths reach divergence earlier."""
        r1 = measure_tiled_code_balance(HASWELL_EP, nx=480, dw=8, bz=1, n_streams=1)
        r9 = measure_tiled_code_balance(HASWELL_EP, nx=480, dw=8, bz=9, n_streams=1)
        assert r9.bytes_per_lup > r1.bytes_per_lup

    def test_stream_interference(self):
        """Concurrent per-thread tiles (1WD) thrash the shared L3 at high
        thread counts -- the Fig. 6 decline mechanism."""
        lone = measure_tiled_code_balance(HASWELL_EP, nx=384, dw=4, bz=1, n_streams=1)
        crowd = measure_tiled_code_balance(HASWELL_EP, nx=384, dw=4, bz=1, n_streams=18)
        assert crowd.bytes_per_lup > 2 * lone.bytes_per_lup

    def test_measure_validation(self):
        with pytest.raises(ValueError):
            measure_tiled_code_balance(HASWELL_EP, nx=64, dw=4, bz=1, n_streams=0)
        with pytest.raises(ValueError):
            measure_sweep_code_balance(HASWELL_EP, nx=64, ny=64, block_y=None, threads=0)


class TestExecutionSimulator:
    def test_sweep_single_thread_unsaturated(self):
        r = simulate_sweep(HASWELL_EP, 1, spatial_code_balance(), lups=1e8)
        assert 4 < r.mlups < 12
        assert r.bandwidth_gbs < HASWELL_EP.bandwidth_gbs

    def test_sweep_saturates_at_roofline(self):
        r = simulate_sweep(HASWELL_EP, 18, spatial_code_balance(), lups=1e8)
        assert r.mlups == pytest.approx(41.1, abs=0.5)
        assert r.bandwidth_gbs == pytest.approx(50.0, abs=0.5)

    def test_sweep_scaling_linear_before_knee(self):
        r2 = simulate_sweep(HASWELL_EP, 2, spatial_code_balance(), lups=1e8)
        r4 = simulate_sweep(HASWELL_EP, 4, spatial_code_balance(), lups=1e8)
        assert r4.mlups == pytest.approx(2 * r2.mlups, rel=0.01)

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            simulate_sweep(HASWELL_EP, 0, 1000, lups=1e6)
        with pytest.raises(ValueError):
            simulate_sweep(HASWELL_EP, 99, 1000, lups=1e6)
        with pytest.raises(ValueError):
            simulate_sweep(HASWELL_EP, 1, -5, lups=1e6)

    def test_tiled_full_chip_beats_spatial_3x(self):
        """The headline: MWD at 18 cores is >= 3x saturated spatial."""
        plan = TilingPlan.build(ny=384, nz=384, timesteps=16, dw=8, bz=9)
        cfg = ThreadGroupConfig(wavefront_threads=3, x_threads=2, component_threads=3)
        bc = measure_tiled_code_balance(HASWELL_EP, nx=384, dw=8, bz=9, n_streams=1)
        r = simulate_tiled(HASWELL_EP, plan, nx=384, tg_config=cfg,
                           code_balance=bc.bytes_per_lup)
        spatial = simulate_sweep(HASWELL_EP, 18, spatial_code_balance(), lups=1e8)
        assert r.mlups > 3.0 * spatial.mlups
        # ...while using less than the full bandwidth (decoupled).
        assert r.bandwidth_gbs < 0.9 * HASWELL_EP.bandwidth_gbs

    def test_tiled_oversized_group_rejected(self):
        plan = TilingPlan.build(ny=32, nz=32, timesteps=8, dw=4, bz=1)
        cfg = ThreadGroupConfig(x_threads=19)
        with pytest.raises(ValueError):
            simulate_tiled(HASWELL_EP, plan, nx=32, tg_config=cfg, code_balance=300)

    def test_tg_efficiency_bounds(self):
        for cfg in (
            ThreadGroupConfig(),
            ThreadGroupConfig(x_threads=6),
            ThreadGroupConfig(wavefront_threads=3, component_threads=3),
        ):
            eff = tg_efficiency(cfg, nx=384, nz=384, bz=4)
            assert 0.5 < eff <= 1.0

    def test_tg_efficiency_penalizes_short_x_chunks(self):
        wide = tg_efficiency(ThreadGroupConfig(x_threads=2), nx=384, nz=384, bz=1)
        narrow = tg_efficiency(ThreadGroupConfig(x_threads=18), nx=384, nz=384, bz=1)
        assert narrow < wide


@contextmanager
def python_des():
    """Run the enclosed simulations on the Python event loop (the oracle)."""
    saved, simulator._DES = simulator._DES, False
    try:
        yield
    finally:
        simulator._DES = saved


@pytest.fixture
def native_des():
    if not simulator._native_des():
        pytest.skip("compiled DES unavailable")


@pytest.fixture
def reload_des(monkeypatch):
    """``reload()`` makes the next simulation load the library again and
    returns the ``native_degraded`` count at that moment; the loaded state
    is put back afterwards."""
    monkeypatch.setattr(simulator, "_DES", simulator._DES)

    def reload():
        simulator._DES = None
        return RESILIENCE_COUNTERS.get("native_degraded")

    return reload


def _hand_built(plan, keep=lambda idx: True):
    """``plan`` cut down to the tiles ``keep`` accepts, built by hand: no
    shared packed DAG comes with it."""
    tiles = {idx: t for idx, t in plan.tiles.items() if keep(idx)}
    return TilingPlan(
        ny=plan.ny, nz=plan.nz, timesteps=plan.timesteps, dw=plan.dw, bz=plan.bz,
        tiles=tiles,
        preds={i: tuple(p for p in plan.preds[i] if p in tiles) for i in tiles},
        succs={i: tuple(s for s in plan.succs[i] if s in tiles) for i in tiles})


class TestNativeDES:
    """``_des_kernel.c`` against the Python event loop it transcribes:
    every float of the result equal, every error the same, every way of
    not getting the library landing on the loop."""

    CFG = ThreadGroupConfig(wavefront_threads=1, x_threads=3, component_threads=2)

    def _plan(self):
        return TilingPlan.build(ny=40, nz=24, timesteps=10, dw=4, bz=2)

    def _run(self, plan=None, machine=HASWELL_EP, cfg=CFG, balance=267.13):
        return simulate_tiled(machine, plan or self._plan(), nx=48,
                              tg_config=cfg, code_balance=balance)

    @given(
        ny=st.integers(4, 72), nz=st.integers(1, 40),
        timesteps=st.integers(1, 14), dw=st.sampled_from([2, 4, 6, 8, 12]),
        bz=st.integers(1, 9), wavefront=st.integers(1, 3),
        x=st.integers(1, 3), components=st.sampled_from([1, 2, 3, 6]),
        groups=st.integers(1, 18), idle_cores=st.integers(0, 5),
        # HASWELL_EP saturates near 50e9 / cap_rate: both sides of it,
        # the exact zero and the far end.
        balance=st.one_of(st.just(0.0), st.floats(1.0, 6000.0)),
        sync_ns=st.sampled_from([0.0, 150.0, 2500.0]),
    )
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_equals_python_loop(self, native_des, ny, nz, timesteps, dw, bz,
                                wavefront, x, components, groups, idle_cores,
                                balance, sync_ns):
        cfg = ThreadGroupConfig(wavefront, x, components)
        # ``idle_cores`` not filling another group: non-dividing counts.
        cores = groups * cfg.size + idle_cores % cfg.size
        machine = dataclasses.replace(HASWELL_EP, cores=cores, sync_ns=sync_ns)
        plan = TilingPlan.build(ny=ny, nz=nz, timesteps=timesteps, dw=dw, bz=bz)
        native = simulate_tiled(machine, plan, nx=64, tg_config=cfg,
                                code_balance=balance)
        with python_des():
            oracle = simulate_tiled(machine, plan, nx=64, tg_config=cfg,
                                    code_balance=balance)
        assert native == oracle  # dataclass ==: every float bitwise

    def test_saturated_and_unsaturated_sides(self, native_des):
        """The two balances of ``_run`` callers really straddle the cap."""
        low, high = self._run(balance=50.0), self._run(balance=3000.0)
        assert low.bandwidth_gbs < 0.9 * HASWELL_EP.bandwidth_gbs
        assert high.bandwidth_gbs > 0.9 * HASWELL_EP.bandwidth_gbs
        with python_des():
            assert (low, high) == (self._run(balance=50.0), self._run(balance=3000.0))

    def test_hand_built_plan_packs_its_own_dag(self, native_des):
        built = self._plan()
        assert "packed" in vars(built)  # hung on the plan by build()
        plan = _hand_built(built, lambda idx: idx[0] % 3 != 1)
        assert 0 < plan.n_tiles < built.n_tiles and "packed" not in vars(plan)
        native = self._run(plan)
        assert len(plan.packed[0]) == plan.n_tiles
        with python_des():
            assert self._run(plan) == native
        assert native != self._run(built)

    def test_cyclic_preds_deadlock_on_both(self, native_des):
        plan = _hand_built(self._plan())
        root = next(i for i in plan.tiles if not plan.preds[i] and plan.succs[i])
        plan.preds[root] = (plan.succs[root][0],)  # root waits for its successor
        with pytest.raises(RuntimeError, match="^deadlock: no running tiles"):
            self._run(plan)
        with python_des(), pytest.raises(RuntimeError, match="^deadlock: no running"):
            self._run(plan)

    def test_over_completion_is_the_same_error(self, native_des):
        plan = _hand_built(self._plan())
        root = next(i for i in plan.tiles if not plan.preds[i] and plan.succs[i])
        succ = plan.succs[root][0]
        plan.succs[root] += (succ,) * len(plan.preds[succ])
        message = f"tile \\({succ[0]}, {succ[1]}\\) completed more predecessors"
        with pytest.raises(RuntimeError, match=message):
            self._run(plan)
        with python_des(), pytest.raises(RuntimeError, match=message):
            self._run(plan)

    def test_oversized_group_rejected_before_either_back_end(self, reload_des):
        reload_des()
        cfg = ThreadGroupConfig(x_threads=19)
        with pytest.raises(ValueError, match="exceeds 18 cores"):
            self._run(cfg=cfg)
        assert simulator._DES is None  # raised before any library load
        with python_des(), pytest.raises(ValueError, match="exceeds 18 cores"):
            self._run(cfg=cfg)

    def test_vetoed(self, reload_des, monkeypatch):
        expected = self._run()
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        before = reload_des()
        assert self._run() == expected
        assert simulator._DES is False
        # a veto is not a degradation
        assert RESILIENCE_COUNTERS.get("native_degraded") == before

    def test_injected_load_fault_degrades_this_library_only(
            self, reload_des, monkeypatch):
        expected = self._run()
        monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
        lru = native_available()
        before = reload_des()
        faults.install(faults.FaultPlan.parse("native.load:raise"))
        try:
            assert self._run() == expected
            assert self._run(balance=900.0) == self._run(balance=900.0)
        finally:
            faults.uninstall()
        assert simulator._DES is False
        assert RESILIENCE_COUNTERS.get("native_degraded") == before + 1  # once
        assert native_available() == lru  # the replay engine is untouched

    def test_tracing_takes_the_python_loop(self, native_des):
        plan = self._plan()
        untraced = self._run(plan)
        rec = tracing.start_trace()
        try:
            traced = self._run(plan)
        finally:
            tracing.stop_trace()
        assert traced == untraced
        tiles = [e for e in rec._events if e["cat"] == "sim.tile"]
        assert len(tiles) == plan.n_tiles

    def test_concurrent_simulations_share_nothing(self, native_des):
        """Four threads simulating different plans at once (the library
        runs without the GIL) give the serial results every time."""
        cases = [(TilingPlan.build(ny=24 + 8 * k, nz=16, timesteps=6 + k, dw=4, bz=2),
                  (50.0, 267.13, 900.0, 3000.0)[k]) for k in range(4)]
        serial = [self._run(plan, balance=b) for plan, b in cases]
        got = {}

        def work(k):
            plan, balance = cases[k]
            got[k] = [self._run(plan, balance=balance) for _ in range(200)]

        run_concurrently(work, range(len(cases)))
        for k, want in enumerate(serial):
            assert got[k] == [want] * 200


class TestCalibration:
    def test_spatial_saturation_near_six_cores(self):
        rep = validate_calibration(HASWELL_EP)
        assert 5.0 < rep.spatial_saturation_cores < 7.5
        assert rep.spatial_saturated_mlups == pytest.approx(41.1, abs=0.5)

    def test_headline_speedup_in_3_4x_band(self):
        rep = validate_calibration(HASWELL_EP)
        assert 3.0 <= rep.speedup_over_spatial <= 4.2

    def test_single_core_spatial_mlups(self):
        rep = validate_calibration(HASWELL_EP)
        assert 5.0 < rep.spatial_single_core_mlups < 9.0


class TestAutotuner:
    """Auto-tuned shapes at a reduced set of points (full sweeps live in
    the benchmarks)."""

    def test_spatial_tuning_saturates(self):
        p = tune_spatial(HASWELL_EP, 384, 18)
        assert p.mlups == pytest.approx(41.1, abs=1.0)
        assert p.code_balance == pytest.approx(1216, rel=0.02)

    def test_1wd_peaks_then_drops(self):
        mid = tune_tiled(HASWELL_EP, 384, 10, tg_size=1, variant="1WD")
        full = tune_tiled(HASWELL_EP, 384, 18, tg_size=1, variant="1WD")
        assert mid.mlups > full.mlups  # the Fig. 6a decline

    def test_mwd_scales_to_full_chip(self):
        mwd = tune_tiled(HASWELL_EP, 384, 18)
        spatial = tune_spatial(HASWELL_EP, 384, 18)
        assert mwd.mlups > 3.0 * spatial.mlups
        assert 150 < mwd.code_balance < 450  # Fig. 6c window

    def test_mwd_tuner_prefers_sharing_at_full_chip(self):
        mwd = tune_tiled(HASWELL_EP, 384, 18)
        assert mwd.tg_size > 1
        assert mwd.dw >= 8

    def test_tuned_point_describe(self):
        p = tune_spatial(HASWELL_EP, 384, 18)
        assert "spatial" in p.describe()
