"""Unit tests for auto-tuner internals and simulator result handling."""

import pytest

from repro.core import autotuner
from repro.core.autotuner import (
    DW_MIN,
    _dw_candidates,
    grid_lups,
    simulate_grid_lups,
    tune_spatial,
    tune_tiled,
    tune_variant,
)
from repro.core.models import cache_block_size
from repro.machine import HASWELL_EP
from repro.machine.simulator import SimResult


class TestDwCandidates:
    BUDGET = HASWELL_EP.usable_l3_bytes

    def test_top_widths_fit(self):
        cands = _dw_candidates(n_groups=1, bz=1, nx=384, budget=self.BUDGET)
        assert cands
        top = cands[0]
        assert cache_block_size(top, 1, 384) <= self.BUDGET * 1.1
        assert cache_block_size(top + 2, 1, 384) > self.BUDGET * 1.1

    def test_descending_order(self):
        cands = _dw_candidates(n_groups=1, bz=1, nx=384, budget=self.BUDGET)
        assert cands == sorted(cands, reverse=True)
        assert all(c % 2 == 0 and c >= DW_MIN for c in cands)

    def test_fallback_to_minimum(self):
        """When nothing fits (many groups, big rows) the minimum diamond
        is still returned -- the 1WD thrashing regime."""
        cands = _dw_candidates(n_groups=18, bz=9, nx=512, budget=self.BUDGET)
        assert cands == [DW_MIN]

    def test_more_groups_smaller_diamonds(self):
        one = _dw_candidates(1, 1, 384, self.BUDGET)[0]
        many = _dw_candidates(6, 1, 384, self.BUDGET)[0]
        assert many <= one


class TestTunedPointApi:
    def test_spatial_point_fields(self):
        p = tune_spatial(HASWELL_EP, 128, 4)
        assert p.variant == "spatial"
        assert p.dw is None and p.tg is None
        assert p.block_y is not None
        assert p.tg_size == 1
        assert p.mlups > 0

    def test_tiled_point_fields(self):
        p = tune_tiled(HASWELL_EP, 128, 4, tg_size=2, variant="2WD")
        assert p.variant == "2WD"
        assert p.dw is not None and p.bz is not None and p.tg is not None
        assert p.tg.size == 2
        assert "2WD@4t" in p.describe()

    def test_results_cached(self):
        a = tune_spatial(HASWELL_EP, 128, 4)
        b = tune_spatial(HASWELL_EP, 128, 4)
        assert a is b  # lru_cache identity

    def test_grid_lups(self):
        assert grid_lups(64, timesteps=10) == 64**3 * 10


class TestTuneVariant:
    """``tune_variant`` is the one place a variant name becomes a tuner
    call: ``repro tune``, tune jobs and the plan registry share it."""

    DIRECT = {
        "spatial": lambda tg: tune_spatial(HASWELL_EP, 64, 4),
        "1wd": lambda tg: tune_tiled(HASWELL_EP, 64, 4, tg_size=1, variant="1WD"),
        "mwd": lambda tg: tune_tiled(HASWELL_EP, 64, 4, tg_size=tg),
    }

    @pytest.mark.parametrize("tg_size", [None, 2])
    @pytest.mark.parametrize("variant", ["spatial", "1wd", "mwd"])
    def test_returns_the_direct_calls_object(self, variant, tg_size):
        got = tune_variant(HASWELL_EP, 64, 4, variant=variant, tg_size=tg_size)
        assert got is self.DIRECT[variant](tg_size)  # the tuners' lru_cache
        assert got.variant == {"spatial": "spatial", "1wd": "1WD",
                               "mwd": "2WD" if tg_size else "MWD"}[variant]

    def test_every_entry_point_comes_through_it(self, monkeypatch, capsys):
        from repro.cli import main
        from repro.service import JobSpec, run_job
        from repro.service.registry import PlanRegistry

        calls = []
        real = autotuner.tune_variant

        def spy(spec, grid_n, threads, variant="mwd", tg_size=None):
            calls.append((grid_n, threads, variant, tg_size))
            return real(spec, grid_n, threads, variant=variant, tg_size=tg_size)

        monkeypatch.setattr(autotuner, "tune_variant", spy)
        spec = JobSpec(kind="tune", grid=16, threads=2, variant="1wd")
        bare = run_job(spec)
        assert run_job(spec, registry=PlanRegistry())["point"] == bare["point"]
        assert main(["tune", "--grid", "16", "--threads", "2",
                     "--variant", "1wd"]) == 0
        assert calls == [(16, 2, "1wd", None)] * 3
        assert bare["describe"] in capsys.readouterr().out


class TestSimResult:
    def test_scaled_to_preserves_rates(self):
        r = SimResult(mlups=100.0, bandwidth_gbs=20.0, bytes_per_lup=200.0,
                      seconds=1.0, lups=1e8, threads=18)
        s = r.scaled_to(2e8)
        assert s.mlups == r.mlups
        assert s.bandwidth_gbs == r.bandwidth_gbs
        assert s.seconds == pytest.approx(2.0)
        assert s.lups == 2e8

    def test_simulate_grid_lups(self):
        p = tune_spatial(HASWELL_EP, 128, 4)
        full = simulate_grid_lups(p, 256, timesteps=50)
        assert full.lups == 256**3 * 50
        assert full.mlups == pytest.approx(p.mlups)

    def test_tuner_threads_bounds(self):
        with pytest.raises(ValueError):
            tune_spatial(HASWELL_EP, 128, 0)
