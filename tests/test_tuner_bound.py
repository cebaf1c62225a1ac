"""The tuner's bound-pruned search (``core/autotuner.py: tune_tiled``).

Candidates are scored in order of decreasing
``simulator.tiled_mlups_bound`` and the search stops at the first one
whose bound is below the best score so far.  Its contract (DESIGN.md
section 5): the returned point is the one the exhaustive search returns,
byte for byte.  The oracle is ``conftest.exhaustive_tune_tiled``; both
DES bodies run every property (``conftest.python_des``).
"""

import json
import random
from contextlib import nullcontext
from unittest import mock

import pytest
from conftest import exhaustive_tune_tiled, python_des
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import nativelib, telemetry
from repro.core import autotuner
from repro.machine import (HASWELL_EP, clear_substrate_caches, measure,
                           native_available, simulator)
from repro.machine.measure import TrafficResult
from repro.machine.simulator import simulate_tiled, tiled_mlups_bound

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])
#: The paper's ablation bandwidths (GB/s) beside the testbed's own.
BANDWIDTHS = (None, 25.0, 37.5, 50.0, 75.0)
#: Stand-in code balances (B/LUP): 0 makes every tile run at the bound's
#: rate, the rest span compute- to bandwidth-bound; few values, so
#: candidates share them.
CODE_BALANCES = (0.0, 1.0, 40.0, 68.0, 150.0, 400.0, 800.0)
DES_BODIES = ("native", "python")


def _pruned(spec, grid, threads, tg_size, variant):
    """The search itself, not its memo."""
    return autotuner.tune_tiled.__wrapped__(spec, grid, threads, tg_size, variant)


def _doc(point) -> str:
    return json.dumps(autotuner.point_to_json(point), sort_keys=True)


def _des(body):
    if body == "python":
        return python_des()
    if not nativelib.load("_des_kernel", simulator._bind_des):
        pytest.skip("compiled DES unavailable")
    return nullcontext()


def _drawn_balances(seed):
    """``measure_tiled_code_balance`` answering a seeded draw from
    :data:`CODE_BALANCES` per schedule (no replay)."""
    def measure_tiled_code_balance(spec, nx, dw, bz, n_streams):
        rng = random.Random(f"{seed}:{nx}:{dw}:{bz}:{n_streams}")
        cb = rng.choice(CODE_BALANCES)
        return TrafficResult(mem_bytes=cb * 1000.0, lups=1000.0, cells=0,
                             hit_rate=0.0)
    return mock.patch.object(autotuner, "measure_tiled_code_balance",
                             measure_tiled_code_balance)


@st.composite
def tune_points(draw):
    grid = draw(st.integers(8, 200))
    threads = draw(st.integers(1, 18))
    kind = draw(st.sampled_from(["MWD", "1WD", "kWD"]))
    tg_size, variant = {"MWD": (None, None), "1WD": (1, "1WD"),
                        "kWD": (draw(st.integers(1, threads)), None)}[kind]
    bandwidth = draw(st.sampled_from(BANDWIDTHS))
    spec = HASWELL_EP if bandwidth is None else HASWELL_EP.with_bandwidth(bandwidth)
    return spec, grid, threads, tg_size, variant


class TestPrunedEqualsExhaustive:
    @pytest.mark.parametrize("body", DES_BODIES)
    @settings(max_examples=100, **COMMON)
    @given(point=tune_points(), seed=st.integers(0, 2**16))
    def test_on_any_code_balances(self, body, point, seed):
        """Any code balances a replay could measure (here drawn, zero
        included) give the exhaustive search's point."""
        with _drawn_balances(seed), _des(body):
            want = exhaustive_tune_tiled(*point)
            got = _pruned(*point)
        assert _doc(got) == _doc(want)

    @pytest.mark.parametrize("body", DES_BODIES)
    @settings(max_examples=12, **COMMON)
    @given(point=tune_points())
    def test_on_measured_code_balances(self, body, point):
        if not native_available():
            pytest.skip("real replays are sized for the native engine")
        with _des(body):
            assert _doc(_pruned(*point)) == _doc(exhaustive_tune_tiled(*point))

    #: The tiled tunes of the pinned figure subset (Fig. 6 at 384^3,
    #: Fig. 7 at 18 threads), the held-back point at two bandwidths and
    #: the registry's 24^3 warm-up.
    PINNED = ([(HASWELL_EP, g, t, tg, v) for g, t in ((384, 1), (384, 9),
                                                     (384, 18), (256, 18))
               for tg, v in ((1, "1WD"), (None, None))]
              + [(HASWELL_EP.with_bandwidth(bw), 352, 12, None, None)
                 for bw in (30.0, 65.0)]
              + [(HASWELL_EP, 24, 18, None, None)])

    @pytest.mark.parametrize("point", PINNED, ids=lambda p: (
        f"{p[1]}-{p[2]}-{p[4] or 'MWD'}-{p[0].bandwidth_gbs:g}"))
    def test_pinned_points(self, point):
        if not native_available():
            pytest.skip("real replays are sized for the native engine")
        assert _doc(_pruned(*point)) == _doc(exhaustive_tune_tiled(*point))


class TestBound:
    POINTS = ((24, 18, None), (64, 7, None), (100, 18, 1), (48, 12, 3),
              (30, 1, None), (200, 3, None))

    @pytest.mark.parametrize("body", DES_BODIES)
    def test_no_code_balance_beats_it(self, body):
        """The simulation's float sums may round a few ulps above the
        bound (code balance 0 reaches it), never past the search's slack."""
        for grid, threads, tg_size in self.POINTS:
            machine = HASWELL_EP.with_cores(threads)
            for cand in autotuner._tiled_candidates(HASWELL_EP, grid, threads,
                                                    tg_size, None):
                _, _, _, bz, dw, cfg = cand
                plan = autotuner._plan(grid, dw, bz)
                with _des(body):
                    bound = tiled_mlups_bound(machine, plan, grid, cfg)
                    for cb in (0.0, 1e-6, 1.0, 300.0):
                        res = simulate_tiled(machine, plan, grid, cfg, cb)
                        assert res.mlups <= bound * (1 + autotuner.BOUND_SLACK)

    @pytest.mark.parametrize("grid,threads", [(24, 18), (384, 18), (352, 12)])
    def test_every_scored_candidate_is_within_it(self, grid, threads):
        """Measured code balances are never near 0: every candidate's
        score stays strictly inside its bound."""
        if not native_available():
            pytest.skip("real replays are sized for the native engine")
        machine = HASWELL_EP.with_cores(threads)
        for cand in autotuner._tiled_candidates(HASWELL_EP, grid, threads,
                                                None, None):
            point = autotuner._score_tiled(HASWELL_EP, machine, grid, threads, cand)
            assert point.mlups <= autotuner._bound_tiled(machine, grid, cand)

    def test_both_des_bodies_give_the_same_bound(self):
        plan = autotuner._plan(40, 8, 4)
        for cand in autotuner._tiled_candidates(HASWELL_EP, 40, 18, None, None):
            cfg = cand[-1]
            native = tiled_mlups_bound(HASWELL_EP, plan, 40, cfg)
            with python_des():
                assert tiled_mlups_bound(HASWELL_EP, plan, 40, cfg) == native


class TestSearchOrder:
    def _search(self, monkeypatch, bounds, scores):
        """The search over stand-in candidates ``0..n-1``; returns the
        winner's index and the indices scored, in order."""
        scored = []

        def score(spec, machine, grid, threads, k):
            scored.append(k)
            return autotuner.TunedPoint(
                variant="MWD", threads=threads, code_balance=float(k),
                result=autotuner.SimResult(scores[k], 0.0, 0.0, 1.0, 1.0, threads))

        monkeypatch.setattr(autotuner, "_tiled_candidates",
                            lambda *a: list(range(len(bounds))))
        monkeypatch.setattr(autotuner, "_bound_tiled", lambda m, g, k: bounds[k])
        monkeypatch.setattr(autotuner, "_score_tiled", score)
        point = _pruned(HASWELL_EP, 64, 18, None, None)
        return int(point.code_balance), scored

    def test_ties_go_to_the_first_in_enumeration_order(self, monkeypatch):
        # 1 and 3 tie at the top score; 3 has the larger bound, so it is
        # scored first, and 1 still wins.
        winner, scored = self._search(monkeypatch, bounds=[5, 9, 2, 10, 9.5],
                                      scores=[4, 8, 1, 8, 7])
        assert winner == 1
        assert scored == [3, 4, 1]

    def test_equal_bounds_are_scored_in_enumeration_order(self, monkeypatch):
        winner, scored = self._search(monkeypatch, bounds=[9, 9, 9, 1],
                                      scores=[3, 5, 5, 0.5])
        assert (winner, scored) == (1, [0, 1, 2])

    def test_a_bound_equal_to_the_best_is_still_scored(self, monkeypatch):
        winner, scored = self._search(monkeypatch, bounds=[6, 5, 5],
                                      scores=[5, 5, 4])
        assert (winner, scored) == (0, [0, 1, 2])


class TestRegistryTune:
    """The 24^3 / 18-thread tune the plan registry warms up with."""

    def test_scores_and_measures_at_most_four(self):
        clear_substrate_caches()
        try:
            rec = telemetry.start_trace()
            traced = _pruned(HASWELL_EP, 24, 18, None, None)
            telemetry.stop_trace()
            [span] = [e for e in rec._events
                      if e["name"].startswith("tune_tiled g=24 t=18")]
            args = span["args"]
            assert args["scored"] <= 4
            assert args["scored"] + args["pruned"] == args["candidates"] == 86
            assert measure._measure_tiled_cached.cache_info().misses <= 4
            # telemetry on == off, bit for bit
            assert _doc(_pruned(HASWELL_EP, 24, 18, None, None)) == _doc(traced)
            assert (traced.dw, traced.bz) == (24, 4)
        finally:
            telemetry.stop_trace()
            clear_substrate_caches()
