"""Tests for the deterministic fault-injection registry."""

import pytest

from repro.resilience import faults
from repro.resilience.errors import InjectedFault
from repro.resilience.faults import CRASH_EXIT_CODE, KINDS, SITES, FaultPlan, FaultSpec


@pytest.fixture(autouse=True)
def _clean_plan(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults.uninstall()
    faults.set_attempt(1)
    yield
    faults.uninstall()
    faults.set_attempt(1)


class TestFaultSpecParsing:
    def test_minimal(self):
        s = FaultSpec.parse("registry.read:raise")
        assert (s.site, s.kind, s.after_n, s.attempt) == \
            ("registry.read", "raise", 0, 1)

    def test_full(self):
        s = FaultSpec.parse("solver.sweep:crash:5:2")
        assert (s.site, s.kind, s.after_n, s.attempt) == \
            ("solver.sweep", "crash", 5, 2)

    def test_any_attempt(self):
        assert FaultSpec.parse("job.run:raise:0:*").attempt is None

    def test_describe_roundtrips(self):
        for text in ("a:raise:0:1", "b:crash:3:*", "c:corrupt:7:2"):
            assert FaultSpec.parse(text).describe() == text

    @pytest.mark.parametrize("bad", [
        "", "siteonly", ":raise", "site:frobnicate", "site:raise:-1",
        "site:raise:0:1:extra",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            FaultSpec.parse(bad)

    def test_plan_parses_comma_list(self):
        plan = FaultPlan.parse("a:raise, b:corrupt:2 ,")
        assert [s.site for s in plan.specs] == ["a", "b"]

    def test_unknown_site_is_legal_and_inert(self):
        plan = FaultPlan.parse("no.such.site:raise")
        assert plan.hit("registry.read") is None


class TestDeterminism:
    def test_seeded_is_reproducible(self):
        a = FaultPlan.seeded(7, "solver.sweep", "crash", max_after=12)
        b = FaultPlan.seeded(7, "solver.sweep", "crash", max_after=12)
        assert a.env_value() == b.env_value()
        assert 0 <= a.specs[0].after_n < 12

    def test_seeds_spread_the_injection_point(self):
        points = {FaultPlan.seeded(s, "x", "raise", 100).specs[0].after_n
                  for s in range(30)}
        assert len(points) > 5

    def test_fires_at_exactly_after_n(self):
        plan = faults.install(FaultPlan.parse("s:raise:2"))
        assert faults.hit("s") is None
        assert faults.hit("s") is None
        with pytest.raises(InjectedFault, match="injected failure at s"):
            faults.hit("s")
        assert faults.hit("s") is None  # fires once, not repeatedly
        assert plan.counts() == {"s": 4}
        assert plan.fired() == ["s:raise:2:1"]


class TestActivation:
    def test_env_var_activates_and_reparses(self, monkeypatch):
        assert faults.active() is None
        monkeypatch.setenv("REPRO_FAULTS", "a:raise")
        plan = faults.active()
        assert plan is not None and plan.specs[0].site == "a"
        assert faults.active() is plan  # same source -> cached counters
        monkeypatch.setenv("REPRO_FAULTS", "b:raise")
        assert faults.active().specs[0].site == "b"

    def test_install_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "a:raise")
        mine = faults.install(FaultPlan.parse("b:raise"))
        assert faults.active() is mine
        faults.uninstall()
        assert faults.active().specs[0].site == "a"

    def test_hit_is_inert_without_plan(self):
        assert faults.hit("anything") is None

    def test_attempt_filter(self):
        faults.install(FaultPlan.parse("s:raise:0:1"))
        faults.set_attempt(2)
        assert faults.hit("s") is None  # attempt 2: spec pinned to 1
        faults.install(FaultPlan.parse("s:raise:0:*"))
        with pytest.raises(InjectedFault):
            faults.hit("s")

    def test_corrupt_kind_returned_to_site(self):
        faults.install(FaultPlan.parse("s:corrupt"))
        assert faults.hit("s") == "corrupt"

    def test_fired_summary_shapes(self):
        assert faults.fired_summary() == {"active": False, "specs": [],
                                          "fired": []}
        faults.install(FaultPlan.parse("s:corrupt:1"))
        faults.hit("s")
        faults.hit("s")
        summary = faults.fired_summary()
        assert summary["active"] is True
        assert summary["fired"] == ["s:corrupt:1:1"]


class TestTrigger:
    def test_raise_message_names_site_and_reason(self):
        with pytest.raises(InjectedFault, match=r"at job.run \(pass 0\)"):
            faults.trigger("job.run", "raise", reason="pass 0")

    def test_inline_crash_degrades_to_exception(self):
        with pytest.raises(InjectedFault, match="inline worker"):
            faults.trigger("s", "crash")

    def test_crash_exit_code_distinct_from_legacy(self):
        assert CRASH_EXIT_CODE == 43

    def test_site_and_kind_tables(self):
        assert "solver.sweep" in SITES and "checkpoint.write" in SITES
        assert set(KINDS) == {"raise", "crash", "corrupt"}
