"""FaultPlan: typed events, target validation, seeded generation."""

import pytest

from repro.errors import FaultInjectionError
from repro.faults import FAULT_SCOPES, FaultEvent, FaultKind, FaultPlan


class TestFaultEvent:
    def test_target_prefix_must_match_scope(self):
        with pytest.raises(FaultInjectionError, match="rank"):
            FaultEvent(at=1.0, kind=FaultKind.RANK_OFFLINE,
                       target="host:host0")
        with pytest.raises(FaultInjectionError):
            FaultEvent(at=1.0, kind=FaultKind.BACKEND_HANG, target="backend:")

    def test_negative_time_rejected(self):
        with pytest.raises(FaultInjectionError, match="negative"):
            FaultEvent(at=-0.5, kind=FaultKind.RANK_OFFLINE, target="rank:0")

    def test_every_kind_has_a_scope(self):
        assert set(FAULT_SCOPES) == set(FaultKind)

    def test_wildcard_and_exact_matching(self):
        event = FaultEvent(at=0.0, kind=FaultKind.TRANSPORT_STALL,
                           target="transport:*")
        assert event.matches("transport", "vm-0.vupmem0")
        assert not event.matches("rank", "0")
        exact = FaultEvent(at=0.0, kind=FaultKind.RANK_OFFLINE,
                           target="rank:1")
        assert exact.matches("rank", "1")
        assert not exact.matches("rank", "0")

    def test_params_accessible_and_in_describe(self):
        plan = FaultPlan()
        event = plan.add(2.0, FaultKind.RANK_DEGRADED, "rank:0", factor=4.0)
        assert event.param("factor") == 4.0
        assert event.param("missing", 7) == 7
        assert "factor=4.0" in event.describe()
        assert event.describe().startswith("2.000000000 rank_degraded")


class TestFaultPlan:
    def test_events_kept_sorted_by_time(self):
        plan = FaultPlan()
        plan.add(3.0, FaultKind.RANK_OFFLINE, "rank:0")
        plan.add(1.0, FaultKind.BACKEND_HANG, "backend:*")
        assert [e.at for e in plan] == [1.0, 3.0]
        assert len(plan) == 2

    def test_generate_is_a_pure_function_of_the_seed(self):
        a = FaultPlan.generate(seed=5, horizon_s=10.0, rate_per_s=2.0)
        b = FaultPlan.generate(seed=5, horizon_s=10.0, rate_per_s=2.0)
        assert a.describe() == b.describe()
        c = FaultPlan.generate(seed=6, horizon_s=10.0, rate_per_s=2.0)
        assert a.describe() != c.describe()

    def test_generate_respects_per_kind_limits(self):
        plan = FaultPlan.generate(
            seed=0, horizon_s=50.0, rate_per_s=4.0,
            kinds=(FaultKind.RANK_OFFLINE,),
            limits={FaultKind.RANK_OFFLINE: 1})
        assert len(plan) == 1

    def test_generate_rejects_bad_horizon(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.generate(seed=0, horizon_s=0.0, rate_per_s=1.0)
        with pytest.raises(FaultInjectionError):
            FaultPlan.generate(seed=0, horizon_s=1.0, rate_per_s=-1.0)
