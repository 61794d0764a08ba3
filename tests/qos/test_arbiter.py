"""BandwidthArbiter: demand accounting, FIFO vs WFQ costs; the event loop."""

import math

import pytest

from repro.hardware.timing import DEFAULT_COST_MODEL
from repro.qos.arbiter import BandwidthArbiter, VirtioEventLoop

COST = DEFAULT_COST_MODEL


def make():
    return BandwidthArbiter(COST)


class TestRegistration:
    def test_duplicate_flow_rejected(self):
        arbiter = make()
        arbiter.register("a")
        with pytest.raises(ValueError):
            arbiter.register("a")

    def test_nonpositive_weight_rejected(self):
        arbiter = make()
        with pytest.raises(ValueError):
            arbiter.register("a", weight=0.0)
        arbiter.register("b", weight=2.0)
        with pytest.raises(ValueError):
            arbiter.set_weight("b", -1.0)

    def test_unregister_is_idempotent(self):
        arbiter = make()
        arbiter.register("a")
        arbiter.unregister("a")
        arbiter.unregister("a")
        assert arbiter.flows == []


class TestDemand:
    def test_declared_demand_wins_and_clamps(self):
        arbiter = make()
        hot = arbiter.register("hot", demand=3.0)
        cold = arbiter.register("cold", demand=-1.0)
        assert arbiter.demand(hot, now=0.0) == 1.0
        assert arbiter.demand(cold, now=0.0) == 0.0

    def test_measured_demand_decays(self):
        arbiter = make()
        flow = arbiter.register("a")
        window = BandwidthArbiter.ACTIVITY_WINDOW
        arbiter.record("a", 0.5 * window, now=0.0)
        assert arbiter.demand(flow, now=0.0) == pytest.approx(0.5)
        # Five windows later the load has decayed by e^-5.
        assert arbiter.demand(flow, now=5 * window) == pytest.approx(
            0.5 * math.exp(-5), rel=1e-9)

    def test_measured_mean_op_is_an_ema(self):
        arbiter = make()
        flow = arbiter.register("a")
        arbiter.record("a", 1e-3, now=0.0)
        assert arbiter.mean_op_s(flow) == pytest.approx(1e-3)
        arbiter.record("a", 2e-3, now=0.0)
        expected = 1e-3 + BandwidthArbiter.MEAN_ALPHA * (2e-3 - 1e-3)
        assert arbiter.mean_op_s(flow) == pytest.approx(expected)

    def test_declared_mean_op_wins(self):
        arbiter = make()
        flow = arbiter.register("a", mean_op_s=5e-3)
        arbiter.record("a", 1e-6, now=0.0)
        assert arbiter.mean_op_s(flow) == 5e-3


class TestQueueDelay:
    def test_fifo_pays_the_full_residual(self):
        arbiter = make()
        arbiter.register("me")
        arbiter.register("noisy", demand=1.0, mean_op_s=4e-3)
        # At now=0 the neighbor's op is at phase 0: full residual.
        assert arbiter.queue_delay("me", now=0.0, fair=False) == \
            pytest.approx(4e-3)
        # At 3/4 through the period only a quarter remains.
        assert arbiter.queue_delay("me", now=3e-3, fair=False) == \
            pytest.approx(1e-3)

    def test_wfq_caps_the_residual_at_one_quantum(self):
        arbiter = make()
        arbiter.register("me")
        arbiter.register("noisy", demand=1.0, mean_op_s=4e-3)
        assert arbiter.queue_delay("me", now=0.0, fair=True) == \
            pytest.approx(BandwidthArbiter.WFQ_QUANTUM)
        assert BandwidthArbiter.WFQ_QUANTUM < 4e-3

    def test_idle_neighbor_is_ignored(self):
        arbiter = make()
        arbiter.register("me")
        arbiter.register("idle",
                         demand=BandwidthArbiter.MIN_ACTIVE_DEMAND / 2,
                         mean_op_s=4e-3)
        assert arbiter.queue_delay("me", now=0.0, fair=False) == 0.0
        assert arbiter.bus_share("me", 1e-3, now=0.0, fair=False) == 0.0


class TestBusShare:
    def test_solo_flow_pays_nothing(self):
        arbiter = make()
        arbiter.register("me")
        assert arbiter.bus_share("me", 1e-3, now=0.0, fair=True) == 0.0
        assert arbiter.bus_share("me", 0.0, now=0.0, fair=False) == 0.0

    def test_fifo_steal_is_unweighted(self):
        arbiter = make()
        arbiter.register("me", weight=8.0)
        arbiter.register("noisy", demand=1.0, mean_op_s=1e-3)
        # Weight does not matter without enforcement: steal saturates.
        assert arbiter.bus_share("me", 1e-3, now=0.0, fair=False) == \
            pytest.approx(1e-3 * COST.parallel_contention)

    def test_wfq_steal_is_weight_proportional(self):
        arbiter = make()
        arbiter.register("me", weight=1.0)
        arbiter.register("noisy", weight=1.0, demand=1.0, mean_op_s=1e-3)
        equal = arbiter.bus_share("me", 1e-3, now=0.0, fair=True)
        assert equal == pytest.approx(1e-3 * COST.parallel_contention * 0.5)
        arbiter.set_weight("me", 3.0)
        boosted = arbiter.bus_share("me", 1e-3, now=0.0, fair=True)
        assert boosted == pytest.approx(
            1e-3 * COST.parallel_contention * 0.25)
        assert boosted < equal

    def test_contention_factor_rises_with_neighbor_load(self):
        arbiter = make()
        arbiter.register("me")
        base = 0.6
        assert arbiter.contention_factor("me", base, now=0.0,
                                         fair=True) == base
        arbiter.register("noisy", demand=1.0, mean_op_s=1e-3)
        # Unweighted full steal saturates the factor at 1.
        assert arbiter.contention_factor("me", base, now=0.0,
                                         fair=False) == 1.0
        fair = arbiter.contention_factor("me", base, now=0.0, fair=True)
        assert base < fair < 1.0


class TestVirtioEventLoop:
    def test_dispatch_counts_modes_and_advances_virtual_time(self):
        arbiter = make()
        flow = arbiter.register("a", weight=2.0, mean_op_s=1e-3)
        loop = VirtioEventLoop(arbiter)
        delay, mode = loop.dispatch("a", now=0.0, fair=True)
        assert (delay, mode) == (0.0, "wfq")        # no neighbors
        assert flow.virtual_finish == pytest.approx(1e-3 / 2.0)
        loop.dispatch("a", now=0.0, fair=False)
        assert flow.virtual_finish == pytest.approx(2 * 1e-3 / 2.0)
        assert loop.dispatches == {"fifo": 1, "wfq": 1}
