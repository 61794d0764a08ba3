"""Manager: the Fig. 5 FSM, round-robin allocation, isolation by reset."""

import numpy as np
import pytest

from repro.config import small_machine
from repro.driver.driver import UpmemDriver
from repro.errors import ManagerError
from repro.hardware.machine import Machine
from repro.virt.manager import Manager, RankState


@pytest.fixture
def env():
    machine = Machine(small_machine(nr_ranks=3, dpus_per_rank=4))
    driver = UpmemDriver(machine)
    manager = Manager(machine, driver)
    return machine, driver, manager


def test_all_ranks_start_naav(env):
    _, _, manager = env
    assert all(s is RankState.NAAV for s in manager.states().values())


def test_allocation_round_robin(env):
    _, _, manager = env
    assert manager.allocate("dev-a") == 0
    assert manager.allocate("dev-b") == 1
    assert manager.allocate("dev-c") == 2


def test_allocation_cost_charged(env):
    machine, _, manager = env
    t0 = machine.clock.now
    manager.allocate("dev-a")
    # Section 4.2: ~36 ms per NAAV allocation.
    assert machine.clock.now - t0 == pytest.approx(36e-3)


def test_release_detected_via_sysfs(env):
    machine, driver, manager = env
    idx = manager.allocate("dev-a")
    driver.claim_rank(idx, "dev-a")
    driver.release_rank(idx, "dev-a")   # sysfs goes free -> observer fires
    assert manager.rank_table[idx].state is RankState.NANA


def test_nana_becomes_naav_after_reset(env):
    machine, driver, manager = env
    idx = manager.allocate("dev-a")
    driver.claim_rank(idx, "dev-a")
    machine.rank(idx).dpus[0].mram.write(0, np.ones(8, dtype=np.uint8))
    driver.release_rank(idx, "dev-a")
    assert manager.states()[idx] is RankState.NANA
    machine.clock.advance(1.0)          # past observer latency + reset
    assert manager.states()[idx] is RankState.NAAV
    assert machine.rank(idx).is_clean()  # isolation: memory wiped


def test_nana_reuse_by_previous_owner_skips_reset(env):
    machine, driver, manager = env
    idx = manager.allocate("dev-a")
    driver.claim_rank(idx, "dev-a")
    machine.rank(idx).dpus[0].mram.write(0, np.full(8, 5, dtype=np.uint8))
    driver.release_rank(idx, "dev-a")
    # Re-request immediately: same rank, data preserved (own data, no leak).
    again = manager.allocate("dev-a")
    assert again == idx
    assert manager.allocations.get("nana_reuse", 0) == 1
    assert (machine.rank(idx).dpus[0].mram.read(0, 8) == 5).all()


def test_other_tenant_waits_for_reset_and_sees_zeros(env):
    machine, driver, manager = env
    for dev in ("a", "b", "c"):
        idx = manager.allocate(dev)
        driver.claim_rank(idx, dev)
    machine.rank(0).dpus[0].mram.write(0, np.full(8, 9, dtype=np.uint8))
    driver.release_rank(0, "a")
    t0 = machine.clock.now
    idx = manager.allocate("d")          # must wait for rank 0's reset
    assert idx == 0
    assert machine.clock.now - t0 >= 0.597
    assert machine.rank(0).is_clean()


def test_exhaustion_after_retries(env):
    machine, driver, manager = env
    for dev in ("a", "b", "c"):
        idx = manager.allocate(dev)
        driver.claim_rank(idx, dev)
    with pytest.raises(ManagerError):
        manager.allocate("d")
    assert manager.allocations.get("abandoned", 0) == 1
    assert manager.counts.get("waits", 0) >= manager.max_attempts
    # One count: the exhausted series and the abandoned outcome follow it.
    assert machine.metrics.value(
        "repro_manager_allocation_retries_exhausted_total",
        policy="round_robin") == manager.allocations["abandoned"] == 1


def test_native_apps_visible_to_manager(env):
    """Native host applications claim ranks through the driver only; the
    manager must still see them as allocated (coexistence, Section 3.5)."""
    machine, driver, manager = env
    driver.claim_rank(1, "native-app")
    assert manager.rank_table[1].state is RankState.ALLO
    assert manager.allocate("dev-a") == 0
    assert manager.allocate("dev-b") == 2   # rank 1 skipped


def test_modeled_cpu_utilization(env):
    _, _, manager = env
    # Section 4.2: ~40% idle, up to 92% while resetting all ranks.
    assert manager.idle_cpu_utilization() == pytest.approx(0.40)
    assert manager.reset_cpu_utilization(0) == pytest.approx(0.40)
    assert manager.reset_cpu_utilization(1) == pytest.approx(0.92)


def test_available_ranks_listing(env):
    _, driver, manager = env
    idx = manager.allocate("dev-a")
    driver.claim_rank(idx, "dev-a")
    assert idx not in manager.available_ranks()
    assert len(manager.available_ranks()) == 2
