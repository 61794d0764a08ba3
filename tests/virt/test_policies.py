"""The manager's one allocation order: round-robin over the rank table,
after the NANA fast path (§3.5)."""

from repro.config import small_machine
from repro.driver.driver import UpmemDriver
from repro.hardware.machine import Machine
from repro.virt.manager import Manager


def make_manager():
    machine = Machine(small_machine(nr_ranks=4, dpus_per_rank=2))
    driver = UpmemDriver(machine)
    return machine, driver, Manager(machine, driver)


def test_round_robin_spreads():
    _, driver, manager = make_manager()
    picks = []
    for i in range(4):
        idx = manager.allocate(f"t{i}")
        driver.claim_rank(idx, f"t{i}")
        picks.append(idx)
    assert picks == [0, 1, 2, 3]


def test_round_robin_cursor_advances_after_release():
    machine, driver, manager = make_manager()
    a = manager.allocate("a")
    driver.claim_rank(a, "a")
    driver.release_rank(a, "a")
    machine.clock.advance(1.0)       # reset completes, rank 0 NAAV again
    b = manager.allocate("b")
    assert b == 1                    # cursor moved past rank 0


def test_round_robin_respects_nana_reuse():
    machine, driver, manager = make_manager()
    idx = manager.allocate("tenant")
    driver.claim_rank(idx, "tenant")
    driver.release_rank(idx, "tenant")
    # Immediate re-request: the NANA fast path beats the cursor's pick.
    again = manager.allocate("tenant")
    assert again == idx
    assert manager.allocations.get("nana_reuse", 0) == 1
