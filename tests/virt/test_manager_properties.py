"""State-machine property tests for Manager's round-robin allocation.

Hypothesis drives interleaved allocate / release / clock-advance
sequences against a real :class:`~repro.virt.manager.Manager` and a
shadow model, asserting after every step:

- the NAAV/ALLO/NANA partition invariants (an ALLO rank has an owner,
  a non-ALLO rank does not, the ALLO set matches the model exactly);
- NANA ranks settle to NAAV exactly when the clock passes their
  ``reset_done_at``;
- the pick order: NANA reuse by the same owner always wins (lowest
  index, no reset), otherwise the first NAAV rank at or after the
  round-robin cursor, which then moves past it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_machine
from repro.driver.driver import UpmemDriver
from repro.hardware.machine import Machine
from repro.virt.manager import Manager, RankState

NR_RANKS = 3
DEVICES = ("dev-a", "dev-b", "dev-c", "dev-d")

#: Advances chosen to straddle the observe+reset window (~a few ms):
#: too short to settle, long enough to settle one, long enough for all.
ADVANCES = (1e-4, 5e-3, 1.0)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(0, len(DEVICES) - 1)),
        st.tuples(st.just("release"), st.integers(0, 7)),
        st.tuples(st.just("advance"), st.sampled_from(ADVANCES)),
    ),
    min_size=1, max_size=40,
)


def build():
    machine = Machine(small_machine(nr_ranks=NR_RANKS, dpus_per_rank=4))
    driver = UpmemDriver(machine)
    return machine, driver, Manager(machine, driver)


def check_invariants(manager, allocated):
    """The rank-table state invariants, against the shadow model."""
    states = manager.states()          # settles due NANA->NAAV edges
    for idx, record in manager.rank_table.items():
        if record.state is RankState.ALLO:
            assert record.assigned_device is not None
        else:
            assert record.assigned_device is None
        if record.state is RankState.NANA:
            # Not yet settled: the reset completion must still be ahead.
            assert record.reset_done_at > manager.clock.now
    allo = {idx for idx, state in states.items()
            if state is RankState.ALLO}
    assert allo == set(allocated)
    for idx, dev in allocated.items():
        assert manager.rank_table[idx].assigned_device == dev


def expected_pick(manager, requester, cursor):
    """Reproduce the documented pick order from the shadow ``cursor``,
    or None when the manager would have to wait for a reset first (then
    we only check invariants, not the exact index)."""
    for idx, record in sorted(manager.rank_table.items()):
        if (record.state is RankState.NANA
                and record.last_owner == requester):
            return idx, True
    for step in range(NR_RANKS):
        idx = (cursor + step) % NR_RANKS
        if manager.rank_table[idx].state is RankState.NAAV:
            return idx, False
    return None, False


@settings(max_examples=40, deadline=None)
@given(ops=ops)
def test_round_robin_state_machine(ops):
    machine, driver, manager = build()
    allocated = {}                     # rank index -> owning device
    cursor = 0                         # the shadow round-robin cursor

    for op, arg in ops:
        if op == "alloc":
            if len(allocated) == NR_RANKS:
                continue               # would backoff until ManagerError
            requester = DEVICES[arg]
            manager.states()           # settle, then predict the pick
            want, is_reuse = expected_pick(manager, requester, cursor)
            reuses_before = manager.allocations.get("nana_reuse", 0)
            resets_before = manager.counts.get("resets", 0)
            idx = manager.allocate(requester)
            assert idx not in allocated
            if want is not None:
                assert idx == want
            if is_reuse:
                # Same-owner NANA reuse skips the isolation reset and
                # leaves the cursor where it was.
                assert manager.allocations["nana_reuse"] == reuses_before + 1
                assert manager.counts.get("resets", 0) == resets_before
            else:
                cursor = (idx + 1) % NR_RANKS
            driver.claim_rank(idx, requester)
            allocated[idx] = requester
        elif op == "release":
            if not allocated:
                continue
            idx = sorted(allocated)[arg % len(allocated)]
            dev = allocated.pop(idx)
            driver.release_rank(idx, dev)
            record = manager.rank_table[idx]
            assert record.state is RankState.NANA
            assert record.last_owner == dev
            assert record.reset_done_at > machine.clock.now
        else:
            before = {idx: rec.reset_done_at
                      for idx, rec in manager.rank_table.items()
                      if rec.state is RankState.NANA}
            machine.clock.advance(arg)
            states = manager.states()
            for idx, done_at in before.items():
                if machine.clock.now >= done_at:
                    assert states[idx] is RankState.NAAV
                else:
                    assert states[idx] is RankState.NANA
        check_invariants(manager, allocated)


def test_nana_reuse_beats_policy_pick():
    """A same-owner NANA rank is reused without reset even when the
    cursor points at an available NAAV rank."""
    machine, driver, manager = build()
    idx = manager.allocate("dev-a")
    driver.claim_rank(idx, "dev-a")
    driver.release_rank(idx, "dev-a")     # NANA, reset pending
    assert manager.available_ranks() == [1, 2]
    again = manager.allocate("dev-a")
    assert again == idx
    assert manager.allocations["nana_reuse"] == 1
