"""Count guard: one copy per direction on the planned bulk path.

A planned transfer binds the caller's buffers at its payload GPAs
(``docs/performance.md``, "zero-copy data plane"), so in steady state a
write is caller → MRAM and a read is MRAM → result row.  Counted, not
timed: a staging copy through guest RAM — the window the plans share —
would show as ``MemoryRegion`` traffic on ``guest-ram`` or as a second
MRAM read, and must fail here and in CI's ``perf-smoke`` job, where
wall-clock is owned.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.config import small_machine
from repro.core import VPim
from repro.hardware.memory import MemoryRegion
from repro.sdk.dpu_set import DpuSet

NR_DPUS = 8
SIZE = 64 << 10


def _count_region_calls(monkeypatch) -> Counter:
    """``(region kind, method) -> bytes-moving calls`` while installed."""
    calls: Counter = Counter()
    for method in ("read", "read_into", "write", "pin_span"):
        original = getattr(MemoryRegion, method)

        def counting(region, *args, _original=original, _method=method):
            calls[region.name.split("[")[0], _method] += 1
            return _original(region, *args)

        monkeypatch.setattr(MemoryRegion, method, counting)
    return calls


def test_planned_bulk_transfer_copies_once_per_direction(monkeypatch):
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=NR_DPUS))
    session = vpim.vm_session(nr_vupmem=1)
    rng = np.random.default_rng(0)
    with DpuSet(session.transport, NR_DPUS) as dpus:
        for _ in range(2):      # compile both plans, then reach steady state
            dpus.push_to_mram(0, [rng.integers(0, 256, SIZE, dtype=np.uint8)
                                  for _ in range(NR_DPUS)])
            dpus.push_from_mram(0, SIZE)
        frontend = session.vm.devices[0].frontend
        hits = frontend.plans.counts["hits"]
        sources = [rng.integers(0, 256, SIZE, dtype=np.uint8)
                   for _ in range(NR_DPUS)]

        calls = _count_region_calls(monkeypatch)
        dpus.push_to_mram(0, sources)
        rows = dpus.push_from_mram(0, SIZE)
        monkeypatch.undo()

        assert frontend.plans.counts["hits"] == hits + 2, "both requests replayed"
        assert all(np.array_equal(r, s) for r, s in zip(rows, sources))
        # Guest RAM moved no payload byte (nor any other: a replayed
        # chain's metadata is patched through views pinned at compile).
        assert not [key for key in calls if key[0] == "guest-ram"]
        # MRAM: the write goes through destinations pinned at compile,
        # the read is exactly one ``read_into`` per entry.
        assert dict(calls) == {("mram", "read_into"): NR_DPUS}
        # Nor did a slice copy through a pinned view stage the payload:
        # the window pages its GPAs name were never written.
        memory = frontend.memory
        assert not memory.read(memory.window_base, NR_DPUS * SIZE).any()
