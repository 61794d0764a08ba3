#!/usr/bin/env python3
"""Multi-tenant PIM cloud: several VMs sharing UPMEM ranks via the Manager.

Demonstrates Section 3.5: two tenants time-share the machine's ranks,
the Manager tracks rank states (NAAV / ALLO / NANA), releases are
detected through sysfs without application cooperation, and a released
rank is wiped before another tenant can touch it — while a tenant
re-acquiring its own rank *before* the reset completes takes the NANA
fast path and skips the wipe.

Run:  python examples/multi_tenant_cloud.py
"""

import numpy as np

from repro.config import small_machine
from repro.core import VPim
from repro.sdk.dpu_set import DpuSet


def show_states(vpim, label):
    states = {idx: state.value for idx, state in vpim.manager.states().items()}
    print(f"  rank states {label}: {states}")


def main() -> None:
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    clock = vpim.machine.clock

    print("Booting two tenant microVMs...")
    tenant_a = vpim.vm_session(nr_vupmem=2, mem_bytes=1 << 30)
    tenant_b = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    show_states(vpim, "after boot")

    print("\n--- NANA fast path: same tenant, immediate re-allocation ---")
    with DpuSet(tenant_a.transport, 8) as dpus:
        dpus.push_to_mram(0, [np.full(4096, 0x5A, np.uint8)] * 8)
        rank_first = dpus.channels[0].rank_index
    # The rank is NANA (reset pending).  Tenant A asks again right away:
    with DpuSet(tenant_a.transport, 8) as dpus:
        rank_again = dpus.channels[0].rank_index
        own_data = dpus.push_from_mram(0, 4096)[0]
        preserved = bool((own_data == 0x5A).all())
    print(f"  re-acquired rank {rank_again} (was {rank_first}); "
          f"own data preserved without a reset: {preserved}")
    assert preserved and rank_again == rank_first
    print(f"  NANA reuses so far: "
          f"{vpim.manager.allocations.get('nana_reuse', 0)}")

    print("\n--- Isolation: another tenant must never see residual data ---")
    secret = np.full(4096, 0xAB, dtype=np.uint8)
    with DpuSet(tenant_a.transport, 16) as dpus:   # A takes BOTH ranks
        dpus.push_to_mram(0, [secret] * 16)
    show_states(vpim, "right after A's release (NANA = resetting)")

    t0 = clock.now
    with DpuSet(tenant_b.transport, 8) as dpus:    # B must wait for a reset
        waited = clock.now - t0
        data = dpus.push_from_mram(0, 4096)
        leaked = any(buf.any() for buf in data)
    print(f"  B waited {waited * 1e3:.0f} ms (reset {vpim.machine.cost.manager_reset * 1e3:.0f} ms"
          f" + allocation {vpim.machine.cost.manager_alloc * 1e3:.0f} ms)")
    print(f"  residual data visible to B: {leaked}  <- must be False")
    assert not leaked

    show_states(vpim, "at the end")
    allocations, counts = vpim.manager.allocations, vpim.manager.counts
    granted = sum(n for outcome, n in allocations.items()
                  if outcome != "abandoned")
    print(f"\nManager statistics: allocations={granted}, "
          f"NANA reuses={allocations.get('nana_reuse', 0)}, "
          f"resets={counts.get('resets', 0)}, "
          f"waits={counts.get('waits', 0)}")
    print(f"Modeled manager CPU: idle {vpim.manager.idle_cpu_utilization():.0%}, "
          f"while resetting {vpim.manager.reset_cpu_utilization(1):.0%} "
          f"(paper: 40% / 92%)")


if __name__ == "__main__":
    main()
