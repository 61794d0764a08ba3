#!/usr/bin/env python3
"""Oversubscription and consolidation: the paper's Section 7 future work.

When every physical rank is allocated, the Manager can hand out a
*software-emulated* rank (the UPMEM functional simulator) so the tenant
runs degraded instead of failing; when hardware frees up, the tenant's
rank state is checkpointed and migrated back onto silicon.

Run:  python examples/oversubscription.py
"""

from repro.apps.prim.va import VectorAdd
from repro.config import small_machine
from repro.core import VPim
from repro.sdk.dpu_set import DpuSet
from repro.virt.emulation import EMULATED_RANK_BASE
from repro.virt.migration import consolidate


def main() -> None:
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=8),
                oversubscription=True)

    print("One physical rank; two tenants want one each.\n")
    holder = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    tenant = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)

    hold = DpuSet(holder.transport, 8)
    print("Tenant A holds the physical rank.")

    report = tenant.run(VectorAdd(nr_dpus=8, n_elements=1 << 18))
    rank = tenant.vm.devices[0].backend.mapping.rank.index \
        if tenant.vm.devices[0].backend.mapping else "released"
    print(f"Tenant B spilled to an emulated rank and still ran VA: "
          f"verified={report.verified}, "
          f"time={report.segments_total * 1e3:.2f} ms")

    vpim2 = VPim(small_machine(nr_ranks=1, dpus_per_rank=8))
    baseline = vpim2.vm_session(nr_vupmem=1).run(
        VectorAdd(nr_dpus=8, n_elements=1 << 18))
    print(f"The same run on hardware: {baseline.segments_total * 1e3:.2f} ms "
          f"-> oversubscription slowdown "
          f"{report.segments_total / baseline.segments_total:.1f}x\n")

    print("Tenant B keeps a long-lived allocation on the emulated rank...")
    import numpy as np
    spilled = DpuSet(tenant.transport, 8)
    spilled.push_to_mram(0, [np.full(1024, 0x42, np.uint8)] * 8)
    emu_rank = spilled.channels[0].rank_index
    assert emu_rank >= EMULATED_RANK_BASE
    print(f"  linked to emulated rank {emu_rank}")

    print("\nTenant A departs; the physical rank resets and frees...")
    hold.free()
    vpim.machine.clock.advance(1.0)

    migrated = consolidate(vpim.manager, tenant.vm.devices)
    new_rank = tenant.vm.devices[0].backend.mapping.rank.index
    data_ok = all((buf == 0x42).all()
                  for buf in spilled.push_from_mram(0, 1024))
    print(f"Consolidation migrated {migrated} device(s): tenant B now on "
          f"physical rank {new_rank}, data intact: {data_ok}")
    print(f"Emulated ranks still active: {vpim.manager.emulated_pool.active}")
    spilled.free()


if __name__ == "__main__":
    main()
