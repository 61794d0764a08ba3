"""Where a repeated bulk read lands (Linux: minor faults).

``test_result_blocks.py`` is the safety side of the read recycler; this
guards what it is for.  On a live 64-DPU set, native and virtualized, a
read whose predecessor's rows were dropped is written into the pages the
predecessor faulted in; rows still held are never written again; and an
allocation that was freed keeps no block alive — a process-wide pool
would win the same time and idle one app's 64 MB under the next seven.
"""

import sys
import weakref

import numpy as np
import pytest

from repro.analysis.figures import machine_config
from repro.core import VPim
from repro.sdk.dpu_set import DpuSet

resource = pytest.importorskip("resource")
pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="counts minor faults")

MB = 1 << 20
NR_DPUS = 64


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.parametrize("transport", ["native", "vm"])
def test_a_repeated_bulk_read_lands_in_resident_pages(transport):
    vpim = VPim(machine_config(1))
    if transport == "native":
        session = vpim.native_session()
    else:
        session = vpim.vm_session(nr_vupmem=1)
    dpus = DpuSet(session.transport, NR_DPUS)
    blocks = (dpus.channels[0]._mapping.blocks if transport == "native"
              else session.vm.devices[0].frontend.blocks)
    data = [np.full(MB, dpu + 1, dtype=np.uint8) for dpu in range(NR_DPUS)]
    dpus.push_to_mram(0, data)

    def read():
        before = minor_faults()
        rows = dpus.push_from_mram(0, MB)
        faults = minor_faults() - before
        assert all(np.array_equal(row, want) for row, want in zip(rows, data))
        return rows, faults

    rows, first = read()
    del rows
    rows, second = read()
    del rows
    rows, third = read()
    # The quieter of two repeats: a stray fault of the interpreter's own
    # is a tenth of a 64 MB block that came in huge pages.
    assert first > 0 and min(second, third) * 10 < first, (
        first, second, third)

    # Rows that are held are the holder's: the next read lands elsewhere.
    other, _ = read()
    assert not any(np.may_share_memory(a, b) for a in rows for b in other)
    assert all(np.array_equal(row, want) for row, want in zip(rows, data))
    assert blocks.on_loan == 2

    # Rows are based on the block handed out, the block on its store.
    stores = [weakref.ref(got[0].base.base.obj) for got in (rows, other)]
    del rows, other
    assert blocks.on_loan == 0 and len(blocks._idle) == 2
    assert ({id(store()) for store in stores}
            == {id(idle) for idle in blocks._idle})
    dpus.free()
    assert not blocks._idle
    assert all(store() is None for store in stores)
