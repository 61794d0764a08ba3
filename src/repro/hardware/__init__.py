"""UPMEM hardware functional + timing simulator.

This subpackage models the machine in Fig. 1 of the paper: host CPU and
DRAM plus UPMEM ranks of 64 DPUs.  A rank is the unit it models; the
DIMM that carries two ranks and the 8 chips of 8 DPUs inside a rank are
not objects here (the chips show only as the 8 interleaving lanes, see
:mod:`repro.hardware.interleave`).  Every DPU owns a 64 MB MRAM bank,
64 KB WRAM and 24 KB IRAM and executes up to 24 tasklets.

The simulator is *functional* (data operations really happen, on numpy
buffers) and *timed* (every action advances a :class:`~repro.hardware.clock.
SimClock` according to the :class:`~repro.hardware.timing.CostModel`).
"""

from repro.hardware.clock import SimClock
from repro.hardware.memory import MemoryRegion
from repro.hardware.timing import CostModel
from repro.hardware.dpu import Dpu, DpuState
from repro.hardware.rank import Rank
from repro.hardware.machine import Machine

__all__ = [
    "SimClock",
    "MemoryRegion",
    "CostModel",
    "Dpu",
    "DpuState",
    "Rank",
    "Machine",
]
