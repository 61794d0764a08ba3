"""Reimplementation of the UPMEM SDK host and device programming model.

Applications written against this package follow the same workflow as
Fig. 2 of the paper:

1. allocate DPUs (:meth:`~repro.sdk.dpu_set.DpuSet` via a transport),
2. load the DPU program,
3. push input data (``push_to`` = parallel ``dpu_push_xfer``,
   ``copy_to`` = serial per-DPU transfer),
4. launch synchronously,
5. read back results (``push_from`` / ``copy_from``),
6. free the set.

The same application code runs unmodified on the native transport
(performance mode on the physical ranks) and on the virtualized transport
(through the vUPMEM frontend/backend) — the paper's transparency
requirement R3.
"""

from repro.sdk.kernel import DpuProgram, RankContext
from repro.sdk.dpu_set import DpuSet
from repro.sdk.transport import Transport
from repro.sdk.profile import Profiler

__all__ = ["DpuProgram", "RankContext", "DpuSet", "Transport", "Profiler"]
