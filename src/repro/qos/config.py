"""QoS policy declarations (frozen, hashable, preset-friendly).

A :class:`QosConfig` rides on :class:`~repro.virt.opts.OptimizationConfig`
(``Optimization(qos=QosConfig(...))``) and is therefore part of a VM's
identity; it must stay frozen so presets keep comparing by value.  The
default everywhere is ``qos=None``: no flow is registered, no arbitration
runs, and every modeled duration is bit-identical to the committed
wall-clock digest.

``enforce`` selects between the two *modeled* contention regimes:

- ``False`` — the flow is registered and contention is modeled, but the
  event loop stays FIFO and the bus a free-for-all.  This is the honest
  noisy-neighbor baseline (what co-residency costs without QoS).
- ``True`` — weighted-fair queueing, weighted bus shares, token-bucket
  throttles, SLO actuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class QosConfig:
    """Per-VM QoS policy (see ``docs/qos.md`` for the model)."""

    #: WFQ weight: this flow's relative claim on the shared bus.
    weight: float = 1.0
    #: ``True`` = enforce isolation (WFQ + throttles); ``False`` =
    #: register the flow but model the unmanaged FIFO free-for-all.
    enforce: bool = True
    #: Tenant identity for SLO bookkeeping; defaults to the VM id.
    tenant: Optional[str] = None
    #: Declared offered load in [0, 1]; ``None`` = measure it.
    demand: Optional[float] = None
    #: Declared bus seconds of one typical operation; ``None`` = measure.
    mean_op_s: Optional[float] = None
    #: Byte-rate throttle on transferred payload bytes; ``None`` disables
    #: the byte bucket.
    bytes_per_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"qos weight must be positive, got {self.weight}")
        if self.demand is not None and not 0.0 <= self.demand <= 1.0:
            raise ValueError(f"declared demand must be in [0, 1], "
                             f"got {self.demand}")
        if self.bytes_per_s is not None and self.bytes_per_s <= 0:
            raise ValueError(
                f"bytes_per_s must be positive, got {self.bytes_per_s}")
