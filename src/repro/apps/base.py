"""Host application base class.

Applications follow the paper's timing discipline: every host step is
wrapped in one of the four application-centric segments,

- ``CPU-DPU``   input data transfer to the DPUs,
- ``DPU``       DPU program execution,
- ``Inter-DPU`` synchronization between DPUs via the host CPU,
- ``DPU-CPU``   result retrieval,

so reports decompose exactly like Fig. 8.  Host-side data *generation*
happens in ``__init__`` and the CPU reference is computed by the first
``verify`` and kept (see :meth:`HostApplication.reference`); neither is
modeled time — both are identical under native and virtualized
execution.
"""

from __future__ import annotations

import abc
from typing import Any, Dict

import numpy as np

from repro.sdk.transport import Transport

_NOT_COMPUTED = object()


class HostApplication(abc.ABC):
    """One benchmark application."""

    #: Long name, e.g. "Vector Addition".
    name: str = ""
    #: PrIM short name, e.g. "VA".
    short_name: str = ""
    #: Domain per Table 1, e.g. "Dense linear algebra".
    domain: str = ""

    #: What :meth:`reference` keeps; an instance attribute once computed.
    _reference: Any = _NOT_COMPUTED

    def __init__(self, nr_dpus: int, **params: Any) -> None:
        if nr_dpus <= 0:
            raise ValueError(f"nr_dpus must be positive, got {nr_dpus}")
        self.nr_dpus = nr_dpus
        self.params: Dict[str, Any] = dict(params, nr_dpus=nr_dpus)

    def __setattr__(self, name: str, value: Any) -> None:
        # The inputs are the instance's own attributes: rebinding one
        # makes the kept reference stale.  Names the class defines (a
        # harness wrapping ``verify``, the reference itself) are not
        # inputs.
        if not hasattr(type(self), name):
            self.__dict__.pop("_reference", None)
        super().__setattr__(name, value)

    @abc.abstractmethod
    def run(self, transport: Transport) -> Any:
        """Execute on DPUs through ``transport``; returns the output."""

    @abc.abstractmethod
    def expected(self) -> Any:
        """CPU reference result for the generated workload."""

    def reference(self) -> Any:
        """``expected()``, computed by the first call and kept.

        The inputs are fixed at construction, so every run of one
        instance has the same reference; it is dropped when an input
        attribute is rebound.  An input changed *in place* after the
        first call is deliberately not followed: a reference recomputed
        from the caller's buffers after the run cannot see a transport
        that scribbled on them.
        """
        if self._reference is _NOT_COMPUTED:
            self._reference = self.expected()
        return self._reference

    def verify(self, output: Any) -> bool:
        """Compare DPU output against the CPU reference (exact by default)."""
        expected = self.reference()
        if isinstance(expected, np.ndarray):
            return bool(np.array_equal(np.asarray(output), expected))
        return bool(output == expected)

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def split_even(total: int, parts: int) -> list:
        """Split ``total`` items into ``parts`` near-equal contiguous counts."""
        base, rem = divmod(total, parts)
        return [base + (1 if i < rem else 0) for i in range(parts)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(nr_dpus={self.nr_dpus})"
