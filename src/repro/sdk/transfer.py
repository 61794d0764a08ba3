"""Transfer matrices: the SDK structure behind ``dpu_push_xfer`` (Fig. 6).

A transfer matrix describes one rank-level operation: for each target DPU,
a (size, offset) pair plus, for writes, the page-backed payload.  The
virtualization frontend serializes this exact structure into the
virtqueue (Fig. 7); natively it feeds the driver directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.config import MAX_XFER_BYTES, MRAM_HEAP_SYMBOL, MRAM_SIZE, PAGE_SIZE
from repro.errors import TransferError


class XferKind(enum.Enum):
    """Direction of a transfer, as DPU_XFER_TO_DPU / DPU_XFER_FROM_DPU."""

    TO_DPU = "to_dpu"
    FROM_DPU = "from_dpu"


class Target(enum.Enum):
    """What the transfer addresses on the DPU."""

    MRAM = "mram"        #: the 64 MB bank, addressed via the heap symbol
    WRAM_SYMBOL = "wram" #: a host-visible WRAM variable


def as_u8(buf) -> np.ndarray:
    """``buf`` as the flat byte array the stack moves: itself when it
    already is a 1-D C-contiguous ``uint8`` array, a flat byte view of
    a contiguous copy otherwise."""
    if (isinstance(buf, np.ndarray) and buf.dtype == np.uint8
            and buf.ndim == 1 and buf.flags.c_contiguous):
        return buf
    return np.ascontiguousarray(buf).view(np.uint8).reshape(-1)


@dataclass
class DpuEntry:
    """One DPU's slice of a transfer matrix (one row of Fig. 6)."""

    dpu_index: int                    #: index within the *set* (not the rank)
    size: int
    data: Optional[np.ndarray] = None #: payload for writes, None for reads

    def __post_init__(self) -> None:
        if self.size < 0 or self.size > MAX_XFER_BYTES:
            raise TransferError(f"entry size {self.size} outside 0..4 GB")
        if self.data is not None:
            buf = self.data
            if not (isinstance(buf, np.ndarray) and buf.dtype == np.uint8
                    and buf.ndim == 1 and buf.flags.c_contiguous):
                buf = np.ascontiguousarray(buf).view(np.uint8).reshape(-1)
            if buf.size != self.size:
                raise TransferError(
                    f"entry data is {buf.size} bytes but size says {self.size}"
                )
            self.data = buf

    @property
    def nr_pages(self) -> int:
        return (self.size + PAGE_SIZE - 1) // PAGE_SIZE


@dataclass
class TransferMatrix:
    """A rank operation covering up to 64 DPUs (Fig. 6)."""

    kind: XferKind
    symbol: str
    offset: int
    entries: List[DpuEntry] = field(default_factory=list)
    #: What ``symbol`` addresses; every layer below asks.
    target: Target = field(init=False)

    def __post_init__(self) -> None:
        self.target = (Target.MRAM if self.symbol == MRAM_HEAP_SYMBOL
                       else Target.WRAM_SYMBOL)
        if self.offset < 0:
            raise TransferError(f"negative symbol offset {self.offset}")
        seen = set()
        for entry in self.entries:
            if entry.dpu_index in seen:
                raise TransferError(
                    f"duplicate DPU {entry.dpu_index} in transfer matrix"
                )
            seen.add(entry.dpu_index)
        if self.kind is XferKind.TO_DPU:
            for entry in self.entries:
                if entry.data is None:
                    raise TransferError(
                        f"TO_DPU matrix entry for DPU {entry.dpu_index} "
                        "is missing its payload"
                    )

    @property
    def total_bytes(self) -> int:
        return sum(entry.size for entry in self.entries)

    @property
    def total_pages(self) -> int:
        return sum(entry.nr_pages for entry in self.entries)

    @property
    def max_entry_bytes(self) -> int:
        return max((entry.size for entry in self.entries), default=0)

    def validate(self) -> None:
        total = largest = 0
        for entry in self.entries:
            total += entry.size
            if entry.size > largest:
                largest = entry.size
        if total > MAX_XFER_BYTES:
            raise TransferError(
                f"matrix moves {total} bytes, over the 4 GB "
                "per-operation hardware limit (Section 3.1)"
            )
        if self.target is Target.MRAM:
            end = self.offset + largest
            if end > MRAM_SIZE:
                raise TransferError(
                    f"MRAM transfer reaches byte {end}, past the "
                    f"{MRAM_SIZE}-byte bank"
                )


def uniform_write(symbol: str, offset: int, buffers: List[np.ndarray]) -> TransferMatrix:
    """Build a TO_DPU matrix assigning ``buffers[i]`` to set-DPU ``i``."""
    entries = []
    for i, buf in enumerate(buffers):
        u8 = as_u8(buf)
        entries.append(DpuEntry(dpu_index=i, size=u8.size, data=u8))
    matrix = TransferMatrix(XferKind.TO_DPU, symbol, offset, entries)
    matrix.validate()
    return matrix


def uniform_read(symbol: str, offset: int, size: int, nr_dpus: int) -> TransferMatrix:
    """Build a FROM_DPU matrix reading ``size`` bytes from each of the DPUs."""
    entries = [DpuEntry(dpu_index=i, size=size) for i in range(nr_dpus)]
    matrix = TransferMatrix(XferKind.FROM_DPU, symbol, offset, entries)
    matrix.validate()
    return matrix
