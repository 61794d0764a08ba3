"""Transfer matrices: the SDK structure behind ``dpu_push_xfer`` (Fig. 6).

A transfer matrix describes one rank-level operation: for each target DPU,
a (size, offset) pair plus, for writes, the page-backed payload.  The
virtualization frontend serializes this exact structure into the
virtqueue (Fig. 7); natively it feeds the driver directly.
"""

from __future__ import annotations

import enum
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


# Bound once: an Enum member read off its class costs about ten global
# reads on CPython 3.11, and the request path tests these per copy.
_TO_DPU = XferKind.TO_DPU
_MRAM, _WRAM_SYMBOL = Target.MRAM, Target.WRAM_SYMBOL


def as_u8(buf) -> np.ndarray:
    """``buf`` as the flat byte array the stack moves: itself when it
    already is a 1-D C-contiguous ``uint8`` array, a flat byte view of
    a contiguous copy otherwise."""
    if (isinstance(buf, np.ndarray) and buf.dtype == np.uint8
            and buf.ndim == 1 and buf.flags.c_contiguous):
        return buf
    return np.ascontiguousarray(buf).view(np.uint8).reshape(-1)


class DpuEntry:
    """One DPU's slice of a transfer matrix (one row of Fig. 6).

    Checked once, here: ``size`` lies in 0..4 GB and a write's ``data``
    is exactly ``size`` bytes, kept as the flat byte array
    :func:`as_u8` would make of it.  A write may leave ``size`` out: it
    is then the payload's.
    """

    __slots__ = ("dpu_index", "size", "data")

    def __init__(self, dpu_index: int, size: Optional[int] = None,
                 data: Optional[np.ndarray] = None) -> None:
        if data is not None:
            if not (isinstance(data, np.ndarray) and data.dtype == np.uint8
                    and data.ndim == 1 and data.flags.c_contiguous):
                data = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
            if size is None:
                size = data.size
        elif size is None:
            raise TransferError("a read entry needs a size")
        if size < 0 or size > MAX_XFER_BYTES:
            raise TransferError(f"entry size {size} outside 0..4 GB")
        if data is not None and data.size != size:
            raise TransferError(
                f"entry data is {data.size} bytes but size says {size}")
        #: Index within the *set* (not the rank).
        self.dpu_index = dpu_index
        self.size = size
        #: Payload for writes, ``None`` for reads.
        self.data = data

    @property
    def nr_pages(self) -> int:
        return (self.size + PAGE_SIZE - 1) // PAGE_SIZE


class TransferMatrix:
    """A rank operation covering up to 64 DPUs (Fig. 6).

    Built and validated in one pass over the entries, which also leaves
    ``total_bytes`` and ``max_entry_bytes`` behind.
    """

    __slots__ = ("kind", "symbol", "offset", "entries", "target",
                 "total_bytes", "max_entry_bytes")

    def __init__(self, kind: XferKind, symbol: str, offset: int,
                 entries: Optional[List[DpuEntry]] = None) -> None:
        """Refuses a negative offset, a DPU addressed twice, a write
        entry without its payload, more than the 4 GB per-operation
        hardware limit (Section 3.1) and an MRAM transfer past the
        bank."""
        if entries is None:
            entries = []
        if offset < 0:
            raise TransferError(f"negative symbol offset {offset}")
        writing = kind is _TO_DPU
        seen = set()
        total = largest = 0
        for entry in entries:
            if entry.dpu_index in seen:
                raise TransferError(
                    f"duplicate DPU {entry.dpu_index} in transfer matrix")
            seen.add(entry.dpu_index)
            if writing and entry.data is None:
                raise TransferError(
                    f"TO_DPU matrix entry for DPU {entry.dpu_index} "
                    "is missing its payload")
            total += entry.size
            if entry.size > largest:
                largest = entry.size
        if total > MAX_XFER_BYTES:
            raise TransferError(
                f"matrix moves {total} bytes, over the 4 GB "
                "per-operation hardware limit (Section 3.1)"
            )
        #: What ``symbol`` addresses; every layer below asks.
        self.target = (_MRAM if symbol == MRAM_HEAP_SYMBOL
                       else _WRAM_SYMBOL)
        if self.target is _MRAM and offset + largest > MRAM_SIZE:
            raise TransferError(
                f"MRAM transfer reaches byte {offset + largest}, past the "
                f"{MRAM_SIZE}-byte bank"
            )
        self.kind = kind
        self.symbol = symbol
        self.offset = offset
        self.entries: List[DpuEntry] = entries
        self.total_bytes = total
        self.max_entry_bytes = largest

    @property
    def total_pages(self) -> int:
        return sum(entry.nr_pages for entry in self.entries)

    def validate(self) -> None:
        """The construction checks again, after ``entries`` changed."""
        TransferMatrix.__init__(self, self.kind, self.symbol, self.offset,
                                self.entries)


def uniform_write(symbol: str, offset: int, buffers: List[np.ndarray]) -> TransferMatrix:
    """Build a TO_DPU matrix assigning ``buffers[i]`` to set-DPU ``i``."""
    entries = [DpuEntry(dpu_index=i, data=buf)
               for i, buf in enumerate(buffers)]
    return TransferMatrix(XferKind.TO_DPU, symbol, offset, entries)


def uniform_read(symbol: str, offset: int, size: int, nr_dpus: int) -> TransferMatrix:
    """Build a FROM_DPU matrix reading ``size`` bytes from each of the DPUs."""
    entries = [DpuEntry(dpu_index=i, size=size) for i in range(nr_dpus)]
    return TransferMatrix(XferKind.FROM_DPU, symbol, offset, entries)
