"""The DRAM Processing Unit (DPU) model.

A DPU (Section 2) owns:

- a 64 MB MRAM bank, reachable from the host and via DMA from the DPU;
- 64 KB of WRAM, the only memory the pipeline can compute on;
- 24 KB of IRAM holding the loaded program;
- up to 24 hardware tasklets sharing the in-order pipeline.

The hardware layer is purely functional + stateful: *executing* a program
is the job of the SDK runtime (``repro.sdk.runtime``), which hands the
rank a runner callable that runs a whole launch.  The DPU records run
statistics so the timing model can convert them to simulated durations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import IRAM_SIZE, MRAM_SIZE, WRAM_SIZE
from repro.errors import DpuFaultError, ProgramLoadError
from repro.hardware.memory import MemoryRegion


class DpuState(enum.Enum):
    """Run state reported through the control interface (§2, Fig. 12's
    CI status traffic polls exactly these values)."""

    IDLE = "idle"
    RUNNING = "running"
    DONE = "done"
    FAULT = "fault"


@dataclass
class DpuRunStats:
    """Statistics of one program run on one DPU (inputs of §2's
    pipeline/DMA timing rules).

    ``tasklet_instructions`` holds the number of pipeline instructions each
    tasklet issued; DMA transfers between MRAM and WRAM are counted
    separately because they stall the DMA engine, not the pipeline.
    """

    tasklet_instructions: List[int] = field(default_factory=list)
    dma_ops: int = 0
    dma_bytes: int = 0

    @property
    def total_instructions(self) -> int:
        return sum(self.tasklet_instructions)


@dataclass
class LaunchStats:
    """Statistics of one launch: one :class:`DpuRunStats` per DPU, in the
    order the launch lists its DPUs, and their launch-wide totals."""

    per_dpu: List[DpuRunStats]

    @property
    def tasklet_instructions(self) -> List[int]:
        """Every tasklet's count, the launch's DPUs one after another."""
        return [n for run in self.per_dpu for n in run.tasklet_instructions]

    @property
    def dma_ops(self) -> int:
        return sum(run.dma_ops for run in self.per_dpu)

    @property
    def dma_bytes(self) -> int:
        return sum(run.dma_bytes for run in self.per_dpu)


class Dpu:
    """One DRAM Processing Unit (§2: 64 MB MRAM, 64 KB WRAM, 24 KB IRAM,
    up to 24 tasklets on an in-order pipeline — Fig. 1's compute unit)."""

    def __init__(self, rank_index: int, dpu_index: int) -> None:
        self.rank_index = rank_index
        self.dpu_index = dpu_index
        self.mram = MemoryRegion(MRAM_SIZE, name=f"mram[r{rank_index}.d{dpu_index}]")
        self.wram = MemoryRegion(WRAM_SIZE, name=f"wram[r{rank_index}.d{dpu_index}]")
        self.iram = MemoryRegion(IRAM_SIZE, name=f"iram[r{rank_index}.d{dpu_index}]")
        self.state = DpuState.IDLE
        #: Program object currently loaded (an ``repro.sdk.kernel.DpuProgram``).
        self.program: Optional[object] = None
        #: Host-visible symbol storage (WRAM variables declared ``__host``).
        self.symbols: Dict[str, bytearray] = {}
        self.last_run: Optional[DpuRunStats] = None
        #: Lifetime run statistics (feed the per-rank launch/boot metrics).
        self.boots = 0
        self.faults = 0
        #: Kernel-store dirty log, armed by the backend around a launch
        #: when the transfer cache is on: ``(space, offset, nbytes)`` per
        #: store, where ``space`` is the MRAM heap symbol or a WRAM
        #: symbol name — the same keying as the digest index.  ``None``
        #: (the default) disables logging entirely.
        self.dirty_log: Optional[List[tuple]] = None

    # -- program load -------------------------------------------------------

    def load_program(self, program: object, binary_size: int,
                     symbols: Dict[str, int]) -> None:
        """Load ``program`` whose code occupies ``binary_size`` IRAM bytes.

        ``symbols`` maps host-visible symbol names to their byte sizes.
        """
        if binary_size > IRAM_SIZE:
            raise ProgramLoadError(
                f"program of {binary_size} bytes exceeds IRAM ({IRAM_SIZE})"
            )
        if self.state is DpuState.RUNNING:
            raise ProgramLoadError("cannot load a program on a running DPU")
        # The token written to IRAM stands in for the binary image.
        self.iram.fill(0)
        self.iram.write(0, bytes(min(binary_size, 64)))
        self.program = program
        self.symbols = {name: bytearray(size) for name, size in symbols.items()}
        self.state = DpuState.IDLE

    # -- symbol access (host side) -------------------------------------------

    def write_symbol(self, name: str, offset: int, data: bytes) -> None:
        if name not in self.symbols:
            raise DpuFaultError(
                f"DPU r{self.rank_index}.d{self.dpu_index}: unknown symbol {name!r}"
            )
        buf = self.symbols[name]
        if offset + len(data) > len(buf):
            raise DpuFaultError(
                f"symbol {name!r}: write of {len(data)} bytes at {offset} "
                f"overflows its {len(buf)} bytes"
            )
        buf[offset:offset + len(data)] = data

    def read_symbol(self, name: str, offset: int, length: int) -> bytes:
        if name not in self.symbols:
            raise DpuFaultError(
                f"DPU r{self.rank_index}.d{self.dpu_index}: unknown symbol {name!r}"
            )
        buf = self.symbols[name]
        if offset + length > len(buf):
            raise DpuFaultError(
                f"symbol {name!r}: read of {length} bytes at {offset} "
                f"overflows its {len(buf)} bytes"
            )
        return bytes(buf[offset:offset + length])

    # -- run-state transitions -------------------------------------------------

    def begin_run(self) -> None:
        if self.program is None:
            raise DpuFaultError("launch without a loaded program")
        if self.state is DpuState.RUNNING:
            raise DpuFaultError("DPU is already running")
        self.boots += 1
        self.state = DpuState.RUNNING

    def finish_run(self, stats: DpuRunStats) -> None:
        self.last_run = stats
        self.state = DpuState.DONE

    def fault(self) -> None:
        self.faults += 1
        self.state = DpuState.FAULT

    def reset(self) -> None:
        """Hardware reset: clear memories, program and state."""
        self.mram.fill(0)
        self.wram.fill(0)
        self.iram.fill(0)
        self.program = None
        self.symbols = {}
        self.last_run = None
        self.state = DpuState.IDLE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Dpu(r{self.rank_index}.d{self.dpu_index}, "
                f"state={self.state.value})")
