"""Machine geometry constants and configuration dataclasses.

The numbers mirror Section 2 and Section 5.1 of the paper:

- A rank has 64 DPUs spread over 8 PIM chips (8 DPUs per chip).
- A DIMM has 2 ranks.
- Each DPU owns a 64 MB MRAM bank, 64 KB WRAM, 24 KB IRAM, and runs up to
  24 tasklets at 350 MHz (the evaluation machine; the architecture allows
  up to 400 MHz).
- The evaluation testbed has 4 UPMEM DIMMs = 8 ranks; rank 0 has only 60
  functional DPUs, the others 64, for 480 functional DPUs in total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

# ---------------------------------------------------------------------------
# Hardware geometry (Fig. 1)
# ---------------------------------------------------------------------------

MRAM_SIZE = 64 * 1024 * 1024       #: bytes of MRAM per DPU
WRAM_SIZE = 64 * 1024              #: bytes of WRAM per DPU
IRAM_SIZE = 24 * 1024              #: bytes of IRAM per DPU
DPUS_PER_CHIP = 8                  #: DPUs per PIM chip
CHIPS_PER_RANK = 8                 #: PIM chips per rank
DPUS_PER_RANK = DPUS_PER_CHIP * CHIPS_PER_RANK   # 64
RANKS_PER_DIMM = 2                 #: ranks on one UPMEM DIMM
MAX_TASKLETS = 24                  #: hardware tasklet limit per DPU
PIPELINE_DEPTH = 11                #: cycles separating two instructions of a thread
DPU_FREQUENCY_HZ = 350_000_000     #: evaluation machine clock (Section 5.1)

PAGE_SIZE = 4096                   #: guest/host page size
MAX_XFER_BYTES = 4 * 1024 * 1024 * 1024  #: 4 GB max per rank operation (Section 3.1)

#: MRAM heap symbol name used by the SDK, mirroring DPU_MRAM_HEAP_POINTER_NAME.
MRAM_HEAP_SYMBOL = "__sys_used_mram_end"

# ---------------------------------------------------------------------------
# Virtio-pim specification constants (Appendix A.1)
# ---------------------------------------------------------------------------

VIRTIO_PIM_DEVICE_ID = 42          #: device ID claimed by the specification
TRANSFERQ_SLOTS = 512              #: transferq capacity in descriptor pointers
MAX_SERIALIZED_BUFFERS = 130       #: request info + matrix meta + 64x(meta+pages)

# ---------------------------------------------------------------------------
# Frontend optimization defaults (Section 4.1)
# ---------------------------------------------------------------------------

PREFETCH_PAGES_PER_DPU = 16        #: prefetch cache capacity, pages per DPU
BATCH_PAGES_PER_DPU = 64           #: request-batching buffer, pages per DPU

# ---------------------------------------------------------------------------
# Backend defaults (Section 4.2)
# ---------------------------------------------------------------------------

TRANSLATION_THREADS = 8            #: GPA->HVA translation threads
MANAGER_POOL_THREADS = 8           #: manager request thread pool


@dataclass(frozen=True)
class RankConfig:
    """Static description of one rank's population.

    ``functional_dpus`` models defective DPUs: the evaluation machine's
    first rank exposes only 60 of its 64 DPUs (Section 5.1 footnote).
    """

    index: int
    functional_dpus: int = DPUS_PER_RANK

    def __post_init__(self) -> None:
        if not 0 < self.functional_dpus <= DPUS_PER_RANK:
            raise ValueError(
                f"functional_dpus must be in 1..{DPUS_PER_RANK}, "
                f"got {self.functional_dpus}"
            )


@dataclass(frozen=True)
class MachineConfig:
    """Description of a host machine equipped with UPMEM DIMMs.

    The default mirrors the paper's testbed: 16-core Xeon, 192 GB DRAM,
    8 ranks with 480 functional DPUs (rank 0 has 60).
    """

    host_cores: int = 16
    host_dram_bytes: int = 192 * 1024 * 1024 * 1024
    ranks: List[RankConfig] = field(default_factory=lambda: PAPER_TESTBED_RANKS)

    @property
    def nr_ranks(self) -> int:
        return len(self.ranks)

    @property
    def total_functional_dpus(self) -> int:
        return sum(r.functional_dpus for r in self.ranks)


#: Rank population of the paper's testbed: defective DPUs reduce the
#: nominal 512 to 480 functional DPUs across 8 ranks (Section 5.1); the
#: strong-scaling experiments use 60 DPUs per rank, so we model each rank
#: with 60 functional DPUs (the paper notes rank 0 itself has only 60).
PAPER_TESTBED_RANKS: List[RankConfig] = [RankConfig(i, 60) for i in range(8)]


def paper_testbed() -> MachineConfig:
    """Return a :class:`MachineConfig` matching Section 5.1's machine."""
    return MachineConfig()


def small_machine(nr_ranks: int = 2, dpus_per_rank: int = 8) -> MachineConfig:
    """A deliberately small machine for unit tests and examples."""
    ranks = [RankConfig(i, dpus_per_rank) for i in range(nr_ranks)]
    return MachineConfig(host_cores=4, host_dram_bytes=8 << 30, ranks=ranks)
