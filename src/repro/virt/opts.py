"""The optimization matrix of Table 2.

Each :class:`OptimizationConfig` toggles one or more of vPIM's four
optimizations; the named presets reproduce the exact rows of Table 2 that
Section 5.4 evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.config import BATCH_PAGES_PER_DPU, PREFETCH_PAGES_PER_DPU
from repro.qos.config import QosConfig


@dataclass(frozen=True)
class OptimizationConfig:
    """Which vPIM optimizations are enabled (Table 2 columns)."""

    c_enhancement: bool = True      #: C/AVX-512 data path instead of Rust/AVX2
    prefetch_cache: bool = True     #: frontend read prefetch cache
    request_batching: bool = True   #: frontend small-write batching
    parallel_handling: bool = True  #: per-rank threads in the VMM event loop

    #: Section 7 future work, implemented as an experimental extension:
    #: a vhost_vsock-style in-kernel data path that skips the Firecracker
    #: event loop on every request, cutting the guest-hypervisor-VMM
    #: transition cost.  Not part of Table 2; off by default.
    vhost_vsock: bool = False

    #: PIM-CACHE-inspired experimental extension (``docs/transfer_cache.md``):
    #: content-aware transfer suppression in the W-rank write path —
    #: unchanged extents become SKIP records, broadcast-identical payloads
    #: are deserialized once.  Not part of Table 2; off by default so the
    #: committed wall-clock digest stays bit-identical.
    cache: bool = False

    #: Multi-tenant performance isolation (``docs/qos.md``): a
    #: :class:`~repro.qos.config.QosConfig` registers the VM as a flow on
    #: the host's :class:`~repro.hardware.timing.BandwidthArbiter` and
    #: (when ``enforce``) schedules its virtio requests weighted-fair
    #: with token-bucket throttles.  ``None`` (the default) models no
    #: cross-VM contention at all — bit-identical to the committed
    #: wall-clock digest.
    qos: Optional[QosConfig] = None

    prefetch_pages_per_dpu: int = PREFETCH_PAGES_PER_DPU
    batch_pages_per_dpu: int = BATCH_PAGES_PER_DPU

    #: Transfer-cache adaptive bypass (``docs/transfer_cache.md``): once
    #: the frontend has probed at least ``cache_bypass_min_probes``
    #: *revisited* extents (ones that already held a digest — first
    #: touches can never hit and carry no signal) with a hit rate below
    #: 2%, it stops digesting entirely (a workload that never rewrites
    #: identical content only pays for digests, the BFS 0.96x
    #: regression of the committed ablation).  0 disables the bypass.
    cache_bypass_min_probes: int = 64

    @property
    def label(self) -> str:
        """The paper's name for this configuration, if it is a preset."""
        for name, preset in PRESETS.items():
            if preset == self:
                return name
        flags = "".join([
            "C" if self.c_enhancement else "r",
            "P" if self.prefetch_cache else "-",
            "B" if self.request_batching else "-",
            "M" if self.parallel_handling else "-",
        ])
        label = f"vPIM[{flags}]"
        if self.cache:
            label += "+cache"
        if self.qos is not None:
            label += "+qos"
        return label


#: Short alias used in examples and docs: ``Optimization(cache=True)``.
Optimization = OptimizationConfig


#: The rows of Table 2.  ``vPIM-Seq`` differs from full ``vPIM`` only by
#: sequential request handling; ``vPIM`` enables everything.
PRESETS: Dict[str, OptimizationConfig] = {
    "vPIM-rust": OptimizationConfig(
        c_enhancement=False, prefetch_cache=False,
        request_batching=False, parallel_handling=False,
    ),
    "vPIM-C": OptimizationConfig(
        c_enhancement=True, prefetch_cache=False,
        request_batching=False, parallel_handling=False,
    ),
    "vPIM+P": OptimizationConfig(
        c_enhancement=True, prefetch_cache=True,
        request_batching=False, parallel_handling=False,
    ),
    "vPIM+B": OptimizationConfig(
        c_enhancement=True, prefetch_cache=False,
        request_batching=True, parallel_handling=False,
    ),
    "vPIM+PB": OptimizationConfig(
        c_enhancement=True, prefetch_cache=True,
        request_batching=True, parallel_handling=False,
    ),
    "vPIM-Seq": OptimizationConfig(
        c_enhancement=True, prefetch_cache=True,
        request_batching=True, parallel_handling=False,
    ),
    "vPIM": OptimizationConfig(),
}


def preset(name: str) -> OptimizationConfig:
    """Return a Table 2 preset by its paper name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown vPIM preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None
