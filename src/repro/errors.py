"""Exception hierarchy for the vPIM reproduction.

Every layer of the stack (hardware, SDK, driver, virtualization, manager)
raises a subclass of :class:`ReproError` so callers can catch at the
granularity they care about.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# --------------------------------------------------------------------------
# Hardware layer
# --------------------------------------------------------------------------

class HardwareError(ReproError):
    """Base class for hardware-simulator errors."""


class MemoryAccessError(HardwareError):
    """An access fell outside a memory region or violated alignment rules."""


class DpuFaultError(HardwareError):
    """A DPU kernel faulted during execution (bad access, bad host var...)."""


class RankOfflineError(HardwareError):
    """An operation reached a rank whose health is OFFLINE (injected or
    detected hardware failure); the rank must be repaired or replaced."""


class ControlInterfaceError(HardwareError):
    """An invalid command was written to a rank's control interface."""


# --------------------------------------------------------------------------
# SDK layer
# --------------------------------------------------------------------------

class SdkError(ReproError):
    """Base class for UPMEM-SDK-level errors."""


class AllocationError(SdkError):
    """DPU/rank allocation failed (no free ranks, too many DPUs...)."""


class ProgramLoadError(SdkError):
    """A DPU program could not be loaded (missing kernel, IRAM overflow)."""


class TransferError(SdkError):
    """A host<->DPU transfer was malformed (size, symbol, alignment)."""


class LaunchError(SdkError):
    """dpu_launch failed (no program loaded, DPU already running)."""


# --------------------------------------------------------------------------
# Driver layer
# --------------------------------------------------------------------------

class DriverError(ReproError):
    """Base class for UPMEM-driver-level errors."""


class IoctlError(DriverError):
    """Invalid ioctl request to the safe-mode driver."""


class MmapError(DriverError):
    """Performance-mode mmap failed (rank busy or absent)."""


# --------------------------------------------------------------------------
# Virtualization layer
# --------------------------------------------------------------------------

class VirtError(ReproError):
    """Base class for virtualization-stack errors."""


class VirtqueueError(VirtError):
    """Virtqueue misuse: overflow, bad descriptor chain, wrong queue."""


class SerializationError(VirtError):
    """The transfer matrix could not be (de)serialized."""


class TranslationError(VirtError):
    """A guest physical address could not be translated to a host address."""


class DeviceNotLinkedError(VirtError):
    """A request was sent while the vUPMEM device has no backing rank."""


class ManagerError(VirtError):
    """Rank-manager failure (no ranks available after retries, bad state)."""


class VmConfigError(VirtError):
    """Invalid VM configuration passed to the Firecracker API server."""


class TransientFaultError(VirtError):
    """A retryable transport/backend failure.

    Carries ``penalty_s``: the modeled detection latency (CRC check,
    watchdog timeout) the requester pays before it can retry.  The
    armed transport (``repro.faults.retry``) retries exactly this class.
    """

    kind = "transient"

    def __init__(self, message: str, penalty_s: float = 0.0) -> None:
        super().__init__(message)
        self.penalty_s = penalty_s


class TransportCorruptionError(TransientFaultError):
    """A virtio-pim message failed its integrity check before dispatch."""

    kind = "transport_corruption"


class BackendHungError(TransientFaultError):
    """A backend worker stopped servicing the queue; detected by watchdog."""

    kind = "backend_hang"


# --------------------------------------------------------------------------
# Cluster control plane
# --------------------------------------------------------------------------

class ClusterError(ReproError):
    """Fleet control-plane failure (bad scenario, unknown policy...)."""


class AdmissionError(ClusterError):
    """A tenant request was rejected by admission control."""


class HostCrashedError(ClusterError):
    """An operation targeted a fleet host that has crashed."""


# --------------------------------------------------------------------------
# Fault injection
# --------------------------------------------------------------------------

class FaultInjectionError(ReproError):
    """Fault-plan misuse: bad event target, unknown kind, bad schedule."""


# --------------------------------------------------------------------------
# Observability layer
# --------------------------------------------------------------------------

class ObservabilityError(ReproError):
    """Metrics misuse: bad name/label, type conflict, cardinality blow-up."""
