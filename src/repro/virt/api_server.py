"""The Firecracker API server (Section 3.2).

"When a Firecracker VM is launched, a thread establishes a listening
socket to handle incoming requests, starting to receive the VM's
configuration, such as the path to the kernel, the root file system, the
virtio devices (including vUPMEM), and the VM launch command."

This module models that control plane: an :class:`ApiServer` accepts
Firecracker-style REST requests (method + path + JSON body), accumulates
the machine configuration, and boots the microVM on the ``InstanceStart``
action.  Hosts request vUPMEM devices exactly like other resources
(Section 3.3: "hosts send requests to the Firecracker API server
detailing the requested resources, including the desired amount of
vUPMEMs").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import VmConfigError
from repro.virt.firecracker import Firecracker, VmConfig
from repro.virt.opts import preset
from repro.virt.vm import Vm


@dataclass
class ApiResponse:
    """Status code plus a JSON-style body (a §3.2 API-server reply)."""

    status: int
    body: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


def _int_field(body: Dict[str, object], name: str) -> int:
    try:
        return int(body[name])
    except (TypeError, ValueError):
        raise VmConfigError(
            f"{name} must be an integer, got {body[name]!r}") from None


class ApiServer:
    """One listening socket per Firecracker process (§3.2's API thread
    receiving the §3.3 vUPMEM booking)."""

    def __init__(self, firecracker: Firecracker) -> None:
        self.firecracker = firecracker
        self._draft = VmConfig(nr_vupmem=0)
        self.vm: Optional[Vm] = None
        self.request_log: list = []

    # -- request dispatch ------------------------------------------------------

    def handle(self, method: str, path: str,
               body: Optional[Dict[str, object]] = None) -> ApiResponse:
        """Process one API request, Firecracker-style."""
        body = body or {}
        self.request_log.append((method, path, body))
        try:
            if (method, path) == ("PUT", "/machine-config"):
                return self._machine_config(body)
            if (method, path) == ("PUT", "/boot-source"):
                return self._boot_source(body)
            if (method, path) == ("PUT", "/drives/rootfs"):
                return self._rootfs(body)
            if (method, path) == ("PUT", "/vupmem"):
                return self._vupmem(body)
            if (method, path) == ("PUT", "/actions"):
                return self._actions(body)
            if (method, path) == ("GET", "/"):
                return self._describe()
        except VmConfigError as exc:
            return ApiResponse(400, {"fault_message": str(exc)})
        return ApiResponse(404, {"fault_message": f"no route {method} {path}"})

    # -- endpoints -----------------------------------------------------------------

    def _machine_config(self, body: Dict[str, object]) -> ApiResponse:
        if self.vm is not None:
            return ApiResponse(409, {"fault_message": "VM already started"})
        if "vcpu_count" in body:
            self._draft.vcpus = _int_field(body, "vcpu_count")
        if "mem_size_mib" in body:
            self._draft.mem_bytes = _int_field(body, "mem_size_mib") << 20
        return ApiResponse(204)

    def _boot_source(self, body: Dict[str, object]) -> ApiResponse:
        if "kernel_image_path" not in body:
            return ApiResponse(400,
                               {"fault_message": "kernel_image_path required"})
        self._draft.kernel_path = str(body["kernel_image_path"])
        return ApiResponse(204)

    def _rootfs(self, body: Dict[str, object]) -> ApiResponse:
        self._draft.rootfs_path = str(body.get("path_on_host", "rootfs.ext4"))
        return ApiResponse(204)

    def _vupmem(self, body: Dict[str, object]) -> ApiResponse:
        """Request vUPMEM devices, optionally with an optimization preset."""
        if self.vm is not None:
            return ApiResponse(409, {"fault_message": "VM already started"})
        count = _int_field(body, "count") if "count" in body else 1
        if count < 0:
            return ApiResponse(400, {"fault_message": "count must be >= 0"})
        self._draft.nr_vupmem = count
        if "preset" in body:
            try:
                self._draft.opts = preset(str(body["preset"]))
            except KeyError as exc:
                return ApiResponse(400, {"fault_message": str(exc)})
        return ApiResponse(204)

    def _actions(self, body: Dict[str, object]) -> ApiResponse:
        if body.get("action_type") != "InstanceStart":
            return ApiResponse(400, {"fault_message": "unknown action"})
        if self.vm is not None:
            return ApiResponse(409, {"fault_message": "VM already started"})
        self._draft.validate(self.firecracker.machine)
        self.vm = self.firecracker.launch_vm(self._draft)
        return ApiResponse(
            200,
            {"vm_id": self.vm.vm_id,
             "boot_time_ms": self.vm.boot_time * 1e3,
             "kernel_cmdline": list(self.vm.kernel_cmdline)},
        )

    def _describe(self) -> ApiResponse:
        state = "Running" if self.vm is not None else "Not started"
        return ApiResponse(200, {
            "state": state,
            "vcpu_count": self._draft.vcpus,
            "mem_size_mib": self._draft.mem_bytes >> 20,
            "vupmem_devices": self._draft.nr_vupmem,
        })
