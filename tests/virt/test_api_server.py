"""The Firecracker API server control plane (Section 3.2/3.3)."""

import pytest

from repro.config import small_machine
from repro.hardware.machine import Machine
from repro.virt.api_server import ApiServer
from repro.virt.firecracker import Firecracker


@pytest.fixture
def server():
    machine = Machine(small_machine(nr_ranks=2, dpus_per_rank=8))
    return ApiServer(Firecracker(machine))


def boot(server, nr_vupmem=1, **extra):
    assert server.handle("PUT", "/machine-config",
                         {"vcpu_count": 4, "mem_size_mib": 1024}).ok
    assert server.handle("PUT", "/boot-source",
                         {"kernel_image_path": "vmlinux.bin"}).ok
    assert server.handle("PUT", "/drives/rootfs",
                         {"path_on_host": "rootfs.ext4"}).ok
    body = {"count": nr_vupmem}
    body.update(extra)
    assert server.handle("PUT", "/vupmem", body).ok
    return server.handle("PUT", "/actions", {"action_type": "InstanceStart"})


def test_full_boot_flow(server):
    response = boot(server, nr_vupmem=2)
    assert response.ok
    assert response.body["boot_time_ms"] > 0
    assert len(response.body["kernel_cmdline"]) == 2
    assert server.vm is not None
    assert len(server.vm.devices) == 2


def test_vupmem_preset_selection(server):
    response = boot(server, nr_vupmem=1, preset="vPIM-rust")
    assert response.ok
    assert server.vm.devices[0].backend.rust_data_path


def test_unknown_preset_rejected(server):
    assert server.handle("PUT", "/vupmem",
                         {"count": 1, "preset": "bogus"}).status == 400


def test_too_many_devices_rejected(server):
    response = boot(server, nr_vupmem=10)
    assert response.status == 400
    assert "ranks" in str(response.body["fault_message"])


def test_double_start_rejected(server):
    assert boot(server).ok
    again = server.handle("PUT", "/actions", {"action_type": "InstanceStart"})
    assert again.status == 409


def test_config_after_start_rejected(server):
    assert boot(server).ok
    late = server.handle("PUT", "/machine-config", {"vcpu_count": 8})
    assert late.status == 409


def test_unknown_route(server):
    assert server.handle("GET", "/nope").status == 404


def test_describe(server):
    state = server.handle("GET", "/")
    assert state.body["state"] == "Not started"
    boot(server)
    state = server.handle("GET", "/")
    assert state.body["state"] == "Running"
    assert state.body["vupmem_devices"] == 1


def test_boot_source_requires_kernel(server):
    assert server.handle("PUT", "/boot-source", {}).status == 400


def test_request_log(server):
    boot(server)
    methods = [entry[0] for entry in server.request_log]
    assert methods.count("PUT") == 5


@pytest.mark.parametrize("path, body", [
    ("/machine-config", {"mem_size_mib": "abc"}),
    ("/machine-config", {"vcpu_count": None}),
    ("/vupmem", {"count": "two"}),
])
def test_non_integer_field_answers_400(server, path, body):
    response = server.handle("PUT", path, body)
    assert response.status == 400
    assert "must be an integer" in str(response.body["fault_message"])


def test_guest_too_small_for_its_dma_arena_is_refused_at_start(server):
    from repro.virt.guest_memory import MIN_GUEST_SIZE
    assert server.handle("PUT", "/machine-config", {"mem_size_mib": 1}).ok
    assert server.handle("PUT", "/vupmem", {"count": 1}).ok
    response = server.handle("PUT", "/actions",
                             {"action_type": "InstanceStart"})
    assert response.status == 400
    assert str(MIN_GUEST_SIZE) in str(response.body["fault_message"])
    assert server.vm is None

