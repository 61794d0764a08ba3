"""Backend: zero-copy handling, rank linking, rust path, errors."""

import numpy as np
import pytest

from repro.config import MRAM_HEAP_SYMBOL, PAGE_SIZE, small_machine
from repro.driver.driver import UpmemDriver
from repro.errors import (
    DeviceNotLinkedError,
    SerializationError,
    TranslationError,
)
from repro.hardware.machine import Machine
from repro.hardware.timing import DEFAULT_COST_MODEL
from repro.sdk.transfer import uniform_read, uniform_write
from repro.virt.backend import VUpmemBackend
from repro.virt.guest_memory import GuestMemory
from repro.virt.serialization import (
    RequestHeader,
    RequestKind,
    serialize_matrix,
)
from repro.virt.virtio import write_buffer


@pytest.fixture
def env():
    machine = Machine(small_machine(nr_ranks=2, dpus_per_rank=4))
    driver = UpmemDriver(machine)
    memory = GuestMemory(128 << 20)
    backend = VUpmemBackend("dev0", driver, memory, DEFAULT_COST_MODEL)
    return machine, driver, memory, backend


def chain_for(header, matrix, memory):
    return serialize_matrix(header, matrix, memory).chain


def test_unlinked_requests_rejected(env):
    _, _, memory, backend = env
    header = RequestHeader(kind=RequestKind.LAUNCH)
    with pytest.raises(DeviceNotLinkedError):
        backend.process([write_buffer(memory, header.pack())])


def test_link_unlink_lifecycle(env):
    machine, driver, _, backend = env
    backend.link_rank(0)
    assert backend.linked
    assert driver.rank_owner(0) == "dev0"
    with pytest.raises(DeviceNotLinkedError):
        backend.link_rank(1)   # already linked
    backend.unlink()
    assert not backend.linked
    assert driver.rank_owner(0) is None


def test_config_request_without_rank(env):
    _, _, memory, backend = env
    header = RequestHeader(kind=RequestKind.GET_CONFIG)
    result = backend.process([write_buffer(memory, header.pack())])
    assert result.payload.nr_dpus == 64


def test_write_lands_on_rank_zero_copy(env):
    machine, _, memory, backend = env
    backend.link_rank(0)
    data = (np.arange(3000) % 256).astype(np.uint8)
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 128, [data, data])
    header = RequestHeader(kind=RequestKind.WRITE_RANK, offset=128,
                           symbol=MRAM_HEAP_SYMBOL)
    result = backend.process(chain_for(header, matrix, memory))
    assert result.duration > 0
    assert "T-data" in result.steps and "Deser" in result.steps
    for d in (0, 1):
        assert np.array_equal(machine.rank(0).dpu(d).mram.read(128, 3000), data)


def test_read_deposits_into_guest_pages(env):
    machine, _, memory, backend = env
    backend.link_rank(0)
    payload = np.full(500, 7, dtype=np.uint8)
    machine.rank(0).dpu(1).mram.write(64, payload)
    matrix = uniform_read(MRAM_HEAP_SYMBOL, 64, 500, nr_dpus=2)
    header = RequestHeader(kind=RequestKind.READ_RANK, offset=64,
                           symbol=MRAM_HEAP_SYMBOL)
    sreq = serialize_matrix(header, matrix, memory)
    backend.process(sreq.chain)
    dpu1 = [d for d in sreq.data_descriptors if d[0] == 1][0]
    assert np.array_equal(memory.read(dpu1[2], 500), payload)


def test_rust_path_slower_on_writes(env):
    # Two entries: a rank-level transfer at full lane parallelism, where
    # the interleaving flavour dominates the data path.
    machine, driver, memory, _ = env
    data = np.zeros(1 << 20, dtype=np.uint8)
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 0, [data, data])
    header = RequestHeader(kind=RequestKind.WRITE_RANK,
                           symbol=MRAM_HEAP_SYMBOL)

    c_backend = VUpmemBackend("c", driver, memory, DEFAULT_COST_MODEL,
                              rust_data_path=False)
    c_backend.link_rank(0)
    c_time = c_backend.process(chain_for(header, matrix, memory)).steps["T-data"]
    c_backend.unlink()

    rust_backend = VUpmemBackend("rust", driver, memory, DEFAULT_COST_MODEL,
                                 rust_data_path=True)
    rust_backend.link_rank(0)
    rust_time = rust_backend.process(
        chain_for(header, matrix, memory)).steps["T-data"]
    assert rust_time > c_time * 3.43  # at least the paper's 343%


def test_translation_threads_speed_deser(env):
    machine, driver, memory, _ = env
    data = np.zeros(1 << 20, dtype=np.uint8)
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 0, [data])
    header = RequestHeader(kind=RequestKind.WRITE_RANK,
                           symbol=MRAM_HEAP_SYMBOL)

    fast = VUpmemBackend("f", driver, memory, DEFAULT_COST_MODEL,
                         translation_threads=8)
    fast.link_rank(0)
    fast_t = fast.process(chain_for(header, matrix, memory)).steps["Deser"]
    fast.unlink()

    slow = VUpmemBackend("s", driver, memory, DEFAULT_COST_MODEL,
                         translation_threads=1)
    slow.link_rank(0)
    slow_t = slow.process(chain_for(header, matrix, memory)).steps["Deser"]
    assert slow_t > fast_t


def test_load_requires_program_image(env):
    _, _, memory, backend = env
    backend.link_rank(0)
    header = RequestHeader(kind=RequestKind.LOAD, program_name="missing")
    with pytest.raises(SerializationError):
        backend.process([write_buffer(memory, header.pack())])


def test_release_request_unlinks(env):
    _, driver, memory, backend = env
    backend.link_rank(0)
    header = RequestHeader(kind=RequestKind.RELEASE)
    backend.process([write_buffer(memory, header.pack())])
    assert not backend.linked
    assert 0 in driver.free_ranks()


def test_worker_thread_default_matches_paper(env):
    *_, backend = env
    # Section 4.2: 8 translation threads, aligned with 8 DPUs per chip.
    assert backend.translation_threads == 8


def test_xlb_hit_still_bounds_checks_the_whole_run(env):
    """A cached ``(first, last, count)`` key must not vouch for a page
    list that only shares its ends with the validated run."""
    _, _, memory, backend = env
    first = memory.alloc_pages(3)
    good = first + np.arange(3, dtype=np.uint64) * np.uint64(PAGE_SIZE)
    backend.xlb.translate(good)
    backend.xlb.translate(good)
    assert (backend.xlb.hits, backend.xlb.misses) == (1, 1)

    forged = good.copy()
    forged[1] = 0xFFFF_FFFF_F000
    with pytest.raises(TranslationError):
        backend.xlb.translate(forged)
