"""UPMEM driver: ownership, safe mode, performance mode."""

import numpy as np
import pytest

from repro.config import MRAM_HEAP_SYMBOL, small_machine
from repro.driver.driver import UpmemDriver
from repro.driver.ioctl import IoctlCode, IoctlRequest
from repro.errors import IoctlError, MmapError
from repro.hardware.machine import Machine
from repro.sdk.transfer import uniform_read, uniform_write
from tests.tasklet_reference import TaskletProgram


class Trivial(TaskletProgram):
    name = "trivial"
    symbols = {"out": 4}
    nr_tasklets = 2

    def kernel(self, ctx):
        if ctx.me() == 0:
            ctx.set_host_u32("out", 77)
            ctx.charge(1)
        yield ctx.barrier()


@pytest.fixture
def driver():
    return UpmemDriver(Machine(small_machine(nr_ranks=2, dpus_per_rank=4)))


def test_initial_sysfs_all_free(driver):
    assert driver.free_ranks() == [0, 1]
    assert driver.sysfs.rank_owner(0) == ""


def test_claim_and_release(driver):
    driver.claim_rank(0, "app-a")
    assert driver.rank_owner(0) == "app-a"
    assert driver.sysfs.rank_owner(0) == "app-a"
    assert driver.free_ranks() == [1]
    driver.release_rank(0, "app-a")
    assert driver.free_ranks() == [0, 1]


def test_claim_conflict(driver):
    driver.claim_rank(0, "app-a")
    with pytest.raises(MmapError):
        driver.claim_rank(0, "app-b")


def test_release_by_non_owner_rejected(driver):
    driver.claim_rank(0, "app-a")
    with pytest.raises(MmapError):
        driver.release_rank(0, "app-b")


def test_perf_mode_mapping_lifecycle(driver):
    mapping = driver.mmap_rank(0, "app-a")
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 0,
                           [np.arange(16, dtype=np.uint8)] * 2)
    assert mapping.write(matrix) > 0
    bufs, _ = mapping.read(uniform_read(MRAM_HEAP_SYMBOL, 0, 16, 2))
    assert np.array_equal(bufs[0], np.arange(16, dtype=np.uint8))
    mapping.unmap()
    assert driver.free_ranks() == [0, 1]
    with pytest.raises(MmapError):
        mapping.write(matrix)


def test_perf_mode_load_and_launch(driver):
    mapping = driver.mmap_rank(1, "app-a")
    mapping.load(Trivial())
    mapping.launch()
    assert mapping.rank.dpu(0).read_symbol("out", 0, 4) == (77).to_bytes(4, "little")


def test_safe_mode_config(driver):
    config, duration = driver.ioctl("p1", IoctlRequest(IoctlCode.GET_CONFIG, 0))
    assert config.frequency_hz == 350_000_000
    assert duration > 0


def test_safe_mode_alloc_write_read_free(driver):
    rank_index, _ = driver.ioctl("p1", IoctlRequest(IoctlCode.ALLOC_RANK, 0))
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 0,
                           [np.full(8, 3, dtype=np.uint8)])
    driver.ioctl("p1", IoctlRequest(IoctlCode.WRITE_RANK, rank_index,
                                    matrix=matrix))
    bufs, _ = driver.ioctl("p1", IoctlRequest(
        IoctlCode.READ_RANK, rank_index,
        matrix=uniform_read(MRAM_HEAP_SYMBOL, 0, 8, 1)))
    assert (bufs[0] == 3).all()
    driver.ioctl("p1", IoctlRequest(IoctlCode.FREE_RANK, rank_index))
    assert rank_index in driver.free_ranks()


def test_safe_mode_isolation_between_processes(driver):
    rank_index, _ = driver.ioctl("p1", IoctlRequest(IoctlCode.ALLOC_RANK, 0))
    with pytest.raises(IoctlError):
        driver.ioctl("p2", IoctlRequest(IoctlCode.CI_OP, rank_index))


def test_safe_mode_alloc_exhaustion(driver):
    driver.ioctl("p1", IoctlRequest(IoctlCode.ALLOC_RANK, 0))
    driver.ioctl("p1", IoctlRequest(IoctlCode.ALLOC_RANK, 0))
    with pytest.raises(IoctlError):
        driver.ioctl("p1", IoctlRequest(IoctlCode.ALLOC_RANK, 0))
