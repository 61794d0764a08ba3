"""Consolidation: draining hosts through the migration path."""

import numpy as np

from repro.cluster import Consolidator, Scheduler, TenantRequest


def _place(scheduler, tenant, nr_ranks=1, fill=None):
    scheduler.submit(TenantRequest(tenant=tenant, nr_ranks=nr_ranks))
    placement = scheduler.try_place_next()
    placement.acquire()
    if fill is not None:
        for device in placement.linked_devices():
            for dpu in device.backend.mapping.rank.dpus:
                dpu.mram.write(0, np.full(256, fill, np.uint8))
    return placement


def test_run_once_drains_the_emptiest_host(cluster, scheduler):
    # round_robin spreads the two tenants over host0 and host1.
    a = _place(scheduler, "a", fill=7)
    b = _place(scheduler, "b", fill=9)
    assert a.host is not b.host
    # Donor ties on allocated ranks break on host order: a's host0 drains.
    donor = a.host

    consolidator = Consolidator(cluster, scheduler)
    moved = consolidator.run_once()

    assert moved == 1
    assert consolidator.hosts_drained == 1
    assert donor.allocated_ranks() == 0
    assert a.host is b.host                  # placement re-homed
    # Tenant data survived the checkpoint/restore hop.
    for device in b.linked_devices():
        rank = device.backend.mapping.rank
        assert all((dpu.mram.read(0, 256) == 9).all() for dpu in rank.dpus)
    for device in a.linked_devices():
        rank = device.backend.mapping.rank
        assert all((dpu.mram.read(0, 256) == 7).all() for dpu in rank.dpus)


def test_drain_refused_when_nothing_fits(cluster, scheduler):
    # Every host full: no receiver has room, so nothing moves.
    placements = [_place(scheduler, f"t{i}", nr_ranks=2) for i in range(3)]
    consolidator = Consolidator(cluster, scheduler)
    assert consolidator.run_once() == 0
    assert consolidator.hosts_drained == 0
    assert all(p.host is placements[i].host for i, p in enumerate(placements))


def test_single_busy_host_is_left_alone(cluster, scheduler):
    _place(scheduler, "only")
    consolidator = Consolidator(cluster, scheduler)
    assert consolidator.run_once() == 0
    assert consolidator.migrations == 0


def test_running_dpus_block_the_drain(cluster, scheduler):
    from tests.tasklet_reference import TaskletProgram

    class Spin(TaskletProgram):
        name = "spin"
        nr_tasklets = 1

        def kernel(self, ctx):
            yield ctx.barrier()

    a = _place(scheduler, "a")
    _place(scheduler, "b")
    # host0 (a's host) is the tie-break donor; mark one of its DPUs
    # as mid-launch.
    program = Spin()
    dpu = a.linked_devices()[0].backend.mapping.rank.dpus[0]
    dpu.load_program(program, program.binary_size, program.symbols)
    dpu.begin_run()
    consolidator = Consolidator(cluster, scheduler)
    assert consolidator.run_once() == 0
    assert consolidator.migrations == 0


def test_migration_metrics_recorded(cluster, scheduler):
    a = _place(scheduler, "a", fill=1)
    b = _place(scheduler, "b", fill=2)
    donor = a.host
    consolidator = Consolidator(cluster, scheduler)
    consolidator.run_once()

    metrics = cluster.metrics
    assert metrics.value("repro_cluster_consolidation_runs_total") == 1
    assert metrics.value("repro_cluster_hosts_drained_total") == 1
    assert metrics.value("repro_cluster_migrations_total",
                         from_host=donor.host_id,
                         to_host=b.host.host_id) == 1
    assert metrics.value("repro_cluster_migrated_bytes_total") > 0


def test_migration_advances_shared_clock(cluster, scheduler):
    _place(scheduler, "a", fill=1)
    _place(scheduler, "b", fill=2)
    consolidator = Consolidator(cluster, scheduler)
    t0 = cluster.clock.now
    assert consolidator.run_once() == 1
    assert cluster.clock.now > t0
