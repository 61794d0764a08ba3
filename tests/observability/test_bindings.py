"""The component tables against the catalog, and what :func:`bind` checks.

The tables in ``repro.observability.instruments`` are data; this is the
test that they and the catalog describe the same metric set, and that a
row which disagrees with its family's schema fails when the component is
built rather than the first time a rare path touches it.
"""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.observability import instruments
from repro.observability.catalog import CATALOG
from repro.observability.instruments import bind
from repro.observability.metrics import MetricsRegistry

#: The identity labels each component binds its table with.
IDS = {
    "RANK": dict(rank=0),
    "FRONTEND": dict(vm="vm-0", device="vm-0.vupmem0"),
    "BACKEND": dict(vm="vm-0", device="vm-0.vupmem0"),
    "MANAGER": dict(policy="round_robin"),
    "VM": {},
    "SESSION": {},
    "CLUSTER": dict(policy="least_loaded"),
    "QOS": dict(vm="vm-0"),
    "SLO": {},
    "PAGING": dict(policy="lru"),
    "FAULT": {},
    "TRACE": {},
    "SPAN": {},
    "SPAN_RETENTION": {},
    "TSDB": {},
    "ALERT": {},
}


def _tables():
    return {name: table for name, table in vars(instruments).items()
            if name.isupper() and isinstance(table, dict)}


def _series(registry, name):
    return [labels for labels, _ in registry.get(name).samples()]


def test_every_table_binds_and_together_they_cover_the_catalog():
    tables = _tables()
    assert set(tables) == set(IDS)
    registry = MetricsRegistry()
    for name, table in tables.items():
        obs = bind(registry, table, **IDS[name])
        assert all(hasattr(obs, attribute) for attribute in table)
    bound = {row[0] for table in tables.values() for row in table.values()}
    assert bound == set(CATALOG)
    assert set(registry.names()) == set(CATALOG)


def test_series_exist_from_construction_only_where_no_label_varies():
    registry = MetricsRegistry()
    obs = bind(registry, instruments.FRONTEND, **IDS["FRONTEND"])
    assert [labels["result"] for labels in _series(
        registry, "repro_frontend_prefetch_lookups_total")] == ["hit", "miss"]
    assert _series(registry, "repro_frontend_requests_total") == []
    obs.requests["write_rank"].inc()
    assert obs.requests["write_rank"].value == 1
    assert len(_series(registry, "repro_frontend_requests_total")) == 1
    # A family without labels has one series, and it too waits for a touch.
    tsdb = bind(registry, instruments.TSDB)
    assert _series(registry, "repro_tsdb_scrapes_total") == []
    tsdb.scrapes.inc()
    assert registry.value("repro_tsdb_scrapes_total") == 1


@pytest.mark.parametrize("row, ids", [
    (("repro_rank_ci_ops_total", ("comand",), {}), dict(rank=0)),
    (("repro_rank_ci_ops_total", ("command",), {}), {}),
    (("repro_rank_ci_ops_total", ("command", "rank"), {}), dict(rank=0)),
    (("repro_rank_resets_total", (), {"chip": "3"}), dict(rank=0)),
    (("repro_rank_no_such_total", (), {}), dict(rank=0)),
])
def test_a_row_that_disagrees_with_the_catalog_fails_in_bind(row, ids):
    with pytest.raises(ObservabilityError):
        bind(MetricsRegistry(), {"touched_only_on_a_rare_path": row}, **ids)


def test_exemplar_follows_the_bound_recorder():
    from repro.hardware.clock import SimClock
    from repro.observability.spans import SpanRecorder
    assert bind(MetricsRegistry(), instruments.QOS,
                vm="vm-0").exemplar() is None
    spans = SpanRecorder(SimClock(), capture_exemplars=True)
    obs = bind(MetricsRegistry(), instruments.QOS, spans=spans, vm="vm-0")
    with spans.scope("qos.arbitrate", "qos"):
        exemplar = obs.exemplar()
        assert exemplar is not None and exemplar == spans.exemplar()
