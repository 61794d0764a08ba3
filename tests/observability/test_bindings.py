"""The component tables, the catalog derived from them, and what
:func:`bind` checks.

The tables in ``repro.observability.catalog`` are the only declaration
of each family; this is the test that every table binds, that a family
bound under two attributes is one declaration, and that a row or a bind
which disagrees with the catalog fails when the component is built,
not the first time a rare path touches it.
"""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.observability import catalog
from repro.observability.catalog import (
    CATALOG, TABLES, MetricSpec, Table, bind)
from repro.observability.metrics import MetricsRegistry


def _ids(table):
    return {label: "x" for label in table.identity}


def _series(registry, name):
    return [labels for labels, _ in registry.get(name).samples()]


def test_every_table_binds_and_together_they_cover_the_catalog():
    declared = [table for table in vars(catalog).values()
                if isinstance(table, Table)]
    assert list(map(id, TABLES)) == list(map(id, declared))
    registry = MetricsRegistry()
    for table in TABLES:
        obs = bind(registry, table, **_ids(table))
        assert all(hasattr(obs, attribute) for attribute in table)
        # One declaration per family, however many attributes bind it.
        assert all(CATALOG[spec.name] is spec for spec, _ in table.values())
    assert set(registry.names()) == set(CATALOG)


def test_varying_labels_are_the_schema_less_identity_and_fixed():
    registry = MetricsRegistry()
    obs = bind(registry, catalog.BACKEND, vm="vm-0", device="vm-0.vupmem0")
    obs.requests[3, "write_rank"].inc()
    assert registry.value("repro_backend_requests_total", vm="vm-0",
                          device="vm-0.vupmem0", rank=3,
                          kind="write_rank") == 1


def test_series_exist_from_construction_only_where_no_label_varies():
    registry = MetricsRegistry()
    obs = bind(registry, catalog.FRONTEND, vm="vm-0", device="vm-0.vupmem0")
    assert [labels["result"] for labels in _series(
        registry, "repro_frontend_prefetch_lookups_total")] == ["hit", "miss"]
    assert _series(registry, "repro_frontend_requests_total") == []
    obs.requests["write_rank"].inc()
    assert obs.requests["write_rank"].value == 1
    assert len(_series(registry, "repro_frontend_requests_total")) == 1
    # A family without labels has one series, and it too waits for a touch.
    tsdb = bind(registry, catalog.TSDB)
    assert _series(registry, "repro_tsdb_scrapes_total") == []
    tsdb.scrapes.inc()
    assert registry.value("repro_tsdb_scrapes_total") == 1


_CI_OPS, _ = catalog.RANK["ci_ops"]
_RESETS, _ = catalog.RANK["resets"]


@pytest.mark.parametrize("row, ids", [
    ((_CI_OPS, {"comand": "read"}), dict(rank=0)),     # fixes a typo
    ((_CI_OPS, {}), {}),                               # identity missing
    ((_CI_OPS, {"rank": "1"}), dict(rank=0)),          # fixes the identity
    ((_RESETS, {"chip": "3"}), dict(rank=0)),          # outside the schema
    ((MetricSpec("repro_rank_no_such_total", "counter", "", ("rank",)), {}),
     dict(rank=0)),                                    # not cataloged
])
def test_a_row_that_disagrees_with_the_catalog_fails_in_bind(row, ids):
    with pytest.raises(ObservabilityError):
        table = Table(("rank",), touched_only_on_a_rare_path=row)
        bind(MetricsRegistry(), table, **ids)


def test_exemplar_follows_the_bound_recorder():
    from repro.hardware.clock import SimClock
    from repro.observability.spans import SpanRecorder
    assert bind(MetricsRegistry(), catalog.QOS,
                vm="vm-0").exemplar() is None
    spans = SpanRecorder(SimClock(), capture_exemplars=True)
    obs = bind(MetricsRegistry(), catalog.QOS, spans=spans, vm="vm-0")
    with spans.scope("qos.arbitrate", "qos"):
        exemplar = obs.exemplar()
        assert exemplar is not None and exemplar == spans.exemplar()
