"""Docs-check: the documentation stays consistent with the code.

Two invariants:

- every relative link in ``README.md`` and ``docs/*.md`` points at a file
  or directory that exists in the repository;
- the metric table in ``docs/observability.md`` and the catalog
  (:mod:`repro.observability.catalog`) list exactly the same metric names,
  so neither can drift without failing CI.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.observability.catalog import CATALOG

REPO_ROOT = Path(__file__).resolve().parent.parent

_LINK_RE = re.compile(r"\]\(([^)]+)\)")
_METRIC_RE = re.compile(r"\brepro_[a-z0-9_]+\b")


def _doc_files():
    docs = [REPO_ROOT / "README.md"]
    docs += sorted((REPO_ROOT / "docs").glob("*.md"))
    return docs


@pytest.mark.parametrize("doc", _doc_files(), ids=lambda p: p.name)
def test_relative_links_resolve(doc):
    broken = []
    for target in _LINK_RE.findall(doc.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not (doc.parent / path).exists():
            broken.append(target)
    assert not broken, f"{doc.name}: broken links {broken}"


def test_docs_directory_complete():
    docs = REPO_ROOT / "docs"
    assert (docs / "architecture.md").exists()
    assert (docs / "observability.md").exists()


class TestMetricTableMatchesCatalog:
    """docs/observability.md's table is the catalog, rendered."""

    @pytest.fixture(scope="class")
    def documented(self) -> set:
        text = (REPO_ROOT / "docs" / "observability.md").read_text()
        # Series suffixes appear in prose examples; fold them back onto
        # their family name before comparing with the catalog.
        names = set()
        for name in _METRIC_RE.findall(text):
            if name.endswith("_"):
                continue  # a family-prefix mention such as ``repro_trace_*``
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[:-len(suffix)] in CATALOG:
                    name = name[:-len(suffix)]
                    break
            names.add(name)
        return names

    def test_every_documented_metric_is_cataloged(self, documented):
        unknown = documented - set(CATALOG)
        assert not unknown, (
            f"docs/observability.md mentions uncataloged metrics: "
            f"{sorted(unknown)}")

    def test_every_cataloged_metric_is_documented(self, documented):
        missing = set(CATALOG) - documented
        assert not missing, (
            f"catalog metrics missing from docs/observability.md: "
            f"{sorted(missing)}")

    @pytest.fixture(scope="class")
    def table_rows(self) -> list:
        text = (REPO_ROOT / "docs" / "observability.md").read_text()
        rows = re.findall(r"^\| `(repro_[a-z0-9_]+)` \|[^|]+\| ([^|]*) \|",
                          text, re.MULTILINE)
        assert rows, "metric table not found in docs/observability.md"
        return rows

    def test_every_cataloged_metric_has_a_table_row(self, table_rows):
        """Stronger than prose mentions: each family needs its own row."""
        missing = set(CATALOG) - {name for name, _ in table_rows}
        assert not missing, (
            f"catalog metrics with no docs/observability.md table row: "
            f"{sorted(missing)}")

    def test_every_table_row_is_cataloged(self, table_rows):
        unknown = {name for name, _ in table_rows} - set(CATALOG)
        assert not unknown, (
            f"docs/observability.md table rows for uncataloged metrics: "
            f"{sorted(unknown)}")

    def test_documented_labels_match_catalog(self, table_rows):
        """Each table row lists exactly the spec's label names."""
        rows = table_rows
        for name, label_cell in rows:
            spec = CATALOG[name]
            documented_labels = tuple(re.findall(r"`([^`]+)`", label_cell))
            assert documented_labels == spec.labels, (
                f"{name}: docs list labels {documented_labels}, "
                f"catalog declares {spec.labels}")


class TestQosDocMetricTable:
    """docs/qos.md carries its own copy of the qos families' rows;
    they must match the catalog exactly, like observability.md's."""

    @pytest.fixture(scope="class")
    def table_rows(self) -> list:
        text = (REPO_ROOT / "docs" / "qos.md").read_text()
        rows = re.findall(r"^\| `(repro_[a-z0-9_]+)` \|[^|]+\| ([^|]*) \|",
                          text, re.MULTILINE)
        assert rows, "metric table not found in docs/qos.md"
        return rows

    def test_every_qos_family_has_a_row(self, table_rows):
        qos_families = {name for name in CATALOG
                        if name.startswith("repro_qos_")}
        assert qos_families == {name for name, _ in table_rows}

    def test_documented_labels_match_catalog(self, table_rows):
        for name, label_cell in table_rows:
            spec = CATALOG[name]
            documented = tuple(re.findall(r"`([^`]+)`", label_cell))
            assert documented == spec.labels, (
                f"{name}: docs/qos.md lists labels {documented}, "
                f"catalog declares {spec.labels}")


class TestPagingDocMetricTable:
    """docs/paging.md carries its own copy of the paging families' rows;
    they must match the catalog exactly, like observability.md's."""

    @pytest.fixture(scope="class")
    def table_rows(self) -> list:
        text = (REPO_ROOT / "docs" / "paging.md").read_text()
        rows = re.findall(r"^\| `(repro_[a-z0-9_]+)` \|[^|]+\| ([^|]*) \|",
                          text, re.MULTILINE)
        assert rows, "metric table not found in docs/paging.md"
        return rows

    def test_every_paging_family_has_a_row(self, table_rows):
        paging_families = {name for name in CATALOG
                           if name.startswith("repro_paging_")}
        assert paging_families == {name for name, _ in table_rows}

    def test_documented_labels_match_catalog(self, table_rows):
        for name, label_cell in table_rows:
            spec = CATALOG[name]
            documented = tuple(re.findall(r"`([^`]+)`", label_cell))
            assert documented == spec.labels, (
                f"{name}: docs/paging.md lists labels {documented}, "
                f"catalog declares {spec.labels}")


class TestMonitoringDocMetricTable:
    """docs/monitoring.md carries the telemetry-pipeline families' rows;
    they must match the catalog exactly, like observability.md's."""

    @pytest.fixture(scope="class")
    def table_rows(self) -> list:
        text = (REPO_ROOT / "docs" / "monitoring.md").read_text()
        rows = re.findall(r"^\| `(repro_[a-z0-9_]+)` \|[^|]+\| ([^|]*) \|",
                          text, re.MULTILINE)
        assert rows, "metric table not found in docs/monitoring.md"
        return rows

    def test_every_pipeline_family_has_a_row(self, table_rows):
        pipeline_families = {
            name for name in CATALOG
            if name.startswith(("repro_tsdb_", "repro_alert_"))
        } | {"repro_span_retention_total"}
        assert pipeline_families == {name for name, _ in table_rows}

    def test_documented_labels_match_catalog(self, table_rows):
        for name, label_cell in table_rows:
            spec = CATALOG[name]
            documented = tuple(re.findall(r"`([^`]+)`", label_cell))
            assert documented == spec.labels, (
                f"{name}: docs/monitoring.md lists labels {documented}, "
                f"catalog declares {spec.labels}")


class TestPerformanceDocMetricTable:
    """docs/performance.md carries the plan-cache families' rows;
    they must match the catalog exactly, like observability.md's."""

    @pytest.fixture(scope="class")
    def table_rows(self) -> list:
        text = (REPO_ROOT / "docs" / "performance.md").read_text()
        rows = re.findall(r"^\| `(repro_[a-z0-9_]+)` \|[^|]+\| ([^|]*) \|",
                          text, re.MULTILINE)
        assert rows, "metric table not found in docs/performance.md"
        return rows

    def test_every_plan_cache_family_has_a_row(self, table_rows):
        plan_families = {name for name in CATALOG
                         if name.startswith("repro_plan_cache_")}
        assert plan_families == {name for name, _ in table_rows}

    def test_documented_labels_match_catalog(self, table_rows):
        for name, label_cell in table_rows:
            spec = CATALOG[name]
            documented = tuple(re.findall(r"`([^`]+)`", label_cell))
            assert documented == spec.labels, (
                f"{name}: docs/performance.md lists labels {documented}, "
                f"catalog declares {spec.labels}")


class TestArchitectureCostModelTable:
    """docs/architecture.md's "Cost model" table is the set of
    ``CostModel`` helpers the byte movers call, file by file."""

    BYTE_MOVERS = ("virt/frontend.py", "virt/backend.py", "hardware/rank.py",
                   "driver/driver.py", "virt/transport.py")

    @pytest.fixture(scope="class")
    def documented(self) -> set:
        text = (REPO_ROOT / "docs" / "architecture.md").read_text()
        rows = re.findall(r"^\| [^|]+ \| `(\w+)` \| [^|]+ \| ([^|]+) \|$",
                          text, re.MULTILINE)
        assert rows, "cost model table not found in docs/architecture.md"
        return {(helper, path) for helper, cell in rows
                for path in re.findall(r"\[`([^`]+)`\]", cell)}

    def test_every_row_names_a_helper(self, documented):
        from repro.hardware.timing import CostModel
        for helper, _ in documented:
            assert callable(getattr(CostModel, helper, None)), helper

    def test_rows_match_the_calls_in_the_byte_movers(self, documented):
        called = set()
        for path in self.BYTE_MOVERS:
            source = (REPO_ROOT / "src" / "repro" / path).read_text()
            called |= {(helper, path)
                       for helper in re.findall(r"cost\.(\w+)\(", source)}
        assert documented == called

    def test_byte_movers_read_no_cost_constant(self):
        """The issue's acceptance grep: durations come from helpers."""
        raw = re.compile(
            r"cost\.[a-z_]*_(per_page|fixed|cost|bandwidth|roundtrip)\b")
        for path in self.BYTE_MOVERS:
            source = (REPO_ROOT / "src" / "repro" / path).read_text()
            assert not raw.search(source), path


def test_architecture_invalidation_table_matches_frontend():
    from repro.virt.frontend import VUpmemFrontend
    text = (REPO_ROOT / "docs" / "architecture.md").read_text()
    rows = re.findall(
        r"^\| `(\w+)` \| (drop|keep) \| (drop|keep) \| (drop|keep) \|$",
        text, re.MULTILINE)
    documented = {event: tuple(cell == "drop" for cell in cells)
                  for event, *cells in rows}
    assert documented == VUpmemFrontend.INVALIDATION


def test_readme_mentions_metrics_cli():
    text = (REPO_ROOT / "README.md").read_text()
    assert "metrics" in text
    assert "docs/observability.md" in text
    assert "docs/architecture.md" in text
