"""Catalog, schema and statistics tests."""

from __future__ import annotations

import pytest

from repro.catalog import Catalog
from repro.catalog.schema import Attribute, Schema, schema_of
from repro.catalog.stats import compute_table_stats
from repro.datatypes import SQLType as T
from repro.errors import CatalogError
from repro.sql import parse_statement, ast


def _query(sql):
    return parse_statement(sql).query


class TestSchema:
    def test_lookup_case_insensitive(self):
        schema = schema_of(("mId", T.INT), ("text", T.TEXT))
        assert schema.index_of("MID") == 0
        assert schema.attribute("Text").type is T.TEXT

    def test_duplicate_names_rejected(self):
        with pytest.raises(CatalogError, match="duplicate attribute"):
            Schema([Attribute("a", T.INT), Attribute("A", T.TEXT)])

    def test_unknown_attribute(self):
        schema = schema_of(("a", T.INT))
        with pytest.raises(CatalogError, match="no attribute 'b'"):
            schema.index_of("b")

    def test_concat_project_rename(self):
        left = schema_of(("a", T.INT))
        right = schema_of(("b", T.TEXT))
        combined = left.concat(right)
        assert combined.names == ["a", "b"]
        assert combined.project(["b"]).names == ["b"]
        assert combined.renamed(["x", "y"]).names == ["x", "y"]
        with pytest.raises(CatalogError):
            combined.renamed(["only_one"])


class TestCatalog:
    def test_create_and_drop_table(self):
        catalog = Catalog()
        catalog.create_table("t", schema_of(("a", T.INT)))
        assert catalog.has_table("T")  # case-insensitive
        catalog.drop_table("t")
        assert not catalog.has_table("t")

    def test_duplicate_relation_rejected(self):
        catalog = Catalog()
        catalog.create_table("t", schema_of(("a", T.INT)))
        with pytest.raises(CatalogError, match="already exists"):
            catalog.create_table("T", schema_of(("a", T.INT)))
        with pytest.raises(CatalogError, match="already exists"):
            catalog.create_view("t", _query("SELECT 1"), "SELECT 1")

    def test_if_not_exists(self):
        catalog = Catalog()
        first = catalog.create_table("t", schema_of(("a", T.INT)))
        second = catalog.create_table("t", schema_of(("a", T.INT)), if_not_exists=True)
        assert first is second

    def test_drop_missing(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.drop_table("nope")
        assert catalog.drop_table("nope", if_exists=True) is False

    def test_views(self):
        catalog = Catalog()
        catalog.create_view("v", _query("SELECT 1"), "SELECT 1")
        assert catalog.has_view("v") and catalog.has_relation("V")
        with pytest.raises(CatalogError, match="already exists"):
            catalog.create_view("v", _query("SELECT 2"), "SELECT 2")
        catalog.create_view("v", _query("SELECT 2"), "SELECT 2", or_replace=True)
        assert catalog.view("v").sql == "SELECT 2"
        catalog.drop_view("v")
        assert not catalog.has_view("v")

    def test_provenance_registration(self):
        catalog = Catalog()
        catalog.create_table("p", schema_of(("a", T.INT), ("prov_r_a", T.INT)))
        catalog.register_provenance_attrs("p", ("prov_r_a",))
        assert catalog.provenance_attrs("p") == ("prov_r_a",)
        with pytest.raises(CatalogError):
            catalog.register_provenance_attrs("missing", ("x",))

    def test_relation_names_sorted(self):
        catalog = Catalog()
        catalog.create_table("zeta", schema_of(("a", T.INT)))
        catalog.create_view("alpha", _query("SELECT 1"), "SELECT 1")
        assert catalog.relation_names() == ["alpha", "zeta"]


class TestStats:
    def test_stats_computation(self, autocommit):
        catalog = Catalog()
        entry = catalog.create_table("t", schema_of(("a", T.INT), ("b", T.TEXT)))
        autocommit(entry.table.insert_many, [(1, "x"), (1, None), (2, "x"), (3, "y")])
        stats = entry.stats()
        assert stats.row_count == 4
        assert stats.column("a").n_distinct == 3
        assert stats.column("b").n_distinct == 2
        assert stats.column("b").null_fraction == 0.25

    def test_stats_cache_invalidated_on_mutation(self, autocommit):
        catalog = Catalog()
        entry = catalog.create_table("t", schema_of(("a", T.INT)))
        autocommit(entry.table.insert, (1,))
        assert entry.stats().row_count == 1
        autocommit(entry.table.insert, (2,))
        assert entry.stats().row_count == 2

    def test_selectivity(self, autocommit):
        catalog = Catalog()
        entry = catalog.create_table("t", schema_of(("a", T.INT)))
        autocommit(entry.table.insert_many, [(i % 5,) for i in range(100)])
        column = entry.stats().column("a")
        assert column.selectivity_eq == pytest.approx(0.2)

    def test_empty_table_stats(self):
        catalog = Catalog()
        entry = catalog.create_table("t", schema_of(("a", T.INT)))
        stats = compute_table_stats(entry.table)
        assert stats.row_count == 0
        assert stats.column("a").null_fraction == 0.0
