"""Storage tests: heap table mutation, coercion, Relation helpers."""

from __future__ import annotations

import pytest

from repro.catalog.schema import schema_of
from repro.datatypes import SQLType as T
from repro.errors import CatalogError, ProgrammingError
from repro.storage.table import HeapTable, Relation


def where(predicate):
    """A matcher (rows -> ascending positions) from a row predicate."""
    return lambda rows: [i for i, row in enumerate(rows) if predicate(row)]


@pytest.fixture
def table(autocommit):
    t = HeapTable("t", schema_of(("a", T.INT), ("b", T.TEXT)))
    autocommit(t.insert_many, [(1, "x"), (2, "y"), (3, None)])
    return t


class TestHeapTable:
    def test_insert_and_len(self, table, autocommit):
        assert len(table) == 3
        autocommit(table.insert, (4, "z"))
        assert len(table) == 4

    def test_arity_checked(self, table, autocommit):
        with pytest.raises(CatalogError, match="3 values"):
            autocommit(table.insert, (1, "x", 9))

    def test_coercion_int_to_float_column(self, autocommit):
        t = HeapTable("f", schema_of(("x", T.FLOAT),))
        autocommit(t.insert, (1,))
        assert t.rows[0][0] == 1.0 and isinstance(t.rows[0][0], float)

    def test_coercion_text_to_int(self, autocommit):
        t = HeapTable("i", schema_of(("x", T.INT),))
        autocommit(t.insert, ("42",))
        assert t.rows[0][0] == 42

    def test_nulls_allowed_anywhere(self, table, autocommit):
        autocommit(table.insert, (None, None))
        assert table.rows[-1] == (None, None)

    def test_delete_where(self, table, autocommit):
        removed = autocommit(table.delete_where, where(lambda row: row[0] >= 2))
        assert removed == 2
        assert [r[0] for r in table.rows] == [1]

    def test_update_where(self, table, autocommit):
        changed = autocommit(
            table.update_where,
            where(lambda row: row[1] == "x"),
            lambda row: (row[0] + 10, row[1]),
        )
        assert changed == 1
        assert table.rows[0] == (11, "x")

    def test_version_bumps_only_on_change(self, table, autocommit):
        version = table.version
        autocommit(table.delete_where, where(lambda row: False))
        assert table.version == version
        autocommit(table.delete_where, where(lambda row: row[0] == 1))
        assert table.version > version

    @pytest.mark.parametrize(
        "write",
        [
            lambda t: t.insert((4, "z")),
            lambda t: t.insert_many([]),
            lambda t: t.delete_where(where(lambda row: True)),
            lambda t: t.update_where(where(lambda row: True), lambda row: (0, "w")),
        ],
        ids=["insert", "insert_many", "delete_where", "update_where"],
    )
    def test_write_outside_a_transaction_is_refused(self, table, write):
        state = table._state
        with pytest.raises(ProgrammingError, match="outside a transaction"):
            write(table)
        assert table._state is state


class TestRelation:
    def test_provenance_split(self):
        relation = Relation(
            schema_of(("a", T.INT), ("prov_t_a", T.INT)),
            [(1, 1)],
            provenance_attrs=("prov_t_a",),
        )
        assert relation.original_attrs == ["a"]
        assert relation.provenance_attrs == ("prov_t_a",)

    def test_column_access(self):
        relation = Relation(schema_of(("a", T.INT), ("b", T.TEXT)), [(1, "x"), (2, "y")])
        assert relation.column("b") == ["x", "y"]

    def test_as_dicts(self):
        relation = Relation(schema_of(("a", T.INT),), [(1,)])
        assert relation.as_dicts() == [{"a": 1}]

    def test_sorted_is_deterministic(self):
        relation = Relation(schema_of(("a", T.INT),), [(3,), (None,), (1,)])
        assert relation.sorted().rows == [(1,), (3,), (None,)]

    def test_format_contains_header_and_count(self):
        relation = Relation(schema_of(("a", T.INT),), [(1,), (2,)])
        text = relation.format()
        assert "a" in text and "(2 rows)" in text

    def test_format_truncation(self):
        relation = Relation(schema_of(("a", T.INT),), [(i,) for i in range(10)])
        text = relation.format(max_rows=3)
        assert "7 more rows" in text

    def test_equality(self):
        schema = schema_of(("a", T.INT),)
        assert Relation(schema, [(1,)]) == Relation(schema, [(1,)])
        assert Relation(schema, [(1,)]) != Relation(schema, [(2,)])
