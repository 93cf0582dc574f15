"""External provenance and eager (materialized) provenance tests —
the paper's §2.4 incremental provenance computation."""

from __future__ import annotations

import pytest

from repro import (
    connect,
    CatalogError,
    attach_external_provenance,
    detach_external_provenance,
)


@pytest.fixture
def db():
    session = connect()
    session.run(
        """
        CREATE TABLE r (a int, b text);
        INSERT INTO r VALUES (1, 'x'), (2, 'y');
        """
    )
    return session


class TestExternalProvenance:
    def test_explicit_provenance_attrs_in_query(self, db):
        db.run(
            "CREATE TABLE annotated (v int, src text);"
            "INSERT INTO annotated VALUES (10, 'sensorA'), (20, 'sensorB')"
        )
        result = db.run(
            "SELECT PROVENANCE v FROM annotated PROVENANCE (src) WHERE v > 10"
        )
        # `src` is the provenance; it is not duplicated, just propagated.
        assert result.columns == ["v", "src"]
        assert result.provenance_attrs == ("src",)
        assert result.rows == [(20, "sensorB")]

    def test_external_attrs_flow_through_operators(self, db):
        db.run(
            "CREATE TABLE annotated (v int, src text);"
            "INSERT INTO annotated VALUES (10, 'sensorA'), (10, 'sensorB'), (20, 'sensorC')"
        )
        result = db.run(
            "SELECT PROVENANCE v, count(*) AS n FROM annotated PROVENANCE (src) GROUP BY v"
        )
        ten = sorted(row for row in result.rows if row[0] == 10)
        assert [row[2] for row in ten] == ["sensorA", "sensorB"]

    def test_registration_api(self, db):
        db.run(
            "CREATE TABLE imported (v int, who text);"
            "INSERT INTO imported VALUES (1, 'alice')"
        )
        attach_external_provenance(db, "imported", ["who"])
        assert db.catalog.provenance_attrs("imported") == ("who",)
        result = db.run("SELECT PROVENANCE v FROM imported")
        assert result.columns == ["v", "who"]
        assert result.provenance_attrs == ("who",)
        detach_external_provenance(db, "imported")
        result = db.run("SELECT PROVENANCE v FROM imported")
        assert result.columns == ["v", "prov_imported_v", "prov_imported_who"]

    def test_registration_validates_attribute(self, db):
        with pytest.raises(CatalogError, match="no attribute"):
            attach_external_provenance(db, "r", ["nope"])
        with pytest.raises(CatalogError, match="does not exist"):
            attach_external_provenance(db, "missing", ["a"])

    def test_unknown_provenance_attr_in_query(self, db):
        from repro import AnalyzeError, connect

        with pytest.raises(AnalyzeError, match="provenance attribute"):
            db.run("SELECT PROVENANCE a FROM r PROVENANCE (nope)")


class TestEagerProvenance:
    def test_create_table_as_registers_provenance(self, db):
        db.run("CREATE TABLE stored AS SELECT PROVENANCE a, b FROM r WHERE a = 1")
        assert db.catalog.provenance_attrs("stored") == ("prov_r_a", "prov_r_b")
        # Reuse: querying the stored provenance does not re-rewrite r.
        result = db.run("SELECT PROVENANCE a FROM stored")
        assert result.columns == ["a", "prov_r_a", "prov_r_b"]
        assert result.rows == [(1, 1, "x")]

    def test_stored_provenance_columns_are_plain_data(self, db):
        db.run("CREATE TABLE p AS SELECT PROVENANCE b FROM r")
        assert db.catalog.provenance_attrs("p") == ("prov_r_a", "prov_r_b")
        result = db.run("SELECT b, prov_r_a FROM p ORDER BY prov_r_a")
        assert result.rows == [("x", 1), ("y", 2)]

    def test_provenance_view_registration(self, db):
        db.run("CREATE VIEW pv AS SELECT PROVENANCE a FROM r")
        assert db.catalog.provenance_attrs("pv") == ("prov_r_a", "prov_r_b")
        # Plain query over the view sees provenance columns as data.
        plain = db.run("SELECT * FROM pv")
        assert plain.columns == ["a", "prov_r_a", "prov_r_b"]
        # Provenance query over the view resumes from the stored columns.
        prov = db.run("SELECT PROVENANCE a FROM pv WHERE a = 2")
        assert prov.rows == [(2, 2, "y")]
        assert prov.provenance_attrs == ("prov_r_a", "prov_r_b")

    def test_eager_equals_lazy(self, db):
        lazy = db.run("SELECT PROVENANCE b, a FROM r")
        db.run("CREATE TABLE eager_p AS SELECT PROVENANCE b, a FROM r")
        eager = db.run("SELECT * FROM eager_p")
        assert sorted(lazy.rows) == sorted(eager.rows)

    def test_incremental_over_eager(self, db):
        """Provenance of a query over stored provenance: the stored
        witness columns flow through the new query's rewrite."""
        db.run("CREATE TABLE stage1 AS SELECT PROVENANCE a, b FROM r")
        result = db.run(
            "SELECT PROVENANCE upper(b) AS ub FROM stage1 WHERE a >= 1"
        )
        assert result.columns == ["ub", "prov_r_a", "prov_r_b"]
        assert sorted(result.rows) == [("X", 1, "x"), ("Y", 2, "y")]

    def test_create_table_from_relation_api(self, db):
        result = db.run("SELECT PROVENANCE a FROM r")
        db.create_table_from_relation("copy_p", result)
        assert db.catalog.provenance_attrs("copy_p") == result.provenance_attrs
