"""Copy contribution semantics (C-CS / where-provenance) tests:
PARTIAL vs COMPLETE, masking through operators, comparison to INFLUENCE."""

from __future__ import annotations

import pytest

from repro import connect


@pytest.fixture
def db():
    session = connect()
    session.run(
        """
        CREATE TABLE r (a int, b text, c int);
        CREATE TABLE s (x int, y text);
        INSERT INTO r VALUES (1, 'p', 10), (2, 'q', 20);
        INSERT INTO s VALUES (1, 'one'), (2, 'two');
        """
    )
    return session


def rows(relation):
    return sorted(relation.rows, key=repr)


class TestCopyPartial:
    def test_only_copied_attributes_carry_values(self, db):
        result = db.run("SELECT PROVENANCE ON CONTRIBUTION (COPY PARTIAL) a FROM r")
        assert result.columns == ["a", "prov_r_a", "prov_r_b", "prov_r_c"]
        for row in result.rows:
            assert row[1] == row[0]  # a was copied
            assert row[2] is None and row[3] is None  # b, c were not

    def test_computed_columns_copy_nothing(self, db):
        result = db.run(
            "SELECT PROVENANCE ON CONTRIBUTION (COPY PARTIAL) a + 1 AS a1 FROM r"
        )
        for row in result.rows:
            assert row[1] is None and row[2] is None and row[3] is None

    def test_filter_columns_are_not_copies(self, db):
        result = db.run(
            "SELECT PROVENANCE ON CONTRIBUTION (COPY PARTIAL) b FROM r WHERE a = 1"
        )
        assert result.rows == [("p", None, "p", None)]

    def test_join_copies_from_both_sides(self, db):
        result = db.run(
            "SELECT PROVENANCE ON CONTRIBUTION (COPY PARTIAL) b, y "
            "FROM r JOIN s ON r.a = s.x"
        )
        for row in result.rows:
            b, y, pa, pb, pc, px, py = row
            assert pb == b and py == y
            assert pa is None and pc is None and px is None

    def test_union_copies_per_branch(self, db):
        result = db.run(
            "SELECT PROVENANCE ON CONTRIBUTION (COPY PARTIAL) a FROM r "
            "UNION SELECT x FROM s"
        )
        for row in result.rows:
            value, pra, prb, prc, psx, psy = row
            assert (pra == value and psx is None) or (psx == value and pra is None)
            assert prb is None and prc is None and psy is None

    def test_group_key_is_a_copy_aggregate_is_not(self, db):
        db.run("INSERT INTO r VALUES (1, 'z', 30)")
        result = db.run(
            "SELECT PROVENANCE ON CONTRIBUTION (COPY PARTIAL) a, sum(c) AS total "
            "FROM r GROUP BY a"
        )
        for row in result.rows:
            a, total, pa, pb, pc = row
            assert pa == a  # group key copied
            assert pb is None and pc is None  # sum argument is not a copy


class TestCopyComplete:
    def test_whole_tuple_kept_when_any_attribute_copied(self, db):
        result = db.run("SELECT PROVENANCE ON CONTRIBUTION (COPY COMPLETE) a FROM r")
        assert rows(result) == [
            (1, 1, "p", 10),
            (2, 2, "q", 20),
        ]

    def test_no_copy_no_tuple(self, db):
        result = db.run(
            "SELECT PROVENANCE ON CONTRIBUTION (COPY COMPLETE) a + 1 AS a1 FROM r"
        )
        for row in result.rows:
            assert row[1] is None and row[2] is None and row[3] is None

    def test_complete_join_keeps_only_copied_side(self, db):
        result = db.run(
            "SELECT PROVENANCE ON CONTRIBUTION (COPY COMPLETE) b FROM r JOIN s ON r.a = s.x"
        )
        for row in result.rows:
            b, pa, pb, pc, px, py = row
            assert (pa, pb, pc) != (None, None, None)  # r side copied via b
            assert px is None and py is None  # s side never copied


class TestCopyVsInfluence:
    def test_same_schema_different_masking(self, db):
        influence = db.run("SELECT PROVENANCE a FROM r")
        copy = db.run("SELECT PROVENANCE ON CONTRIBUTION (COPY PARTIAL) a FROM r")
        assert influence.columns == copy.columns
        # Influence keeps full witnesses; copy masks non-copied attrs.
        assert all(row[2] is not None for row in influence.rows)
        assert all(row[2] is None for row in copy.rows)
        # COPY COMPLETE keeps whole copied-from tuples: between the two.
        complete = db.run("SELECT PROVENANCE ON CONTRIBUTION (COPY COMPLETE) a FROM r")

        def filled(result):
            return sum(v is not None for row in result.rows for v in row[1:])

        assert filled(influence) >= filled(complete) > filled(copy)

    def test_original_rows_identical(self, db):
        sqls = [
            "SELECT {} b, a FROM r WHERE c >= 10",
            "SELECT {} a, count(*) FROM r GROUP BY a",
            "SELECT {} a FROM r UNION SELECT x FROM s",
        ]
        for template in sqls:
            plain = db.run(template.format(""))
            for clause in (
                "PROVENANCE",
                "PROVENANCE ON CONTRIBUTION (COPY PARTIAL)",
                "PROVENANCE ON CONTRIBUTION (COPY COMPLETE)",
            ):
                prov = db.run(template.format(clause))
                width = len(plain.columns)
                assert {tuple(row[:width]) for row in prov.rows} == set(plain.rows)

    def test_copy_through_intersect_and_except(self, db):
        result = db.run(
            "SELECT PROVENANCE ON CONTRIBUTION (COPY PARTIAL) a FROM r "
            "INTERSECT SELECT x FROM s"
        )
        assert len(result) == 2
        result = db.run(
            "SELECT PROVENANCE ON CONTRIBUTION (COPY PARTIAL) a FROM r "
            "EXCEPT SELECT x FROM s WHERE x = 2"
        )
        # Survivor is 1; under copy semantics the except right side
        # contributes nothing.
        assert all(row[4] is None and row[5] is None for row in result.rows)

    def test_baserelation_under_copy(self, db):
        db.run("CREATE VIEW v AS SELECT a, b FROM r")
        result = db.run(
            "SELECT PROVENANCE ON CONTRIBUTION (COPY PARTIAL) a FROM v BASERELATION"
        )
        assert result.columns == ["a", "prov_v_a", "prov_v_b"]
        for row in result.rows:
            assert row[1] == row[0] and row[2] is None
