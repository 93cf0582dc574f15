"""Byte-exact reproduction of the paper's worked examples.

* Figure 1: the example database and results of q1/q3.
* Figure 2: the full provenance relation of q1 (schema and all four
  tuples with their NULL padding).
* §2.1: the provenance schema of q1 as printed in the paper.
* §2.4: all three SQL-PLE listings.
"""

from __future__ import annotations

from repro.workloads.forum import (
    FORUM_QUERIES,
    Q1,
    Q3,
    SQLPLE_AGGREGATION,
    SQLPLE_BASERELATION,
    SQLPLE_QUERYING_PROVENANCE,
)


def sorted_rows(relation):
    return sorted(relation.rows, key=repr)


class TestFigure1:
    def test_tables_match_paper(self, forum_db):
        assert sorted_rows(forum_db.run("SELECT * FROM messages")) == [
            (1, "lorem ipsum ...", 3),
            (4, "hi there ...", 2),
        ]
        assert sorted_rows(forum_db.run("SELECT * FROM users")) == [
            (1, "Bert"),
            (2, "Gert"),
            (3, "Gertrud"),
        ]
        assert sorted_rows(forum_db.run("SELECT * FROM imports")) == [
            (2, "hello ...", "superForum"),
            (3, "I don't ...", "HiBoard"),
        ]
        assert sorted_rows(forum_db.run("SELECT * FROM approved")) == [
            (1, 4),
            (2, 2),
            (2, 4),
            (3, 4),
        ]

    def test_q1_returns_all_messages(self, forum_db):
        result = forum_db.run(Q1)
        assert result.columns == ["mId", "text"]
        assert sorted_rows(result) == [
            (1, "lorem ipsum ..."),
            (2, "hello ..."),
            (3, "I don't ..."),
            (4, "hi there ..."),
        ]

    def test_q2_view_equals_q1(self, forum_db):
        assert sorted_rows(forum_db.run("SELECT * FROM v1")) == sorted_rows(
            forum_db.run(Q1)
        )

    def test_q3_counts_approvals_and_omits_unapproved(self, forum_db):
        result = forum_db.run(Q3)
        assert result.columns == ["count", "text"]
        # mId 1 has no approval and is omitted; mId 2 has one; mId 4 three.
        assert sorted_rows(result) == [(1, "hello ..."), (3, "hi there ...")]
        # The demo audience's NOT IN finds the two unapproved messages.
        unapproved = forum_db.run(
            "SELECT PROVENANCE mId, text FROM v1 "
            "WHERE mId NOT IN (SELECT mId FROM approved)"
        )
        assert sorted(row[0] for row in unapproved.rows) == [1, 3]


class TestFigure2:
    """The provenance of q1, tuple for tuple."""

    PROV_Q1 = (
        "SELECT PROVENANCE mId, text FROM messages "
        "UNION SELECT mId, text FROM imports"
    )

    def test_schema_shape(self, forum_db):
        result = forum_db.run(self.PROV_Q1)
        assert result.columns == [
            "mId",
            "text",
            "prov_messages_mid",
            "prov_messages_text",
            "prov_messages_uid",
            "prov_imports_mid",
            "prov_imports_text",
            "prov_imports_origin",
        ]
        assert result.provenance_attrs == (
            "prov_messages_mid",
            "prov_messages_text",
            "prov_messages_uid",
            "prov_imports_mid",
            "prov_imports_text",
            "prov_imports_origin",
        )
        assert result.original_attrs == ["mId", "text"]

    def test_exact_tuples(self, forum_db):
        """The four tuples of Figure 2, with NULL padding per branch."""
        result = forum_db.run(self.PROV_Q1)
        assert sorted_rows(result) == [
            (1, "lorem ipsum ...", 1, "lorem ipsum ...", 3, None, None, None),
            (2, "hello ...", None, None, None, 2, "hello ...", "superForum"),
            (3, "I don't ...", None, None, None, 3, "I don't ...", "HiBoard"),
            (4, "hi there ...", 4, "hi there ...", 2, None, None, None),
        ]

    def test_same_under_joinback_strategy(self, forum_db):
        forum_db.options.union_strategy = "joinback"
        result = forum_db.run(self.PROV_Q1)
        assert sorted_rows(result) == [
            (1, "lorem ipsum ...", 1, "lorem ipsum ...", 3, None, None, None),
            (2, "hello ...", None, None, None, 2, "hello ...", "superForum"),
            (3, "I don't ...", None, None, None, 3, "I don't ...", "HiBoard"),
            (4, "hi there ...", 4, "hi there ...", 2, None, None, None),
        ]

    def test_same_under_cost_based_strategy(self, forum_db):
        forum_db.options.union_strategy = "cost"
        result = forum_db.run(self.PROV_Q1)
        assert len(result) == 4


class TestSection21ProvenanceSchema:
    """§2.1 prints the provenance schema of (the aggregation over) q1."""

    def test_aggregation_provenance_schema(self, forum_db):
        result = forum_db.run(SQLPLE_AGGREGATION)
        # The paper lists: (count, text, prov_messages_mId,
        # prov_messages_text, prov_messages_uId, prov_imports_mId,
        # prov_imports_text, prov_imports_origin) — our q3 variant also
        # accesses `approved`, whose attributes follow.
        assert result.columns[:8] == [
            "count",
            "text",
            "prov_messages_mid",
            "prov_messages_text",
            "prov_messages_uid",
            "prov_imports_mid",
            "prov_imports_text",
            "prov_imports_origin",
        ]
        assert result.columns[8:] == ["prov_approved_uid", "prov_approved_mid"]


class TestSection24Listings:
    def test_listing1_aggregation_provenance(self, forum_db):
        result = forum_db.run(SQLPLE_AGGREGATION)
        # "hi there" has three approvals -> three provenance tuples; each
        # carries the message witness and one approval witness.
        hi_there = [r for r in result.rows if r[1] == "hi there ..."]
        assert len(hi_there) == 3
        assert all(r[0] == 3 for r in hi_there)  # count(*) = 3
        assert all(r[2] == 4 and r[4] == 2 for r in hi_there)  # messages witness
        assert sorted(r[8] for r in hi_there) == [1, 2, 3]  # approving users
        # "hello" was imported: provenance from imports, not messages.
        hello = [r for r in result.rows if r[1] == "hello ..."]
        assert len(hello) == 1
        assert hello[0][2] is None and hello[0][5] == 2 and hello[0][7] == "superForum"

    def test_listing2_querying_provenance(self, forum_db):
        result = forum_db.run(SQLPLE_QUERYING_PROVENANCE)
        assert result.columns == ["text", "prov_imports_origin"]
        assert result.rows == [("hello ...", "superForum")]

    def test_listing3_baserelation(self, forum_db):
        result = forum_db.run(SQLPLE_BASERELATION)
        # v1 is treated like a base relation: its own tuples are the
        # provenance, renamed and attached — not the base tuples of
        # messages/imports.
        assert result.columns == ["text", "prov_v1_mid", "prov_v1_text"]
        assert sorted_rows(result) == [
            ("I don't ...", 3, "I don't ..."),
            ("hello ...", 2, "hello ..."),
            ("hi there ...", 4, "hi there ..."),
            ("lorem ipsum ...", 1, "lorem ipsum ..."),
        ]
        # Unfolding v1 instead carries its base relations' witnesses.
        full = forum_db.run("SELECT PROVENANCE text FROM v1")
        assert len(full.provenance_attrs) == 6

    def test_listing3_baserelation_rows(self, forum_db):
        result = forum_db.run(SQLPLE_BASERELATION)
        # Every result tuple's provenance is exactly itself (the view
        # tuple), keyed by mId.
        by_text = {r[0]: r for r in result.rows}
        assert by_text["hello ..."][1] == 2
        assert by_text["lorem ipsum ..."][1] == 1
        assert all(r[0] == r[2] for r in result.rows)

    def test_all_paper_queries_parse_and_run(self, forum_db):
        for name, sql in FORUM_QUERIES.items():
            if name == "q2":
                continue  # the view already exists in the fixture
            forum_db.run(sql)
