"""Materialized-view engine semantics: creation, maintenance, refresh,
staleness, refusals and stats, on an in-memory database."""

from __future__ import annotations

import pytest

import repro
from repro.errors import (
    CatalogError,
    OperationalError,
    ProgrammingError,
)


@pytest.fixture
def db():
    connection = repro.connect()
    connection.run("CREATE TABLE item (id int, cat text, qty int)")
    connection.run("CREATE TABLE tag (item int, label text)")
    connection.load_rows(
        "item", [(1, "a", 3), (2, "b", 1), (3, "a", 5), (4, None, 2)]
    )
    connection.load_rows("tag", [(1, "x"), (3, "x"), (3, "y"), (5, "z")])
    yield connection
    connection.close()


# ---------------------------------------------------------------------------
# Creation and reads
# ---------------------------------------------------------------------------


def test_create_reports_row_count_and_serves_stored_rows(db):
    status = db.run(
        "CREATE MATERIALIZED VIEW big AS SELECT id, qty FROM item WHERE qty >= 2"
    )
    assert "3 rows" in status.rows[0][0]
    assert db.run("SELECT * FROM big").rows == [(1, 3), (3, 5), (4, 2)]
    # Fresh matviews are served from the heap: no unfold, no refresh.
    assert db.pipeline.counters.matview_auto_refreshes == 0


def test_delta_safe_matview_tracks_dml_incrementally(db):
    db.run(
        "CREATE MATERIALIZED VIEW joined AS SELECT i.id, t.label "
        "FROM item i JOIN tag t ON t.item = i.id WHERE i.qty > 1"
    )
    before = db.database.matview_maintainer.incremental_commits
    db.run("INSERT INTO item VALUES (5, 'c', 9)")
    db.run("INSERT INTO tag VALUES (5, 'w')")
    db.run("DELETE FROM tag WHERE label = 'y'")
    db.run("UPDATE item SET qty = 0 WHERE id = 1")
    expected = db.run(
        "SELECT i.id, t.label FROM item i JOIN tag t ON t.item = i.id "
        "WHERE i.qty > 1"
    ).rows
    assert db.run("SELECT * FROM joined").rows == expected
    assert db.database.matview_maintainer.incremental_commits > before
    # Incremental maintenance means the reads above never recomputed.
    assert db.pipeline.counters.matview_refreshes == 0
    stats = db.database.matview_stats()
    assert stats["views"]["joined"]["stale"] is False
    assert stats["views"]["joined"]["delta_safe"] is True


def test_aggregate_matview_goes_stale_and_auto_refreshes(db):
    db.run(
        "CREATE MATERIALIZED VIEW totals AS "
        "SELECT cat, sum(qty) AS total FROM item GROUP BY cat"
    )
    db.run("INSERT INTO item VALUES (9, 'a', 10)")
    assert db.database.matview_stats()["views"]["totals"]["stale"] is True
    expected = db.run("SELECT cat, sum(qty) AS total FROM item GROUP BY cat").rows
    assert db.run("SELECT * FROM totals").rows == expected
    assert db.pipeline.counters.matview_auto_refreshes >= 1
    assert db.database.matview_stats()["views"]["totals"]["stale"] is False


def test_provenance_matview_matches_live_rewrite(db):
    db.run(
        "CREATE MATERIALIZED VIEW pv WITH PROVENANCE AS "
        "SELECT id, qty FROM item WHERE qty >= 2"
    )
    through = db.run("SELECT * FROM pv")
    direct = db.run("SELECT PROVENANCE id, qty FROM item WHERE qty >= 2")
    assert through.rows == direct.rows
    assert list(through.columns) == list(direct.columns)
    db.run("INSERT INTO item VALUES (6, 'd', 7)")
    assert (
        db.run("SELECT * FROM pv").rows
        == db.run("SELECT PROVENANCE id, qty FROM item WHERE qty >= 2").rows
    )


def test_reads_inside_transaction_see_own_writes_through_matview(db):
    db.run("CREATE MATERIALIZED VIEW big AS SELECT id, qty FROM item WHERE qty >= 2")
    db.run("BEGIN")
    db.run("INSERT INTO item VALUES (7, 'e', 8)")
    assert (7, 8) in db.run("SELECT * FROM big").rows
    db.run("ROLLBACK")
    assert (7, 8) not in db.run("SELECT * FROM big").rows


def test_refresh_recomputes_and_reports_count(db):
    db.run("CREATE MATERIALIZED VIEW big AS SELECT id, qty FROM item WHERE qty >= 2")
    status = db.run("REFRESH MATERIALIZED VIEW big")
    assert "3 rows" in status.rows[0][0]
    assert db.pipeline.counters.matview_refreshes == 1


def test_matview_over_view_unfolds_transitively(db):
    db.run("CREATE VIEW busy AS SELECT id, qty FROM item WHERE qty > 1")
    db.run("CREATE MATERIALIZED VIEW mv AS SELECT id FROM busy WHERE qty < 5")
    assert db.run("SELECT * FROM mv").rows == [(1,), (4,)]
    db.run("INSERT INTO item VALUES (8, 'f', 2)")
    assert db.run("SELECT * FROM mv").rows == [(1,), (4,), (8,)]


# ---------------------------------------------------------------------------
# Refusals
# ---------------------------------------------------------------------------


def test_matview_ddl_is_refused_inside_transactions(db):
    """Satellite regression: CREATE/DROP/REFRESH MATERIALIZED VIEW use
    the same non-transactional-DDL refusal as every other DDL."""
    db.run("CREATE MATERIALIZED VIEW big AS SELECT id FROM item WHERE qty >= 2")
    db.run("BEGIN")
    for sql in (
        "CREATE MATERIALIZED VIEW other AS SELECT id FROM item",
        "REFRESH MATERIALIZED VIEW big",
        "DROP MATERIALIZED VIEW big",
    ):
        with pytest.raises(
            OperationalError,
            match="DDL is not transactional; commit or rollback first",
        ):
            db.run(sql)
    db.run("ROLLBACK")
    # Outside the transaction the same statements are fine.
    db.run("REFRESH MATERIALIZED VIEW big")
    db.run("DROP MATERIALIZED VIEW big")


def test_dml_against_matview_is_refused(db):
    db.run("CREATE MATERIALIZED VIEW big AS SELECT id, qty FROM item WHERE qty >= 2")
    for sql, verb in (
        ("INSERT INTO big VALUES (9, 9)", "INSERT into"),
        ("DELETE FROM big WHERE id = 1", "DELETE from"),
        ("UPDATE big SET qty = 0", "UPDATE"),
    ):
        with pytest.raises(ProgrammingError, match="maintained from the base"):
            db.run(sql)


def test_drop_kind_mismatches_are_refused(db):
    db.run("CREATE MATERIALIZED VIEW big AS SELECT id FROM item")
    db.run("CREATE VIEW little AS SELECT id FROM item")
    with pytest.raises(ProgrammingError, match="use DROP MATERIALIZED VIEW"):
        db.run("DROP TABLE big")
    with pytest.raises(ProgrammingError, match="use DROP MATERIALIZED VIEW"):
        db.run("DROP VIEW big")
    with pytest.raises(ProgrammingError, match="use DROP VIEW"):
        db.run("DROP MATERIALIZED VIEW little")


def test_dropping_base_table_with_dependents_is_refused(db):
    db.run("CREATE MATERIALIZED VIEW big AS SELECT id FROM item WHERE qty >= 2")
    with pytest.raises(OperationalError, match="big depend on it"):
        db.run("DROP TABLE item")
    db.run("DROP MATERIALIZED VIEW big")
    db.run("DROP TABLE item")


def test_create_refuses_duplicates_parameters_and_setop_provenance(db):
    db.run("CREATE MATERIALIZED VIEW big AS SELECT id FROM item")
    with pytest.raises(CatalogError, match="already exists"):
        db.run("CREATE MATERIALIZED VIEW big AS SELECT id FROM item")
    with pytest.raises(ProgrammingError, match="parameter placeholders"):
        db.run(
            "CREATE MATERIALIZED VIEW p AS SELECT id FROM item WHERE qty > ?",
            [2],
        )
    with pytest.raises(ProgrammingError, match="requires a SELECT"):
        db.run(
            "CREATE MATERIALIZED VIEW s WITH PROVENANCE AS "
            "SELECT id FROM item UNION ALL SELECT item FROM tag"
        )
    # Duplicate output names are uniquified by the analyzer exactly as
    # for plain query results, so the stored schema stays unambiguous.
    db.run("CREATE MATERIALIZED VIEW d AS SELECT id, id FROM item")
    assert list(db.run("SELECT * FROM d").columns) == ["id", "id_1"]


def test_refresh_refuses_schema_drift(db):
    db.run("CREATE VIEW busy AS SELECT id, qty FROM item WHERE qty > 1")
    db.run("CREATE MATERIALIZED VIEW mv AS SELECT * FROM busy")
    db.run("CREATE OR REPLACE VIEW busy AS SELECT id, cat, qty FROM item")
    with pytest.raises(OperationalError, match="drop and re-create"):
        db.run("REFRESH MATERIALIZED VIEW mv")


def test_a_failed_commit_step_leaves_the_view_behind_for_a_catch_up(db, monkeypatch):
    """A commit the hook cannot follow leaves the SPJ view behind — not
    stale, no catalog version bump — and so does the next commit, which
    finds the view already behind; the read after catches it up across
    both, and the commit after that is maintained again."""
    from repro.engine import matview

    unfolded = "SELECT id, qty FROM item WHERE qty >= 2"
    db.run(f"CREATE MATERIALIZED VIEW big AS {unfolded}")
    refold = matview._Rows.refold

    def failing_once(fold, gone, added):
        monkeypatch.setattr(matview._Rows, "refold", staticmethod(refold))
        return "injected"

    monkeypatch.setattr(matview._Rows, "refold", staticmethod(failing_once))
    version = db.catalog.version
    db.run("INSERT INTO item VALUES (9, 'c', 7)")
    db.run("DELETE FROM item WHERE id = 1")
    stats = db.database.matview_stats()
    assert stats["stale_reasons"] == {"injected": 1}
    assert stats["views"]["big"]["stale"] and not db.catalog.matview("big").stale
    assert db.catalog.version == version
    assert _read_matches(db, "big", unfolded) == [(3, 5), (4, 2), (9, 7)]
    stats = db.database.matview_stats()
    assert (stats["catch_ups"], stats["recomputes"], stats["incremental_commits"]) == (1, 0, 0)
    db.run("UPDATE item SET qty = 2 WHERE id = 2")
    assert _read_matches(db, "big", unfolded) == [(2, 2), (3, 5), (4, 2), (9, 7)]
    stats = db.database.matview_stats()
    assert (stats["catch_ups"], stats["incremental_commits"]) == (1, 1)


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------


def test_matview_stats_shape(db):
    db.run("CREATE MATERIALIZED VIEW big AS SELECT id, qty FROM item WHERE qty >= 2")
    db.run(
        "CREATE MATERIALIZED VIEW totals AS "
        "SELECT cat, sum(qty) AS t FROM item GROUP BY cat"
    )
    db.run("INSERT INTO item VALUES (10, 'g', 4)")
    stats = db.database.matview_stats()
    assert set(stats["views"]) == {"big", "totals"}
    big = stats["views"]["big"]
    assert big["rows"] == 4 and big["delta_safe"] and not big["stale"]
    totals = stats["views"]["totals"]
    # The aggregate is behind, not stale-marked: reads catch it up.
    assert totals["stale"] and not totals["delta_safe"]
    assert stats["incremental_commits"] >= 1
    assert stats["stale_marks"] == 0
    assert stats["rows_added"] >= 1
    assert (stats["catch_ups"], stats["recomputes"], stats["recompute_reasons"]) == (
        0,
        0,
        {},
    )
    # stale_marks counts commits maintenance could not follow — not the
    # fence a refresh (automatic or explicit) puts around its install;
    # catch_ups and recomputes count read-time refreshes only.
    db.run("SELECT * FROM totals")
    db.run("REFRESH MATERIALIZED VIEW big")
    assert db.pipeline.counters.matview_auto_refreshes == 1
    stats = db.database.matview_stats()
    assert (stats["stale_marks"], stats["catch_ups"], stats["recomputes"]) == (0, 1, 0)
    assert not stats["views"]["totals"]["stale"]
    db.run("INSERT INTO item VALUES (11, 'g', 1)")
    stats = db.database.matview_stats()
    assert stats["stale_marks"] == 0 and stats["views"]["totals"]["stale"]


# ---------------------------------------------------------------------------
# Read-time catch-up of aggregate views
# ---------------------------------------------------------------------------


def _read_matches(db, name: str, unfolded: str) -> list:
    rows = db.run(f"SELECT * FROM {name}").rows
    assert rows == db.run(unfolded).rows
    return rows


def test_catch_up_keeps_first_seen_group_order(db):
    unfolded = "SELECT cat, count(*) AS n, sum(qty) AS total FROM item GROUP BY cat"
    db.run(f"CREATE MATERIALIZED VIEW totals AS {unfolded}")
    assert _read_matches(db, "totals", unfolded) == [("a", 2, 8), ("b", 1, 1), (None, 1, 2)]
    # Deleting the 'a' group's first-seen row moves the group behind 'b'.
    db.run("DELETE FROM item WHERE id = 1")
    assert _read_matches(db, "totals", unfolded) == [("b", 1, 1), ("a", 1, 5), (None, 1, 2)]
    # An emptied group vanishes; re-filled, it comes back last.
    db.run("DELETE FROM item WHERE id = 2")
    assert _read_matches(db, "totals", unfolded) == [("a", 1, 5), (None, 1, 2)]
    db.run("INSERT INTO item VALUES (7, 'b', 4)")
    assert _read_matches(db, "totals", unfolded) == [("a", 1, 5), (None, 1, 2), ("b", 1, 4)]
    stats = db.database.matview_stats()
    assert (stats["catch_ups"], stats["recomputes"]) == (3, 0)


def test_catch_up_of_a_global_aggregate_over_an_emptied_table(db):
    unfolded = "SELECT count(*) AS n, sum(qty) AS total, avg(qty) AS mean FROM item"
    db.run(f"CREATE MATERIALIZED VIEW g AS {unfolded}")
    db.run("DELETE FROM item")
    assert _read_matches(db, "g", unfolded) == [(0, None, None)]
    db.run("INSERT INTO item VALUES (8, 'c', 3)")
    assert _read_matches(db, "g", unfolded) == [(1, 3, 3.0)]
    assert db.database.matview_stats()["catch_ups"] == 2


def test_catch_up_neither_replans_nor_bumps_the_catalog(db):
    db.run(
        "CREATE MATERIALIZED VIEW totals AS "
        "SELECT t.label, count(*) AS n FROM item i JOIN tag t ON t.item = i.id "
        "GROUP BY t.label"
    )
    db.run("SELECT * FROM totals")
    version, analyzed = db.catalog.version, db.pipeline.counters.analyze
    db.run("INSERT INTO tag VALUES (2, 'y')")
    assert db.run("SELECT * FROM totals").rows == [("x", 2), ("y", 2)]
    # The commit marked nothing and the catch-up installed without a
    # version bump: the read's plan (and its refresh check) hit the cache.
    assert db.catalog.version == version
    assert db.pipeline.counters.analyze == analyzed
    assert db.database.matview_stats()["catch_ups"] == 1


def test_behind_aggregate_unfolds_inside_a_transaction(db):
    db.run("CREATE MATERIALIZED VIEW totals AS SELECT cat, sum(qty) AS t FROM item GROUP BY cat")
    db.run("BEGIN")
    db.run("INSERT INTO item VALUES (9, 'a', 10)")
    assert ("a", 18) in db.run("SELECT * FROM totals").rows
    db.run("ROLLBACK")
    assert ("a", 8) in db.run("SELECT * FROM totals").rows
    assert db.database.matview_stats()["catch_ups"] == 0


@pytest.mark.parametrize(
    "definition, change, reason",
    [
        (
            "SELECT cat, sum(qty * 1.5) AS w FROM item GROUP BY cat",
            "INSERT INTO item VALUES (9, 'a', 1)",
            "float aggregate",
        ),
        (
            "SELECT cat, count(DISTINCT qty) AS d FROM item GROUP BY cat",
            "INSERT INTO item VALUES (9, 'a', 3)",
            "distinct aggregate",
        ),
        (
            "SELECT cat, min(qty) AS lo, max(qty) AS hi FROM item GROUP BY cat",
            "DELETE FROM item WHERE id = 3",
            "min/max retraction",
        ),
        (
            "SELECT cat, sum(qty) AS t FROM item GROUP BY cat HAVING sum(qty) > 1",
            "INSERT INTO item VALUES (9, 'b', 3)",
            "not maintainable",
        ),
        (
            "SELECT DISTINCT cat FROM item",
            "INSERT INTO item VALUES (9, 'e', 3)",
            "not maintainable",
        ),
        (
            "SELECT cat, count(*) AS n FROM item GROUP BY cat",
            "INSERT INTO item SELECT id + 10, cat, qty FROM item",
            None,
        ),
    ],
)
def test_what_the_rules_cannot_follow_recomputes_under_a_reason(
    db, definition, change, reason
):
    db.run(f"CREATE MATERIALIZED VIEW mv AS {definition}")
    db.run(change)
    _read_matches(db, "mv", definition)
    stats = db.database.matview_stats()
    if reason is None:
        assert (stats["catch_ups"], stats["recompute_reasons"]) == (1, {})
    else:
        assert (stats["catch_ups"], stats["recompute_reasons"]) == (0, {reason: 1})
    assert stats["stale_marks"] == 0


def test_a_delta_log_gap_recomputes(db):
    from repro.storage.table import DELTA_LOG_ROWS

    definition = "SELECT cat, count(*) AS n FROM item GROUP BY cat"
    db.run(f"CREATE MATERIALIZED VIEW mv AS {definition}")
    db.load_rows("item", [(100 + i, "z", i) for i in range(DELTA_LOG_ROWS + 1)])
    _read_matches(db, "mv", definition)
    assert db.database.matview_stats()["recompute_reasons"] == {"delta log gap": 1}


def test_a_redefined_view_underneath_recomputes_as_marked_stale(db):
    db.run("CREATE VIEW busy AS SELECT cat, qty FROM item WHERE qty > 1")
    db.run("CREATE MATERIALIZED VIEW mv AS SELECT cat, sum(qty) AS t FROM busy GROUP BY cat")
    db.run("CREATE OR REPLACE VIEW busy AS SELECT cat, qty FROM item WHERE qty > 2")
    _read_matches(db, "mv", "SELECT cat, sum(qty) AS t FROM busy GROUP BY cat")
    assert db.database.matview_stats()["recompute_reasons"] == {"marked stale": 1}
