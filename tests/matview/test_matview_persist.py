"""Durability of materialized views: WAL replay and checkpoint paths.

A restart must recover each matview's stored rows (in order), its
freshness bookkeeping (so a fresh view is served without a recompute),
and its staleness (so a stale view still recomputes on first read) —
whether the state comes from pure WAL replay, from a checkpoint, or
from a checkpoint plus the log tail — and with it the rest of the
catalog, field for field.
"""

from __future__ import annotations

import os

import pytest

from repro.engine.database import Database
from repro.storage.persist import WAL_NAME
from repro.storage.wal import read_records

_SETUP = (
    "CREATE TABLE item (id int, grp text, qty int)",
    "INSERT INTO item VALUES (1, 'a', 3), (2, 'b', 1), (3, 'a', 5), (4, 'c', 2)",
    "CREATE MATERIALIZED VIEW busy AS SELECT id, qty FROM item WHERE qty >= 2",
    "CREATE MATERIALIZED VIEW pv WITH PROVENANCE AS "
    "SELECT id, grp FROM item WHERE qty > 1",
    "CREATE MATERIALIZED VIEW tot AS "
    "SELECT grp, sum(qty) AS total FROM item GROUP BY grp",
    "CREATE VIEW heavy AS SELECT id FROM item WHERE qty > 4",
    "CREATE TABLE kept AS SELECT PROVENANCE id, qty FROM item WHERE qty > 2",
)


def _describe(db) -> dict:
    """Everything durable about the catalog: each relation's definition,
    provenance registration, heap state (rows, stamp, row ids) and, for
    materialized views, the maintenance bookkeeping."""
    catalog = db.catalog
    described = {}
    for entry in catalog.tables + catalog.matviews:
        described[entry.name] = {
            "columns": [(a.name, a.type) for a in entry.schema],
            "provenance": entry.provenance_attrs,
            "state": entry.table._state,
        }
    for entry in catalog.views:
        described[entry.name] = {"sql": entry.sql, "provenance": entry.provenance_attrs}
    for entry in catalog.matviews:
        described[entry.name].update(
            sql=entry.sql,
            with_provenance=entry.with_provenance,
            stale=entry.stale,
            delta_safe=entry.delta_safe,
            base_tables=entry.base_tables,
            base_versions=entry.base_versions,
        )
    return described


def _unfolded(conn, name):
    defs = {
        "busy": "SELECT id, qty FROM item WHERE qty >= 2",
        "pv": "SELECT PROVENANCE id, grp FROM item WHERE qty > 1",
        "tot": "SELECT grp, sum(qty) AS total FROM item GROUP BY grp",
    }
    return conn.run(defs[name]).rows


@pytest.mark.parametrize("mode", ("wal", "checkpoint", "checkpoint+tail"))
def test_matviews_survive_restart(tmp_path, mode):
    d = str(tmp_path / "db")
    with Database(path=d) as db:
        conn = db.connect()
        for sql in _SETUP:
            conn.run(sql)
        if mode == "checkpoint+tail":
            conn.run("CHECKPOINT")
        conn.run("INSERT INTO item VALUES (5, 'b', 7)")  # incremental delta
        expected = {
            name: conn.run(f"SELECT * FROM {name}").rows
            for name in ("busy", "pv")
        }
        if mode == "checkpoint":
            conn.run("CHECKPOINT")
        described, version = _describe(db), db.catalog.version
        assert described["kept"]["provenance"]
        assert db.matview_stats()["views"]["tot"]["stale"]
    with Database(path=d) as db:
        assert _describe(db) == described
        if mode == "checkpoint":
            assert db.catalog.version == version
            assert db.wal_stats()["records_replayed"] == 0
        conn = db.connect()
        stats = db.matview_stats()["views"]
        # The delta-maintained views recovered fresh; the aggregate was
        # left behind by the last insert and recovered behind.
        assert not stats["busy"]["stale"] and not stats["pv"]["stale"]
        assert stats["tot"]["stale"]
        for name, rows in expected.items():
            assert conn.run(f"SELECT * FROM {name}").rows == rows
        # Fresh views were served from the recovered heaps, no refresh.
        assert conn.pipeline.counters.matview_auto_refreshes == 0
        # The behind aggregate recomputes on first read: its fold did
        # not survive the restart.
        assert conn.run("SELECT * FROM tot").rows == _unfolded(conn, "tot")
        assert conn.pipeline.counters.matview_auto_refreshes == 1
        assert db.matview_stats()["recompute_reasons"] == {"no maintenance state": 1}


def test_incremental_maintenance_resumes_after_restart(tmp_path):
    """The maintenance state is not persisted: the first base write after
    recovery leaves the SPJ view behind, its next read recomputes it
    (which rebuilds the program and the state), and maintenance is
    incremental again from the commit after."""
    d = str(tmp_path / "db")
    with Database(path=d) as db:
        conn = db.connect()
        for sql in _SETUP[:3]:
            conn.run(sql)
    with Database(path=d) as db:
        conn = db.connect()
        conn.run("INSERT INTO item VALUES (6, 'c', 9)")
        assert conn.run("SELECT * FROM busy").rows == _unfolded(conn, "busy")
        before = db.matview_maintainer.incremental_commits
        conn.run("INSERT INTO item VALUES (7, 'a', 4)")
        assert db.matview_maintainer.incremental_commits == before + 1
        assert conn.run("SELECT * FROM busy").rows == _unfolded(conn, "busy")


def test_first_write_after_restart_leaves_a_recovered_view_behind(tmp_path):
    """A recovered SPJ view has no state to follow a commit with. The
    commit leaves it behind without touching the catalog — an unrelated
    cached plan stays valid — and the read that follows recomputes it
    under one reason, counted once."""
    d = str(tmp_path / "db")
    with Database(path=d) as db:
        conn = db.connect()
        for sql in _SETUP[:3]:
            conn.run(sql)
        conn.run("CREATE TABLE other (x int)")
    with Database(path=d) as db:
        conn = db.connect()
        conn.run("SELECT * FROM other")
        version, analyzed = db.catalog.version, conn.pipeline.counters.analyze
        conn.run("INSERT INTO item VALUES (6, 'c', 9)")
        assert db.catalog.version == version
        conn.run("SELECT * FROM other")
        assert conn.pipeline.counters.analyze == analyzed
        assert db.matview_stats()["views"]["busy"]["stale"]
        assert conn.run("SELECT * FROM busy").rows == _unfolded(conn, "busy")
        stats = db.matview_stats()
        assert stats["stale_reasons"] == {}
        assert stats["recompute_reasons"] == {"no maintenance state": 1}


def test_a_stale_mark_the_log_cannot_record_fails_the_statement(tmp_path):
    """``CREATE OR REPLACE VIEW`` marks every matview stale. If the log
    cannot record that mark, the statement fails: recovery would trust
    contents computed through the old definition."""
    with Database(path=str(tmp_path / "db")) as db:
        conn = db.connect()
        for sql in _SETUP[:2] + _SETUP[5:6]:
            conn.run(sql)
        conn.run("CREATE MATERIALIZED VIEW mv AS SELECT id FROM heavy")
        wal = db.storage._wal
        append = wal.append

        def failing(record):
            if record["kind"] == "matview_stale":
                raise OSError("disk full")
            return append(record)

        wal.append = failing
        try:
            with pytest.raises(OSError, match="disk full"):
                conn.run("CREATE OR REPLACE VIEW heavy AS SELECT id FROM item WHERE qty > 2")
        finally:
            del wal.append


def test_drop_matview_survives_restart(tmp_path):
    d = str(tmp_path / "db")
    with Database(path=d) as db:
        conn = db.connect()
        for sql in _SETUP[:3]:
            conn.run(sql)
        conn.run("DROP MATERIALIZED VIEW busy")
    with Database(path=d) as db:
        assert not db.catalog.has_matview("busy")
        assert db.catalog.has_table("item")


def test_refresh_survives_restart(tmp_path):
    d = str(tmp_path / "db")
    with Database(path=d) as db:
        conn = db.connect()
        for sql in _SETUP:
            conn.run(sql)
        conn.run("INSERT INTO item VALUES (8, 'b', 6)")
        conn.run("REFRESH MATERIALIZED VIEW tot")
        expected = conn.run("SELECT * FROM tot").rows
    with Database(path=d) as db:
        conn = db.connect()
        assert not db.matview_stats()["views"]["tot"]["stale"]
        assert conn.run("SELECT * FROM tot").rows == expected
        assert conn.pipeline.counters.matview_auto_refreshes == 0


def _tot_setup(conn) -> None:
    for sql in (_SETUP[0], _SETUP[1], _SETUP[4]):
        conn.run(sql)


def test_catch_up_is_logged_like_a_refresh_and_trusted_after_restart(tmp_path):
    d = str(tmp_path / "db")
    with Database(path=d) as db:
        conn = db.connect()
        _tot_setup(conn)
        conn.run("INSERT INTO item VALUES (5, 'b', 7)")
        conn.run("DELETE FROM item WHERE id = 1")
        expected = conn.run("SELECT * FROM tot").rows
        assert expected == _unfolded(conn, "tot")
        stats = db.matview_stats()
        assert stats["catch_ups"] == 1 and stats["recomputes"] == 0
        entry = db.catalog.matview("tot")
        contents, versions = entry.table._state, dict(entry.base_versions)
        assert versions == {"item": db.catalog.table("item").table._state[1]}
        # The catch-up wrote what a refresh writes: the contents, then
        # the bookkeeping naming the base versions they reflect.
        records = [record for record, _ in read_records(os.path.join(d, WAL_NAME))]
        direct, fresh = records[-2:]
        assert direct["kind"] == "direct" and direct["table"] == "tot"
        assert [tuple(row) for row in direct["rows"]] == expected
        assert fresh["kind"] == "matview_fresh" and fresh["base_versions"] == versions
    with Database(path=d) as db:
        conn = db.connect()
        entry = db.catalog.matview("tot")
        assert entry.table._state == contents and entry.base_versions == versions
        assert not db.matview_stats()["views"]["tot"]["stale"]
        # Trusted: served from the recovered heap, no refresh of any kind.
        assert conn.run("SELECT * FROM tot").rows == expected
        assert conn.pipeline.counters.matview_auto_refreshes == 0


def test_crash_before_catch_up_recovers_a_behind_view(tmp_path):
    """A base commit is durable; the catch-up that would have followed
    it never ran. Recovery restores the view behind, its first read
    recomputes under a named reason (the fold is not persisted), and
    the recompute rebuilds the fold so the next read catches up."""
    d = str(tmp_path / "db")
    with Database(path=d) as db:
        conn = db.connect()
        _tot_setup(conn)
        conn.run("UPDATE item SET qty = 10 WHERE id = 3")
    with Database(path=d) as db:
        conn = db.connect()
        assert db.matview_stats()["views"]["tot"]["stale"]
        assert conn.run("SELECT * FROM tot").rows == _unfolded(conn, "tot")
        stats = db.matview_stats()
        assert stats["recompute_reasons"] == {"no maintenance state": 1}
        assert stats["catch_ups"] == 0
        conn.run("INSERT INTO item VALUES (9, 'c', 4)")
        assert conn.run("SELECT * FROM tot").rows == _unfolded(conn, "tot")
        assert db.matview_stats()["catch_ups"] == 1
