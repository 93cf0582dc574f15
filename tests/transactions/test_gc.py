"""Version garbage collection: superseded committed states are freed
once no live snapshot can see them — and never before."""

from __future__ import annotations

import gc as pygc

from repro import Database, connect


def _bank(rows: int = 4) -> tuple[Database, "object"]:
    db = Database()
    setup = connect(database=db)
    setup.run("CREATE TABLE t (a int, b int)")
    setup.load_rows("t", [(i, i * 10) for i in range(rows)])
    return db, setup


class TestHorizon:
    def test_horizon_advances_as_transactions_retire(self):
        db, setup = _bank()
        old = connect(database=db)
        old.execute("BEGIN")
        old.execute("SELECT a FROM t").fetchall()  # materialize the snapshot
        before = db.manager.horizon()

        writer = connect(database=db)
        writer.execute("UPDATE t SET b = 999 WHERE a = 0")
        # The open snapshot pins the horizon at its begin sequence.
        assert db.manager.horizon() == before
        old.commit()
        assert db.manager.horizon() > before

    def test_no_live_snapshots_means_everything_is_collectable(self):
        db, setup = _bank()
        for i in range(5):
            setup.execute("BEGIN")
            setup.execute(f"UPDATE t SET b = {i} WHERE a = 1")
            setup.commit()
        stats = db.manager.gc_stats()
        assert stats["versions_retained"] == 0
        assert stats["versions_freed"] >= 5


class TestFreeing:
    def test_superseded_versions_freed_after_snapshot_closes(self):
        db, setup = _bank()
        reader = connect(database=db)
        reader.execute("BEGIN")
        reader.execute("SELECT a FROM t").fetchall()

        writer = connect(database=db)
        for i in range(3):
            writer.execute("BEGIN")
            writer.execute(f"UPDATE t SET b = {i} WHERE a = 2")
            writer.commit()
        retained = db.manager.gc_stats()["versions_retained"]
        assert retained >= 3, "open snapshot must pin superseded versions"

        freed_before = db.manager.gc_stats()["versions_freed"]
        reader.rollback()  # retiring the snapshot triggers collection
        stats = db.manager.gc_stats()
        assert stats["versions_retained"] == 0
        assert stats["versions_freed"] >= freed_before + retained
        assert stats["rows_freed"] > 0

    def test_superseded_row_lists_are_actually_reclaimed(self):
        # The log entry is the only thing keeping a superseded committed
        # row list alive: once GC drops its state, the list is garbage.
        # Verified with a weakref-style canary via gc.
        import weakref

        class Canary:
            pass

        db, setup = _bank()
        table = setup.catalog.table("t").table
        reader = connect(database=db)
        reader.execute("BEGIN")
        reader.execute("SELECT a FROM t").fetchall()

        setup.execute("UPDATE t SET b = -1 WHERE a = 0")
        held = [entry for entry in table._history if entry.superseded is not None]
        assert held, "superseded state must be retained"
        superseded_rows = held[0].superseded[0]
        canary = Canary()
        superseded_rows.append(canary)  # piggyback on the dead list
        ref = weakref.ref(canary)
        del held, superseded_rows, canary

        reader.commit()
        assert all(entry.superseded is None for entry in table._history)
        pygc.collect()
        assert ref() is None, "superseded committed state leaked"

    def test_the_log_keeps_only_its_bound_with_no_snapshot_open(self):
        from repro.storage.table import DELTA_LOG_ROWS

        db, setup = _bank()
        table = setup.catalog.table("t").table
        for i in range(5000):
            setup.execute("INSERT INTO t VALUES (?, 0)", (100 + i,))
        logged = sum(entry.size for entry in table._history)
        assert logged <= DELTA_LOG_ROWS
        assert table._logged == logged
        assert db.manager.gc_stats()["versions_retained"] == 0

    def test_gc_runs_counter_increments(self):
        db, setup = _bank()
        runs = db.manager.gc_stats()["gc_runs"]
        setup.execute("BEGIN")
        setup.execute("INSERT INTO t VALUES (99, 0)")
        setup.commit()
        assert db.manager.gc_stats()["gc_runs"] > runs


class TestLiveSnapshotsNeverLoseData:
    def test_pinned_snapshot_reads_identically_through_churn(self):
        db, setup = _bank(rows=6)
        reader = connect(database=db)
        reader.execute("BEGIN")
        baseline = reader.execute("SELECT a, b FROM t").fetchall()

        writer = connect(database=db)
        for i in range(10):
            writer.execute("BEGIN")
            writer.execute(f"UPDATE t SET b = {i} WHERE a = {i % 6}")
            writer.commit()
        # GC ran at every retire above, but the reader's snapshot must
        # be bit-identical to its baseline.
        assert reader.execute("SELECT a, b FROM t").fetchall() == baseline
        reader.commit()
        assert reader.execute("SELECT a, b FROM t").fetchall() != baseline

    def test_oldest_of_several_snapshots_pins_the_horizon(self):
        db, setup = _bank()
        oldest = connect(database=db)
        oldest.execute("BEGIN")
        old_rows = oldest.execute("SELECT a, b FROM t").fetchall()

        setup.execute("UPDATE t SET b = 1000 WHERE a = 1")

        newer = connect(database=db)
        newer.execute("BEGIN")
        new_rows = newer.execute("SELECT a, b FROM t").fetchall()
        assert new_rows != old_rows

        setup.execute("UPDATE t SET b = 2000 WHERE a = 1")

        # Retiring the newer snapshot must not free anything the oldest
        # one still needs.
        newer.rollback()
        assert oldest.execute("SELECT a, b FROM t").fetchall() == old_rows
        oldest.rollback()
        assert db.manager.gc_stats()["versions_retained"] == 0
