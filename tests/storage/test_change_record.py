"""What a commit changed is read from the transaction's write set —
nobody walks the superseded table state to find out.

The fuzzed agreement checks (change record vs new state, WAL record,
maintainer delta, ``changes_since``) live beside the mirror fuzzer in
``tests/backend/test_mirror_sync.py``; this file holds the cost side,
what the maintainer's cached state holds after a failed log write, and
the round trip between the record's producer and its one applier.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.engine.database import Database
from repro.storage.mvcc import apply_change, resolve_write_set
from repro.storage.persist import WAL_NAME
from repro.storage.wal import read_records


class CountingList(list):
    """A list that counts how often anyone iterates it."""

    iterations = 0

    def __iter__(self):
        CountingList.iterations += 1
        return super().__iter__()


@pytest.mark.parametrize("size", [300, 3000])
def test_small_commit_never_iterates_the_previous_state(size: int, tmp_path):
    path = str(tmp_path / "db")
    with Database(path=path, durability="os") as db:
        conn = db.connect()
        conn.execute("CREATE TABLE t (id int, grp int, val int)")
        conn.execute("CREATE TABLE d (grp int, label text)")
        conn.executemany("INSERT INTO d VALUES (?, ?)", [(g, f"g{g}") for g in range(4)])
        conn.executemany(
            "INSERT INTO t VALUES (?, ?, ?)", [(i, i % 4, i) for i in range(size)]
        )
        conn.execute(
            "CREATE MATERIALIZED VIEW mv AS SELECT t.id, t.val, d.label "
            "FROM t JOIN d ON d.grp = t.grp"
        )
        conn.execute("UPDATE t SET val = val + 1 WHERE id = 5")  # warm caches
        assert db.matview_stats()["incremental_commits"] == 1

        heap = db.catalog.table("t").table
        rows, version, ids = heap._state
        heap._state = (CountingList(rows), version, CountingList(ids))
        # ... nor the state the commit leads to: the hooks get it as
        # counting lists too.
        maintain = db.manager.matview_maintainer

        def counting(seq, changes):
            for change in changes:
                change.rows = CountingList(change.rows)
                change.ids = CountingList(change.ids)
            return maintain(seq, changes)

        db.manager.matview_maintainer = counting
        conn.execute("BEGIN")
        conn.execute("UPDATE t SET val = -1 WHERE id = 7")  # the scan may iterate
        CountingList.iterations = 0
        conn.execute("COMMIT")
        assert CountingList.iterations == 0
        db.manager.matview_maintainer = maintain

        stats = db.matview_stats()
        assert stats["incremental_commits"] == 2 and stats["stale_reasons"] == {}
        assert conn.execute("SELECT * FROM mv").fetchall() == conn.execute(
            "SELECT t.id, t.val, d.label FROM t JOIN d ON d.grp = t.grp"
        ).fetchall()
        rid = heap.row_ids[7]
    wal_path = os.path.join(path, WAL_NAME)
    record, durable = list(read_records(wal_path))[-1]
    assert durable == os.path.getsize(wal_path)
    tables = record["tables"]
    assert tables["t"] == {"version": tables["t"]["version"], "update": [[rid, [7, 3, -1]]]}
    assert len(tables["mv"]["matview"]["remove"]) == 1
    assert [row for _, _, row in tables["mv"]["matview"]["insert_at"]] == [[7, -1, "g3"]]


@pytest.mark.parametrize("size", [300, 3000])
def test_small_commit_then_catch_up_never_iterates_the_base_table(size: int):
    """An aggregate view's first read after a one-row commit folds the
    change into its groups: neither the state the commit led to nor the
    one the view's fold was computed from is ever walked."""
    db = Database()
    conn = db.connect()
    conn.execute("CREATE TABLE t (id int, grp int, val int)")
    conn.execute("CREATE TABLE d (grp int, label text)")
    conn.executemany("INSERT INTO d VALUES (?, ?)", [(g, f"g{g}") for g in range(4)])
    conn.executemany(
        "INSERT INTO t VALUES (?, ?, ?)", [(i, i % 4, i) for i in range(size)]
    )
    unfolded = (
        "SELECT d.label, count(*) AS n, sum(t.val) AS total "
        "FROM t JOIN d ON d.grp = t.grp GROUP BY d.label"
    )
    conn.execute(f"CREATE MATERIALIZED VIEW agg AS {unfolded}")
    conn.execute("UPDATE t SET val = val + 1 WHERE id = 5")
    conn.execute("SELECT * FROM agg")  # warm caches: one catch-up
    conn.execute("UPDATE t SET val = -1 WHERE id = 4")  # the scan may iterate

    heap = db.catalog.table("t").table
    rows, version, ids = heap._state
    heap._state = (CountingList(rows), version, CountingList(ids))
    entry = db.catalog.matview("agg")
    state = entry.state
    old_rows, old_version, old_ids = state.bases["t"]
    bases = dict(state.bases, t=(CountingList(old_rows), old_version, CountingList(old_ids)))
    entry.state = state._replace(bases=bases)
    CountingList.iterations = 0
    served = conn.execute("SELECT * FROM agg").fetchall()
    assert CountingList.iterations == 0

    stats = db.matview_stats()
    assert stats["catch_ups"] == 2 and stats["recomputes"] == 0
    assert served == conn.execute(unfolded).fetchall()


def test_superseded_state_is_freed_without_the_cyclic_collector():
    """Neither commit-time maintenance nor a catch-up leaves a reference
    cycle holding a superseded base state, and no view's state pins one
    it has moved past: once both views — the SPJ one advanced at commit
    or, behind a commit the hook skipped, at its next read, and the
    aggregate one at its reads — are past a state, reference counting
    alone frees it."""
    import gc
    import weakref

    class Traced(list):
        pass

    db = Database()
    conn = db.connect()
    conn.execute("CREATE TABLE t (id int, grp int, val int)")
    conn.executemany("INSERT INTO t VALUES (?, ?, ?)", [(i, i % 3, i) for i in range(50)])
    conn.execute("CREATE MATERIALIZED VIEW spj AS SELECT id, val FROM t WHERE val > 10")
    conn.execute("CREATE MATERIALIZED VIEW agg AS SELECT grp, sum(val) AS s FROM t GROUP BY grp")
    heap = db.catalog.table("t").table

    def trace() -> weakref.ref:
        """Swap the table's state for one built on traced lists, in the
        heap and in both views' states, which pin it."""
        rows, version, ids = heap._state
        traced = (Traced(rows), version, Traced(ids))
        heap._state = traced
        for entry in db.catalog.matviews:
            assert entry.state.bases["t"][1] == version
            entry.state = entry.state._replace(bases={"t": traced})
        return weakref.ref(traced[0])

    maintain = db.manager.matview_maintainer
    gc.disable()
    try:
        superseded = trace()
        conn.execute("UPDATE t SET val = -1 WHERE id = 20")  # maintains spj
        conn.execute("SELECT * FROM agg")  # catches agg up
        assert superseded() is None
        superseded = trace()
        db.manager.matview_maintainer = lambda seq, changes: ([], None)
        conn.execute("DELETE FROM t WHERE id = 21")  # leaves spj behind too
        db.manager.matview_maintainer = maintain
        conn.execute("SELECT * FROM spj")  # catches spj up
        conn.execute("SELECT * FROM agg")
        assert superseded() is None
    finally:
        db.manager.matview_maintainer = maintain
        gc.enable()
    stats = db.matview_stats()
    assert (stats["incremental_commits"], stats["catch_ups"], stats["recomputes"]) == (1, 3, 0)


def test_failed_wal_append_leaves_no_phantom_row_in_the_maintainer(tmp_path):
    """The maintainer keeps leaf states of committed tables across
    commits; a commit whose log record fails installs nothing, so its
    appended row must not be there for later deltas to join against
    (nothing the maintainer caches is written from a staged change)."""
    with Database(path=str(tmp_path / "db"), durability="off") as db:
        conn = db.connect()
        conn.execute("CREATE TABLE t (id int, grp int)")
        conn.execute("CREATE TABLE d (grp int, label text)")
        conn.execute("INSERT INTO t VALUES (1, 1), (2, 2)")
        conn.execute("INSERT INTO d VALUES (1, 'one')")
        conn.execute(
            "CREATE MATERIALIZED VIEW mv AS "
            "SELECT t.id, d.label FROM t JOIN d ON d.grp = t.grp"
        )
        conn.execute("INSERT INTO t VALUES (3, 1)")  # maintainer state is cached

        durable = db.manager.on_commit

        def failing(seq, changes):
            raise OSError("disk full")

        db.manager.on_commit = failing
        with pytest.raises(OSError):
            conn.execute("INSERT INTO t VALUES (4, 9)")
        db.manager.on_commit = durable

        conn.execute("INSERT INTO t VALUES (5, 2)")
        conn.execute("INSERT INTO d VALUES (9, 'nine'), (2, 'two')")
        assert db.matview_stats()["stale_reasons"] == {}
        assert conn.execute("SELECT * FROM mv").fetchall() == [
            (1, "one"), (2, "two"), (3, "one"), (5, "two"),
        ]


@pytest.mark.parametrize("seed", range(40))
def test_apply_change_inverts_resolve_write_set(seed: int):
    """For any write a transaction can make — update, delete, append,
    and appended rows it then rewrites or deletes again —
    ``apply_change(previous, *resolve_write_set(write set, new)) == new``,
    without touching the previous state."""
    rng = random.Random(seed)
    size = rng.randrange(0, 30)
    prev_ids = sorted(rng.sample(range(1, 200), size))
    prev_rows = [(rid, rng.randrange(100)) for rid in prev_ids]
    appended = list(range(200, 200 + rng.randrange(0, 6)))
    written, new_rows, new_ids = set(), [], []
    for rid, row in zip(prev_ids + appended, prev_rows + [(rid, 0) for rid in appended]):
        fate = rng.random()
        if fate < 0.2:
            written.add(rid)  # deleted
            continue
        if fate < 0.45:
            written.add(rid)
            row = (rid, -row[1] - 1)  # updated
        new_rows.append(row)
        new_ids.append(rid)
    before = (list(prev_rows), list(prev_ids))
    change = resolve_write_set(written, appended, new_rows, new_ids)
    assert apply_change(prev_rows, prev_ids, *change) == (new_rows, new_ids)
    assert (prev_rows, prev_ids) == before
