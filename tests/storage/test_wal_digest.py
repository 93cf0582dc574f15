"""The write-ahead log of a fixed workload is byte-for-byte a constant.

Run as a script (``python test_wal_digest.py DATA_DIR``), this module
drives one seeded, single-threaded workload into a fresh durable
database: two sessions interleave autocommit statements with explicit
transactions (savepoints rolled back to inside some, commits that merge
onto a state the other session moved), under three commit-maintained
materialized views — a join, a ``WITH PROVENANCE`` filter and a
self-join. The test runs it in a fresh process (row ids and version
stamps come from process-global counters, so only a fresh process
starts them at the same place) and compares the sha256 of ``wal.log``
with :data:`DIGEST`.

Every byte a commit logs goes into the digest: base-table write sets,
the maintainer's positioned view deltas with the row ids they assign,
the base versions a view advances to, and the record framing. A change
that reorders a view's stored rows, draws row ids or stamps in another
order, or logs a different record shows up here; update :data:`DIGEST`
only for a deliberate change of what the log holds.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)
#: ``(size in bytes, sha256)`` of the workload's ``wal.log``.
DIGEST = (22405, "b226ca5173cfc8c058655f0d73909409c3a3b915d2836374d748579f5609767a")

VIEWS = (
    "CREATE MATERIALIZED VIEW mv_join AS SELECT i.id, i.grp, t.label "
    "FROM item i JOIN tag t ON t.item = i.id WHERE i.qty > 0",
    "CREATE MATERIALIZED VIEW mv_prov WITH PROVENANCE AS "
    "SELECT id, qty FROM item WHERE qty < 8",
    "CREATE MATERIALIZED VIEW mv_self AS SELECT i.id AS lo, j.id AS hi "
    "FROM item i JOIN item j ON j.grp = i.grp WHERE i.qty < j.qty",
)


def _statement(rng: random.Random, parity: int, next_id: list[int]) -> tuple:
    """One DML statement touching only rows whose id has *parity*, so the
    two sessions never write the same row (no conflicts, no retries)."""

    def own(limit: int) -> int:
        return rng.randrange(parity, limit, 2)

    roll = rng.randrange(6)
    if roll == 0:
        next_id[parity] += 2
        return (
            "INSERT INTO item VALUES (?, ?, ?)",
            (next_id[parity], rng.choice("abc"), rng.randrange(10)),
        )
    if roll == 1:
        return ("INSERT INTO tag VALUES (?, ?)", (own(next_id[parity] + 1), rng.choice("xyz")))
    if roll == 2:
        return ("UPDATE item SET qty = ? WHERE id = ?", (rng.randrange(10), own(next_id[parity] + 1)))
    if roll == 3:
        # mv_prov does not read grp: the update still removes and
        # re-adds the derived row, under a fresh view row id.
        return ("UPDATE item SET grp = ? WHERE id = ?", (rng.choice("abc"), own(next_id[parity] + 1)))
    if roll == 4:
        return ("DELETE FROM tag WHERE item = ?", (own(next_id[parity] + 1),))
    return ("DELETE FROM item WHERE id = ?", (own(next_id[parity] + 1),))


def write(path: str) -> None:
    from repro.engine.database import Database

    rng = random.Random(25)
    db = Database(path=path, durability="off", checkpoint_bytes=0)
    a, b = db.connect(engine="row"), db.connect(engine="row")
    a.run("CREATE TABLE item (id int, grp text, qty int)")
    a.run("CREATE TABLE tag (item int, label text)")
    a.executemany(
        "INSERT INTO item VALUES (?, ?, ?)",
        [(i, rng.choice("abc"), rng.randrange(10)) for i in range(1, 21)],
    )
    a.executemany(
        "INSERT INTO tag VALUES (?, ?)",
        [(rng.randrange(1, 21), rng.choice("xyz")) for _ in range(12)],
    )
    for sql in VIEWS:
        a.run(sql)
    next_id = [20, 21]  # last id each parity has used (even: a, odd: b)
    for step in range(40):
        if step % 4 == 0:
            a.run("BEGIN")
            for k in range(rng.randrange(1, 5)):
                if k == 1:
                    a.run("SAVEPOINT sp")
                a.execute(*_statement(rng, 0, next_id))
                # The other session commits beside the open transaction.
                b.execute(*_statement(rng, 1, next_id))
            if k >= 1 and rng.random() < 0.5:
                a.run("ROLLBACK TO SAVEPOINT sp")
            a.run("COMMIT")
        else:
            session, parity = (a, 0) if rng.random() < 0.5 else (b, 1)
            session.execute(*_statement(rng, parity, next_id))
        b.run("SELECT * FROM mv_join")
    stats = db.matview_stats()
    assert stats["incremental_commits"] > 0 and stats["stale_reasons"] == {}, stats
    db.close()


def _run_script(path: str) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_ENGINE", None)
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), path], env=env, check=True, timeout=120
    )
    with open(os.path.join(path, "wal.log"), "rb") as handle:
        return handle.read()


def test_wal_bytes_of_a_fixed_workload_are_a_constant(tmp_path):
    log = _run_script(str(tmp_path / "db"))
    assert (len(log), hashlib.sha256(log).hexdigest()) == DIGEST


if __name__ == "__main__":
    write(sys.argv[1])
