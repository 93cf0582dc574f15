"""Crash-matrix harness: a seeded writer, its oracle, and kill plumbing.

The *writer* applies a deterministic sequence of single-writer
transactions to a persistent database: transaction ``k`` reads the
committed ids, then (seeded by ``(seed, k)``) updates some rows, deletes
some, inserts fresh ones keyed ``k*10+j`` — and always inserts ``k``
into a ``progress`` table inside the same transaction, so the set of
durable commits is readable back as a contiguous prefix ``1..M``.

The *oracle* (:func:`expected_state`) replays the same plan purely in
Python: after any prefix of ``M`` committed transactions the data table
must equal ``expected_state(seed, M)`` exactly. Because every commit is
atomic and the WAL is a prefix log, a kill at ANY byte offset must
recover to ``expected_state(seed, M)`` for some ``M`` — with no holes
in ``progress`` (no lost middle commit) and no duplicates (no commit
applied twice).

Run as a script, this module *is* the writer subprocess
(``python crashharness.py DATA_DIR SEED START COUNT DURABILITY``). It
prints ``S <stamp>`` after recovery and ``C <k> <stamp>`` (flushed)
after each commit, so the parent knows a lower bound on what must
survive a SIGKILL under fsync durability.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC_DIR = os.path.join(REPO_ROOT, "src")
FAILURE_DIR = os.path.join(REPO_ROOT, ".recovery-failures")


# ---------------------------------------------------------------------------
# The deterministic transaction plan (shared by writer and oracle)
# ---------------------------------------------------------------------------

def plan_txn(ids: list[int], seed: int, k: int):
    """What transaction *k* does, given the committed ids it sees.
    Pure: the writer turns this into SQL, the oracle into dict ops."""
    rng = random.Random(seed * 1_000_003 + k)
    updates = [(rid, rng.randint(1, 9)) for rid in ids if rng.random() < 0.25]
    deletes = [rid for rid in ids if rng.random() < 0.12]
    inserts = [(k * 10 + j, rng.randint(0, 99)) for j in range(rng.randint(1, 3))]
    return updates, deletes, inserts


def apply_txn(state: dict[int, int], seed: int, k: int) -> None:
    updates, deletes, inserts = plan_txn(sorted(state), seed, k)
    for rid, delta in updates:
        if rid in state:
            state[rid] += delta
    for rid in deletes:
        state.pop(rid, None)
    for rid, value in inserts:
        state[rid] = value


def expected_state(seed: int, upto: int) -> dict[int, int]:
    """The oracle: table contents after commits ``1..upto``."""
    state: dict[int, int] = {}
    for k in range(1, upto + 1):
        apply_txn(state, seed, k)
    return state


def commit_txn(conn, seed: int, k: int) -> None:
    """Run transaction *k* of the plan on *conn* and commit it."""
    ids = [row[0] for row in conn.run("SELECT id FROM t ORDER BY id").rows]
    updates, deletes, inserts = plan_txn(ids, seed, k)
    cursor = conn.cursor()
    conn.run("BEGIN")
    for rid, delta in updates:
        cursor.execute("UPDATE t SET val = val + ? WHERE id = ?", (delta, rid))
    for rid in deletes:
        cursor.execute("DELETE FROM t WHERE id = ?", (rid,))
    for rid, value in inserts:
        cursor.execute("INSERT INTO t VALUES (?, ?)", (rid, value))
    cursor.execute("INSERT INTO progress VALUES (?)", (k,))
    conn.run("COMMIT")


# ---------------------------------------------------------------------------
# Parent-side helpers
# ---------------------------------------------------------------------------

def read_recovered(data_dir: str):
    """Open the directory, return ``(M, state, db)`` where ``M`` is the
    contiguous committed prefix length and ``state`` the data table as a
    dict. Asserts the prefix property (no holes, no duplicates). The
    caller must close the returned database."""
    from repro.engine.database import Database

    db = Database(path=data_dir)
    conn = db.connect()
    if db.catalog.has_table("progress"):
        ks = [row[0] for row in conn.run("SELECT k FROM progress ORDER BY k").rows]
    else:
        ks = []
    assert ks == list(range(1, len(ks) + 1)), (
        f"committed transactions are not a contiguous prefix: {ks}"
    )
    if db.catalog.has_table("t"):
        state = dict(conn.run("SELECT id, val FROM t ORDER BY id").rows)
    else:
        state = {}
    return len(ks), state, db


def verify_recovered(data_dir: str, seed: int, context: str = "") -> int:
    """Recover and check the oracle property; dumps the directory under
    ``.recovery-failures/`` on mismatch. Returns the prefix length."""
    try:
        count, state, db = read_recovered(data_dir)
        try:
            expected = expected_state(seed, count)
            assert state == expected, (
                f"recovered state diverges from oracle after {count} commits "
                f"({context}): extra={sorted(set(state) - set(expected))} "
                f"missing={sorted(set(expected) - set(state))} "
                f"changed={[r for r in state if r in expected and state[r] != expected[r]]}"
            )
        finally:
            db.close()
        return count
    except AssertionError:
        os.makedirs(FAILURE_DIR, exist_ok=True)
        dump = os.path.join(FAILURE_DIR, f"seed{seed}-{int(time.time() * 1000)}")
        shutil.copytree(data_dir, dump, dirs_exist_ok=True)
        print(f"\nrecovery failure reproduced in {dump}", file=sys.stderr)
        raise


def spawn_writer(
    data_dir: str, seed: int, start: int, count: int, durability: str
) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            os.path.abspath(__file__),
            data_dir,
            str(seed),
            str(start),
            str(count),
            durability,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def kill_after_acks(proc: subprocess.Popen, acks: int, delay: float = 0.0):
    """Read the writer's stdout until *acks* commit acknowledgements,
    then SIGKILL it (after an optional tiny delay so the kill lands at
    a less synchronized byte offset). Returns the acknowledged commits
    as ``[(k, stamp), ...]`` and whether the writer finished first."""
    acked: list[tuple[int, int]] = []
    finished = False
    assert proc.stdout is not None
    while True:
        line = proc.stdout.readline()
        if not line:
            finished = True
            break
        parts = line.split()
        if parts and parts[0] == "C":
            acked.append((int(parts[1]), int(parts[2])))
            if len(acked) >= acks:
                break
        elif parts and parts[0] == "DONE":
            finished = True
            break
    if not finished:
        if delay:
            time.sleep(delay)
        proc.kill()
    proc.wait(timeout=30)
    if proc.stdout is not None:
        proc.stdout.close()
    if proc.stderr is not None:
        proc.stderr.close()
    return acked, finished


# ---------------------------------------------------------------------------
# The writer subprocess
# ---------------------------------------------------------------------------

def writer_main(argv: list[str]) -> int:
    data_dir, seed, start, count, durability = (
        argv[0],
        int(argv[1]),
        int(argv[2]),
        int(argv[3]),
        argv[4],
    )
    sys.path.insert(0, SRC_DIR)
    from repro.engine.database import Database
    from repro.storage import mvcc

    db = Database(path=data_dir, durability=durability)
    conn = db.connect()
    print(f"S {mvcc.current_stamp()}", flush=True)
    if not db.catalog.has_table("t"):
        conn.run("CREATE TABLE t (id int, val int)")
        conn.run("CREATE TABLE progress (k int)")
    for k in range(start, start + count):
        commit_txn(conn, seed, k)
        print(f"C {k} {mvcc.current_stamp()}", flush=True)
    db.close()
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(writer_main(sys.argv[1:]))
