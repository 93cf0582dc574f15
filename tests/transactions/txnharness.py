"""Seeded concurrent-transaction schedules with an independent oracle.

A *schedule* is a fully deterministic interleaving of several
transactions over a shared :class:`repro.Database`: each transaction is
a seeded sequence of DML, provenance/aggregate/join reads, savepoint
operations and a final COMMIT or ROLLBACK, and the global step order
interleaves them randomly (per seed). The runner executes the steps one
at a time from a single thread, switching between per-transaction
connections — intra-statement execution is atomic in the engine, so the
statement-level interleaving is the concurrency that matters, and a
schedule replays bit-identically from its seed.

The oracle never looks inside the MVCC machinery. It keeps:

* ``committed`` — every table as a list of ``(row_id, row)`` pairs
  (row ids are the *oracle's own*, assigned independently of the
  engine's hidden identities), updated only when a COMMIT is expected
  to succeed (serial commit order = step order);
* ``last_write`` — for each oracle row id, the step index of the last
  successful commit that updated or deleted it;
* per transaction: the committed ``(row_id, row)`` state captured at
  its BEGIN (its snapshot), and the *effective* DML list —
  savepoint/rollback-to are modelled as plain list truncation,
  mirroring the SQL semantics.

Every read inside transaction T is then checked against first
principles: re-create T's snapshot in a scratch single-session
database, replay T's effective DML through plain SQL, run the same
SELECT, and require bit-identical rows (order included — all engines
guarantee deterministic row order). That is exactly the acceptance
property "every transaction's reads are explainable by a serial order
of the commits it observed, plus its own writes".

Commit outcomes are predicted independently at **row granularity**: T's
effective DML is replayed statement by statement over its snapshot
while tracking row identities positionally (UPDATE preserves row order
and count; DELETE keeps survivors in order, and since every predicate
is content-based, content-equal rows always share its fate, so a
greedy order-preserving match recovers exactly which ids died; INSERT
appends fresh ids). A row enters T's write set only if a statement
changed its content or deleted it. T's COMMIT must fail with
:class:`repro.SerializationError` iff some id in that write set was
written by another transaction's successful commit after T's BEGIN
(first-committer-wins per row) — and must succeed otherwise, with T's
per-row effects merged onto the current committed state exactly as the
engine merges them (deleted ids dropped, updated ids rewritten in
place, inserted rows appended).

On any mismatch the runner raises :class:`ScheduleFailure` carrying the
seed and the full step listing, and dumps it under
``.txn-failures/`` so a failing seed replays locally and uploads as a
CI artifact.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from typing import Optional

import repro
from repro import SerializationError

FAILURE_DIR = os.path.join(os.getcwd(), ".txn-failures")

# ---------------------------------------------------------------------------
# Schedule model
# ---------------------------------------------------------------------------

# Tables every schedule runs over (small on purpose: more collisions).
SCHEMA_SQL = (
    "CREATE TABLE acct (id int, grp text, bal int)",
    "CREATE TABLE book (id int, acct int, amt int)",
)
TABLES = ("acct", "book")
# SELECT * spellings used to capture table contents in heap order.
DUMP_SQL = {
    "acct": "SELECT id, grp, bal FROM acct",
    "book": "SELECT id, acct, amt FROM book",
}

# Materialized-view mode (``generate_schedule(..., matviews=True)``):
# the database additionally carries these matviews over the schedule
# tables — a delta-safe filter, a delta-safe join, a provenance-carrying
# one, and a non-delta-safe aggregate (stale-and-recompute path) — and
# readers query *through* them while writers churn the base tables.
# The oracle stays first-principles: the scratch database gets plain
# virtual VIEWs of the same names (reading a fresh matview is required
# to be bit-identical to unfolding its definition), so every check is
# still "replay the snapshot plus own writes, run the same SQL".
MATVIEW_DEFS = {
    "hot_acct": "SELECT id, grp, bal FROM acct WHERE bal >= 20",
    "acct_book": (
        "SELECT a.id, a.grp, b.amt FROM acct a JOIN book b ON b.acct = a.id"
    ),
    "grp_tot": "SELECT grp, sum(bal) AS total FROM acct GROUP BY grp",
}
MATVIEW_DDL = tuple(
    f"CREATE MATERIALIZED VIEW {name} AS {defining}"
    for name, defining in MATVIEW_DEFS.items()
) + (
    "CREATE MATERIALIZED VIEW prov_hot WITH PROVENANCE AS "
    "SELECT id, bal FROM acct WHERE bal >= 40",
)
MATVIEW_NAMES = tuple(MATVIEW_DEFS) + ("prov_hot",)
# The provenance matview has no plain-view twin in the scratch database
# (virtual views don't store provenance columns); its reads translate to
# the equivalent SELECT PROVENANCE over the base table instead. Row
# values compare exactly — the matview stores the same provenance
# columns the live rewrite produces.
ORACLE_SQL = {
    "SELECT * FROM prov_hot": "SELECT PROVENANCE id, bal FROM acct WHERE bal >= 40",
}
# Fresh-session checks run after the last step: by then every commit has
# landed, so an autocommit read through each matview (auto-refreshing
# the stale aggregate on the way) must match the serial committed state.
MATVIEW_FINAL_CHECKS = (
    "SELECT * FROM hot_acct",
    "SELECT * FROM acct_book",
    "SELECT grp, total FROM grp_tot ORDER BY grp",
    "SELECT * FROM prov_hot",
)


@dataclass
class Step:
    """One schedule step: transaction *txn* runs *sql*.

    ``kind`` drives the oracle: "begin", "commit", "rollback", "dml"
    (``table`` set), "read", "savepoint"/"rollback_to"/"release"
    (``name`` set).
    """

    txn: int
    kind: str
    sql: str = ""
    table: Optional[str] = None
    name: Optional[str] = None

    def describe(self) -> str:
        return f"T{self.txn}: {self.sql or self.kind.upper()}"


@dataclass
class Schedule:
    seed: int
    initial: dict[str, list[tuple]]
    steps: list[Step]
    matviews: bool = False

    def describe(self) -> str:
        lines = [f"seed {self.seed}" + (" (matviews)" if self.matviews else "")]
        for table, rows in self.initial.items():
            lines.append(f"  initial {table}: {rows}")
        lines.extend(f"  {i:3d}. {step.describe()}" for i, step in enumerate(self.steps))
        return "\n".join(lines)


class ScheduleFailure(AssertionError):
    """A schedule violated snapshot consistency; replay with its seed."""

    def __init__(self, message: str, schedule: Schedule, engine: str):
        self.schedule = schedule
        self.engine = engine
        path = _dump_failure(schedule, engine, message)
        flags = ", matviews=True" if schedule.matviews else ""
        super().__init__(
            f"[seed {schedule.seed}, engine {engine}] {message}\n"
            f"schedule dumped to {path}; replay with: "
            f"run_schedule(generate_schedule({schedule.seed}{flags}), "
            f"engine={engine!r})"
        )


def _dump_failure(schedule: Schedule, engine: str, message: str) -> str:
    os.makedirs(FAILURE_DIR, exist_ok=True)
    variant = "_mv" if schedule.matviews else ""
    path = os.path.join(FAILURE_DIR, f"seed_{schedule.seed}{variant}_{engine}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(message + "\n\n" + schedule.describe() + "\n")
    return path


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def generate_schedule(
    seed: int, transactions: int = 4, max_ops: int = 5, matviews: bool = False
) -> Schedule:
    """A deterministic schedule from *seed*: *transactions* interleaved
    transactions of up to *max_ops* DML/read operations each. With
    *matviews*, reads also go through the schedule's materialized views
    (``matviews=False`` schedules are bit-identical to earlier seeds)."""
    rng = random.Random(seed)
    groups = ["a", "b", "c"]
    initial = {
        "acct": [
            (i, rng.choice(groups), rng.randrange(0, 100))
            for i in range(1, rng.randrange(5, 9))
        ],
        "book": [
            (i, rng.randrange(1, 6), rng.randrange(-50, 50)) for i in range(1, 5)
        ],
    }
    next_id = 100  # fresh ids for inserts, disjoint per transaction

    per_txn: list[list[Step]] = []
    for txn in range(transactions):
        ops: list[Step] = [Step(txn, "begin", "BEGIN")]
        open_savepoints: list[str] = []
        for op_index in range(rng.randrange(2, max_ops + 1)):
            roll = rng.random()
            if roll < 0.12 and not open_savepoints:
                name = f"sp{txn}_{op_index}"
                ops.append(Step(txn, "savepoint", f"SAVEPOINT {name}", name=name))
                open_savepoints.append(name)
            elif roll < 0.2 and open_savepoints:
                name = rng.choice(open_savepoints)
                ops.append(
                    Step(txn, "rollback_to", f"ROLLBACK TO SAVEPOINT {name}", name=name)
                )
            elif roll < 0.55:
                ops.append(_random_write(rng, txn, next_id))
                next_id += 10
            else:
                ops.append(Step(txn, "read", _random_read(rng, matviews)))
        end = "commit" if rng.random() < 0.75 else "rollback"
        ops.append(Step(txn, end, end.upper()))
        per_txn.append(ops)

    # Random interleaving preserving each transaction's internal order.
    cursors = [0] * transactions
    steps: list[Step] = []
    while any(cursors[t] < len(per_txn[t]) for t in range(transactions)):
        candidates = [t for t in range(transactions) if cursors[t] < len(per_txn[t])]
        txn = rng.choice(candidates)
        steps.append(per_txn[txn][cursors[txn]])
        cursors[txn] += 1
    return Schedule(seed=seed, initial=initial, steps=steps, matviews=matviews)


def _random_write(rng: random.Random, txn: int, next_id: int) -> Step:
    groups = ["a", "b", "c"]
    choice = rng.randrange(5)
    if choice == 0:
        row = (next_id + txn, rng.choice(groups), rng.randrange(0, 100))
        return Step(txn, "dml", f"INSERT INTO acct VALUES {row!r}", table="acct")
    if choice == 1:
        delta, grp = rng.randrange(1, 20), rng.choice(groups)
        return Step(
            txn, "dml",
            f"UPDATE acct SET bal = bal + {delta} WHERE grp = '{grp}'",
            table="acct",
        )
    if choice == 2:
        ident, amount = rng.randrange(1, 9), rng.randrange(0, 120)
        return Step(
            txn, "dml",
            f"UPDATE acct SET bal = {amount} WHERE id = {ident}",
            table="acct",
        )
    if choice == 3:
        row = (next_id + txn, rng.randrange(1, 6), rng.randrange(-50, 50))
        return Step(txn, "dml", f"INSERT INTO book VALUES {row!r}", table="book")
    bound = rng.randrange(-40, 10)
    return Step(txn, "dml", f"DELETE FROM book WHERE amt < {bound}", table="book")


def _random_read(rng: random.Random, matviews: bool = False) -> str:
    queries = [
        "SELECT id, grp, bal FROM acct",
        "SELECT grp, sum(bal) FROM acct GROUP BY grp ORDER BY grp",
        "SELECT PROVENANCE id, bal FROM acct WHERE bal > {n}",
        "SELECT PROVENANCE grp, count(*) FROM acct GROUP BY grp ORDER BY grp",
        "SELECT a.id, b.amt FROM acct a JOIN book b ON b.acct = a.id",
        "SELECT PROVENANCE a.grp, b.amt FROM acct a JOIN book b ON b.acct = a.id WHERE b.amt > {m}",
        "SELECT sum(bal) FROM acct",
        "SELECT count(*) FROM book",
    ]
    if matviews:
        queries += [
            "SELECT * FROM hot_acct",
            "SELECT id, bal FROM hot_acct WHERE bal < {n}",
            "SELECT grp, count(*) FROM hot_acct GROUP BY grp ORDER BY grp",
            "SELECT * FROM acct_book",
            "SELECT h.id, h.bal, b.amt FROM hot_acct h JOIN book b ON b.acct = h.id",
            "SELECT grp, total FROM grp_tot ORDER BY grp",
            "SELECT * FROM prov_hot",
        ]
    sql = rng.choice(queries)
    return sql.format(n=rng.randrange(0, 80), m=rng.randrange(-30, 30))


# ---------------------------------------------------------------------------
# Oracle scratch database
# ---------------------------------------------------------------------------


class Scratch:
    """A private single-session database used to recompute expected
    states and results from first principles (always the row engine,
    independently of the engine under test)."""

    def __init__(self, matviews: bool = False) -> None:
        self.conn = repro.connect(engine="row")
        for sql in SCHEMA_SQL:
            self.conn.execute(sql)
        if matviews:
            # Plain virtual views under the matview names: the oracle's
            # statement of "a matview read is the unfolded query over
            # the visible snapshot", with no materialization machinery.
            for name, defining in MATVIEW_DEFS.items():
                self.conn.execute(f"CREATE VIEW {name} AS {defining}")

    def reset(self, state: dict[str, list[tuple]]) -> None:
        for table in TABLES:
            self.conn.execute(f"DELETE FROM {table}")
            if state[table]:
                self.conn.load_rows(table, state[table])

    def replay(self, state: dict[str, list[tuple]], dml: list[str]) -> None:
        self.reset(state)
        for sql in dml:
            self.conn.execute(sql)

    def dump(self) -> dict[str, list[tuple]]:
        return {
            table: self.conn.execute(DUMP_SQL[table]).fetchall() for table in TABLES
        }

    def query(self, sql: str) -> list[tuple]:
        return self.conn.execute(sql).fetchall()

    def close(self) -> None:
        self.conn.close()


# ---------------------------------------------------------------------------
# Row-identity tracking (the oracle's own ids, independent of the engine)
# ---------------------------------------------------------------------------

Model = dict[str, list[tuple[int, tuple]]]  # table -> [(row_id, row), ...]


def _content(model: Model) -> dict[str, list[tuple]]:
    return {table: [row for _, row in pairs] for table, pairs in model.items()}


def _replay_with_ids(
    scratch: Scratch,
    snapshot: Model,
    effective: list[tuple[str, str]],
    alloc,
) -> tuple[Model, dict[str, set[int]]]:
    """Replay *effective* DML over *snapshot*, tracking which oracle row
    ids each statement updates (to different content) or deletes.
    Returns the transaction's final model and its per-table write set.

    Identity follows position: UPDATE preserves row order and count, so
    position i keeps its id; DELETE preserves survivor order, and since
    predicates are content-based, content-equal rows share the
    predicate's fate — a greedy order-preserving match therefore
    recovers the deleted ids exactly; INSERT appends rows with fresh
    ids from *alloc*."""
    model: Model = {table: list(snapshot[table]) for table in TABLES}
    written: dict[str, set[int]] = {table: set() for table in TABLES}
    scratch.reset(_content(model))
    for sql, table in effective:
        scratch.conn.execute(sql)
        new_rows = scratch.query(DUMP_SQL[table])
        pairs = model[table]
        verb = sql.split(None, 1)[0].upper()
        if verb == "INSERT":
            for row in new_rows[len(pairs):]:
                pairs.append((next(alloc), row))
        elif verb == "UPDATE":
            assert len(new_rows) == len(pairs), "UPDATE changed row count"
            for i, row in enumerate(new_rows):
                rid, previous = pairs[i]
                if row != previous:
                    pairs[i] = (rid, row)
                    written[table].add(rid)
        elif verb == "DELETE":
            kept: list[tuple[int, tuple]] = []
            cursor = 0
            for rid, previous in pairs:
                if cursor < len(new_rows) and new_rows[cursor] == previous:
                    kept.append((rid, previous))
                    cursor += 1
                else:
                    written[table].add(rid)
            assert cursor == len(new_rows), "DELETE reordered surviving rows"
            model[table] = kept
        else:  # pragma: no cover - generator invariant
            raise AssertionError(f"untracked DML verb {verb!r}")
    return model, written


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


@dataclass
class _TxnState:
    conn: repro.Connection
    snapshot: Model = field(default_factory=dict)  # (row_id, row) pairs
    begin_step: int = -1
    # Effective DML after savepoint truncation (mirrors SQL semantics
    # with plain list operations — independent of the MVCC code).
    effective: list[tuple[str, str]] = field(default_factory=list)  # (sql, table)
    savepoints: list[tuple[str, int]] = field(default_factory=list)  # (name, length)
    finished: bool = False

    @property
    def dml(self) -> list[str]:
        return [sql for sql, _ in self.effective]

    @property
    def snapshot_rows(self) -> dict[str, list[tuple]]:
        return _content(self.snapshot)


def run_schedule(schedule: Schedule, engine: str = "row") -> dict[str, int]:
    """Execute *schedule* on *engine*, checking every read and commit
    against the oracle. Returns counters (reads checked, commits,
    conflicts) so tests can assert the schedule exercised something."""
    database = repro.Database()
    setup = repro.connect(database=database)
    for sql in SCHEMA_SQL:
        setup.execute(sql)
    for table, rows in schedule.initial.items():
        setup.load_rows(table, rows)
    if schedule.matviews:
        for sql in MATVIEW_DDL:
            setup.execute(sql)

    scratch = Scratch(matviews=schedule.matviews)
    # The serially-evolving committed state, with the oracle's own row
    # identities (updated only at commits).
    alloc = itertools.count(1)
    committed: Model = {
        table: [(next(alloc), row) for row in rows]
        for table, rows in schedule.initial.items()
    }
    # Per row id, the step index of the last successful commit that
    # updated or deleted it (first-committer-wins at row granularity).
    last_write: dict[int, int] = {}

    txns: dict[int, _TxnState] = {}
    counters = {
        "reads": 0,
        "commits": 0,
        "conflicts": 0,
        "rollbacks": 0,
        "matview_reads": 0,
    }

    def fail(step_index: int, step: Step, message: str) -> None:
        raise ScheduleFailure(
            f"step {step_index} ({step.describe()}): {message}", schedule, engine
        )

    for index, step in enumerate(schedule.steps):
        state = txns.get(step.txn)
        if step.kind == "begin":
            conn = repro.connect(database=database, engine=engine)
            conn.execute("BEGIN")
            txns[step.txn] = _TxnState(
                conn=conn,
                snapshot={table: list(pairs) for table, pairs in committed.items()},
                begin_step=index,
            )
            continue
        assert state is not None and not state.finished, "generator bug: op after end"
        if step.kind == "dml":
            state.conn.execute(step.sql)
            state.effective.append((step.sql, step.table or ""))
        elif step.kind == "savepoint":
            state.conn.execute(step.sql)
            state.savepoints.append((step.name or "", len(state.effective)))
        elif step.kind == "rollback_to":
            state.conn.execute(step.sql)
            for name, length in reversed(state.savepoints):
                if name == step.name:
                    del state.effective[length:]
                    break
        elif step.kind == "read":
            actual = state.conn.execute(step.sql)
            oracle_sql = ORACLE_SQL.get(step.sql, step.sql)
            scratch.replay(state.snapshot_rows, state.dml)
            expected_rows = scratch.query(oracle_sql)
            if actual.fetchall() != expected_rows:
                scratch.replay(state.snapshot_rows, state.dml)
                fail(
                    index,
                    step,
                    "read is not explainable by the transaction's snapshot "
                    "plus its own writes\n"
                    f"  expected: {expected_rows}\n"
                    f"  actual:   {state.conn.execute(step.sql).fetchall()}",
                )
            counters["reads"] += 1
            if any(name in step.sql for name in MATVIEW_NAMES):
                counters["matview_reads"] += 1
        elif step.kind == "rollback":
            state.conn.execute("ROLLBACK")
            state.finished = True
            counters["rollbacks"] += 1
            # Committed state is untouched; verify via a fresh autocommit
            # read on the same connection (new snapshot).
            observed = {
                table: state.conn.execute(DUMP_SQL[table]).fetchall()
                for table in TABLES
            }
            if observed != _content(committed):
                fail(index, step, f"ROLLBACK leaked writes: {observed}")
            state.conn.close()
        elif step.kind == "commit":
            model, written = _replay_with_ids(
                scratch, state.snapshot, state.effective, alloc
            )
            conflict = any(
                last_write.get(rid, -1) > state.begin_step
                for table in TABLES
                for rid in written[table]
            )
            if conflict:
                try:
                    state.conn.execute("COMMIT")
                except SerializationError:
                    counters["conflicts"] += 1
                else:
                    fail(index, step, "expected a serialization conflict, commit succeeded")
            else:
                try:
                    state.conn.execute("COMMIT")
                except SerializationError as error:
                    fail(index, step, f"unexpected serialization failure: {error}")
                counters["commits"] += 1
                # Merge the transaction's per-row effects onto the
                # current committed state (exactly the engine's merge:
                # deleted ids dropped, updated ids rewritten in place,
                # inserted rows appended in the transaction's order).
                for table in TABLES:
                    snapshot_ids = {rid for rid, _ in state.snapshot[table]}
                    content = {rid: row for rid, row in model[table]}
                    deleted = {
                        rid for rid in written[table] if rid not in content
                    }
                    updated = written[table] - deleted
                    inserted = [
                        (rid, row)
                        for rid, row in model[table]
                        if rid not in snapshot_ids
                    ]
                    if not (written[table] or inserted):
                        continue
                    merged: list[tuple[int, tuple]] = []
                    for rid, row in committed[table]:
                        if rid in deleted:
                            continue
                        merged.append((rid, content[rid]) if rid in updated else (rid, row))
                    merged.extend(inserted)
                    committed[table] = merged
                    for rid in written[table]:
                        last_write[rid] = index
                    for rid, _ in inserted:
                        last_write[rid] = index
            state.finished = True
            # Either way the connection now reads the latest committed state.
            observed = {
                table: state.conn.execute(DUMP_SQL[table]).fetchall()
                for table in TABLES
            }
            if observed != _content(committed):
                fail(
                    index,
                    step,
                    f"post-commit state diverged:\n  expected {_content(committed)}\n"
                    f"  observed {observed}",
                )
            state.conn.close()
        else:  # pragma: no cover - generator invariant
            raise AssertionError(f"unknown step kind {step.kind!r}")

    # Final convergence: a fresh session sees exactly the serial result.
    final = {table: setup.execute(DUMP_SQL[table]).fetchall() for table in TABLES}
    if final != _content(committed):
        raise ScheduleFailure(
            f"final state diverged from serial commit order:\n"
            f"  expected {_content(committed)}\n  observed {final}",
            schedule,
            engine,
        )
    if schedule.matviews:
        # Autocommit reads through every matview (auto-refreshing any
        # view the commits left stale) must agree with the serial
        # committed state — incremental maintenance and recompute both
        # land on the unfolded answer.
        scratch.reset(_content(committed))
        for sql in MATVIEW_FINAL_CHECKS:
            expected = scratch.query(ORACLE_SQL.get(sql, sql))
            observed = setup.execute(sql).fetchall()
            if observed != expected:
                raise ScheduleFailure(
                    f"materialized view diverged after the last commit:\n"
                    f"  {sql}\n  expected {expected}\n  observed {observed}",
                    schedule,
                    engine,
                )
        # A view may go stale for a stated reason; an interpreter error
        # must never hide behind the recompute.
        reasons = database.matview_stats()["stale_reasons"]
        if any(reason.startswith("error:") for reason in reasons):
            raise ScheduleFailure(
                f"matview maintenance raised: {reasons}", schedule, engine
            )
    scratch.close()
    setup.close()
    return counters
