"""The five workloads.

Every workload is a deterministic stream of *blocks* of ops, a function
of ``--seed`` alone; all blocks of a workload have the same op mix, so
block rates are comparable. Block 0 is the warm-up pass (inside
``setup_s``); measuring starts at block 1. The program under test sees
only SQL text, parameters and wire frames.

A workload is its own (single, closed-loop) caller: ``block(i)`` lists
the ops of block *i*, ``execute(op)`` is timed, ``check(op, result)`` is
not (a wrong answer is a failed op).
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import time
from pathlib import Path

import repro
from repro import SerializationError
from repro.engine.database import Database
from repro.server import PermServer, ServerClient, ServerThread
from repro.workloads import forum
from repro.workloads.queries import QUERY_CLASSES, with_provenance
from repro.workloads.tpch import TpchConfig, create_tpch_db

from .harness import OUT_DIR, Op, median, percentile, result_hash

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def load_expected(name: str) -> dict:
    """``expected/<name>.json``: statement key -> [row count, hash]."""
    return json.loads((EXPECTED_DIR / f"{name}.json").read_text())["statements"]


def matches(expected: dict, key: str, rows: list) -> bool:
    return expected.get(key) == [len(rows), result_hash(rows)]


class Workload:
    name = ""
    why = ""
    # Blocks the traced run records: about a quarter of what an untraced
    # run of BENCHMARK.json's run_seconds gets through on the reference
    # machine. Fixed, so that the traced counts repeat exactly.
    trace_blocks = 1

    def __init__(self, seed: int, smoke: bool = False, trace: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.trace = trace
        self.database: Database  # set by setup()

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def finish(self) -> list[str]:
        """End-of-run verification; one message per failed check."""
        return []

    def instrument(self, tracer) -> None:
        """Install the workload's own span wrappers (traced runs only)."""
        from .tracing import instrument_database

        instrument_database(tracer, self.database)

    def counters(self) -> dict:
        """Cumulative database-level counters, by layer-metric name
        (underscore-prefixed keys feed ratios only)."""
        database = self.database
        views = database.matview_stats()
        wal = database.wal_stats()
        return {
            "engine.matview.incremental_commits": views["incremental_commits"],
            "engine.matview.stale_marks": views["stale_marks"],
            "storage.mvcc.conflicts": database.manager.conflict_count,
            "storage.mvcc.gc_runs": database.gc_stats()["gc_runs"],
            "storage.wal.fsyncs": wal.get("fsyncs", 0),
            "_wal_bytes": wal.get("bytes_appended", 0),
            "_wal_records": wal.get("records_appended", 0),
        }

    def layer_metrics(self, summary, traced, grown: dict) -> tuple[dict, dict]:
        """Workload-specific layer metrics and free-form detail for the
        trace summary, computed after :meth:`finish`."""
        return {}, {}


# ---------------------------------------------------------------------------
# adhoc_frontend
# ---------------------------------------------------------------------------

# The literal pool does not depend on --seed (the seed picks from it and
# orders it), so one committed expected file covers every seed.
POOL_SEED = 2009
ADHOC_VARIANTS = 40

# template -> (text in the repro.workloads query, the same text with a
# literal slot, the integers the slot may take).
_ADHOC_SLOTS = {
    "spj_filter": ("o_totalprice > 200000", "o_totalprice > {}", range(100000, 390000)),
    "spj_join2": (
        "o_orderstatus = 'O'",
        "o_orderstatus = 'O' AND o_totalprice > {}",
        range(1000, 300000),
    ),
    "spj_join3": (
        "l_returnflag = 'R'",
        "l_returnflag = 'R' AND l_quantity <= {}",
        range(10, 50),
    ),
    "spj_outer": ("o_totalprice > 300000", "o_totalprice > {}", range(250000, 390000)),
    "agg_global": (
        "FROM lineitem",
        "FROM lineitem WHERE l_extendedprice < {}",
        range(20000, 100000),
    ),
    "agg_group": (
        "FROM orders GROUP BY",
        "FROM orders WHERE o_totalprice > {} GROUP BY",
        range(1000, 300000),
    ),
    "agg_join_group": (
        "GROUP BY c_mktsegment",
        "WHERE o_totalprice > {} GROUP BY c_mktsegment",
        range(1000, 300000),
    ),
    "agg_having": (
        "FROM orders GROUP BY",
        "FROM orders WHERE o_totalprice > {} GROUP BY",
        range(1000, 200000),
    ),
    "set_union": ("c_acctbal > 5000", "c_acctbal > {}", range(1000, 9000)),
    "set_union_all": ("c_acctbal > 5000", "c_acctbal > {}", range(1000, 9000)),
    "set_intersect": ("c_acctbal > 0", "c_acctbal > {}", range(-900, 5000)),
    "set_except": (
        "FROM customer EXCEPT",
        "FROM customer WHERE c_acctbal > {} EXCEPT",
        range(-900, 5000),
    ),
    "nested_in": ("o_totalprice > 300000", "o_totalprice > {}", range(200000, 390000)),
    "nested_exists": (
        "o.o_orderstatus = 'F'",
        "o.o_orderstatus = 'F' AND o.o_totalprice > {}",
        range(1000, 300000),
    ),
    "nested_scalar": (
        "FROM orders)",
        "FROM orders WHERE o_totalprice > {})",
        range(1000, 200000),
    ),
    # The paper's Figure 1 / section 2.4 queries; the added predicate is
    # always true on the four-row forum tables, it only makes the text new.
    "forum_q1": ("FROM imports", "FROM imports WHERE mId <> {}", range(1000, 100000)),
    "forum_q3": ("GROUP BY", "WHERE a.uId <> {} GROUP BY", range(1000, 100000)),
    "forum_sqlple": ("cnt > 0", "cnt > 0 AND cnt < {}", range(1000, 100000)),
}


def _adhoc_bases() -> dict[str, str]:
    bases = {
        name: with_provenance(sql)
        for queries in QUERY_CLASSES.values()
        for name, sql in queries.items()
    }
    bases["forum_q1"] = with_provenance(forum.Q1)
    bases["forum_q3"] = with_provenance(forum.Q3)
    bases["forum_sqlple"] = forum.SQLPLE_QUERYING_PROVENANCE
    return bases


def adhoc_pool() -> dict[str, list[tuple[str, str]]]:
    """template -> ``ADHOC_VARIANTS`` (expected-file key, SQL text)."""
    rng = random.Random(POOL_SEED)
    pool = {}
    for name, base in _adhoc_bases().items():
        find, slot, values = _ADHOC_SLOTS[name]
        if base.count(find) != 1:
            raise AssertionError(f"{name}: {find!r} must occur once in {base!r}")
        pool[name] = [
            (f"{name}:{literal}", base.replace(find, slot.format(literal)))
            for literal in rng.sample(values, ADHOC_VARIANTS)
        ]
    return pool


def adhoc_connection(engine: str):
    conn = repro.connect(engine=engine)
    create_tpch_db(TpchConfig().scale(0.25), db=conn)
    forum.create_forum_db(db=conn)
    return conn


class AdhocFrontend(Workload):
    name = "adhoc_frontend"
    why = (
        "a fresh provenance query per op misses the plan cache, so parse, analyze, "
        "rewrite, optimize and plan dominate and the row executor does little"
    )
    trace_blocks = 7

    def setup(self) -> None:
        self.conn = adhoc_connection("row")
        self.database = self.conn.database
        self.expected = load_expected(self.name)
        # Four variants of every template per block: 10 blocks walk the
        # whole pool of 720 texts before one recurs, far beyond the
        # 128-entry plan cache.
        self.per_block = 1 if self.smoke else 4
        self.pool = adhoc_pool()
        self.order = {
            name: random.Random(f"{self.seed}:{name}").sample(variants, len(variants))
            for name, variants in self.pool.items()
        }

    def teardown(self) -> None:
        self.conn.close()

    def block(self, index: int) -> list[Op]:
        ops = []
        for name, variants in self.order.items():
            for j in range(self.per_block):
                pick = variants[(index * self.per_block + j) % len(variants)]
                ops.append(Op("read", name, pick))
        random.Random(f"{self.seed}:block:{index}").shuffle(ops)
        return ops

    def execute(self, op: Op):
        return self.conn.execute(op.payload[1]).fetchall()

    def check(self, op: Op, rows) -> bool:
        return matches(self.expected, op.payload[0], rows)

    def finish(self) -> list[str]:
        stats = self.conn.plan_cache.stats()
        ratio = stats["hits"] / max(1, stats["hits"] + stats["misses"])
        if ratio >= 0.02:
            return [f"plan cache hit ratio {ratio:.3f}: statements are not fresh"]
        return []


# ---------------------------------------------------------------------------
# analytic_vectorized / analytic_pushdown
# ---------------------------------------------------------------------------

# set_except is left out: its provenance is a quadratic witness list that
# would outweigh the other fourteen together.
ANALYTIC_STATEMENTS = {
    name: sql
    for queries in QUERY_CLASSES.values()
    for name, sql in queries.items()
    if name != "set_except"
}
ANALYTIC_SCALE = 8
ANALYTIC_SMOKE_SCALE = 1
# Statements also timed without PROVENANCE. Not the NESTED class: a plain
# correlated sublink is evaluated per outer row (the rewrite unnests it),
# 12 s for nested_exists at this scale, which is another experiment.
PLAIN_COMPARED = tuple(n for n in ANALYTIC_STATEMENTS if not n.startswith("nested_"))


def analytic_connection(engine: str, scale: int):
    return create_tpch_db(TpchConfig().scale(scale), engine=engine)


def _median_seconds(statement) -> float:
    times = []
    for _ in range(7):
        began = time.perf_counter()
        statement.execute()
        times.append(time.perf_counter() - began)
    return median(times)


class _Analytic(Workload):
    engine = ""

    def setup(self) -> None:
        self.scale = ANALYTIC_SMOKE_SCALE if self.smoke else ANALYTIC_SCALE
        self.conn = analytic_connection(self.engine, self.scale)
        self.database = self.conn.database
        self.expected = load_expected("analytic")
        self.statements = {
            name: self.conn.prepare(with_provenance(sql))
            for name, sql in ANALYTIC_STATEMENTS.items()
        }

    def teardown(self) -> None:
        self.conn.close()

    def block(self, index: int) -> list[Op]:
        names = sorted(self.statements)
        random.Random(f"{self.seed}:pass:{index}").shuffle(names)
        return [Op("read", name) for name in names]

    def execute(self, op: Op):
        return self.statements[op.label].execute().rows

    def check(self, op: Op, rows) -> bool:
        return matches(self.expected, f"{op.label}@{self.scale}", rows)

    def _statement_seconds(self, conn) -> tuple[dict, dict]:
        """Median execute time of the ``PLAIN_COMPARED`` statements on
        *conn*, with and without PROVENANCE (after one unmeasured
        execution of each)."""
        prov, plain = {}, {}
        for name in PLAIN_COMPARED:
            sql = ANALYTIC_STATEMENTS[name]
            for table, text in ((prov, with_provenance(sql)), (plain, sql)):
                statement = conn.prepare(text)
                statement.execute()
                table[name] = _median_seconds(statement)
        return prov, plain

    def layer_metrics(self, summary, traced, grown):
        self.seconds = prov, plain = self._statement_seconds(self.conn)
        detail = {
            "prov_overhead_by_statement": {
                name: prov[name] / plain[name] for name in sorted(prov)
            }
        }
        # Base: the same statements without PROVENANCE.
        values = {"core.prov_overhead_ratio": sum(prov.values()) / sum(plain.values())}
        return values, detail


class AnalyticVectorized(_Analytic):
    name = "analytic_vectorized"
    engine = "vectorized"
    why = (
        "prepared provenance queries over 8x data: the front end is paid in set-up, "
        "so the vectorized executor does the work; bypasses front-end and cache changes"
    )
    trace_blocks = 9


class AnalyticPushdown(_Analytic):
    name = "analytic_pushdown"
    engine = "sqlite"
    why = (
        "the same statements, data and order handed to SQLite as one statement each: "
        "the backend works, no Python executor does; separates executor from the rest"
    )
    trace_blocks = 5

    def finish(self) -> list[str]:
        """A traced run replays the statements on ``sqlite-partition``,
        which gets no workload of its own: its shard threads on a
        two-core box measure the scheduler. Its results must still be
        the expected ones."""
        if not self.trace:
            return []
        conn = repro.connect(database=self.database, engine="sqlite-partition")
        problems = []
        try:
            for name, sql in ANALYTIC_STATEMENTS.items():
                rows = conn.prepare(with_provenance(sql)).execute().rows
                if not matches(self.expected, f"{name}@{self.scale}", rows):
                    problems.append(f"sqlite-partition: wrong result for {name}")
            self.partition_seconds = self._statement_seconds(conn)
            backend = conn.planner.backend
            self.partition_rescues = backend.rescues
            self.partition_plans = {
                "partitioned": backend.partitioned_plans,
                "delegated": backend.delegated_plans,
            }
        finally:
            conn.close()
        return problems

    def layer_metrics(self, summary, traced, grown):
        values, detail = super().layer_metrics(summary, traced, grown)
        prov, plain = self.seconds
        part_prov, part_plain = self.partition_seconds
        values.update(
            {
                "backend.partition.execute_ms": median(list(part_prov.values())) * 1000.0,
                "backend.partition.rescues": self.partition_rescues,
                # Base: the single-connection sqlite backend, same statements.
                "backend.partition.speedup_vs_sqlite": sum(prov.values())
                / sum(part_prov.values()),
            }
        )
        # Of the 14 provenance and 11 plain statements planned there.
        detail["partition_plans"] = self.partition_plans
        detail["partition_speedup_vs_sqlite"] = {
            "provenance": {n: prov[n] / part_prov[n] for n in sorted(prov)},
            "plain": {n: plain[n] / part_plain[n] for n in sorted(plain)},
        }
        return values, detail


# ---------------------------------------------------------------------------
# served_mixed
# ---------------------------------------------------------------------------

ACCOUNTS = 2000
BRANCHES = 4
OPENING_BALANCE = 1000
LEDGER_PER_ACCOUNT = 4
TRANSFER_ATTEMPTS = 50

POINT_SQL = (
    "SELECT PROVENANCE a.id, a.balance, l.amount FROM accounts a "
    "JOIN ledger l ON l.account = a.id WHERE a.id = ?"
)
MEDIUM_SQL = "SELECT PROVENANCE id, balance FROM accounts WHERE branch = ?"
INSERT_SQL = "INSERT INTO ledger VALUES (?, ?, ?)"
DEBIT_SQL = "UPDATE accounts SET balance = balance - ? WHERE id = ?"
CREDIT_SQL = "UPDATE accounts SET balance = balance + ? WHERE id = ?"
# 50 % point reads, 30 % medium reads, 10 % inserts, 10 % transfers. A
# block is four such segments, each shuffled on its own, so that how many
# reads fall between two writes varies little from seed to seed.
SERVED_SEGMENT = ("point",) * 5 + ("medium",) * 3 + ("insert", "transfer")
SERVED_SEGMENTS = 4


class ServedMixed(Workload):
    name = "served_mixed"
    why = (
        "provenance reads beside fsynced inserts and transfers over two wire sessions: the "
        "only path through server, MVCC commit, WAL and the mirror re-sync writes force"
    )
    trace_blocks = 8
    _directories = itertools.count()

    def setup(self) -> None:
        self.path = OUT_DIR / "work" / f"{os.getpid()}-{next(self._directories)}"
        self.path.mkdir(parents=True)
        # Flush policy, fixed: every commit is fsynced before it is
        # acknowledged; no automatic checkpoint inside a run.
        self.database = Database(path=str(self.path), durability="fsync", checkpoint_bytes=0)
        loader = self.database.connect()
        loader.run(
            "CREATE TABLE accounts (id int, branch int, balance int);"
            "CREATE TABLE ledger (entry int, account int, amount int)"
        )
        loader.load_rows(
            "accounts", [(i, i % BRANCHES, OPENING_BALANCE) for i in range(ACCOUNTS)]
        )
        loader.load_rows(
            "ledger",
            [
                (i * LEDGER_PER_ACCOUNT + k, i, 10 + k)
                for i in range(ACCOUNTS)
                for k in range(LEDGER_PER_ACCOUNT)
            ],
        )
        loader.close()
        self.server = PermServer(database=self.database, max_workers=2)
        self.thread = ServerThread(self.server).start()
        # Two sessions, one caller: ops go to the sessions in turn, so a
        # write through one outdates the other's mirror, yet no two
        # requests ever overlap and every count repeats exactly. Two
        # callers at once are a different regime, see the README.
        self.wires = [
            ServerClient("127.0.0.1", self.server.port, engine="sqlite") for _ in range(2)
        ]
        self.points = [wire.prepare(POINT_SQL) for wire in self.wires]
        self.acknowledged_inserts = 0
        self.retries = 0
        self.recovery_ms = self.checkpoint_ms = 0.0

    def _stop_server(self) -> None:
        for wire in self.wires:
            wire.close()
        if self.thread is not None:
            # The server tears a session down after saying goodbye; give
            # it that moment, or stopping the loop cancels the teardown
            # and asyncio logs it.
            deadline = time.perf_counter() + 2.0
            while self.server.stats.sessions_open and time.perf_counter() < deadline:
                time.sleep(0.005)
            time.sleep(0.05)
            self.thread.stop()
            self.thread = None

    def teardown(self) -> None:
        self._stop_server()
        self.database.close()
        shutil.rmtree(self.path, ignore_errors=True)

    def block(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.seed}:block:{index}")
        deck = []
        for _ in range(SERVED_SEGMENTS):
            deck += rng.sample(SERVED_SEGMENT, len(SERVED_SEGMENT))
        ops = []
        for position, label in enumerate(deck):
            session = position % 2
            if label == "point":
                ops.append(Op("read", label, (session, rng.randrange(ACCOUNTS))))
            elif label == "medium":
                ops.append(Op("read", label, (session, rng.randrange(BRANCHES))))
            elif label == "insert":
                entry = 10_000_000 + index * len(deck) + position
                row = [entry, rng.randrange(ACCOUNTS), rng.randint(1, 99)]
                ops.append(Op("write", label, (session, row)))
            else:
                source, target = rng.sample(range(ACCOUNTS), 2)
                ops.append(Op("write", label, (session, (source, target, rng.randint(1, 9)))))
        return ops

    def session_of(self, op: Op) -> int:
        return self.wires[op.payload[0]].server_info["session"]

    def execute(self, op: Op):
        session, argument = op.payload
        wire = self.wires[session]
        if op.label == "point":
            return self.points[session].execute([argument]).rows
        if op.label == "medium":
            return wire.query(MEDIUM_SQL, [argument]).rows
        if op.label == "insert":
            result = wire.query(INSERT_SQL, argument)
            self.acknowledged_inserts += 1
            return result.rowcount
        source, target, amount = argument
        for _ in range(TRANSFER_ATTEMPTS):
            try:
                wire.begin()
                wire.query(DEBIT_SQL, [amount, source])
                wire.query(CREDIT_SQL, [amount, target])
                wire.commit()
                return 1
            except SerializationError:
                wire.rollback()
                self.retries += 1
        raise SerializationError(f"transfer gave up after {TRANSFER_ATTEMPTS} attempts")

    def check(self, op: Op, result) -> bool:
        if op.kind == "write":
            return result == 1
        argument = op.payload[1]
        if op.label == "point":
            # id, balance, amount, then the provenance of accounts
            # (id, branch, balance) and of ledger (entry, account, amount).
            return len(result) >= LEDGER_PER_ACCOUNT and all(
                r[0] == r[3] == r[7] == argument and r[1] == r[5] and r[2] == r[8]
                for r in result
            )
        return len(result) == ACCOUNTS // BRANCHES and all(
            r[0] == r[2] and r[3] == argument and r[1] == r[4] for r in result
        )

    def instrument(self, tracer) -> None:
        from repro.server import protocol
        from repro.server.session import Session

        super().instrument(tracer)
        self.frame_bytes = self.frame_rows = 0

        def count_frame(args, frame) -> None:
            rows = args[0].get("rows")
            if rows:
                self.frame_bytes += len(frame)
                self.frame_rows += len(rows)

        tracer.patch(Session, "handle", "server.session", session=True)
        tracer.patch(protocol, "encode_frame", "server.encode", observe=count_frame)
        for entry in ("rows_to_wire", "params_to_wire"):
            tracer.patch(protocol, entry, "server.encode")
        for entry in ("decode_body", "rows_from_wire", "params_from_wire"):
            tracer.patch(protocol, entry, "server.decode")

    def counters(self) -> dict:
        values = super().counters()
        server = self.server.stats.snapshot()
        for key in ("busy_rejections", "retries", "conflicts"):
            values[f"server.{key}"] = server[key]
        values["server.retries"] += self.retries
        return values

    def _invariants(self, query, where: str) -> list[str]:
        balance = query("SELECT sum(balance) FROM accounts")[0][0]
        entries = query("SELECT count(*) FROM ledger")[0][0]
        acknowledged = self.acknowledged_inserts
        problems = []
        if balance != ACCOUNTS * OPENING_BALANCE:
            problems.append(f"{where}: balances sum to {balance}")
        if entries != ACCOUNTS * LEDGER_PER_ACCOUNT + acknowledged:
            problems.append(
                f"{where}: {entries} ledger rows for {acknowledged} acknowledged inserts"
            )
        return problems

    def finish(self) -> list[str]:
        wire = self.wires[0]
        problems = self._invariants(lambda sql: wire.query(sql).rows, "served")
        self.versions_retained = self.database.gc_stats()["versions_retained"]
        # Every acknowledged write must survive a restart: stop the
        # server, close the database, recover from the directory alone.
        self._stop_server()
        self.database.close()
        self.database = Database(path=str(self.path), durability="fsync", checkpoint_bytes=0)
        self.recovery_ms = self.database.wal_stats()["recovery_ms"]
        conn = self.database.connect()
        problems += self._invariants(lambda sql: conn.run(sql).rows, "after restart")
        conn.close()
        began = time.perf_counter()
        self.database.checkpoint()
        self.checkpoint_ms = (time.perf_counter() - began) * 1000.0
        return problems

    def layer_metrics(self, summary, traced, grown):
        ops = traced.attempted
        points = traced.op_ids("point")
        op_seconds = summary.durations("op")
        engine_seconds = summary.durations("engine.request")
        overhead = [
            (op_seconds[op] - engine_seconds.get(op, 0.0)) * 1000.0 for op in points
        ]
        values = {
            # Mean per op, every thread: frames are also encoded and
            # decoded on the server's event loop, which serves no one op.
            "server.encode_ms": summary.total_self("server.encode") / ops * 1000.0,
            "server.decode_ms": summary.total_self("server.decode") / ops * 1000.0,
            "server.bytes_per_row": self.frame_bytes / max(1, self.frame_rows),
            # Client latency minus the time the same request spent inside
            # the embedded connection, point reads.
            "server.wire_overhead_ms": median(overhead),
            "storage.wal.bytes_per_commit": grown["_wal_bytes"]
            / max(1, grown["_wal_records"]),
            "storage.wal.recovery_ms": self.recovery_ms,
            "storage.wal.checkpoint_ms": self.checkpoint_ms,
            "storage.mvcc.versions_retained": self.versions_retained,
        }
        detail = {
            "latency_ms_by_op": {
                label: {
                    "n": len(traced.latencies_ms(kind, label)),
                    "p50": percentile(traced.latencies_ms(kind, label), 0.5),
                    "p95": percentile(traced.latencies_ms(kind, label), 0.95),
                }
                for kind, label in (
                    ("read", "point"),
                    ("read", "medium"),
                    ("write", "insert"),
                    ("write", "transfer"),
                )
            }
        }
        return values, detail


# ---------------------------------------------------------------------------
# dashboard_matview
# ---------------------------------------------------------------------------

EVENTS = 10_000
GROUPS = 50
DASH_THRESHOLD = 980
READS_PER_VIEW = 4
CYCLES_PER_BLOCK = 4  # one DELETE per block

DASH_SQL = (
    "SELECT e.id, e.val, d.label FROM events e JOIN dims d ON d.grp = e.grp "
    f"WHERE e.val >= {DASH_THRESHOLD}"
)
TOTALS_SQL = (
    "SELECT d.label, count(*) AS n, sum(e.val) AS total FROM events e "
    "JOIN dims d ON d.grp = e.grp GROUP BY d.label"
)


class DashboardMatview(Workload):
    name = "dashboard_matview"
    why = (
        "small committed updates between reads of a maintained and a recomputed view: "
        "read p50 is the matview fast path, read p95 the recompute cliff"
    )
    trace_blocks = 12

    def setup(self) -> None:
        self.database = Database()
        self.writer = self.database.connect()
        self.reader = self.database.connect()
        self.writer.run(
            "CREATE TABLE events (id int, grp int, val int);"
            "CREATE TABLE dims (grp int, label text)"
        )
        data = random.Random(POOL_SEED)
        events = 1000 if self.smoke else EVENTS
        self.first_new_id = events + 1
        # The harness's own copy of `events`, to know what a read must return.
        self.model = {
            i: (data.randrange(GROUPS), data.randrange(1000)) for i in range(1, events + 1)
        }
        self.writer.load_rows("events", [(i, g, v) for i, (g, v) in self.model.items()])
        self.writer.load_rows("dims", [(g, f"g{g}") for g in range(GROUPS)])
        # dash is delta-safe: maintained inside the committing transaction.
        # totals (GROUP BY) is not: marked stale, recomputed by the next read.
        self.writer.run(f"CREATE MATERIALIZED VIEW dash WITH PROVENANCE AS {DASH_SQL}")
        self.writer.run(f"CREATE MATERIALIZED VIEW totals AS {TOTALS_SQL}")
        self.cycles = 0

    def teardown(self) -> None:
        self.writer.close()
        self.reader.close()

    def block(self, index: int) -> list[Op]:
        ops = []
        for j in range(CYCLES_PER_BLOCK):
            cycle = index * CYCLES_PER_BLOCK + j
            rng = random.Random(f"{self.seed}:cycle:{cycle}")
            new_id = self.first_new_id + 3 * cycle
            inserts = [
                (new_id + k, rng.randrange(GROUPS), rng.randrange(1000)) for k in range(3)
            ]
            update = (rng.randrange(1000), rng.randrange(1, new_id))
            delete = rng.randrange(1, new_id) if j == 0 else None
            ops.append(Op("write", "write", (inserts, update, delete)))
            for k in range(READS_PER_VIEW):
                ops.append(Op("read", "dash"))
                ops.append(Op("read", "totals_stale" if k == 0 else "totals"))
        return ops

    def execute(self, op: Op):
        if op.kind == "read":
            view = "dash" if op.label == "dash" else "totals"
            return self.reader.execute(f"SELECT * FROM {view}").fetchall()
        inserts, update, delete = op.payload
        writer = self.writer
        writer.begin()
        writer.execute(
            "INSERT INTO events VALUES (?, ?, ?), (?, ?, ?), (?, ?, ?)",
            [value for row in inserts for value in row],
        )
        writer.execute("UPDATE events SET val = ? WHERE id = ?", update)
        if delete is not None:
            writer.execute("DELETE FROM events WHERE id = ?", [delete])
        writer.commit()
        return None

    def check(self, op: Op, rows) -> bool:
        model = self.model
        if op.kind == "write":
            inserts, (value, target), delete = op.payload
            for new_id, group, val in inserts:
                model[new_id] = (group, val)
            if target in model:
                model[target] = (model[target][0], value)
            model.pop(delete, None)
            self.cycles += 1
            return True
        if op.label == "dash":
            return len(rows) == sum(1 for _, v in model.values() if v >= DASH_THRESHOLD)
        return (
            len(rows) == len({g for g, _ in model.values()})
            and sum(r[1] for r in rows) == len(model)
            and sum(r[2] for r in rows) == sum(v for _, v in model.values())
        )

    def finish(self) -> list[str]:
        problems = []
        reader = self.reader
        for view, sql in (("dash", with_provenance(DASH_SQL)), ("totals", TOTALS_SQL)):
            if reader.run(f"SELECT * FROM {view}").rows != reader.run(sql).rows:
                problems.append(f"{view} differs from its defining query")
        maintained = self.database.matview_stats()["incremental_commits"]
        refreshed = reader.counters.matview_auto_refreshes
        if not maintained == refreshed == self.cycles:
            problems.append(
                f"{self.cycles} cycles, but {maintained} incremental commits "
                f"and {refreshed} auto refreshes"
            )
        return problems

    def layer_metrics(self, summary, traced, grown):
        stale = traced.latencies_ms("read", "totals_stale")
        fresh = traced.latencies_ms("read", "totals")
        values = {
            # What the first read after a commit pays over the later ones.
            "engine.matview.refresh_ms": median(stale) - median(fresh),
            "storage.mvcc.versions_retained": self.database.gc_stats()["versions_retained"],
        }
        detail = {
            "read_p50_ms_by_view": {
                "dash": percentile(traced.latencies_ms("read", "dash"), 0.5),
                "totals": median(fresh),
                "totals_after_commit": median(stale),
            }
        }
        return values, detail


WORKLOADS = {
    cls.name: cls
    for cls in (
        AdhocFrontend,
        AnalyticVectorized,
        AnalyticPushdown,
        ServedMixed,
        DashboardMatview,
    )
}


# ---------------------------------------------------------------------------
# expected/ files
# ---------------------------------------------------------------------------

REFERENCE_ENGINES = ("row", "vectorized", "sqlite")


def _agreed(statements: dict[str, str], connect) -> dict[str, list]:
    """key -> [row count, hash] of every statement, provided the three
    reference engines return identical rows for it."""
    results: dict[str, list] = {}
    for engine in REFERENCE_ENGINES:
        conn = connect(engine)
        try:
            for key, sql in statements.items():
                rows = conn.execute(sql).fetchall()
                entry = [len(rows), result_hash(rows)]
                if results.setdefault(key, entry) != entry:
                    raise SystemExit(
                        f"refusing to write expected/: {engine} disagrees with "
                        f"{REFERENCE_ENGINES[0]} on {key}"
                    )
        finally:
            conn.close()
    return results


def regenerate_expected() -> None:
    """Rewrite ``expected/*.json``. The benchmark itself never calls
    this: it only ever compares against the committed files."""
    adhoc = _agreed(
        {key: sql for variants in adhoc_pool().values() for key, sql in variants},
        adhoc_connection,
    )
    analytic: dict[str, list] = {}
    for scale in (ANALYTIC_SCALE, ANALYTIC_SMOKE_SCALE):
        analytic.update(
            _agreed(
                {
                    f"{name}@{scale}": with_provenance(sql)
                    for name, sql in ANALYTIC_STATEMENTS.items()
                },
                lambda engine, scale=scale: analytic_connection(engine, scale),
            )
        )
    EXPECTED_DIR.mkdir(exist_ok=True)
    note = (
        "statement key -> [row count, order-sensitive hash]; "
        f"identical on {', '.join(REFERENCE_ENGINES)} when written"
    )
    for name, statements in (("adhoc_frontend", adhoc), ("analytic", analytic)):
        entries = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(value)}"
            for key, value in sorted(statements.items())
        )
        (EXPECTED_DIR / f"{name}.json").write_text(
            f'{{\n "note": {json.dumps(note)},\n "statements": {{\n{entries}\n }}\n}}\n'
        )
        print(f"wrote expected/{name}.json ({len(statements)} statements)")
