"""The in-memory span tracer and the instrumentation of ``src/repro``.

Spans are recorded from here, around calls into the program's public
entry points; nothing under ``src/`` knows it is being traced. A traced
run installs the wrappers, an untraced run never imports this module.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Optional, Sequence

from .harness import Phase, median

# Span names that make up the front of the pipeline (everything a plan
# cache hit or a prepared statement skips).
FRONT_SPANS = (
    "sql.parse",
    "sql.print",
    "analyzer.analyze",
    "core.rewrite",
    "optimizer.optimize",
    "planner.plan",
)


class _ThreadState:
    __slots__ = ("stack", "open_names", "op_id")

    def __init__(self):
        self.stack: list[int] = []
        self.open_names: set[str] = set()
        self.op_id: Optional[int] = None


class Tracer:
    """Spans ``[id, name, op_id, parent, start, end]`` kept in memory.

    Spans are recorded by replacing a function on its owner (module,
    class or instance) with a timing wrapper; :meth:`unpatch` restores
    every original, so the untraced comparison phase runs the program
    exactly as shipped.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        # Server session id -> op its client has in flight; lets spans on
        # worker threads join the client's op.
        self.session_ops: dict[int, int] = {}
        # Growth of the program's own counters, observed around wrapped
        # calls (see ``wrap``); several server threads add to it.
        self.counts: Counter = Counter()
        self._lock = threading.Lock()

    def add(self, key: str, amount: int) -> None:
        with self._lock:
            self.counts[key] += amount

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
        return state

    def _open(self, state: _ThreadState, name: str) -> list:
        span = [
            next(self._ids),
            name,
            state.op_id,
            state.stack[-1] if state.stack else None,
            0.0,
            0.0,
        ]
        state.stack.append(span[0])
        state.open_names.add(name)
        span[4] = time.perf_counter()
        return span

    def _close(self, state: _ThreadState, span: list) -> None:
        span[5] = time.perf_counter()
        state.stack.pop()
        state.open_names.discard(span[1])
        self.spans.append(span)

    def begin_op(self, op_id: int, session_id: Optional[int] = None) -> None:
        state = self._state()
        state.op_id = op_id
        if session_id is not None:
            self.session_ops[session_id] = op_id
        state.stack.clear()
        self._local.root = self._open(state, "op")

    def end_op(self) -> None:
        state = self._state()
        self._close(state, self._local.root)
        state.op_id = None

    def wrap(
        self,
        fn: Callable,
        name: "str | Callable[[tuple], str]",
        counters: Sequence[tuple[str, Callable[[tuple], int]]] = (),
        observe: Optional[Callable[[tuple, object], None]] = None,
        session: bool = False,
    ) -> Callable:
        """*fn* timed as span *name* (a string, or a function of the call's
        positional arguments). A call made while a span of the same name
        is open on the thread is covered by that span.

        *counters* are ``(key, read)`` pairs: ``read(args)`` returns one
        of the program's own cumulative counters, and what it grew by
        during the call is added to ``self.counts[key]`` — which is how
        counts kept on objects the harness cannot reach (a server
        session's plan cache or mirror) are still the program's counts.
        ``session=True`` marks a server-session entry point: the span
        joins the op its client has in flight. *observe* sees (args,
        result) afterwards, outside the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            label = name if isinstance(name, str) else name(args)
            if label in state.open_names:
                return fn(*args, **kwargs)
            if session:
                state.op_id = self.session_ops.get(args[0].session_id)
            before = [read(args) for _, read in counters]
            span = self._open(state, label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(state, span)
                if session:
                    state.op_id = None
            for (key, read), was in zip(counters, before):
                grown = read(args) - was
                if grown:
                    self.add(key, grown)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def patch(self, owner: object, attr: str, name, **options) -> None:
        """Replace ``owner.attr`` (which *owner* itself must define: a
        module global, a method on its class, an instance attribute) by
        its traced wrapper until :meth:`unpatch`."""
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **options))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path, header: dict) -> None:
        origin = min((s[4] for s in self.spans), default=0.0)
        payload = dict(header)
        payload["spans"] = [
            {
                "id": s[0],
                "name": s[1],
                "op_id": s[2],
                "parent": s[3],
                "start": round(s[4] - origin, 7),
                "end": round(s[5] - origin, 7),
            }
            for s in sorted(self.spans, key=lambda s: s[0])
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


class TraceSummary:
    """Self time (duration minus the children's durations) per span name
    and op."""

    def __init__(self, spans: list[list]):
        child_seconds: dict[int, float] = defaultdict(float)
        for span in spans:
            if span[3] is not None:
                child_seconds[span[3]] += span[5] - span[4]
        self.self_by_op: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        self.duration_by_op: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for span_id, name, op_id, _parent, start, end in spans:
            duration = end - start
            self.self_by_op[name][op_id] += duration - child_seconds.get(span_id, 0.0)
            self.duration_by_op[name][op_id] += duration

    def _per_op(self, table, names, ops) -> dict:
        merged: dict = defaultdict(float)
        for name in names:
            for op_id, seconds in table.get(name, {}).items():
                if op_id is not None and (ops is None or op_id in ops):
                    merged[op_id] += seconds
        return merged

    def median_self_ms(self, *names: str, ops: Optional[set] = None) -> float:
        """Median, over the ops in which any of *names* ran, of the self
        time those spans took in the op."""
        return median(list(self._per_op(self.self_by_op, names, ops).values())) * 1000.0

    def total_self(self, *names: str, ops: Optional[set] = None) -> float:
        if ops is None:  # include spans no op claims (event-loop work)
            return sum(sum(self.self_by_op.get(n, {}).values()) for n in names)
        return sum(self._per_op(self.self_by_op, names, ops).values())

    def durations(self, name: str) -> dict:
        return self.duration_by_op.get(name, {})


def instrument_engine(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer an embedded request
    passes through, and watch the program's own counters around those
    calls. Lookups happen at call time, so patching classes and module
    globals takes effect for connections that already exist."""
    import repro.engine.connection as connection
    import repro.engine.pipeline as pipeline
    from repro.algebra.tree import count_nodes
    from repro.analyzer import Analyzer
    from repro.backend.partition import PartitionedQueryOp
    from repro.backend.runtime import PushdownQueryOp
    from repro.backend.sqlite import SQLiteBackend
    from repro.core.provenance import ProvenanceRewriter
    from repro.engine.database import Database
    from repro.engine.prepared import PreparedStatement
    from repro.executor.vectorized import VectorOp
    from repro.optimizer import Optimizer
    from repro.planner import Planner
    from repro.storage.mvcc import Transaction
    from repro.storage.table import HeapTable

    def execute_span(args: tuple) -> str:
        plan = args[0]
        if isinstance(plan, VectorOp):
            return "executor.vectorized.execute"
        if isinstance(plan, PartitionedQueryOp):
            return "backend.partition.execute"
        if isinstance(plan, PushdownQueryOp):
            return "backend.sqlite.execute"
        return "executor.row.execute"

    def count_rewritten(_args, expanded) -> None:
        tracer.add("core.rewritten_nodes", count_nodes(expanded.node))

    def count_rows(_args, relation) -> None:
        tracer.add("executor.rows_out", len(relation.rows))

    def refreshes(args: tuple) -> int:
        conn = getattr(args[0], "connection", args[0])  # a statement's, or itself
        return conn.counters.matview_auto_refreshes

    requests = [(connection.Connection, entry) for entry in (
        "run", "execute", "executemany", "prepare", "begin", "commit", "rollback"
    )] + [(PreparedStatement, "execute")]
    for owner, entry in requests:
        tracer.patch(
            owner,
            entry,
            "engine.request",
            counters=[("engine.matview.auto_refreshes", refreshes)],
        )
    tracer.patch(
        pipeline.PlanCache,
        "get",
        "engine.plan_cache",
        counters=[
            ("engine.plan_cache_hits", lambda a: a[0].hits),
            ("_plan_cache_misses", lambda a: a[0].misses),
        ],
    )
    tracer.patch(pipeline, "parse_sql", "sql.parse")
    tracer.patch(connection, "format_statement", "sql.print")
    tracer.patch(Analyzer, "analyze_query", "analyzer.analyze")
    tracer.patch(ProvenanceRewriter, "expand", "core.rewrite", observe=count_rewritten)
    tracer.patch(
        Optimizer,
        "optimize",
        "optimizer.optimize",
        counters=[
            ("optimizer.passes", lambda a: a[0].counters.optimize_passes),
            ("optimizer.joinbacks_eliminated", lambda a: a[0].counters.joinbacks_eliminated),
            ("optimizer.columns_pruned", lambda a: a[0].counters.columns_pruned),
            ("optimizer.joins_reordered", lambda a: a[0].counters.joins_reordered),
        ],
    )
    tracer.patch(Planner, "plan_root", "planner.plan")
    tracer.patch(pipeline, "execute_plan", execute_span, observe=count_rows)
    tracer.patch(connection, "execute_plan", execute_span, observe=count_rows)
    tracer.patch(
        SQLiteBackend,
        "sync_table",
        "backend.sync",
        counters=[("backend.tables_synced", lambda a: a[0].tables_synced)],
    )
    tracer.patch(
        SQLiteBackend,
        "run_statement",
        "backend.sqlite.statement",
        counters=[("backend.statements_executed", lambda a: a[0].statements_executed)],
    )
    for entry in ("insert_many", "update_where", "delete_where"):
        tracer.patch(HeapTable, entry, "storage.table.dml")
    tracer.patch(Transaction, "commit", "storage.mvcc.commit")
    tracer.patch(Database, "checkpoint", "storage.wal.checkpoint")


def instrument_database(tracer: Tracer, database) -> None:
    """The two commit-time hooks a database installs on its transaction
    manager as instance attributes: matview maintenance and the WAL."""
    manager = database.manager
    if manager.matview_maintainer is not None:
        tracer.patch(manager, "matview_maintainer", "engine.matview.maintain")
    if manager.on_commit is not None:
        tracer.patch(manager, "on_commit", "storage.wal.append")


def engine_layer_metrics(summary: TraceSummary, phase: Phase) -> dict:
    """The layer times every workload shares, from the span tree."""
    reads = {s.op_id for s in phase.samples if s.kind == "read"}
    requests = summary.durations("engine.request")
    request_ops = set(requests) - {None}
    request_seconds = sum(requests[op] for op in request_ops)
    dispatch_seconds = summary.total_self("engine.request", ops=request_ops)
    op_seconds = sum(v for op, v in summary.durations("op").items() if op is not None)
    front_seconds = summary.total_self(*FRONT_SPANS, ops=request_ops)
    m = summary.median_self_ms
    return {
        "sql.parse_ms": m("sql.parse"),
        "sql.print_ms": m("sql.print"),
        "analyzer.analyze_ms": m("analyzer.analyze"),
        "core.rewrite_ms": m("core.rewrite"),
        "optimizer.optimize_ms": m("optimizer.optimize"),
        "planner.plan_ms": m("planner.plan"),
        "engine.dispatch_ms": m("engine.request"),
        "engine.front_share": front_seconds / request_seconds if request_seconds else 0,
        "executor.row.execute_ms": m("executor.row.execute"),
        "executor.vectorized.execute_ms": m("executor.vectorized.execute"),
        "backend.sqlite.execute_ms": m("backend.sqlite.execute", "backend.sqlite.statement"),
        # Mean per read: most calls find the mirror current and cost
        # microseconds, the few after a commit reload a table.
        "backend.sync_ms": (
            summary.total_self("backend.sync", ops=reads) / len(reads) * 1000.0
            if reads
            else 0
        ),
        "engine.matview.maintain_ms": m("engine.matview.maintain"),
        "storage.table.dml_ms": m("storage.table.dml"),
        "storage.mvcc.commit_ms": m("storage.mvcc.commit"),
        "storage.wal.append_ms": m("storage.wal.append"),
        # Share of the clients' op time spent inside a named stage span
        # (everything but the engine's own dispatch and the harness).
        "harness.attributed_share": (
            (request_seconds - dispatch_seconds) / op_seconds if op_seconds else 0
        ),
    }
