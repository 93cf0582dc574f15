"""The DB-API 2.0 connection: Perm's user-facing session object.

``repro.connect()`` returns a :class:`Connection` that looks like a real
database driver — cursors, ``?``/``:name`` placeholders, prepared
statements, context-manager support — while implementing the paper's
Figure 3 architecture underneath::

    Parser & Analyzer  ->  Provenance Rewriter  ->  Planner  ->  Executor

The expensive front of that pipeline runs once per query shape: query
statements go through a :class:`~repro.engine.pipeline.PlanCache` keyed
on their canonical SQL text, and :meth:`prepare` returns an explicit
:class:`~repro.engine.prepared.PreparedStatement` whose ``execute`` pays
only the execute stage. DDL/DML, eager provenance registration and
per-stage profiling run on the same connection.

Statements execute inside snapshot-isolated MVCC transactions
(:mod:`repro.storage.mvcc`): autocommit wraps each statement in its own
implicit transaction, ``BEGIN``/``COMMIT``/``ROLLBACK``/``SAVEPOINT``
(or ``autocommit=False`` plus :meth:`commit`/:meth:`rollback`) give
multi-statement transactions, and several connections can share one
:class:`~repro.engine.database.Database` — readers keep a stable
snapshot while writers commit, with first-committer-wins conflicts
(:class:`~repro.errors.SerializationError`).
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Callable, Iterable, Optional, Sequence, Union

from ..algebra import expressions as ax
from ..algebra import nodes as an
from ..analyzer import Analyzer, infer_scalar_param_types
from ..catalog.schema import Attribute, Schema
from ..core.provenance import RewriteOptions
from ..datatypes import SQLType, Value, type_from_name
from ..errors import (
    AnalyzeError,
    CatalogError,
    OperationalError,
    PermError,
    ProgrammingError,
    SerializationError,
)
from ..executor import execute_plan
from ..executor.batch import Batch
from ..executor.columns import KIND_BOOL, TypedColumn, build_typed_column
from ..executor.expr_eval import ExprCompiler
from ..executor.vector_expr import VectorExprCompiler
from ..backend.registry import engine_names, get_spec, unknown_engine_message
from ..sql import ast
from ..sql.printer import format_query, format_statement
from ..storage import mvcc
from ..storage.table import Relation, Row
from .cursor import Cursor
from .database import Database
from .matview import MatviewContents, base_table_names, compile_program
from .pipeline import Pipeline, PlanCache, PreparedPlan, bind_parameters
from .prepared import PreparedStatement
from .result import ExecutionProfile

_EXPLAIN_MODES = ("rewrite", "algebra", "plan")

# Environment override for the default execution engine, so an entire
# test/benchmark run can be flipped (the CI matrix runs the tier-1 suite
# once per engine: REPRO_ENGINE=vectorized).
ENGINE_ENV_VAR = "REPRO_ENGINE"

# Environment override for the optimizer mode ("cost" or "rules"), so the
# optimizer-on/optimizer-off differential can sweep whole runs.
OPTIMIZER_ENV_VAR = "REPRO_OPTIMIZER"


def resolve_engine(engine: Optional[str]) -> str:
    """Validate an engine choice against the backend registry, falling
    back to $REPRO_ENGINE, then "row". When the invalid name came from
    the environment rather than an ``engine=`` argument, the error says
    so — a user who never passed an engine should be pointed at the
    variable."""
    from_env = not engine and bool(os.environ.get(ENGINE_ENV_VAR))
    chosen = engine or os.environ.get(ENGINE_ENV_VAR) or "row"
    chosen = chosen.lower()
    if chosen not in engine_names():
        raise ProgrammingError(
            unknown_engine_message(chosen, env_var=ENGINE_ENV_VAR if from_env else None)
        )
    return chosen


def resolve_optimizer(optimizer: Optional[str]) -> str:
    """Validate an optimizer mode, falling back to $REPRO_OPTIMIZER, then
    the cost-based default."""
    from ..optimizer import OPTIMIZER_MODES

    chosen = optimizer or os.environ.get(OPTIMIZER_ENV_VAR) or "cost"
    chosen = chosen.lower()
    if chosen not in OPTIMIZER_MODES:
        raise ProgrammingError(
            f"unknown optimizer mode {chosen!r} "
            f"(valid modes: {', '.join(OPTIMIZER_MODES)})"
        )
    return chosen


def _status(message: str) -> Relation:
    """DDL/DML results are one-row relations, psql-style."""
    return Relation(Schema((Attribute("status", SQLType.TEXT),)), [(message,)])


class Connection:
    """An in-memory Perm database session with a DB-API 2.0 surface.

    >>> import repro
    >>> conn = repro.connect()
    >>> _ = conn.execute("CREATE TABLE r (a int, b text)")
    >>> _ = conn.execute("INSERT INTO r VALUES (?, ?)", (1, 'x'))
    >>> conn.execute("SELECT PROVENANCE a FROM r WHERE a > ?", (0,)).fetchall()
    [(1, 1, 'x')]
    """

    # How often an autocommit statement that lost the first-committer-wins
    # race is transparently retried on a fresh snapshot before the
    # SerializationError surfaces (explicit transactions never retry —
    # only the application can re-run multi-statement logic).
    AUTOCOMMIT_RETRIES = 5

    def __init__(
        self,
        options: Optional[RewriteOptions] = None,
        plan_cache_size: int = 128,
        engine: Optional[str] = None,
        optimizer: Optional[str] = None,
        database: Optional[Database] = None,
        autocommit: bool = True,
    ):
        self.database = database if database is not None else Database()
        self.catalog = self.database.catalog
        self.options = options or RewriteOptions()
        self.engine = resolve_engine(engine)
        self.optimizer_mode = resolve_optimizer(optimizer)
        self.pipeline = Pipeline(
            self.catalog,
            self.options,
            engine=self.engine,
            optimizer_mode=self.optimizer_mode,
        )
        self.plan_cache = PlanCache(plan_cache_size)
        self._closed = False
        self._autocommit = bool(autocommit)
        self._txn: Optional[mvcc.Transaction] = None
        # How many times this connection's autocommit statements lost the
        # first-committer-wins race and were transparently retried
        # (telemetry; surfaced per session by the server's STATS).
        self.serialization_retries = 0

    @property
    def rewriter(self):
        return self.pipeline.rewriter

    @property
    def optimizer(self):
        return self.pipeline.optimizer

    @property
    def planner(self):
        return self.pipeline.planner

    @property
    def counters(self):
        """Pipeline stage counters (see :class:`PipelineCounters`)."""
        return self.pipeline.counters

    # ------------------------------------------------------------------
    # DB-API 2.0 surface
    # ------------------------------------------------------------------
    def cursor(self) -> Cursor:
        self._check_open()
        return Cursor(self)

    def execute(self, sql: str, params: object = None) -> Cursor:
        """Create a cursor, execute *sql* on it and return it
        (sqlite3-style shortcut)."""
        return self.cursor().execute(sql, params)

    def executemany(self, sql: str, seq_of_params: Iterable[object]) -> Cursor:
        return self.cursor().executemany(sql, seq_of_params)

    def prepare(self, sql: str) -> PreparedStatement:
        """Pay the parse/analyze/rewrite/optimize/plan stages now; the
        returned statement's ``execute(params)`` only pays execution."""
        self._check_open()
        statements = self.pipeline.parse(sql)
        if len(statements) != 1:
            raise ProgrammingError("prepare() expects exactly one statement")
        statement = statements[0]
        if not isinstance(statement, ast.QueryStatement):
            raise ProgrammingError(
                "prepare() supports queries only; run DDL/DML through execute()"
            )
        self._auto_refresh_matviews(statement)
        plan = self._in_transaction(lambda: self._prepared_for(statement, sql))
        return PreparedStatement(self, plan)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    @property
    def autocommit(self) -> bool:
        """When true (the default), each statement runs in its own
        implicit snapshot transaction that commits as the statement
        finishes; ``BEGIN`` still opens an explicit multi-statement
        transaction. When false, the PEP 249 model applies: the first
        statement implicitly opens a transaction that stays open until
        :meth:`commit` or :meth:`rollback`."""
        return self._autocommit

    @autocommit.setter
    def autocommit(self, value: bool) -> None:
        value = bool(value)
        if value and not self._autocommit and self._txn is not None:
            # Leaving manual-commit mode commits the open transaction
            # (sqlite3 does the same).
            self.commit()
        self._autocommit = value

    @property
    def in_transaction(self) -> bool:
        """Whether an explicit or PEP 249-implicit transaction is open."""
        return self._txn is not None and self._txn.active

    def begin(self) -> None:
        """Open an explicit transaction (the SQL ``BEGIN``)."""
        self._check_open()
        if self.in_transaction:
            raise OperationalError("a transaction is already in progress")
        self._txn = self.database.begin()

    def commit(self) -> None:
        """Commit the open transaction, making its writes the tables' new
        committed state. Raises :class:`~repro.errors.SerializationError`
        (and rolls back) if a concurrent transaction committed a table
        this one wrote first. Without an open transaction: a no-op."""
        self._check_open()
        txn, self._txn = self._txn, None
        if txn is not None and txn.active:
            txn.commit()

    def rollback(self) -> None:
        """Discard the open transaction's writes; snapshot reads show the
        pre-transaction state again immediately — data, catalog
        statistics and prepared-plan validity all revert with the
        version stamps. Without an open transaction: a no-op."""
        self._check_open()
        txn, self._txn = self._txn, None
        if txn is not None:
            txn.rollback()

    def _in_transaction(self, fn, atomic: bool = False):
        """Run *fn* inside this connection's transaction.

        - Nested call (a statement already executing, e.g. the inner
          query of ``INSERT ... SELECT``): reuse the thread's active
          transaction.
        - Open explicit/implicit transaction: activate it for the call;
          with ``atomic=True`` the call is additionally fenced by an
          internal savepoint so a failure mid-way (``executemany`` with a
          bad parameter set) undoes the whole call, not just the failing
          piece.
        - Otherwise (autocommit): a fresh single-statement transaction
          that commits as *fn* returns and rolls back if it raises; a
          commit that loses the first-committer-wins race is retried on
          a fresh snapshot a few times before surfacing.
        """
        if mvcc.current_transaction() is not None:
            return fn()
        if self._txn is not None and not self._txn.active:
            self._txn = None  # defensively drop a dead transaction
        if self._txn is None and not self._autocommit:
            # PEP 249: the first statement implicitly opens a transaction.
            self._txn = self.database.begin()
        if self._txn is not None:
            txn = self._txn
            if not atomic:
                with mvcc.activate(txn):
                    return fn()
            guard = f"_repro_atomic_{id(fn):x}"
            txn.savepoint(guard)
            try:
                with mvcc.activate(txn):
                    result = fn()
            except BaseException:
                txn.rollback_to(guard)
                txn.release(guard)
                raise
            txn.release(guard)
            return result
        return self._run_autocommit(fn)

    def _run_autocommit(self, fn):
        """Run *fn* in its own one-shot transaction that commits as *fn*
        returns and rolls back if it raises; a commit that loses the
        first-committer-wins race is retried on a fresh snapshot a few
        times before surfacing."""
        attempts = self.AUTOCOMMIT_RETRIES
        for attempt in range(attempts):
            txn = self.database.begin()
            try:
                with mvcc.activate(txn):
                    result = fn()
            except BaseException:
                txn.rollback()
                raise
            try:
                txn.commit()
            except SerializationError:
                if attempt == attempts - 1:
                    raise
                self.serialization_retries += 1
                continue
            return result

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return  # idempotent (PEP 249: a second close is harmless)
        # PEP 249: closing with an open transaction rolls it back.
        txn, self._txn = self._txn, None
        if txn is not None:
            txn.rollback()
        self._closed = True
        self.plan_cache.clear()
        self.pipeline.planner.close()

    def __enter__(self) -> "Connection":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ProgrammingError("connection is closed")

    # ------------------------------------------------------------------
    # Engine-level execution (returns Relations, used by the shim, the
    # shell, the browser and the library helpers)
    # ------------------------------------------------------------------
    def run(self, sql: str, params: object = None) -> Relation:
        """Execute one or more ``;``-separated statements; returns the
        result relation of the last one. Parameters require a single
        statement."""
        return self._execute_sql(sql, params)[0]

    def query(self, sql: str, params: object = None) -> Relation:
        """Alias of :meth:`run` for read paths."""
        return self.run(sql, params)

    def _execute_sql(self, sql: str, params: object) -> tuple[Relation, int]:
        self._check_open()
        statements = self.pipeline.parse(sql)
        if params is not None and len(statements) != 1:
            raise ProgrammingError(
                "parameters can only be bound to a single statement "
                f"({len(statements)} given)"
            )
        relation: Optional[Relation] = None
        rowcount = -1
        for statement in statements:
            relation, rowcount = self._run_statement(statement, params)
        assert relation is not None
        return relation, rowcount

    def _execute_sql_many(
        self, sql: str, seq_of_params: Iterable[object]
    ) -> tuple[Optional[Relation], int]:
        """One statement, many parameter sets (cursor ``executemany``).
        The statement is parsed once; queries are also planned once."""
        self._check_open()
        statements = self.pipeline.parse(sql)
        if len(statements) != 1:
            raise ProgrammingError("executemany() requires a single statement")
        statement = statements[0]
        if isinstance(statement, ast.TransactionControl):
            raise ProgrammingError(
                "transaction control statements cannot be run with executemany()"
            )
        # Materialized up front: the whole batch is one atomic unit (and,
        # under autocommit, one implicit transaction that may be retried
        # on a serialization conflict).
        param_sets = list(seq_of_params)

        def run_batch() -> tuple[Optional[Relation], int]:
            relation: Optional[Relation] = None
            total = 0
            counted = True
            if not param_sets:
                # PEP 249: an empty parameter sequence affects zero rows
                # — but the statement must still be validated (parse
                # errors and missing relations surface either way).
                if isinstance(statement, ast.QueryStatement):
                    self._prepared_for(statement)
                    return None, 0
                if isinstance(statement, (ast.Insert, ast.Delete, ast.Update)):
                    self._prepare_dml(statement)
                verb = type(statement).__name__.upper()
                return _status(f"{verb} 0"), 0
            if isinstance(statement, (ast.Delete, ast.Update)) or (
                isinstance(statement, ast.Insert) and statement.rows is not None
            ):
                # DML fast path: analyze and compile the statement once
                # (VALUES rows, SET and WHERE expressions), rebind per
                # parameter set.
                specs = ast.statement_parameters(statement)
                runner, param_types = self._prepare_dml(statement)
                for params in param_sets:
                    self.pipeline.params.bind(
                        bind_parameters(specs, params, param_types)
                    )
                    count = runner()
                    total += count
                verb = type(statement).__name__.upper()
                return _status(f"{verb} {count}"), total
            for params in param_sets:
                relation, rowcount = self._run_statement(statement, params)
                if rowcount < 0:
                    counted = False
                else:
                    total += rowcount
            return relation, (total if counted and relation is not None else -1)

        # All rows or none: a bad parameter set mid-batch (bind error,
        # coercion failure) leaves the table exactly as it was, whether
        # the batch runs in its own implicit transaction or inside an
        # explicit one (savepoint-fenced there).
        return self._in_transaction(run_batch, atomic=True)

    # DDL mutates the shared catalog directly — it cannot be undone by a
    # ROLLBACK, so running it inside a transaction would silently break
    # snapshot isolation. It is rejected there instead (Postgres allows
    # transactional DDL; sqlite and most servers do not) and always runs
    # in its own one-shot transaction, never the PEP 249 implicit one.
    _DDL_STATEMENTS = (
        ast.CreateTable,
        ast.CreateTableAs,
        ast.CreateView,
        ast.CreateMaterializedView,
        ast.RefreshMaterializedView,
        ast.DropRelation,
    )

    def _run_statement(
        self, statement: ast.Statement, params: object
    ) -> tuple[Relation, int]:
        if isinstance(statement, ast.TransactionControl):
            # An empty sequence/mapping is fine (DB-API callers often
            # forward one uniformly); actual values are not.
            if params:
                raise ProgrammingError(
                    "transaction control statements take no parameters"
                )
            return self._execute_transaction_control(statement), -1
        if isinstance(statement, ast.Checkpoint):
            if params:
                raise ProgrammingError("CHECKPOINT takes no parameters")
            performed = self.database.checkpoint()
            return _status("CHECKPOINT" if performed else "CHECKPOINT (in-memory)"), -1
        if isinstance(statement, self._DDL_STATEMENTS):
            if self.in_transaction:
                raise OperationalError(
                    "DDL is not transactional; commit or rollback first"
                )
            return self._run_autocommit(
                lambda: self._run_statement_in_txn(statement, params)
            )
        if isinstance(statement, ast.QueryStatement):
            # Reads outside a transaction refresh stale materialized
            # views first, so the planned query can scan the stored rows
            # instead of unfolding the definition. Inside a transaction
            # the snapshot predates any refresh, so the analyzer unfolds
            # stale views there (same results, no fast path).
            self._auto_refresh_matviews(statement)
        return self._in_transaction(
            lambda: self._run_statement_in_txn(statement, params)
        )

    def _execute_transaction_control(self, statement: ast.TransactionControl) -> Relation:
        """BEGIN/COMMIT/ROLLBACK/SAVEPOINT against this connection's
        transaction state (never enters the query pipeline)."""
        action = statement.action
        if action == "begin":
            self.begin()
            return _status("BEGIN")
        if action == "commit":
            self.commit()
            return _status("COMMIT")
        if action == "rollback":
            self.rollback()
            return _status("ROLLBACK")
        assert statement.savepoint is not None
        if not self.in_transaction:
            raise OperationalError(
                f"{action.replace('_', ' ').upper()} {statement.savepoint}: "
                "no transaction in progress (start one with BEGIN)"
            )
        assert self._txn is not None
        if action == "savepoint":
            self._txn.savepoint(statement.savepoint)
            return _status("SAVEPOINT")
        if action == "rollback_to":
            self._txn.rollback_to(statement.savepoint)
            return _status("ROLLBACK")
        self._txn.release(statement.savepoint)
        return _status("RELEASE")

    def _run_statement_in_txn(
        self, statement: ast.Statement, params: object
    ) -> tuple[Relation, int]:
        if isinstance(statement, ast.QueryStatement):
            prepared = self._prepared_for(statement)
            values = bind_parameters(
                prepared.param_specs, params, prepared.param_types
            )
            relation = prepared.execute(values)
            return relation, len(relation)
        if isinstance(statement, ast.Explain):
            # EXPLAIN never executes the inner statement, so its
            # placeholders need no values (but accept them if given).
            if params is not None:
                bind_parameters(ast.statement_parameters(statement), params)
            return self._execute_explain(statement), -1
        specs = ast.statement_parameters(statement)
        if isinstance(statement, (ast.Insert, ast.Delete, ast.Update)):
            # Analyzed first, so the bound values are checked against the
            # types their positions demand, as a query's are.
            runner, param_types = self._prepare_dml(statement)
            self.pipeline.params.bind(bind_parameters(specs, params, param_types))
            count = runner()
            return _status(f"{type(statement).__name__.upper()} {count}"), count
        self.pipeline.params.bind(bind_parameters(specs, params))
        return self._execute_statement(statement)

    def _prepared_for(
        self, statement: ast.QueryStatement, sql: str = ""
    ) -> PreparedPlan:
        """Fetch a plan from the cache or run the pipeline for it.

        The key is the statement's *canonical* SQL (deparse of the parsed
        AST, whitespace- and case-normalized by construction) plus the
        catalog version, the rewrite-option fingerprint and the planner's
        engine cache token (engine name + resolved backend options such
        as the partition shard count) — so schema changes, browser
        strategy toggles and backend reconfiguration never serve a stale
        plan.
        """
        canonical = format_statement(statement)
        key = (
            canonical,
            self.catalog.version,
            repr(self.options),
            self.pipeline.planner.cache_token,
            self.optimizer_mode,
        )
        plan = self.plan_cache.get(key)
        if plan is None:
            plan = self.pipeline.prepare(statement, sql or canonical)
            plan.release_intermediates()
            self.plan_cache.put(key, plan)
        return plan

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def explain(self, sql: str, mode: str = "plan") -> str:
        """The Perm-browser inspection surface as text.

        ``mode`` (case-insensitive): ``"rewrite"`` — the rewritten query
        as SQL (Figure 4, marker 2); ``"algebra"`` — original and
        rewritten algebra trees side by side (markers 3 and 4);
        ``"plan"`` — the optimized logical plan handed to the planner,
        each node annotated with its estimated output rows and cumulative
        cost from the catalog statistics; on a pushdown engine followed
        by what the backend was given (compiled SQL, row-engine
        fallbacks, index requests, the backend's own plan).
        """
        from ..algebra.render import render_side_by_side, render_tree
        from ..algebra.to_sql import algebra_to_sql

        mode = mode.lower()
        if mode not in _EXPLAIN_MODES:
            raise PermError(
                f"unknown EXPLAIN mode {mode!r} "
                f"(valid modes: {', '.join(_EXPLAIN_MODES)})"
            )
        profile = self.profile(sql, execute=False)
        assert profile.analyzed is not None and profile.rewritten is not None
        if mode == "rewrite":
            return algebra_to_sql(profile.rewritten)
        if mode == "algebra":
            return render_side_by_side(
                render_tree(profile.analyzed),
                render_tree(profile.rewritten),
                headers=("original query", "rewritten query"),
            )
        assert profile.optimized is not None
        text = render_tree(profile.optimized, annotate=self._cost_annotator())
        if get_spec(self.engine).kind == "pushdown":
            describe = getattr(profile.physical, "explain", None)
            text += "\n\n" + (
                self._in_transaction(describe)
                if describe is not None
                else "pushdown: none (the whole plan runs on the row engine)"
            )
        return text

    def _cost_annotator(self):
        """Per-node ``(rows≈…, cost≈…)`` EXPLAIN annotations; nodes whose
        cardinality cannot be grounded in statistics stay bare."""
        from ..errors import CostEstimationError
        from ..optimizer import CostEstimator

        # Identity-memoized: the annotator estimates every subtree once
        # even though parents re-estimate their children, and the tree
        # stays alive for the duration of the render.
        estimator = CostEstimator(self.catalog, cache=True)

        def annotate(node: an.Node) -> Optional[str]:
            try:
                estimate = estimator.estimate(node)
            except CostEstimationError:
                return None
            return f"(rows≈{estimate.rows:.0f}, cost≈{estimate.cost:.1f})"

        return annotate

    def profile(
        self, sql: str, execute: bool = True, params: object = None
    ) -> ExecutionProfile:
        """Run the pipeline stage by stage, recording artifacts and
        wall-clock timings (the Figure 3 breakdown)."""
        self._check_open()
        return self._in_transaction(
            lambda: self.pipeline.profile(sql, execute=execute, params=params)
        )

    def _run_prepared(self, plan: PreparedPlan, values: Sequence[Value]) -> Relation:
        """Execute a prepared plan inside this connection's transaction
        (the path :class:`PreparedStatement` takes, so its reads see the
        same snapshot as ``cursor.execute`` would)."""
        if (
            not self.in_transaction
            and mvcc.current_transaction() is None
            and self._matviews_behind(plan)
        ):
            self._auto_refresh_matviews(plan.statement)
            if plan.catalog_version != self.catalog.version:
                # The refresh invalidated this unfolded plan; rebuild it
                # in place so this execution already scans the heap.
                self._run_autocommit(plan.refresh)
        return self._in_transaction(lambda: plan.execute(values))

    # ------------------------------------------------------------------
    # Helpers for the library API
    # ------------------------------------------------------------------
    def load_rows(self, table: str, rows: Sequence[Sequence[Value]]) -> int:
        """Bulk-insert Python rows into *table* (used by workload
        generators; bypasses SQL parsing but not the transaction)."""
        self._check_open()
        entry = self.catalog.table(table)
        return self._in_transaction(lambda: entry.table.insert_many(rows))

    def create_table_from_relation(self, name: str, relation: Relation) -> None:
        """Materialize a result as a stored table, carrying over its
        provenance-column registration (eager provenance)."""
        self._check_open()
        entry = self.catalog.create_table(
            name,
            Schema(Attribute(a.name, a.type) for a in relation.schema),
            provenance_attrs=tuple(relation.provenance_attrs),
        )
        self._in_transaction(lambda: entry.table.insert_many(relation.rows))

    def analyze_relation_schema(self, name: str) -> Schema:
        """Output schema of a table or (analyzed, marker-expanded) view."""
        self._check_open()
        if self.catalog.has_table(name):
            return self.catalog.table(name).schema
        if self.catalog.has_matview(name):
            return self.catalog.matview(name).schema
        view = self.catalog.view(name)

        def analyze() -> Schema:
            analyzer = self._analyzer()
            node = analyzer.analyze_query(view.query)
            node = self.rewriter.expand(node).node
            return node.schema

        return self._in_transaction(analyze)

    def run_query_node(self, node: an.Node, provenance_attrs: Sequence[str] = ()) -> Relation:
        """Optimize, plan and execute an already-analyzed algebra tree."""
        self._check_open()

        def run() -> Relation:
            optimized = self.optimizer.optimize(node)
            physical = self.planner.plan_root(optimized)
            return execute_plan(physical, provenance_attrs)

        return self._in_transaction(run)

    # ------------------------------------------------------------------
    # Statement dispatch
    # ------------------------------------------------------------------
    def _analyzer(self) -> Analyzer:
        return self.pipeline.analyzer()

    def _execute_statement(self, statement: ast.Statement) -> tuple[Relation, int]:
        """The status relation of a DDL statement, with -1 for its
        affected-row count (DB-API's 'undetermined')."""
        # Queries, EXPLAIN and DML never reach here: _run_statement_in_txn
        # dispatches them to the cached-plan, explain and DML paths first.
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement), -1
        if isinstance(statement, ast.CreateTableAs):
            return self._execute_create_table_as(statement), -1
        if isinstance(statement, ast.CreateView):
            return self._execute_create_view(statement), -1
        if isinstance(statement, ast.CreateMaterializedView):
            return self._execute_create_matview(statement), -1
        if isinstance(statement, ast.RefreshMaterializedView):
            return self._execute_refresh_matview(statement), -1
        if isinstance(statement, ast.DropRelation):
            return self._execute_drop(statement), -1
        raise PermError(f"unsupported statement {type(statement).__name__}")

    def _execute_query(self, prepared: PreparedPlan) -> Relation:
        """Run an embedded query's plan (CTAS source, INSERT ... SELECT),
        fetched through :meth:`_prepared_for`.

        Does NOT rebind the parameter context (so it cannot go through
        :meth:`PreparedPlan.execute`, which starts a fresh binding
        epoch): any placeholders inside the query belong to the
        enclosing statement, whose slots were bound by
        :meth:`_run_statement` for this execution epoch. The plan's
        statistics-derived facts are still revalidated here, exactly as
        ``PreparedPlan.execute`` would.
        """
        if not prepared.deps_valid():
            prepared.refresh()
        self.pipeline.counters.execute += 1
        return execute_plan(prepared.physical, prepared.provenance_attrs)

    def _execute_create_table(self, statement: ast.CreateTable) -> Relation:
        schema = Schema(
            Attribute(column.name, type_from_name(column.type_name))
            for column in statement.columns
        )
        self.catalog.create_table(statement.name, schema, statement.if_not_exists)
        return _status("CREATE TABLE")

    def _execute_create_table_as(self, statement: ast.CreateTableAs) -> Relation:
        if statement.if_not_exists and self.catalog.has_relation(statement.name):
            return _status("CREATE TABLE (exists, skipped)")
        result = self._execute_query(
            self._prepared_for(ast.QueryStatement(statement.query))
        )
        self.create_table_from_relation(statement.name, result)
        return _status(f"CREATE TABLE ({len(result)} rows)")

    def _execute_create_view(self, statement: ast.CreateView) -> Relation:
        if ast.statement_parameters(statement):
            raise ProgrammingError(
                "views cannot contain parameter placeholders"
            )
        # Validate (and compute the provenance registration) eagerly.
        analyzer = self._analyzer()
        node = analyzer.analyze_query(statement.query)
        expanded = self.rewriter.expand(node)
        if statement.or_replace and self.catalog.has_view(statement.name):
            self.catalog.drop_view(statement.name)
            # A materialized view may have been computed through the old
            # definition; there is no view-dependency graph, so every
            # stored result is conservatively recomputed on next read.
            self._invalidate_all_matviews()
        self.catalog.create_view(
            statement.name,
            statement.query,
            format_query(statement.query),
            provenance_attrs=expanded.provenance_names,
        )
        return _status("CREATE VIEW")

    def _invalidate_all_matviews(self) -> None:
        """Mark every materialized view stale (after a view definition
        changed underneath it)."""
        for entry in self.catalog.matviews:
            self.database.matview_maintainer.mark_stale(entry.name)

    def _execute_create_matview(self, statement: ast.CreateMaterializedView) -> Relation:
        if ast.statement_parameters(statement):
            raise ProgrammingError(
                "materialized views cannot contain parameter placeholders"
            )
        name = statement.name
        if self.catalog.has_relation(name):
            raise CatalogError(f"relation {name!r} already exists")
        query = statement.query
        if statement.with_provenance:
            if not isinstance(query, ast.Select):
                raise ProgrammingError(
                    "CREATE MATERIALIZED VIEW ... WITH PROVENANCE requires a "
                    "SELECT query (wrap set operations in SELECT * FROM (...))"
                )
            if query.provenance is None:
                # Bake the provenance request into the stored definition,
                # so refresh and unfolding see the same query.
                query = replace(query, provenance=ast.ProvenanceClause())
        contents, expanded = self._compute_matview(query)
        schema = Schema(
            Attribute(a.name, a.type) for a in expanded.node.schema
        )
        entry = self.catalog.create_matview(
            name,
            schema,
            query,
            format_query(query),
            with_provenance=statement.with_provenance,
            provenance_attrs=expanded.provenance_names,
        )
        self.database.matview_maintainer.install(entry, contents)
        return _status(f"CREATE MATERIALIZED VIEW ({len(contents.rows)} rows)")

    def _execute_refresh_matview(
        self, statement: ast.RefreshMaterializedView
    ) -> Relation:
        count = self._refresh_matview(statement.name)
        return _status(f"REFRESH MATERIALIZED VIEW ({count} rows)")

    def _compute_matview(self, query: ast.QueryExpr):
        """Analyze a materialized-view definition (views *and* other
        matviews unfolded, so only base tables remain) and evaluate its
        current contents: through the maintenance program when the
        rewritten shape is maintainable, else through this connection's
        engine. Returns ``(contents, expanded)`` — the
        :class:`~repro.engine.matview.MatviewContents` to install, and
        the expanded definition."""
        analyzer = self._analyzer()
        analyzer.inline_matviews = True
        node = analyzer.analyze_query(query)
        expanded = self.rewriter.expand(node)
        rewritten = expanded.node

        def compute() -> MatviewContents:
            program = compile_program(rewritten, self.catalog)
            base_tables = base_table_names(rewritten, self.catalog)
            if program is not None:
                return program.compute_full(self.catalog, base_tables)
            optimized = self.optimizer.optimize(rewritten)
            physical = self.planner.plan_root(optimized)
            result = execute_plan(physical, expanded.provenance_names)
            base_versions = {t: self.catalog.table(t).table.version for t in base_tables}
            return MatviewContents(
                list(result.rows), None, base_versions, base_tables, None
            )

        if mvcc.current_transaction() is not None:
            return compute(), expanded
        return self._run_autocommit(compute), expanded

    def _refresh_matview(self, name: str) -> int:
        """Recompute a materialized view's stored rows from the current
        base-table state; returns the new row count. The view is marked
        stale *first*, so neither commit-time maintenance nor a catch-up
        (both skip stale views) can interleave a write with the install."""
        entry = self.catalog.matview(name)
        contents, expanded = self._compute_matview(entry.query)
        new_names = [a.name for a in expanded.node.schema]
        old_names = [a.name for a in entry.schema]
        if new_names != old_names:
            raise OperationalError(
                f"cannot refresh materialized view {entry.name!r}: its "
                f"definition now produces columns ({', '.join(new_names)}) "
                f"instead of ({', '.join(old_names)}); drop and re-create it"
            )
        maintainer = self.database.matview_maintainer
        maintainer.mark_stale(entry.name)
        maintainer.install(entry, contents)
        self.pipeline.counters.matview_refreshes += 1
        return len(contents.rows)

    def _matviews_behind(self, plan: PreparedPlan) -> list[str]:
        """The materialized views *plan* reads that are not fresh for the
        latest committed state: the ones it unfolded, and the ones it
        scans that a commit has since left behind."""
        catalog = self.catalog
        return [
            name
            for name in plan.stale_matviews + plan.fresh_matviews
            if catalog.has_matview(name)
            and not catalog.matview_fresh(catalog.matview(name))
        ]

    def _auto_refresh_matviews(self, statement: ast.QueryStatement) -> None:
        """Best-effort refresh of every materialized view a read would
        find stale or behind, run before the statement's own transaction
        begins (a refresh *inside* the snapshot would be invisible to
        it). The candidates come from the plan the read uses anyway — a
        commit leaves the catalog version alone, so that is a cache hit.
        Each is caught up from its base tables' deltas when the
        maintainer can, else recomputed. A view whose refresh fails —
        e.g. its definition no longer analyzes after a base-schema
        change — is left stale and the read serves the unfolded
        definition instead."""
        if (
            self.in_transaction
            or mvcc.current_transaction() is not None
            or not self.catalog.matviews
        ):
            return
        maintainer = self.database.matview_maintainer
        for _ in range(3):
            try:
                plan = self._run_autocommit(lambda: self._prepared_for(statement))
            except PermError:
                return  # broken statement: surface the error on the real path
            behind = self._matviews_behind(plan)
            if not behind:
                return
            progressed = False
            for name in behind:
                try:
                    entry = self.catalog.matview(name)
                    reason = maintainer.catch_up(entry, self._run_autocommit)
                    if reason is not None:
                        self._refresh_matview(name)
                        maintainer.record_recompute(entry, reason)
                except PermError:
                    maintainer.mark_stale(name)
                else:
                    progressed = True
                    self.pipeline.counters.matview_auto_refreshes += 1
            if not progressed:
                return

    def _execute_drop(self, statement: ast.DropRelation) -> Relation:
        catalog = self.catalog
        name = statement.name
        if statement.kind in ("table", "view") and catalog.has_matview(name):
            raise ProgrammingError(
                f"{name!r} is a materialized view; use DROP MATERIALIZED VIEW"
            )
        if statement.kind == "table":
            if catalog.has_table(name):
                key = name.lower()
                dependents = sorted(
                    entry.name
                    for entry in catalog.matviews
                    if key in entry.base_tables
                )
                if dependents:
                    raise OperationalError(
                        f"cannot drop table {name!r}: materialized view(s) "
                        f"{', '.join(dependents)} depend on it (drop them first)"
                    )
            dropped = catalog.drop_table(name, statement.if_exists)
        elif statement.kind == "materialized view":
            if catalog.has_view(name):
                raise ProgrammingError(f"{name!r} is a view; use DROP VIEW")
            dropped = catalog.drop_matview(name, statement.if_exists)
        else:
            dropped = catalog.drop_view(name, statement.if_exists)
            if dropped:
                # Same conservatism as CREATE OR REPLACE VIEW: a stored
                # result may have been computed through this view.
                self._invalidate_all_matviews()
        return _status(f"DROP {statement.kind.upper()}" + ("" if dropped else " (skipped)"))

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def _dml_table(self, name: str, verb: str):
        """Resolve a DML target, refusing materialized views (their rows
        are derived state, maintained from the base tables)."""
        if self.catalog.has_matview(name):
            raise ProgrammingError(
                f"cannot {verb} materialized view {name!r}: its rows are "
                "maintained from the base tables (use REFRESH MATERIALIZED VIEW)"
            )
        return self.catalog.table(name)

    def _prepare_dml(
        self, statement: Union[ast.Insert, ast.Delete, ast.Update]
    ) -> tuple[Callable[[], int], dict[int, SQLType]]:
        """Resolve and compile a DML statement once: a runner applying it
        against the currently bound parameters (returning the affected-row
        count), and the types its parameter slots demand. Preparing alone
        validates the statement (``executemany`` with no parameter sets)
        and lets a batch pay analysis once, not once per parameter set."""
        param_types: dict[int, SQLType] = {}
        if isinstance(statement, ast.Insert):
            runner = self._prepare_insert(statement, param_types)
        elif isinstance(statement, ast.Delete):
            runner = self._prepare_delete(statement, param_types)
        else:
            runner = self._prepare_update(statement, param_types)
        return runner, param_types

    def _prepare_insert(
        self, statement: ast.Insert, param_types: dict[int, SQLType]
    ) -> Callable[[], int]:
        entry = self._dml_table(statement.table, "INSERT into")
        schema = entry.schema
        if statement.columns is not None:
            positions = [schema.index_of(c) for c in statement.columns]
        else:
            positions = list(range(len(schema)))

        def widen(values: Sequence[Value]) -> list[Value]:
            if len(values) != len(positions):
                raise AnalyzeError(
                    f"INSERT expects {len(positions)} values, got {len(values)}"
                )
            row: list[Value] = [None] * len(schema)
            for position, value in zip(positions, values):
                row[position] = value
            return row

        if statement.rows is not None:
            analyzer = self._analyzer()
            compiler = ExprCompiler(
                Schema(()),
                plan_compiler=self._dml_plan_compiler(),
                params=self.pipeline.params,
            )
            compiled_rows = []
            for value_exprs in statement.rows:
                compiled = []
                for expression in value_exprs:
                    resolved = analyzer.resolve_scalar(expression, Schema(()), statement.table)
                    infer_scalar_param_types(resolved, Schema(()), SQLType.NULL, param_types)
                    compiled.append(compiler.compile(resolved))
                compiled_rows.append(compiled)

            def run_values() -> int:
                # Evaluate every VALUES row before inserting any, so an
                # expression error mid-statement leaves the table as-is.
                staged = [
                    widen([fn((), ()) for fn in compiled]) for compiled in compiled_rows
                ]
                return entry.table.insert_many(staged)

            return run_values

        assert statement.query is not None
        prepared = self._prepared_for(ast.QueryStatement(statement.query))
        param_types.update(prepared.param_types)

        def run_query() -> int:
            result = self._execute_query(prepared)
            staged = [widen(row) for row in result.rows]
            return entry.table.insert_many(staged)

        return run_query

    def _predicate(
        self, entry, where: Optional[ast.Expression], param_types: dict[int, SQLType]
    ) -> Callable[[Sequence[Row]], Sequence[int]]:
        """Compile a DML ``WHERE`` once into a matcher: rows -> the
        ascending positions of the rows it holds for. The predicate runs
        column-at-a-time on the vectorized expression kernels, whatever
        the engine, over only the columns it reads; a subtree the row
        compiler serves (sublinks, CASE, IN lists) reads whole rows, so
        then every column is built."""
        if where is None:
            return lambda rows: range(len(rows))
        resolved = self._analyzer().resolve_scalar(
            where, entry.schema, entry.name, context="WHERE"
        )
        infer_scalar_param_types(resolved, entry.schema, SQLType.BOOL, param_types)
        compiler = VectorExprCompiler(
            entry.schema,
            ExprCompiler(
                entry.schema,
                plan_compiler=self._dml_plan_compiler(),
                params=self.pipeline.params,
            ),
        )
        predicate = compiler.compile(resolved)
        width = len(entry.schema)
        read = range(width) if compiler.falls_back else {
            compiler.positions[part.name.lower()]
            for part in ax.walk_expr(resolved)
            if isinstance(part, ax.Column)
        }
        types = [attribute.type for attribute in entry.schema]
        batch_size = self.planner.batch_size

        def match(rows: Sequence[Row]) -> list[int]:
            positions: list[int] = []
            for start in range(0, len(rows), batch_size):
                chunk = rows[start : start + batch_size]
                columns: list = [None] * width
                for p in read:
                    values = [row[p] for row in chunk]
                    packed = build_typed_column(values, types[p])
                    columns[p] = values if packed is None else packed
                mask = predicate(Batch(columns, len(chunk)), ())
                if isinstance(mask, TypedColumn) and mask.kind == KIND_BOOL:
                    positions.extend((mask.true_indices() + start).tolist())
                else:
                    positions.extend(
                        start + i for i, passed in enumerate(mask) if passed is True
                    )
            return positions

        return match

    def _dml_plan_compiler(self):
        planner = self.planner

        def compile_plan(plan_node: an.Node, outer_schemas):
            physical = planner.plan(plan_node, outer_schemas)
            return lambda env: list(physical.rows(env))

        return compile_plan

    def _prepare_delete(
        self, statement: ast.Delete, param_types: dict[int, SQLType]
    ) -> Callable[[], int]:
        entry = self._dml_table(statement.table, "DELETE from")
        predicate = self._predicate(entry, statement.where, param_types)
        return lambda: entry.table.delete_where(predicate)

    def _prepare_update(
        self, statement: ast.Update, param_types: dict[int, SQLType]
    ) -> Callable[[], int]:
        entry = self._dml_table(statement.table, "UPDATE")
        analyzer = self._analyzer()
        compiler = ExprCompiler(
            entry.schema,
            plan_compiler=self._dml_plan_compiler(),
            params=self.pipeline.params,
        )
        assignments: list[tuple[int, Callable]] = []
        for column, expression in statement.assignments:
            position = entry.schema.index_of(column)
            resolved = analyzer.resolve_scalar(expression, entry.schema, entry.name)
            infer_scalar_param_types(resolved, entry.schema, SQLType.NULL, param_types)
            assignments.append((position, compiler.compile(resolved)))

        def updater(row):
            new_row = list(row)
            for position, compiled in assignments:
                new_row[position] = compiled(row, ())
            return new_row

        predicate = self._predicate(entry, statement.where, param_types)
        return lambda: entry.table.update_where(predicate, updater)

    def _execute_explain(self, statement: ast.Explain) -> Relation:
        if not isinstance(statement.statement, ast.QueryStatement):
            raise PermError("EXPLAIN supports queries only")
        text = self.explain(format_statement(statement.statement), statement.mode)
        rows = [(line,) for line in text.splitlines()]
        return Relation(Schema((Attribute("plan", SQLType.TEXT),)), rows)


def connect(
    options: Optional[RewriteOptions] = None,
    plan_cache_size: int = 128,
    engine: Optional[str] = None,
    optimizer: Optional[str] = None,
    database: Optional[Database] = None,
    autocommit: bool = True,
) -> Connection:
    """Open a new in-memory Perm session (DB-API module-level constructor).

    ``engine`` selects the execution engine: ``"row"`` (tuple-at-a-time
    volcano iterators, the default), ``"vectorized"`` (batch-at-a-time
    columnar execution — same results, much faster on scan-heavy
    workloads), or ``"sqlite"`` (the paper's pushdown architecture:
    rewritten plans are compiled to a single SQL statement executed by
    an embedded ``sqlite3`` database mirroring the catalog). Unset, it
    honors the ``REPRO_ENGINE`` environment variable before defaulting
    to ``"row"``.

    ``optimizer`` selects the optimizer mode: ``"cost"`` (the default:
    rules plus cost-based join reordering, redundant join-back
    elimination and column pruning — the stage the paper's performance
    argument relies on) or ``"rules"`` (simplifying rules only, joins in
    syntactic order). Unset, it honors ``REPRO_OPTIMIZER``. Both modes
    return bit-identical results, row order included.

    ``database`` attaches the session to an existing shared
    :class:`~repro.engine.database.Database`, so several connections
    (one per thread) see the same tables under snapshot-isolated MVCC
    transactions; omitted, the connection gets a private database.
    ``autocommit`` (default true) makes each statement its own implicit
    transaction; pass ``False`` for the PEP 249 model where the first
    statement opens a transaction that stays open until ``commit()`` /
    ``rollback()``. ``BEGIN``/``COMMIT``/``ROLLBACK``/``SAVEPOINT`` work
    in SQL either way.
    """
    return Connection(
        options,
        plan_cache_size=plan_cache_size,
        engine=engine,
        optimizer=optimizer,
        database=database,
        autocommit=autocommit,
    )
