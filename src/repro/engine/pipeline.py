"""The query pipeline as an explicit, reusable object.

The paper's Figure 3 stage sequence::

    Parser & Analyzer  ->  Provenance Rewriter  ->  Planner  ->  Executor

is first-class here, so a call need not re-parse, re-analyze,
re-rewrite, re-optimize and re-plan its SQL:
``prepare()`` runs everything up to (and including) physical planning
once and returns a :class:`PreparedPlan` that can be executed any number
of times with fresh parameter bindings — only the execute stage is paid
per call. :class:`PlanCache` (an LRU keyed on the statement's canonical
SQL, the catalog version and the rewrite options) sits in front of
``prepare()`` so repeated ``cursor.execute`` of the same query text skips
straight to execution.

:class:`PipelineCounters` counts stage invocations, which is how tests
and benchmarks assert that the hot path really skips the front of the
pipeline.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Hashable, Mapping, Optional, Sequence

from ..analyzer import Analyzer, infer_param_types
from ..catalog.catalog import Catalog
from ..core.provenance import ProvenanceRewriter, RewriteOptions
from ..datatypes import SQLType, Value, type_of_value
from ..errors import ParseError, PermError, ProgrammingError, TypeCheckError
from ..executor import ParamContext, execute_plan
from ..executor.iterators import PhysicalOp
from ..executor.vectorized import VectorOp
from ..optimizer import Optimizer
from ..planner import Planner
from ..sql import ast, parse_sql
from ..storage.table import Relation
from .result import ExecutionProfile, StageTiming

if False:  # pragma: no cover - typing only
    from ..algebra.nodes import Node


EMPTY_STATEMENT_MESSAGE = (
    "empty statement: the input contains no SQL (only whitespace or comments)"
)


@dataclass
class PipelineCounters:
    """How often each pipeline stage has run (the Figure 3 boxes).

    ``execute`` counts plan executions; the others count front-of-pipeline
    work. A well-behaved hot path shows ``execute`` racing ahead while the
    rest stand still.

    The optimizer additionally reports its internals: ``optimize_passes``
    counts rule-fixpoint iterations, ``optimize_bound_hits`` how often the
    fixpoint hit its safety bound without converging (a warning is raised
    too), ``joins_reordered`` cost-based join-region re-shapes,
    ``joinbacks_eliminated`` dropped redundant provenance join-backs, and
    ``columns_pruned`` projection columns removed as dead.
    """

    parse: int = 0
    analyze: int = 0
    rewrite: int = 0
    optimize: int = 0
    plan: int = 0
    execute: int = 0
    optimize_passes: int = 0
    optimize_bound_hits: int = 0
    joins_reordered: int = 0
    joinbacks_eliminated: int = 0
    columns_pruned: int = 0
    # Materialized views: explicit REFRESH statements, and refreshes the
    # connection ran automatically because a read outside a transaction
    # hit a stale view (the recompute-fallback path for shapes the
    # incremental maintainer cannot handle).
    matview_refreshes: int = 0
    matview_auto_refreshes: int = 0

    def snapshot(self) -> "PipelineCounters":
        return replace(self)

    def prepared_since(self, before: "PipelineCounters") -> int:
        """Front-of-pipeline (analyze) runs since *before*."""
        return self.analyze - before.analyze

    def executed_since(self, before: "PipelineCounters") -> int:
        return self.execute - before.execute


@dataclass
class PreparedPlan:
    """Everything ``prepare()`` produced for one query statement.

    The physical plan's expressions are compiled against the pipeline's
    shared :class:`ParamContext`; :meth:`execute` binds slot-ordered
    parameter values into that context and runs only the execute stage.
    """

    sql: str
    statement: ast.QueryStatement
    # Intermediate artifacts; present on freshly prepared plans (profile
    # and explain read them) but dropped before a plan enters the cache —
    # provenance-rewritten trees are much larger than the query, and
    # execution needs only the physical plan.
    analyzed: Optional["Node"]
    rewritten: Optional["Node"]
    optimized: Optional["Node"]
    physical: "PhysicalOp | VectorOp"
    provenance_attrs: tuple[str, ...]
    param_specs: tuple[Optional[str], ...]  # slot order; None = positional
    param_types: dict[int, SQLType]
    # Catalog version the plan was built against; a mismatch means some
    # DDL ran since and the plan may scan dropped storage (prepared
    # statements re-prepare, the cache simply never matches).
    catalog_version: int = -1
    # Heap-version facts any statistics-based plan simplification relied
    # on (redundant join-back elimination proves at-most-one-match from
    # exact per-version column statistics). Row-level DML does not bump
    # the catalog version, so these are revalidated before every
    # execution and the plan transparently re-prepares when stale.
    # The versions are *snapshot stamps* (repro.storage.mvcc): reading
    # ``table.version`` inside a transaction resolves to the visible
    # state's stamp, and stamps are globally unique per state — so a
    # version bump inside a rolled-back transaction can neither
    # invalidate committed plans nor stale-validate transaction-local
    # ones, and a commit (which re-installs its final working stamp)
    # keeps plans prepared inside the transaction valid afterwards.
    stats_deps: tuple[tuple[str, int], ...] = ()
    # Materialized views this plan *unfolded* because their stored rows
    # could not be trusted (stale, or behind the snapshot's base
    # versions). The connection brings these up to date before serving
    # reads outside a transaction — a catch-up without a catalog version
    # bump — so, like the fresh ones below, the decision is revalidated
    # before every execution.
    stale_matviews: tuple[str, ...] = ()
    # Materialized views this plan scans *from the stored heap* — a
    # decision that holds only while each view stays fresh for the
    # executing snapshot. Like ``stats_deps`` this is revalidated before
    # every execution: a transaction that writes a base table after
    # preparing (or a cached plan outliving a freshness change that
    # never bumped the catalog version) re-prepares and unfolds instead
    # of serving stored rows its snapshot cannot trust.
    fresh_matviews: tuple[str, ...] = ()
    timings: list[StageTiming] = field(default_factory=list)
    _pipeline: "Pipeline" = None  # type: ignore[assignment]

    @property
    def schema(self):
        return self.physical.schema

    @property
    def parameter_count(self) -> int:
        return len(self.param_specs)

    def release_intermediates(self) -> None:
        """Drop the logical-tree artifacts, keeping only what repeated
        execution needs (called when the plan enters the cache)."""
        self.analyzed = None
        self.rewritten = None
        self.optimized = None
        self.timings = []

    def stats_deps_valid(self) -> bool:
        """Whether every heap-version fact baked into this plan still
        holds (always true for plans without statistics-based
        simplifications)."""
        if not self.stats_deps:
            return True
        catalog = self._pipeline.catalog
        for table_name, heap_version in self.stats_deps:
            if not (
                catalog.has_table(table_name) or catalog.has_matview(table_name)
            ):
                return False
            if catalog.scan_entry(table_name).table.version != heap_version:
                return False
        return True

    def matview_choices_hold(self) -> bool:
        """Whether every scan-vs-unfold decision still matches freshness
        for the caller's snapshot: each matview scanned from its stored
        heap is still fresh, each one unfolded still is not (trivially
        true for plans that read no matview)."""
        catalog = self._pipeline.catalog
        for names, fresh in ((self.fresh_matviews, True), (self.stale_matviews, False)):
            for name in names:
                if not catalog.has_matview(name) or catalog.matview_fresh(
                    catalog.matview(name)
                ) is not fresh:
                    return False
        return True

    def deps_valid(self) -> bool:
        """Every execution-time fact the plan relies on: statistics-based
        simplifications and matview scan-vs-unfold decisions."""
        return self.stats_deps_valid() and self.matview_choices_hold()

    def refresh(self) -> None:
        """Re-run the prepare stages for this plan's statement in place,
        so every holder (plan cache entries, prepared statements) picks
        up the fresh physical plan."""
        fresh = self._pipeline.prepare(self.statement, self.sql)
        self.analyzed = fresh.analyzed
        self.rewritten = fresh.rewritten
        self.optimized = fresh.optimized
        self.physical = fresh.physical
        self.provenance_attrs = fresh.provenance_attrs
        self.param_types = fresh.param_types
        self.catalog_version = fresh.catalog_version
        self.stats_deps = fresh.stats_deps
        self.stale_matviews = fresh.stale_matviews
        self.fresh_matviews = fresh.fresh_matviews
        self.release_intermediates()

    def execute(self, values: Sequence[Value] = ()) -> Relation:
        """Run the execute stage with *values* bound to the parameter
        slots (already in slot order — see :func:`bind_parameters`)."""
        if not self.deps_valid():
            # DML invalidated a statistics-derived simplification (e.g. a
            # column this plan's join-back elimination proved unique is
            # no longer unique), or a matview this plan scans is no
            # longer fresh for the executing snapshot (e.g. this very
            # transaction wrote one of its base tables): rebuild before
            # running a stale plan.
            self.refresh()
        self._pipeline.counters.execute += 1
        return execute_plan(
            self.physical, self.provenance_attrs, values, context=self._pipeline.params
        )


class PlanCache:
    """A small LRU of :class:`PreparedPlan` objects.

    Keys carry the catalog version and rewrite-option fingerprint, so DDL
    or strategy toggles simply stop matching old entries (which then age
    out) — no explicit invalidation hooks needed.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 0:
            raise ValueError("plan cache capacity must be >= 0")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Hashable, PreparedPlan]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[PreparedPlan]:
        plan = self._entries.get(key)
        if plan is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return plan

    def put(self, key: Hashable, plan: PreparedPlan) -> None:
        if self.capacity == 0:
            return
        self._entries[key] = plan
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._entries),
            "capacity": self.capacity,
        }


class Pipeline:
    """The parse -> analyze -> provenance-rewrite -> optimize -> plan
    stage sequence, bound to one catalog and one set of rewrite options."""

    def __init__(
        self,
        catalog: Catalog,
        options: RewriteOptions,
        params: Optional[ParamContext] = None,
        engine: str = "row",
        optimizer_mode: str = "cost",
    ):
        self.catalog = catalog
        self.options = options
        self.params = params if params is not None else ParamContext()
        self.engine = engine
        self.optimizer_mode = optimizer_mode
        self.rewriter = ProvenanceRewriter(catalog, options)
        self.counters = PipelineCounters()
        self.optimizer = Optimizer(catalog, mode=optimizer_mode, counters=self.counters)
        self.planner = Planner(catalog, params=self.params, engine=engine)

    # ------------------------------------------------------------------
    def analyzer(self) -> Analyzer:
        analyzer = Analyzer(self.catalog)
        analyzer.provenance_expander = lambda node: self.rewriter.expand(node).node
        return analyzer

    def parse(self, sql: str) -> list[ast.Statement]:
        """Parse *sql* into statements; empty/comment-only input raises a
        :class:`ParseError` that says so."""
        self.counters.parse += 1
        statements = parse_sql(sql)
        if not statements:
            raise ParseError(EMPTY_STATEMENT_MESSAGE)
        return statements

    # ------------------------------------------------------------------
    def prepare(self, statement: ast.QueryStatement, sql: str = "") -> PreparedPlan:
        """Run every stage except execute, recording per-stage timings."""
        timings: list[StageTiming] = []

        start = time.perf_counter()
        analyzer = self.analyzer()
        analyzed = analyzer.analyze_query(statement.query)
        timings.append(StageTiming("analyze", time.perf_counter() - start))
        self.counters.analyze += 1

        start = time.perf_counter()
        expanded = self.rewriter.expand(analyzed)
        timings.append(StageTiming("provenance rewrite", time.perf_counter() - start))
        self.counters.rewrite += 1

        start = time.perf_counter()
        optimized = self.optimizer.optimize(expanded.node)
        timings.append(StageTiming("optimize", time.perf_counter() - start))
        self.counters.optimize += 1

        start = time.perf_counter()
        physical = self.planner.plan_root(optimized)
        timings.append(StageTiming("plan", time.perf_counter() - start))
        self.counters.plan += 1

        return PreparedPlan(
            sql=sql,
            statement=statement,
            analyzed=analyzed,
            rewritten=expanded.node,
            optimized=optimized,
            physical=physical,
            provenance_attrs=expanded.provenance_names,
            param_specs=ast.statement_parameters(statement),
            param_types=infer_param_types(analyzed),
            catalog_version=self.catalog.version,
            stats_deps=tuple(self.optimizer.stats_deps),
            stale_matviews=tuple(sorted(analyzer.stale_matviews)),
            fresh_matviews=tuple(sorted(analyzer.fresh_matviews)),
            timings=timings,
            _pipeline=self,
        )

    # ------------------------------------------------------------------
    def profile(
        self,
        sql: str,
        execute: bool = True,
        params: object = None,
    ) -> ExecutionProfile:
        """Run the pipeline stage by stage, recording artifacts and
        wall-clock timings (the Figure 3 breakdown)."""
        profile = ExecutionProfile(sql=sql)

        start = time.perf_counter()
        statements = self.parse(sql)
        parse_seconds = time.perf_counter() - start
        if len(statements) != 1:
            raise PermError("profile() expects exactly one statement")
        statement = statements[0]
        if not isinstance(statement, ast.QueryStatement):
            raise PermError("profile() expects a query")
        profile.statement = statement
        profile.timings.append(StageTiming("parse", parse_seconds))

        prepared = self.prepare(statement, sql)
        profile.analyzed = prepared.analyzed
        profile.rewritten = prepared.rewritten
        profile.optimized = prepared.optimized
        profile.physical = prepared.physical
        profile.provenance_attrs = prepared.provenance_attrs
        profile.timings.extend(prepared.timings)

        if execute:
            values = bind_parameters(
                prepared.param_specs, params, prepared.param_types
            )
            start = time.perf_counter()
            profile.result = prepared.execute(values)
            profile.timings.append(StageTiming("execute", time.perf_counter() - start))
        return profile


# ---------------------------------------------------------------------------
# Parameter binding
# ---------------------------------------------------------------------------

# Bound values whose Python type is compatible with each expected SQLType.
# Numeric slots accept both int and float — the engine's comparison and
# arithmetic semantics mix them freely, so `a > 1.5` and `a > ?` with 1.5
# must both work against an int column.
_COMPATIBLE: dict[SQLType, tuple[type, ...]] = {
    SQLType.INT: (int, float),
    SQLType.FLOAT: (int, float),
    SQLType.TEXT: (str,),
    SQLType.BOOL: (bool,),
}


def bind_parameters(
    specs: tuple[Optional[str], ...],
    params: object,
    param_types: Mapping[int, SQLType] = {},
) -> tuple[Value, ...]:
    """Order user-supplied *params* into slot order and type-check them.

    *specs* comes from the parser (:func:`repro.sql.ast.statement_parameters`):
    one entry per slot, the placeholder name or ``None`` for positional
    ``?``. Positional statements take a sequence, named statements take a
    mapping; mismatched counts, missing or unknown names, and values that
    contradict the analyzer's expected types all raise eagerly, before
    any execution starts.
    """
    if not specs:
        if params:
            raise ProgrammingError(
                f"statement takes no parameters ({_describe_params(params)} given)"
            )
        return ()

    named = any(name is not None for name in specs)
    if params is None:
        raise ProgrammingError(
            f"statement expects {len(specs)} parameter(s), none given"
        )

    if named:
        if not isinstance(params, Mapping):
            raise ProgrammingError(
                "statement uses named placeholders; pass parameters as a mapping"
            )
        supplied = {str(k).lower(): v for k, v in params.items()}
        wanted = [name for name in specs if name is not None]
        missing = [name for name in wanted if name not in supplied]
        extra = sorted(set(supplied) - set(wanted))
        if missing:
            raise ProgrammingError(f"missing value for parameter(s): {', '.join(missing)}")
        if extra:
            raise ProgrammingError(f"unknown parameter(s): {', '.join(extra)}")
        values = tuple(supplied[name] for name in wanted)
    else:
        if isinstance(params, Mapping):
            raise ProgrammingError(
                "statement uses positional (?) placeholders; pass parameters as a sequence"
            )
        if isinstance(params, (str, bytes)) or not isinstance(params, Sequence):
            raise ProgrammingError(
                "parameters must be a sequence (tuple or list) of values"
            )
        if len(params) != len(specs):
            raise ProgrammingError(
                f"statement expects {len(specs)} parameter(s), got {len(params)}"
            )
        values = tuple(params)

    for index, value in enumerate(values):
        expected = param_types.get(index)
        if expected is None or value is None:
            continue
        allowed = _COMPATIBLE.get(expected)
        if allowed is None:
            continue
        # bool is an int subclass; only BOOL slots accept it.
        if isinstance(value, bool) and expected is not SQLType.BOOL:
            ok = False
        else:
            ok = isinstance(value, allowed)
        if not ok:
            label = f":{specs[index]}" if specs[index] is not None else f"${index + 1}"
            try:
                got = type_of_value(value).value
            except TypeCheckError:
                got = type(value).__name__
            raise TypeCheckError(
                f"parameter {label} expects {expected.value}, got {got} ({value!r})"
            )
    return values


def _describe_params(params: object) -> str:
    if isinstance(params, Mapping):
        return f"{len(params)} named"
    if isinstance(params, Sequence) and not isinstance(params, (str, bytes)):
        return f"{len(params)} positional"
    return repr(params)
