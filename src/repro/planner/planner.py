"""Logical-to-physical planning.

Chooses physical implementations for logical operators:

* joins become hash joins when the condition contains equi-key conjuncts
  (including the null-safe ``IS NOT DISTINCT FROM`` keys generated by the
  provenance rewrite rules), otherwise nested loops;
* aggregation and DISTINCT are hash-based;
* sublinks are compiled into parameterized subplans with uncorrelated
  result caching.

This is the stage the paper's Figure 3 labels "Planner — optimize and
transform into plan"; logical optimization happens before it in
:mod:`repro.optimizer`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..algebra import expressions as ax
from ..algebra import nodes as an
from ..catalog.catalog import Catalog
from ..catalog.schema import Schema
from ..errors import CostEstimationError, PlanError
from ..executor.expr_eval import Env, ExprCompiler, ParamContext, Row
from ..executor import iterators as it
from ..executor import vectorized as vec
from ..executor.vector_expr import VectorExprCompiler


class Planner:
    """Builds physical plans against a catalog.

    All expressions compiled for one planner share a single
    :class:`ParamContext`, so a plan with bind-parameter placeholders can
    be kept and re-executed with fresh values: the session binds the
    context, then re-runs the physical tree (see
    :mod:`repro.engine.pipeline`).

    ``engine`` selects the execution style :meth:`plan_root` emits, by
    name, from the backend registry (:mod:`repro.backend.registry`): the
    tuple-at-a-time row engine (:mod:`repro.executor.iterators`), the
    batch-at-a-time vectorized engine (:mod:`repro.executor.vectorized`),
    or any registered pushdown backend (``"sqlite"``,
    ``"sqlite-partition"``, ``"duckdb"`` where available, third-party
    registrations), which compile the whole plan to SQL executed by a
    mirror DBMS. All engines compile from the same plan decisions — join
    strategy selection, hash aggregation, stable sorts — so they return
    identical results. Subplans for sublinks always use the row engine
    (the vectorized and pushdown engines fall back per-subtree for
    constructs they cannot express).
    """

    def __init__(
        self,
        catalog: Catalog,
        params: Optional[ParamContext] = None,
        engine: str = "row",
        batch_size: int = vec.DEFAULT_BATCH_SIZE,
    ):
        from ..backend.registry import get_spec

        self._spec = get_spec(engine)  # PlanError listing valid engines
        self.catalog = catalog
        self.params = params if params is not None else ParamContext()
        self.engine = self._spec.name
        # Backend configuration (e.g. $REPRO_PARTITIONS) resolved once,
        # here: the plan-cache token and the live backend must never
        # disagree about it mid-connection.
        self._engine_options = self._spec.resolve_options()
        # Rows per vectorized batch. The default amortizes interpreter
        # overhead; tests shrink it to force multi-batch operator paths.
        self.batch_size = batch_size
        self._backend = None
        # Per-plan_root estimate memo (see plan_root); None outside a
        # planning pass.
        self._estimator = None

    @property
    def backend(self):
        """The connection-scoped mirror backend (created on first use so
        row/vectorized planners never open a mirror connection). Built
        by the engine's registered factory; only pushdown engines have
        one."""
        if self._backend is None:
            if self._spec.create_backend is None:
                raise PlanError(f"engine {self.engine!r} has no mirror backend")
            self._backend = self._spec.create_backend(
                self.catalog, self._engine_options
            )
        return self._backend

    @property
    def cache_token(self):
        """What of this planner's configuration a compiled-plan cache
        must key on: the engine name plus its resolved options (shard
        counts and the like)."""
        return (self.engine, self._engine_options)

    def backend_counters(self) -> dict:
        """The mirror backend's cumulative counters (syncs, reloads and
        why, delta rows, indexes); empty while no backend exists."""
        return self._backend.counters() if self._backend is not None else {}

    def close(self) -> None:
        """Release planner-owned resources (the mirror backend, if one
        was ever created)."""
        if self._backend is not None:
            self._backend.close()
            self._backend = None

    # ------------------------------------------------------------------
    def plan_root(self, node: an.Node) -> "it.PhysicalOp | vec.VectorOp":
        """Build the top-level physical plan in the configured engine."""
        # One identity-memoized estimator per planning pass: every join's
        # build-side choice estimates both subtrees, which without the
        # memo is quadratic in plan depth. The logical tree stays alive
        # for the whole pass, so identity keys cannot go stale.
        from ..optimizer.cost import CostEstimator

        self._estimator = CostEstimator(self.catalog, cache=True)
        try:
            return self._spec.plan_root(self, node)
        finally:
            self._estimator = None

    # ------------------------------------------------------------------
    def plan(self, node: an.Node, outer_schemas: Sequence[Schema] = ()) -> it.PhysicalOp:
        outer = tuple(outer_schemas)
        if isinstance(node, an.Scan):
            entry = self.catalog.scan_entry(node.table_name)
            return it.PScan(entry.table, node.schema)
        if isinstance(node, an.SingleRow):
            return it.PValues([()], node.schema)
        if isinstance(node, an.Project):
            child = self.plan(node.child, outer)
            compiler = self._compiler(node.child.schema, outer)
            items = [compiler.compile(expr) for _, expr in node.items]
            return it.PProject(child, items, node.schema)
        if isinstance(node, an.Select):
            child = self.plan(node.child, outer)
            compiler = self._compiler(node.child.schema, outer)
            return it.PFilter(child, compiler.compile(node.condition))
        if isinstance(node, an.Join):
            return self._plan_join(node, outer)
        if isinstance(node, an.Aggregate):
            child = self.plan(node.child, outer)
            compiler = self._compiler(node.child.schema, outer)
            group_exprs = [compiler.compile(expr) for _, expr in node.group_items]
            agg_specs = [
                it.AggSpec(
                    agg.func,
                    compiler.compile(agg.arg) if agg.arg is not None else None,
                    agg.distinct,
                )
                for _, agg in node.agg_items
            ]
            return it.PHashAggregate(child, group_exprs, agg_specs, node.schema)
        if isinstance(node, an.SetOpNode):
            left = self.plan(node.left, outer)
            right = self.plan(node.right, outer)
            return it.PSetOp(left, right, node.kind, node.all, node.schema)
        if isinstance(node, an.Distinct):
            return it.PHashDistinct(self.plan(node.child, outer))
        if isinstance(node, an.Sort):
            child = self.plan(node.child, outer)
            compiler = self._compiler(node.child.schema, outer)
            keys = [
                it.SortSpec(compiler.compile(k.expr), k.descending, k.nulls_first)
                for k in node.keys
            ]
            return it.PSort(child, keys)
        if isinstance(node, an.Limit):
            child = self.plan(node.child, outer)
            compiler = self._compiler(Schema(()), outer)
            limit = compiler.compile(node.limit) if node.limit is not None else None
            offset = compiler.compile(node.offset) if node.offset is not None else None
            return it.PLimit(child, limit, offset)
        if isinstance(node, an.BaseRelationNode):
            # Provenance marker: transparent outside the rewrite phase.
            return self.plan(node.child, outer)
        if isinstance(node, an.ProvenanceNode):
            raise PlanError(
                "ProvenanceNode reached the planner — the provenance rewriter "
                "must run before planning (engine bug or misuse of Planner)"
            )
        raise PlanError(f"no physical implementation for {type(node).__name__}")

    # ------------------------------------------------------------------
    def _compiler(self, schema: Schema, outer: tuple[Schema, ...]) -> ExprCompiler:
        def compile_plan(
            plan_node: an.Node, outer_schemas: Sequence[Schema]
        ) -> Callable[[Env], list[Row]]:
            physical = self.plan(plan_node, outer_schemas)
            return lambda env: list(physical.rows(env))

        return ExprCompiler(schema, outer, plan_compiler=compile_plan, params=self.params)

    # Build-left buffers the matched right rows instead of the whole
    # right input, so it only pays off on a clear cardinality margin …
    _BUILD_LEFT_MARGIN = 4.0
    # … and only while the buffered output is no bigger than what the
    # build-right path would buffer anyway (the right input): a
    # fanning-out join must keep streaming build-right.
    _BUILD_LEFT_OUTPUT_SLACK = 1.25

    def _choose_build_side(self, node: an.Join) -> str:
        """Hash-side selection from estimated cardinalities (instead of
        the historic syntactic build-on-the-right): when the left input
        is estimated much smaller than the right — the provenance
        join-back shape, a small original result joined to a wide
        rewritten input — the hash table is built on the left. Purely
        physical: the emitted row order is identical either way, so the
        row and vectorized engines may each apply it independently of
        the logical plan shared with the sqlite backend."""
        if node.kind not in ("inner", "left"):
            return "right"
        # Build-left eagerly materializes the left input and evaluates
        # the join condition over the whole right stream before
        # emitting; the build-right path streams the left side and
        # probes lazily, so under LIMIT it may never reach a late
        # error-raising expression. Identical errors are part of the
        # engine contract: error-capable conditions or left subtrees pin
        # the historic build side.
        from ..optimizer.rules import expr_cannot_raise, plan_cannot_raise

        if node.condition is not None and not expr_cannot_raise(node.condition):
            return "right"
        if not plan_cannot_raise(node.left):
            return "right"
        estimator = self._estimator
        if estimator is None:
            from ..optimizer.cost import CostEstimator

            estimator = CostEstimator(self.catalog)
        try:
            left_rows = estimator.estimate(node.left).rows
            right_rows = estimator.estimate(node.right).rows
            out_rows = estimator.estimate(node).rows
        except CostEstimationError:
            return "right"
        if (
            right_rows > left_rows * self._BUILD_LEFT_MARGIN
            and out_rows <= right_rows * self._BUILD_LEFT_OUTPUT_SLACK
        ):
            return "left"
        return "right"

    def _split_join_condition(
        self, node: an.Join
    ) -> tuple[list[tuple[ax.Column, ax.Column, bool]], Optional[ax.Expr]]:
        """The shared join-strategy decision: split the condition into
        equi-key conjuncts (hash-joinable) and a residual expression.
        Both engines consume this, so they always pick the same plan."""
        left_names = {a.name.lower() for a in node.left.schema}
        right_names = {a.name.lower() for a in node.right.schema}
        equi: list[tuple[ax.Column, ax.Column, bool]] = []
        residual: list[ax.Expr] = []
        for conjunct in ax.conjuncts(node.condition):
            pair = _equi_pair(conjunct, left_names, right_names)
            if pair is not None:
                equi.append(pair)
            else:
                residual.append(conjunct)
        return equi, ax.combine_conjuncts(residual)

    def _plan_join(self, node: an.Join, outer: tuple[Schema, ...]) -> it.PhysicalOp:
        left = self.plan(node.left, outer)
        right = self.plan(node.right, outer)
        combined_compiler = self._compiler(node.schema, outer)

        if node.condition is None:
            return it.PNestedLoopJoin(left, right, "inner", None, node.schema)

        equi, residual_expr = self._split_join_condition(node)

        if not equi:
            kind = "inner" if node.kind == "cross" else node.kind
            return it.PNestedLoopJoin(
                left, right, kind, combined_compiler.compile(node.condition), node.schema
            )

        left_compiler = self._compiler(node.left.schema, outer)
        right_compiler = self._compiler(node.right.schema, outer)
        left_keys = [left_compiler.compile(l) for l, _, _ in equi]
        right_keys = [right_compiler.compile(r) for _, r, _ in equi]
        null_safe = [safe for _, _, safe in equi]
        residual_compiled = (
            combined_compiler.compile(residual_expr) if residual_expr is not None else None
        )
        return it.PHashJoin(
            left,
            right,
            node.kind,
            left_keys,
            right_keys,
            null_safe,
            residual_compiled,
            node.schema,
            build_side=self._choose_build_side(node),
        )

    # ------------------------------------------------------------------
    # Vectorized planning
    # ------------------------------------------------------------------
    def _vector_compiler(
        self, schema: Schema, outer: tuple[Schema, ...]
    ) -> VectorExprCompiler:
        # The embedded row compiler serves the fallback path (CASE, IN
        # lists, sublinks) and compiles subplans with the row engine.
        return VectorExprCompiler(schema, self._compiler(schema, outer))

    def plan_vectorized(
        self, node: an.Node, outer_schemas: Sequence[Schema] = ()
    ) -> vec.VectorOp:
        """Build a batch-at-a-time plan for *node*.

        Operators without a native vectorized implementation (nested-loop
        joins, set operations) are planned with the row engine and
        adapted via :class:`~repro.executor.vectorized.VFromRows`.
        """
        outer = tuple(outer_schemas)
        if isinstance(node, an.Scan):
            entry = self.catalog.scan_entry(node.table_name)
            return vec.VScan(entry.table, node.schema, self.batch_size)
        if isinstance(node, an.SingleRow):
            return vec.VValues([()], node.schema, self.batch_size)
        if isinstance(node, an.Project):
            child = self.plan_vectorized(node.child, outer)
            compiler = self._vector_compiler(node.child.schema, outer)
            items = [compiler.compile(expr) for _, expr in node.items]
            return vec.VProject(child, items, node.schema)
        if isinstance(node, an.Select):
            child = self.plan_vectorized(node.child, outer)
            compiler = self._vector_compiler(node.child.schema, outer)
            return vec.VFilter(child, compiler.compile(node.condition))
        if isinstance(node, an.Join):
            return self._plan_join_vectorized(node, outer)
        if isinstance(node, an.Aggregate):
            child = self.plan_vectorized(node.child, outer)
            compiler = self._vector_compiler(node.child.schema, outer)
            group_exprs = [compiler.compile(expr) for _, expr in node.group_items]
            agg_specs = []
            for _, agg in node.agg_items:
                spec = it.AggSpec(agg.func, None, agg.distinct)
                if agg.arg is None:
                    agg_specs.append(vec.VAggSpec(spec, None, None))
                else:
                    static_type = ax.infer_type(agg.arg, node.child.schema, outer)
                    agg_specs.append(
                        vec.VAggSpec(spec, compiler.compile(agg.arg), static_type)
                    )
            return vec.VHashAggregate(
                child, group_exprs, agg_specs, node.schema, self.batch_size
            )
        if isinstance(node, an.Distinct):
            return vec.VDistinct(self.plan_vectorized(node.child, outer))
        if isinstance(node, an.Sort):
            child = self.plan_vectorized(node.child, outer)
            compiler = self._vector_compiler(node.child.schema, outer)
            # SortSpec carries direction/NULL placement; the key itself is
            # evaluated through the vectorized expression (first element).
            keys = [
                (compiler.compile(k.expr), it.SortSpec(None, k.descending, k.nulls_first))
                for k in node.keys
            ]
            return vec.VSort(child, keys, self.batch_size)
        if isinstance(node, an.Limit):
            child = self.plan_vectorized(node.child, outer)
            compiler = self._compiler(Schema(()), outer)
            limit = compiler.compile(node.limit) if node.limit is not None else None
            offset = compiler.compile(node.offset) if node.offset is not None else None
            return vec.VLimit(child, limit, offset)
        if isinstance(node, an.BaseRelationNode):
            return self.plan_vectorized(node.child, outer)
        if isinstance(node, an.ProvenanceNode):
            raise PlanError(
                "ProvenanceNode reached the planner — the provenance rewriter "
                "must run before planning (engine bug or misuse of Planner)"
            )
        # SetOpNode and anything not covered above: run the whole subtree
        # on the row engine and re-batch its output.
        return vec.VFromRows(self.plan(node, outer), self.batch_size)

    def _plan_join_vectorized(
        self, node: an.Join, outer: tuple[Schema, ...]
    ) -> vec.VectorOp:
        if node.condition is None:
            # Cross join: nested-loop only — row-engine subtree.
            return vec.VFromRows(self.plan(node, outer), self.batch_size)

        equi, residual_expr = self._split_join_condition(node)
        if not equi:
            # Non-equi condition: the row engine's nested loop handles it.
            return vec.VFromRows(self.plan(node, outer), self.batch_size)

        left = self.plan_vectorized(node.left, outer)
        right = self.plan_vectorized(node.right, outer)
        left_compiler = self._vector_compiler(node.left.schema, outer)
        right_compiler = self._vector_compiler(node.right.schema, outer)
        left_keys = [left_compiler.compile(l) for l, _, _ in equi]
        right_keys = [right_compiler.compile(r) for _, r, _ in equi]
        null_safe = [safe for _, _, safe in equi]
        residual_compiled = (
            self._compiler(node.schema, outer).compile(residual_expr)
            if residual_expr is not None
            else None
        )
        return vec.VHashJoin(
            left,
            right,
            node.kind,
            left_keys,
            right_keys,
            null_safe,
            residual_compiled,
            node.schema,
            self.batch_size,
            build_side=self._choose_build_side(node),
        )


def _equi_pair(
    conjunct: ax.Expr, left_names: set[str], right_names: set[str]
) -> Optional[tuple[ax.Column, ax.Column, bool]]:
    """Recognize ``l = r`` / ``l IS NOT DISTINCT FROM r`` equi-key
    conjuncts between plain columns of opposite sides."""
    if isinstance(conjunct, ax.BinOp) and conjunct.op == "=":
        a, b = conjunct.left, conjunct.right
        null_safe = False
    elif isinstance(conjunct, ax.DistinctTest) and conjunct.negated:
        a, b = conjunct.left, conjunct.right
        null_safe = True
    else:
        return None
    if not (isinstance(a, ax.Column) and isinstance(b, ax.Column)):
        return None
    if a.name.lower() in left_names and b.name.lower() in right_names:
        return a, b, null_safe
    if b.name.lower() in left_names and a.name.lower() in right_names:
        return b, a, null_safe
    return None


def plan(catalog: Catalog, node: an.Node) -> it.PhysicalOp:
    """Convenience: plan *node* against *catalog*."""
    return Planner(catalog).plan(node)
