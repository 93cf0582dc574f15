"""Hash-partitioned parallel SQLite backend (``engine="sqlite-partition"``).

The registry's proof that pushdown backends are genuinely pluggable: a
backend assembled entirely from the public contract — the
:class:`~repro.backend.dialects.sqlite.SQLiteDialect`, the
:class:`~repro.backend.runtime.MirrorAdapter` mirror hooks, and the
shared plan compiler — without touching any of them.

Architecture
------------

Every heap table is mirrored *N* ways: shard *i* holds the rows whose
global heap position satisfies ``pos % N == i``, stored together with
that position in a hidden ``#pos`` column. The shard adapter
(:class:`_ShardBackend`) is the stock SQLite backend with exactly three
hooks overridden: mirror columns (append ``#pos``), mirror rows (filter
the slice, append the position) and the scan ordinal (``#pos`` instead
of rowid). Because ``#pos`` is the *global* heap position, ordinals
taken from different shards stay mutually comparable — the whole
ordering channel works across shards unchanged.

A query is *partitioned* when it is a single-table pipeline
(Select/Project chains over one Scan, no sublinks) topped by an
Aggregate, a Distinct or a Sort (optionally under a pure-column
projection). The pipeline is compiled **once** through the shared
:class:`~repro.backend.compile.PushdownCompiler` against shard 0 — the
same statement text runs on every shard connection (identical schemas,
identical UDFs) via a thread pool (``sqlite3`` releases the GIL during
execution, so shards genuinely run in parallel). Per-shape merges
reassemble the engine-exact result:

* **aggregates** — shards compute partials (``count``/``sum``/``min``/
  ``max`` natively; ``avg`` as ``sum`` + ``count``) combined exactly in
  Python. Only statically-INT ``sum``/``avg`` partition: integer
  addition is associative so any shard interleaving is bit-identical,
  while float accumulation is order-sensitive and *delegates*. Per-shard
  native overflow escapes through the ordinary
  :class:`~repro.backend.runtime.IntegerRangeEscape` rescue.
* **grouped aggregates / DISTINCT** — shards group locally carrying
  ``min(#pos)``; groups merge on :func:`~repro.datatypes.value_identity`
  keys and emit in global first-seen order (ascending minimum
  position), the representative row coming from the shard that saw the
  group first.
* **ORDER BY** — each shard sorts its slice; slices merge on the full
  ordinal-key comparator with the globally-unique ``#pos`` breaking
  ties, reproducing the row engine's stable sort.

Everything else — joins, set operations, sublinks, LIMIT, plain
streams — *delegates* to a private full (unpartitioned) SQLite backend,
so the engine is always complete. Any shard-side error rescues the
whole statement to the row engine: shard errors can race (first failing
shard wins) while the harness requires deterministic, bit-identical
error behavior — the row engine's answer is canonical by definition.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from functools import cmp_to_key
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from ..algebra import expressions as ax
from ..algebra import nodes as an
from ..datatypes import SQLType, Value, compare, value_identity
from ..errors import ExecutionError, ProgrammingError
from ..executor.expr_eval import Env, ParamContext, Row
from ..executor.iterators import PhysicalOp
from .compile import OrdKey, PushdownCompiler, Unsupported, compile_pushdown_plan
from .dialects.base import quote_identifier_always as q
from .dialects.sqlite import SQLiteDialect
from .runtime import IntegerRangeEscape, adapt_row, adapt_value
from .sqlite import SQLiteBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..catalog.catalog import Catalog
    from ..planner.planner import Planner
    from ..storage.table import HeapTable

PARTITIONS_ENV_VAR = "REPRO_PARTITIONS"

#: Hidden mirror column holding each row's global heap position; '#'
#: keeps it outside any attribute namespace the analyzer can produce.
POS_COLUMN = "#pos"


def resolve_shard_count() -> int:
    """Shard count for new partitioned backends: ``$REPRO_PARTITIONS``,
    else one shard per core within [2, 8]."""
    raw = os.environ.get(PARTITIONS_ENV_VAR)
    if raw is None or not raw.strip():
        return min(8, max(2, os.cpu_count() or 2))
    try:
        shards = int(raw)
    except ValueError:
        shards = 0
    if shards < 1:
        raise ProgrammingError(
            f"${PARTITIONS_ENV_VAR} must be a positive integer shard count "
            f"(got {raw!r})"
        )
    return shards


class _ShardBackend(SQLiteBackend):
    """One shard: the stock SQLite adapter over a slice of every table.

    The only changes are the three mirror hooks — each mirrored table
    stores rows with ``pos % shard_count == shard_index`` plus their
    global position, which doubles as the scan ordinal. Positions (and
    with them the slice a row belongs to) shift under any delete, so a
    shard follows the heap by reloading, never by row-level deltas.
    """

    delta_sync = False

    def __init__(self, catalog: "Catalog", shard_index: int, shard_count: int):
        super().__init__(catalog)
        self.shard_index = shard_index
        self.shard_count = shard_count

    def _mirror_columns(self, heap: "HeapTable") -> list[str]:
        return super()._mirror_columns(heap) + [q(POS_COLUMN)]

    def _mirror_rows(self, heap: "HeapTable") -> Iterable[Row]:
        index, modulus = self.shard_index, self.shard_count
        has_bool = any(a.type is SQLType.BOOL for a in heap.schema)
        for pos, row in enumerate(heap.rows):
            if pos % modulus != index:
                continue
            if has_bool:
                row = adapt_row(row)
            yield tuple(row) + (pos,)

    def scan_ordinal(self, columns: Sequence[str]) -> Optional[str]:
        if POS_COLUMN in {c.lower() for c in columns}:
            return None  # a stored column shadows the hidden position
        return POS_COLUMN


class PartitionedSQLiteBackend:
    """The composite backend behind ``engine="sqlite-partition"``: *N*
    shard adapters, a thread pool, and a lazily-created full
    (unpartitioned) SQLite backend for everything that delegates."""

    dialect_class = SQLiteDialect

    def __init__(self, catalog: "Catalog", shards: Optional[int] = None):
        count = shards if shards is not None else resolve_shard_count()
        if count < 1:
            raise ProgrammingError(
                f"partitioned backend needs at least one shard (got {count})"
            )
        self.catalog = catalog
        self.shard_count = count
        self.shards = [_ShardBackend(catalog, i, count) for i in range(count)]
        self._full: Optional[SQLiteBackend] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        # Observability: how plans split between the two paths.
        self.partitioned_plans = 0
        self.delegated_plans = 0
        self.partitioned_statements = 0
        self.rescues = 0

    @property
    def full_backend(self) -> SQLiteBackend:
        """The single-connection backend delegated plans run on."""
        if self._full is None:
            self._full = SQLiteBackend(self.catalog)
        return self._full

    @property
    def pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.shard_count, thread_name_prefix="repro-shard"
            )
        return self._pool

    def counters(self) -> dict:
        """The members' adapter counters summed (every shard, plus the
        full backend once a plan has delegated)."""
        members = self.shards + ([self._full] if self._full is not None else [])
        total: dict = {"reload_reasons": {}}
        for member in members:
            for name, value in member.counters().items():
                if name == "reload_reasons":
                    for reason, count in value.items():
                        total[name][reason] = total[name].get(reason, 0) + count
                else:
                    total[name] = total.get(name, 0) + value
        return total

    def close(self) -> None:
        for shard in self.shards:
            shard.close()
        if self._full is not None:
            self._full.close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)


# ----------------------------------------------------------------------
# Shape analysis: which plans partition
# ----------------------------------------------------------------------
class _Shape:
    """A partitionable plan: pipeline -> top (agg/group/distinct/sort),
    optionally under a pure-column projection of the top's schema."""

    __slots__ = ("kind", "top", "pipeline", "project")

    def __init__(
        self,
        kind: str,
        top: an.Node,
        pipeline: an.Node,
        project: Optional[tuple[int, ...]],
    ):
        self.kind = kind
        self.top = top
        self.pipeline = pipeline
        self.project = project


def _strip(node: an.Node) -> an.Node:
    while isinstance(node, an.BaseRelationNode):
        node = node.child
    return node


def _node_exprs(node: an.Node) -> tuple[ax.Expr, ...]:
    if isinstance(node, an.Select):
        return (node.condition,)
    if isinstance(node, an.Project):
        return tuple(expr for _, expr in node.items)
    if isinstance(node, an.Aggregate):
        return tuple(expr for _, expr in node.group_items) + tuple(
            agg.arg for _, agg in node.agg_items if agg.arg is not None
        )
    if isinstance(node, an.Sort):
        return tuple(key.expr for key in node.keys)
    return ()


def _reject_sublinks(node: an.Node) -> None:
    """A sublink inside a shard statement would scan *its* tables'
    1/N-row shard mirrors — silently wrong results. Delegate instead."""
    for expr in _node_exprs(node):
        for part in ax.walk_expr(expr):
            if isinstance(part, ax.SubqueryExpr):
                raise Unsupported("sublink inside a partitioned pipeline")


def _analyze(root: an.Node) -> _Shape:
    node = _strip(root)
    project: Optional[tuple[int, ...]] = None
    if isinstance(node, an.Project):
        inner = _strip(node.child)
        if not isinstance(inner, (an.Aggregate, an.Distinct, an.Sort)):
            raise Unsupported("plain stream pipelines delegate")
        positions = {a.name: i for i, a in enumerate(inner.schema)}
        if len(positions) != len(inner.schema):
            raise Unsupported("ambiguous column names under the projection")
        indices = []
        for _, expr in node.items:
            if not isinstance(expr, ax.Column) or expr.name not in positions:
                raise Unsupported("non-column projection above the merge point")
            indices.append(positions[expr.name])
        project = tuple(indices)
        node = inner
    if isinstance(node, an.Aggregate):
        kind = "group" if node.group_items else "agg"
    elif isinstance(node, an.Distinct):
        kind = "distinct"
    elif isinstance(node, an.Sort):
        kind = "sort"
    else:
        raise Unsupported("not a partitionable plan shape")
    _reject_sublinks(node)
    pipeline = node.child
    probe = _strip(pipeline)
    while isinstance(probe, (an.Select, an.Project)):
        _reject_sublinks(probe)
        probe = _strip(probe.child)
    if not isinstance(probe, an.Scan):
        raise Unsupported("pipeline is not a single-table scan chain")
    return _Shape(kind, node, pipeline, project)


# ----------------------------------------------------------------------
# Merge plans
# ----------------------------------------------------------------------
class _AggSpec:
    """One aggregate's partial-column layout: ``start`` indexes the
    shard row; ``avg`` occupies two columns (sum, count)."""

    __slots__ = ("func", "start")

    def __init__(self, func: str, start: int):
        self.func = func
        self.start = start

    def combine(self, rows: list[Row]) -> Value:
        """Exact cross-shard combination, matching the engine's
        :class:`~repro.executor.expr_eval.AggregateAccumulator`."""
        partials = [row[self.start] for row in rows]
        if self.func == "count":
            return sum(v for v in partials if v is not None)
        if self.func == "sum":
            present = [v for v in partials if v is not None]
            # Python integer addition: exact even past int64 (matching
            # the engines' unbounded totals — per-shard overflow already
            # escaped to the rescue path before reaching here).
            return sum(present) if present else None
        if self.func == "avg":
            total_count = sum(row[self.start + 1] for row in rows)
            if not total_count:
                return None
            total = sum(v for v in partials if v is not None)
            return total / total_count  # exact-total / count, one division
        best = None  # min / max via the engine's own comparator
        want = -1 if self.func == "min" else 1
        for value in partials:
            if value is None:
                continue
            if best is None or compare(value, best) == want:
                best = value
        return best


class _MergePlan:
    """How shard result sets reassemble into the engine-exact result."""

    __slots__ = ("kind", "group_width", "aggs", "ord_index", "ords", "data_width")

    def __init__(
        self,
        kind: str,
        group_width: int = 0,
        aggs: Sequence[_AggSpec] = (),
        ord_index: int = -1,
        ords: Sequence[OrdKey] = (),
        data_width: int = 0,
    ):
        self.kind = kind
        self.group_width = group_width
        self.aggs = tuple(aggs)
        self.ord_index = ord_index
        self.ords = tuple(ords)
        self.data_width = data_width


def _ord_comparator(ords: Sequence[OrdKey], base: int):
    """Row comparator equivalent to the compiled ORDER BY over the
    ordinal columns stored at positions ``base..`` of each row."""

    def compare_rows(a: Row, b: Row) -> int:
        for offset, key in enumerate(ords):
            va, vb = a[base + offset], b[base + offset]
            if va is None or vb is None:
                if va is None and vb is None:
                    continue
                # SQLite default NULL placement (smallest) unless the
                # key pins it; keys from Sort nodes always pin it.
                nulls_first = key.nulls_first
                if nulls_first is None:
                    nulls_first = not key.descending
                if va is None:
                    return -1 if nulls_first else 1
                return 1 if nulls_first else -1
            rel = compare(va, vb)
            if not rel:
                continue
            return -rel if key.descending else rel
        return 0

    return compare_rows


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
_PARTITIONED_FUNCS = ("count", "sum", "min", "max", "avg")


def _agg_partials(
    compiler: PushdownCompiler,
    top: an.Aggregate,
    child_schema,
    width: int,
) -> tuple[list[str], list[_AggSpec]]:
    """Per-shard partial columns + combine specs for the aggregate
    list, or :class:`Unsupported` when any aggregate cannot be split."""
    columns: list[str] = []
    specs: list[_AggSpec] = []
    for _, agg in top.agg_items:
        if agg.distinct or agg.func not in _PARTITIONED_FUNCS:
            raise Unsupported(f"aggregate {agg.func}() does not partition")
        if agg.arg is None:
            columns.append(f'count(*) AS {q(f"#p{width}")}')
            specs.append(_AggSpec("count", width))
            width += 1
            continue
        if agg.func in ("sum", "avg"):
            arg_type = ax.infer_type(agg.arg, child_schema, ())
            if arg_type is not SQLType.INT:
                # Float accumulation is order-sensitive; sum/avg over
                # non-numerics raises in-engine. Both delegate to the
                # full backend, whose existing gates decide.
                raise Unsupported(f"{agg.func}() over {arg_type} does not partition")
        arg_sql = compiler._expr(agg.arg, child_schema)
        if agg.func == "avg":
            columns.append(f'sum({arg_sql}) AS {q(f"#p{width}")}')
            columns.append(f'count({arg_sql}) AS {q(f"#p{width + 1}")}')
            specs.append(_AggSpec("avg", width))
            width += 2
        else:
            columns.append(f'{agg.func}({arg_sql}) AS {q(f"#p{width}")}')
            specs.append(_AggSpec(agg.func, width))
            width += 1
    return columns, specs


def _compile_partitioned(
    planner: "Planner", backend: PartitionedSQLiteBackend, root: an.Node
) -> "PartitionedQueryOp":
    shape = _analyze(root)
    compiler = PushdownCompiler(planner, backend.shards[0])
    top = shape.top

    if shape.kind == "sort":
        compiled = compiler._dispatch(top)
        _check_clean(compiler)
        if len(compiled.ords) != len(top.keys) + 1:
            raise Unsupported("sort input has a composite ordinal")
        alias = compiler._alias()
        columns = [f"{alias}.{q(a.name)}" for a in top.schema]
        columns += [f"{alias}.{q(key.column)}" for key in compiled.ords]
        sql = (
            f"SELECT {', '.join(columns)} FROM ({compiled.sql}) AS {alias} "
            f"ORDER BY {compiler._order_by(compiled.ords, alias)}"
        )
        plan = _MergePlan("sort", ords=compiled.ords, data_width=len(top.schema))
        return _make_op(backend, sql, root, compiler, planner, plan, shape.project)

    child = compiler._node(shape.pipeline)
    _check_clean(compiler)
    if len(child.ords) != 1:
        raise Unsupported("pipeline exposes a composite ordinal")
    ord_sql = q(child.ords[0].column)
    child_schema = top.child.schema
    alias = compiler._alias()

    if shape.kind == "agg":
        columns, specs = _agg_partials(compiler, top, child_schema, 0)
        sql = f"SELECT {', '.join(columns)} FROM ({child.sql}) AS {alias}"
        plan = _MergePlan("agg", aggs=specs)
    elif shape.kind == "group":
        group_sqls = [
            compiler._expr(expr, child_schema) for _, expr in top.group_items
        ]
        width = len(group_sqls)
        columns = [
            f"{sql_text} AS {q(f'#g{i}')}" for i, sql_text in enumerate(group_sqls)
        ]
        agg_columns, specs = _agg_partials(compiler, top, child_schema, width)
        width += sum(2 if s.func == "avg" else 1 for s in specs)
        columns += agg_columns
        columns.append(f"min({ord_sql}) AS {q('#m')}")
        sql = (
            f"SELECT {', '.join(columns)} FROM ({child.sql}) AS {alias} "
            f"GROUP BY {', '.join(group_sqls)}"
        )
        plan = _MergePlan(
            "group", group_width=len(group_sqls), aggs=specs, ord_index=width
        )
    else:  # distinct
        names = [q(a.name) for a in top.schema]
        sql = (
            f"SELECT {', '.join(names)}, min({ord_sql}) AS {q('#m')} "
            f"FROM ({child.sql}) AS {alias} GROUP BY {', '.join(names)}"
        )
        plan = _MergePlan(
            "group", group_width=len(top.schema), ord_index=len(top.schema)
        )
    _check_clean(compiler)
    return _make_op(backend, sql, root, compiler, planner, plan, shape.project)


def _check_clean(compiler: PushdownCompiler) -> None:
    """The shard statement must be self-contained: a row-engine fragment
    or sublink slot would have to be materialized into *every* shard
    (and re-planned per shard) — delegate such plans instead. One base
    table keeps the modulo partition meaningful."""
    if compiler.slots or compiler.limit_binds:
        raise Unsupported("pipeline fell back to a row-engine fragment")
    if len(compiler.table_names) != 1:
        raise Unsupported("partitioning needs exactly one base table")


def _make_op(
    backend: PartitionedSQLiteBackend,
    sql: str,
    root: an.Node,
    compiler: PushdownCompiler,
    planner: "Planner",
    plan: _MergePlan,
    project: Optional[tuple[int, ...]],
) -> "PartitionedQueryOp":
    return PartitionedQueryOp(
        backend,
        sql,
        root.schema,
        compiler.table_names,
        compiler.param_labels,
        planner.params,
        plan,
        project,
        rescue_planner=planner,
        rescue_node=root,
    )


def compile_partitioned_plan(
    planner: "Planner", backend: PartitionedSQLiteBackend, node: an.Node
):
    """Entry point for ``engine="sqlite-partition"`` (the registered
    :attr:`BackendSpec.plan_root`): partition when the shape allows,
    delegate to the full single-connection backend otherwise."""
    try:
        op = _compile_partitioned(planner, backend, node)
    except Unsupported:
        backend.delegated_plans += 1
        return compile_pushdown_plan(planner, backend.full_backend, node)
    backend.partitioned_plans += 1
    return op


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
class PartitionedQueryOp(PhysicalOp):
    """One compiled statement fanned out over every shard connection.

    ``rows(env)`` syncs the referenced table on each shard (serially, on
    the calling thread — heap snapshots resolve through the active
    transaction), runs the statement on the pool, and merges. *Any*
    shard-side exception — integer escapes and real evaluation errors
    alike — rescues to the row engine: shard failures race, and only
    the row engine's behavior is deterministic and canonical.
    """

    __slots__ = (
        "backend",
        "sql",
        "table_names",
        "param_labels",
        "params",
        "merge_plan",
        "project",
        "_bool_columns",
        "_rescue_planner",
        "_rescue_node",
        "_rescue_plan",
    )

    def __init__(
        self,
        backend: PartitionedSQLiteBackend,
        sql: str,
        schema,
        table_names: Sequence[str],
        param_labels: dict[int, str],
        params: ParamContext,
        merge_plan: _MergePlan,
        project: Optional[tuple[int, ...]],
        rescue_planner=None,
        rescue_node=None,
    ):
        self.backend = backend
        self.sql = sql
        self.schema = schema
        self.table_names = tuple(table_names)
        self.param_labels = dict(param_labels)
        self.params = params
        self.merge_plan = merge_plan
        self.project = project
        self._bool_columns = tuple(
            i for i, a in enumerate(schema) if a.type is SQLType.BOOL
        )
        self._rescue_planner = rescue_planner
        self._rescue_node = rescue_node
        self._rescue_plan: Optional[PhysicalOp] = None

    # ------------------------------------------------------------------
    def rows(self, env: Env) -> Iterator[Row]:
        return iter(self._execute(env))

    def _execute(self, env: Env) -> list[Row]:
        backend = self.backend
        binds = self._bind_params()
        try:
            for name in self.table_names:
                for shard in backend.shards:
                    shard.sync_table(name)
            futures = [
                backend.pool.submit(shard.run_statement, self.sql, binds)
                for shard in backend.shards
            ]
            shard_rows: list[list[Row]] = []
            error: Optional[BaseException] = None
            for future in futures:  # drain every future before rescuing
                try:
                    shard_rows.append(future.result())
                except Exception as exc:  # noqa: BLE001 - rescued below
                    error = error or exc
            if error is not None:
                raise error
            merged = self._adapt(self._merge(shard_rows))
        except Exception:  # noqa: BLE001 - row engine is canonical
            backend.rescues += 1
            return self._rescue(env)
        backend.partitioned_statements += 1
        return merged

    def explain(self) -> str:
        """What the shards were given, for ``EXPLAIN`` (the partitioned
        counterpart of :meth:`PushdownQueryOp.explain`; a partitioned
        statement has no fallbacks and no joins to index)."""
        backend = self.backend
        shard = backend.shards[0]
        lines = [
            f"pushdown statement (on each of {backend.shard_count} shards, "
            f"{self.merge_plan.kind} merge):",
            self.sql,
            "backend plan (shard 0):",
        ]
        try:
            for name in self.table_names:
                shard.sync_table(name)
            plan = shard.native_plan(self.sql, {f"p{i}": None for i in self.param_labels})
        except IntegerRangeEscape as escape:
            plan = f"none: the row engine answers this query ({escape})"
        lines += [f"  {line}" for line in plan.splitlines()]
        return "\n".join(lines)

    def _bind_params(self) -> dict[str, Value]:
        binds: dict[str, Value] = {}
        values = self.params.values
        for index, label in self.param_labels.items():
            if index >= len(values):
                raise ExecutionError(
                    f"parameter {label} has no bound value ({len(values)} bound)"
                )
            binds[f"p{index}"] = adapt_value(values[index])
        return binds

    def _rescue(self, env: Env) -> list[Row]:
        if self._rescue_planner is None or self._rescue_node is None:
            raise ExecutionError(
                "partitioned backend: shard execution failed with no "
                "row-engine rescue plan available"
            )
        plan = self._rescue_plan
        if plan is None:
            plan = self._rescue_planner.plan(self._rescue_node)
            self._rescue_plan = plan
        return list(plan.rows(env))

    # ------------------------------------------------------------------
    def _merge(self, shard_rows: list[list[Row]]) -> list[Row]:
        plan = self.merge_plan
        if plan.kind == "agg":
            merged = [self._merge_global(shard_rows, plan)]
        elif plan.kind == "group":
            merged = self._merge_groups(shard_rows, plan)
        else:
            merged = self._merge_sorted(shard_rows, plan)
        if self.project is not None:
            project = self.project
            merged = [tuple(row[i] for i in project) for row in merged]
        return merged

    @staticmethod
    def _merge_global(shard_rows: list[list[Row]], plan: _MergePlan) -> Row:
        rows = [rows[0] for rows in shard_rows]  # one partial row per shard
        return tuple(spec.combine(rows) for spec in plan.aggs)

    @staticmethod
    def _merge_groups(shard_rows: list[list[Row]], plan: _MergePlan) -> list[Row]:
        width, ord_index = plan.group_width, plan.ord_index
        # key -> [min global position, representative row, partial rows]
        groups: dict[tuple, list] = {}
        for rows in shard_rows:
            for row in rows:
                key = tuple(value_identity(v) for v in row[:width])
                entry = groups.get(key)
                if entry is None:
                    groups[key] = [row[ord_index], row, [row]]
                    continue
                if row[ord_index] < entry[0]:
                    entry[0] = row[ord_index]
                    entry[1] = row
                entry[2].append(row)
        merged = []
        for _, representative, partials in sorted(
            groups.values(), key=lambda entry: entry[0]
        ):
            values = list(representative[:width])
            values += [spec.combine(partials) for spec in plan.aggs]
            merged.append(tuple(values))
        return merged

    @staticmethod
    def _merge_sorted(shard_rows: list[list[Row]], plan: _MergePlan) -> list[Row]:
        rows = [row for shard in shard_rows for row in shard]
        rows.sort(key=cmp_to_key(_ord_comparator(plan.ords, plan.data_width)))
        width = plan.data_width
        return [row[:width] for row in rows]

    def _adapt(self, rows: list[Row]) -> list[Row]:
        if not self._bool_columns:
            return rows
        bool_columns = self._bool_columns
        adapted = []
        for row in rows:
            out = list(row)
            for i in bool_columns:
                if out[i] is not None:
                    out[i] = bool(out[i])
            adapted.append(tuple(out))
        return adapted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PartitionedQueryOp {self.merge_plan.kind} over "
            f"{self.backend.shard_count} shard(s)>"
        )
