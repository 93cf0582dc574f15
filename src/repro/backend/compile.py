"""Algebra -> one pushdown SQL statement, preserving engine semantics.

This is the shared plan compiler behind every pushdown backend
(``engine="sqlite"`` and friends). It walks the optimized
(provenance-rewritten) algebra tree and emits nested-subselect SQL,
mirroring the paper's architecture: the rewritten query tree is
deparsed and handed to a conventional DBMS. Everything target-specific
is supplied by two objects — a
:class:`~repro.backend.dialects.base.Dialect` (string rendering, UDF
addressing, integer bounds) and a
:class:`~repro.backend.runtime.MirrorAdapter` (mirroring, scan/fragment
sources, capability flags) — so the compiler itself never names an
engine.

Two things make this more than a deparser:

**The ordering channel.** The row and vectorized engines produce rows in
a deterministic order (heap order scans, probe-side-major hash joins,
first-seen groups) and the differential harness asserts bit-identical
order across engines. SQL result order, however, is only defined by
ORDER BY. So every compiled subquery carries hidden ordinal columns — a
total order reproducing the row engine's output order — built from the
adapter's scan ordinal (rowid) at the leaves, concatenated across
joins, collapsed through GROUP BY via
``min(row_number() OVER (ORDER BY <child ordinals>))``, and consumed by
one final top-level ORDER BY (NULL placement encoded as ``(x IS NULL)``
prefix terms, so outer-join padding sorts exactly where the row engine
puts it).

**Per-subtree fallback.** Constructs the target cannot express with
identical semantics raise :class:`Unsupported`; the enclosing subtree is
then planned on the row engine and its output materialized into a temp
fragment table the statement reads (the pattern
:class:`~repro.executor.vectorized.VFromRows` uses, one level up).
Fallback triggers for: set operations (compound SELECTs reorder rows),
correlated sublinks beyond EXISTS/IN (SQL targets silently take the
first row of a multi-row scalar subquery where this engine raises),
quantified comparisons, grouped or unordered float SUM/AVG (float
addition is order-sensitive and GROUP BY sorters do not preserve
first-seen accumulation order), and statically boolean-typed arguments
of functions and CAST (the mirror stores booleans as 0/1).

Everything else — filters, projections, all join kinds, integer and
min/max/count aggregation, DISTINCT, ORDER BY, LIMIT, parameter
placeholders, EXISTS/IN sublinks (correlated or not) — runs natively in
the target's engine.

**Join-key index requests.** The provenance rewrite joins every
aggregate back to its input on the group-by columns, and a target that
holds the mirror without any index answers that with a nested scan. So
each emitted join reports, per side, the base-table columns its
equality / null-safe-equality conjuncts compare (a bare column traced
through Project/Select to a ``Scan``); the requests ride on the compiled
operator and reach :meth:`~repro.backend.runtime.MirrorAdapter
.ensure_index` after the tables are synced. They are access-path hints
only: the final ORDER BY over the ordinals fixes row order whatever
join order the target then picks.

**Exact integer semantics.** The engine's Python integers are unbounded
while pushdown targets hold 64-bit integers, and e.g. SQLite silently
promotes overflowing integer arithmetic to REAL (losing precision)
where the engines return exact big integers. Two mechanisms close the
gap:

* *Static interval analysis* (:meth:`PushdownCompiler._prepare`): every
  integer ``+``/``-``/``*``/unary ``-`` gets conservative value bounds
  computed bottom-up (constants are exact, stored columns and parameters
  are in-range by construction); a node whose result interval cannot be
  proven within the dialect's :attr:`~repro.backend.dialects.base
  .Dialect.integer_bounds` is rewritten to the exact ``iadd`` / ``isub``
  / ``imul`` / ``ineg`` UDFs, which compute in Python. Integer constants
  beyond the bounds (lexed as REAL by the target) make the subtree fall
  back to the row engine outright.
* *Runtime escape + rescue* (:class:`~repro.backend.runtime
  .IntegerRangeEscape`): any integer that still crosses the boundary at
  runtime — a UDF or aggregate result, native ``sum()`` overflow, an
  oversized parameter at bind, a stored or fragment value out of range
  — aborts the statement and re-runs the whole query on the row engine,
  whose exact result is returned. Integer SUM therefore stays on the
  target's fast native aggregate and only pays for rescue in the rare
  overflow case; all engines agree on the exact bignum.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Optional

from ..algebra import expressions as ax
from ..algebra import nodes as an
from ..algebra.tree import walk_tree
from ..catalog.schema import Schema
from ..datatypes import SQLType
from ..errors import PlanError
from ..scalars import arith_interval
from .dialects.base import expr_to_sql, quote_identifier_always as q
from .runtime import LimitBind, MirrorAdapter, SubplanSlot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..planner.planner import Planner


class Unsupported(Exception):
    """Raised when a (sub)tree cannot be pushed down with identical
    semantics; the compiler falls back to the row engine for it."""


class OrdKey:
    """One hidden ordinal column of a compiled subquery.

    ``nulls_first`` is ``None`` when the column can never be NULL;
    otherwise it fixes NULL placement (outer-join padding, sort keys).
    """

    __slots__ = ("column", "descending", "nulls_first")

    def __init__(
        self,
        column: str,
        descending: bool = False,
        nulls_first: Optional[bool] = None,
    ):
        self.column = column
        self.descending = descending
        self.nulls_first = nulls_first



class _Compiled:
    """A compiled subquery: SQL text exposing the node's schema columns
    (under their quoted attribute names) plus hidden ordinal columns."""

    __slots__ = ("sql", "ords")

    def __init__(self, sql: str, ords: list[OrdKey]):
        self.sql = sql
        self.ords = ords


# Operators whose compiled SQL is scanned in a *physically guaranteed*
# order (see _order_realized): safe below an order-sensitive aggregate.
_ORDER_PRESERVING = (an.Select, an.Project)


class PushdownCompiler:
    """Compiles one algebra tree into one pushdown query operator,
    parameterized by the backend's :class:`MirrorAdapter` (and, through
    it, the backend's dialect)."""

    def __init__(self, planner: "Planner", backend: MirrorAdapter):
        self.planner = planner
        self.backend = backend
        # A plain dialect instance for rendering that needs no sublink
        # support (slot handles, UDF names, bind labels).
        self.dialect = backend.dialect()
        bounds = self.dialect.integer_bounds
        self._int_min, self._int_max = (
            bounds if bounds is not None else (None, None)
        )
        self._aliases = count()
        self._ords = count()
        self.table_names: list[str] = []
        # (catalog table, stored columns) per resolved equi-join key.
        self.index_requests: list[tuple[str, tuple[str, ...]]] = []
        # One line per subtree handed to the row engine (EXPLAIN).
        self.fallbacks: list[str] = []
        self.slots: list[SubplanSlot] = []
        self.limit_binds: list[LimitBind] = []
        self.param_labels: dict[int, str] = {}
        # Enclosing sublink scopes, innermost last:
        # (holder input Schema, lowercased names of the holder's plan tree)
        self._scopes: list[tuple[Schema, set[str]]] = []
        self._current_tree: set[str] = set()

    # ------------------------------------------------------------------
    def compile_root(self, node: an.Node):
        """Compile *node*; returns the backend's query operator, or a
        plain row-engine plan when the root itself cannot be pushed
        down."""
        self._current_tree = _tree_names(node)
        try:
            compiled = self._dispatch(node)
        except Unsupported:
            return self.planner.plan(node)
        alias = self._alias()
        columns = ", ".join(f"{alias}.{q(a.name)}" for a in node.schema)
        sql = f"SELECT {columns} FROM ({compiled.sql}) AS {alias}"
        if compiled.ords:
            sql += f" ORDER BY {self._order_by(compiled.ords, alias)}"
        return self.backend.make_query_op(
            sql,
            node.schema,
            self.table_names,
            self.slots,
            self.limit_binds,
            self.param_labels,
            self.planner.params,
            rescue_planner=self.planner,
            rescue_node=node,
            index_requests=self.index_requests,
            fallbacks=self.fallbacks,
        )

    # ------------------------------------------------------------------
    # Infrastructure
    # ------------------------------------------------------------------
    def _alias(self) -> str:
        return f"s{next(self._aliases)}"

    def _ord_name(self) -> str:
        # '#' keeps generated ordinals out of any attribute namespace the
        # analyzer or rewriter can produce.
        return f"#o:{next(self._ords)}"

    def _order_by(self, ords: list[OrdKey], alias: Optional[str] = None) -> str:
        terms = []
        for key in ords:
            ref = f"{alias}.{q(key.column)}" if alias else q(key.column)
            direction = "DESC" if key.descending else "ASC"
            if key.nulls_first is not None:
                terms.append(f"({ref} IS NULL) {'DESC' if key.nulls_first else 'ASC'}")
            terms.append(f"{ref} {direction}")
        return ", ".join(terms)

    def _node(self, node: an.Node) -> _Compiled:
        """Compile a subtree, falling back to a row-engine fragment when
        it (or an expression in it) is unsupported. Side effects of the
        abandoned attempt (slots, limit binds, parameter labels, table
        references) are rolled back so the fallback plan does not drag
        orphaned subplans through every execution."""
        slots = len(self.slots)
        limits = len(self.limit_binds)
        tables = len(self.table_names)
        indexes = len(self.index_requests)
        fallbacks = len(self.fallbacks)
        labels = dict(self.param_labels)
        try:
            return self._dispatch(node)
        except Unsupported as reason:
            del self.slots[slots:]
            del self.limit_binds[limits:]
            del self.table_names[tables:]
            del self.index_requests[indexes:]
            del self.fallbacks[fallbacks:]
            self.param_labels = labels
            compiled = self._fallback(node)
            self.fallbacks.append(f"{node.label()}: {reason}")
            return compiled

    def _dispatch(self, node: an.Node) -> _Compiled:
        method = getattr(self, "_compile_" + type(node).__name__.lower(), None)
        if method is None:
            raise Unsupported(type(node).__name__)
        return method(node)

    def _fallback(self, node: an.Node) -> _Compiled:
        """Plan *node* on the row engine; its output is materialized into
        a temp fragment per execution (order preserved via rowid, which
        the adapter contract guarantees on fragment tables)."""
        if self._scopes and ax.plan_is_correlated(node):
            # Inside a pushed-down correlated sublink a correlated
            # subtree cannot be materialized ahead of execution; bubble
            # up so the whole enclosing operator falls back instead.
            raise Unsupported("correlated subtree inside a pushed-down sublink")
        plan = self.planner.plan(node)
        frag = self.backend.fresh_fragment_name()
        self.slots.append(SubplanSlot("rows", plan, frag_table=frag))
        alias = self._alias()
        items = [
            f"{alias}.c{i} AS {q(a.name)}" for i, a in enumerate(node.schema)
        ]
        ord_name = self._ord_name()
        items.append(f"{alias}.rowid AS {q(ord_name)}")
        sql = (
            f"SELECT {', '.join(items)} "
            f"FROM {self.backend.fragment_source(frag)} AS {alias}"
        )
        return _Compiled(sql, [OrdKey(ord_name)])

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def _compile_scan(self, node: an.Scan) -> _Compiled:
        rowid = self.backend.scan_ordinal(node.columns)
        if rowid is None:
            raise Unsupported("mirror table cannot expose a scan ordinal")
        key = node.table_name.lower()
        if key not in {t.lower() for t in self.table_names}:
            self.table_names.append(node.table_name)
        alias = self._alias()
        items = [
            f"{alias}.{q(col)} AS {q(out.name)}"
            for col, out in zip(node.columns, node.schema)
        ]
        ord_name = self._ord_name()
        items.append(f"{alias}.{q(rowid)} AS {q(ord_name)}")
        sql = (
            f"SELECT {', '.join(items)} "
            f"FROM {self.backend.scan_source(key)} AS {alias}"
        )
        return _Compiled(sql, [OrdKey(ord_name)])

    def _compile_singlerow(self, node: an.SingleRow) -> _Compiled:
        ord_name = self._ord_name()
        return _Compiled(f"SELECT 0 AS {q(ord_name)}", [OrdKey(ord_name)])

    def _compile_baserelationnode(self, node: an.BaseRelationNode) -> _Compiled:
        return self._node(node.child)

    def _compile_provenancenode(self, node: an.ProvenanceNode) -> _Compiled:
        raise PlanError(
            "ProvenanceNode reached the planner — the provenance rewriter "
            "must run before planning (engine bug or misuse of Planner)"
        )

    def _compile_project(self, node: an.Project) -> _Compiled:
        child = self._node(node.child)
        alias = self._alias()
        items = [
            f"{self._expr(expr, node.child.schema)} AS {q(name)}"
            for name, expr in node.items
        ]
        items += [f"{alias}.{q(k.column)} AS {q(k.column)}" for k in child.ords]
        sql = f"SELECT {', '.join(items)} FROM ({child.sql}) AS {alias}"
        return _Compiled(sql, child.ords)

    def _compile_select(self, node: an.Select) -> _Compiled:
        child = self._node(node.child)
        alias = self._alias()
        condition = self._expr(node.condition, node.child.schema)
        columns = [f"{alias}.{q(a.name)}" for a in node.schema]
        columns += [f"{alias}.{q(k.column)}" for k in child.ords]
        sql = (
            f"SELECT {', '.join(columns)} FROM ({child.sql}) AS {alias} "
            f"WHERE {condition}"
        )
        return _Compiled(sql, child.ords)

    def _compile_join(self, node: an.Join) -> _Compiled:
        if node.kind in ("right", "full") and not self.backend.supports_full_join:
            raise Unsupported(f"{node.kind} join unsupported by this backend")
        left = self._node(node.left)
        right = self._node(node.right)
        la, ra = self._alias(), self._alias()

        left_ords = left.ords
        if node.kind in ("right", "full"):
            # Unmatched right rows (NULL-padded left side) must sort
            # after every real row, the way the row engine appends them.
            # A constant marker ordinal makes padding unambiguous even
            # when the left ordinals can legitimately be NULL themselves
            # (a sort key below) or are absent (one-row left input).
            marker = self._ord_name()
            left = _Compiled(
                f"SELECT *, 0 AS {q(marker)} FROM ({left.sql})",
                [OrdKey(marker, nulls_first=False)] + left_ords,
            )
            left_ords = left.ords

        columns = [f"{la}.{q(a.name)}" for a in node.left.schema]
        columns += [f"{ra}.{q(a.name)}" for a in node.right.schema]
        columns += [f"{la}.{q(k.column)}" for k in left_ords]
        columns += [f"{ra}.{q(k.column)}" for k in right.ords]

        keyword = {
            "inner": "JOIN",
            "left": "LEFT JOIN",
            "right": "RIGHT JOIN",
            "full": "FULL JOIN",
            "cross": "CROSS JOIN",
        }[node.kind]
        sql = (
            f"SELECT {', '.join(columns)} FROM ({left.sql}) AS {la} "
            f"{keyword} ({right.sql}) AS {ra}"
        )
        if node.condition is not None:
            sql += f" ON {self._expr(node.condition, node.schema)}"
            self._request_join_indexes(node)

        # Row-engine order: probe(left)-major, then build(right) order;
        # unmatched build rows (right/full) appended last via the left
        # pad marker above. Left/full padding (NULL right ordinals) is a
        # single row per left row, so right ordinals are only ever
        # compared among real matches of one left row and keep their
        # own semantics unchanged.
        return _Compiled(sql, left_ords + right.ords)

    def _request_join_indexes(self, node: an.Join) -> None:
        """Ask for an index on every base table a key of this join
        resolves to: per equality / null-safe-equality conjunct comparing
        the two inputs, each side that is a bare column of a ``Scan``
        contributes that stored column — several conjuncts over one scan
        make one composite request, in conjunct order. Both sides are
        requested (the target picks its inner side later); a key that is
        an expression requests nothing for its side."""
        inputs = (node.left, node.right)
        keys: dict[int, tuple[str, list[str]]] = {}
        for part in ax.conjuncts(node.condition):
            if not (
                (isinstance(part, ax.BinOp) and part.op == "=")
                or (isinstance(part, ax.DistinctTest) and part.negated)
            ):
                continue
            operands = (part.left, part.right)
            # The input each operand is computed from; comparing the two
            # inputs makes the conjunct a join key (anything else — a
            # constant, one input twice — is a filter).
            sides = [
                next(
                    (
                        side
                        for side in inputs
                        if used and all(side.schema.has(n) for n in used)
                    ),
                    None,
                )
                for used in map(ax.columns_used, operands)
            ]
            if None in sides or sides[0] is sides[1]:
                continue
            for operand, side in zip(operands, sides):
                origin = (
                    _base_column(side, operand.name)
                    if isinstance(operand, ax.Column)
                    else None
                )
                if origin is not None:
                    scan, column = origin
                    columns = keys.setdefault(id(scan), (scan.table_name, []))[1]
                    if column not in columns:
                        columns.append(column)
        for table, columns in keys.values():
            request = (table, tuple(columns))
            if request not in self.index_requests:
                self.index_requests.append(request)

    def _compile_aggregate(self, node: an.Aggregate) -> _Compiled:
        child_schema = node.child.schema
        outers = self._outer_schemas()
        order_sensitive = False
        float_aggs: set[int] = set()
        int_avgs: set[int] = set()
        for index, (_, agg) in enumerate(node.agg_items):
            if agg.func in ("sum", "avg"):
                arg_type = ax.infer_type(agg.arg, child_schema, outers)
                if arg_type not in (SQLType.INT, SQLType.FLOAT):
                    # sum/avg over bool/text raises in the engine;
                    # a SQL target would happily coerce and compute.
                    raise Unsupported(f"{agg.func}() over {arg_type} input")
                if arg_type is SQLType.FLOAT:
                    if agg.distinct:
                        # SQL targets iterate the distinct set in b-tree
                        # (sorted) order; the engine sums first-seen.
                        raise Unsupported("DISTINCT float sum/avg is order-sensitive")
                    order_sensitive = True
                    float_aggs.add(index)
                elif agg.func == "avg":
                    # Native integer avg() accumulates in int64 and
                    # silently switches to double accumulation on
                    # overflow — not the engine's correctly-rounded
                    # exact-total / count. The exact accumulator UDF is
                    # order-insensitive for integers (bignum total,
                    # one division at the end), so grouping is fine.
                    # Integer sum() stays native: it is exact until
                    # overflow, which escapes to the row-engine rescue.
                    int_avgs.add(index)

        if order_sensitive:
            if node.group_items:
                # GROUP BY sorters do not preserve per-group arrival
                # order, so float accumulation order (and hence the
                # exact IEEE sum) could differ from the row engine.
                raise Unsupported("grouped float sum/avg is order-sensitive")
            if not _order_realized(node.child):
                raise Unsupported("float sum/avg over an unordered input")

        child = self._node(node.child)
        agg_sqls = []
        for index, (name, agg) in enumerate(node.agg_items):
            if agg.arg is None:
                agg_sqls.append(f"count(*) AS {q(name)}")
                continue
            distinct = "DISTINCT " if agg.distinct else ""
            arg_sql = self._expr(agg.arg, child_schema)
            func = agg.func
            if index in float_aggs and not self.backend.native_float_agg:
                # This host's native sum/avg is not bit-identical to the
                # engine's naive accumulation (e.g. compensated
                # summation); route through the naive aggregate UDFs.
                func = self.dialect.udf_name("fsum" if func == "sum" else "favg")
            elif index in int_avgs:
                # Exact integer average (see the gate above).
                func = self.dialect.udf_name("favg")
            agg_sqls.append(f"{func}({distinct}{arg_sql}) AS {q(name)}")

        if not node.group_items:
            alias = self._alias()
            sql = f"SELECT {', '.join(agg_sqls)} FROM ({child.sql}) AS {alias}"
            return _Compiled(sql, [])  # exactly one row: no ordinal needed

        # First-seen group order: number the input rows by the child
        # ordinals, group, and order groups by min(row number).
        inner_alias = self._alias()
        rn = self._ord_name()
        over = (
            f"OVER (ORDER BY {self._order_by(child.ords, inner_alias)})"
            if child.ords
            else "OVER ()"
        )
        inner_columns = [f"{inner_alias}.{q(a.name)}" for a in child_schema]
        inner_sql = (
            f"SELECT {', '.join(inner_columns)}, row_number() {over} AS {q(rn)} "
            f"FROM ({child.sql}) AS {inner_alias}"
        )
        outer_alias = self._alias()
        group_sqls = [
            (self._expr(expr, child_schema), name) for name, expr in node.group_items
        ]
        items = [f"{sql_text} AS {q(name)}" for sql_text, name in group_sqls]
        items += agg_sqls
        ord_name = self._ord_name()
        items.append(f"min({q(rn)}) AS {q(ord_name)}")
        sql = (
            f"SELECT {', '.join(items)} FROM ({inner_sql}) AS {outer_alias} "
            f"GROUP BY {', '.join(sql_text for sql_text, _ in group_sqls)}"
        )
        return _Compiled(sql, [OrdKey(ord_name)])

    def _compile_distinct(self, node: an.Distinct) -> _Compiled:
        child = self._node(node.child)
        inner_alias = self._alias()
        rn = self._ord_name()
        over = (
            f"OVER (ORDER BY {self._order_by(child.ords, inner_alias)})"
            if child.ords
            else "OVER ()"
        )
        inner_columns = [f"{inner_alias}.{q(a.name)}" for a in node.schema]
        inner_sql = (
            f"SELECT {', '.join(inner_columns)}, row_number() {over} AS {q(rn)} "
            f"FROM ({child.sql}) AS {inner_alias}"
        )
        outer_alias = self._alias()
        ord_name = self._ord_name()
        names = [q(a.name) for a in node.schema]
        sql = (
            f"SELECT {', '.join(names)}, min({q(rn)}) AS {q(ord_name)} "
            f"FROM ({inner_sql}) AS {outer_alias} "
            f"GROUP BY {', '.join(names)}"
        )
        return _Compiled(sql, [OrdKey(ord_name)])

    def _compile_sort(self, node: an.Sort) -> _Compiled:
        child = self._node(node.child)
        alias = self._alias()
        columns = [f"{alias}.{q(a.name)}" for a in node.schema]
        key_ords = []
        for key in node.keys:
            ord_name = self._ord_name()
            columns.append(f"{self._expr(key.expr, node.child.schema)} AS {q(ord_name)}")
            # PostgreSQL default NULL placement (the row engine's
            # SortSpec): NULLS LAST ascending, NULLS FIRST descending.
            nulls_first = key.descending if key.nulls_first is None else key.nulls_first
            key_ords.append(OrdKey(ord_name, key.descending, nulls_first))
        columns += [f"{alias}.{q(k.column)}" for k in child.ords]
        sql = f"SELECT {', '.join(columns)} FROM ({child.sql}) AS {alias}"
        # Stable sort: the child ordinals break ties exactly like the
        # row engine's stable multi-key sort.
        return _Compiled(sql, key_ords + child.ords)

    def _compile_limit(self, node: an.Limit) -> _Compiled:
        child = self._node(node.child)
        alias = self._alias()
        columns = [f"{alias}.{q(a.name)}" for a in node.schema]
        columns += [f"{alias}.{q(k.column)}" for k in child.ords]
        sql = f"SELECT {', '.join(columns)} FROM ({child.sql}) AS {alias}"
        if child.ords:
            sql += f" ORDER BY {self._order_by(child.ords, alias)}"
        compiler = self.planner._compiler(Schema(()), ())
        if node.limit is not None:
            bind = f"limit{len(self.limit_binds)}"
            self.limit_binds.append(LimitBind(bind, compiler.compile(node.limit), "LIMIT"))
            sql += f" LIMIT {self.dialect.bind_label(bind)}"
        else:
            sql += f" {self.dialect.limit_all()}"
        if node.offset is not None:
            bind = f"offset{len(self.limit_binds)}"
            self.limit_binds.append(
                LimitBind(bind, compiler.compile(node.offset), "OFFSET")
            )
            sql += f" OFFSET {self.dialect.bind_label(bind)}"
        return _Compiled(sql, child.ords)

    def _compile_setopnode(self, node: an.SetOpNode) -> _Compiled:
        # Compound SELECTs dedupe through a sorter, losing the engine's
        # first-seen/left-major order; run on the row engine.
        raise Unsupported("set operations reorder rows on pushdown")

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _outer_schemas(self) -> tuple[Schema, ...]:
        """Enclosing scopes for static typing, innermost first."""
        return tuple(schema for schema, _ in reversed(self._scopes))

    def _expr(self, expr: ax.Expr, schema: Schema) -> str:
        prepared = self._prepare(expr, schema)
        dialect = self.backend.dialect(
            subquery_renderer=lambda sub: self._sublink(sub, schema)
        )
        for part in ax.walk_expr(prepared):
            if isinstance(part, ax.Param):
                label = f":{part.name}" if part.name is not None else f"${part.index + 1}"
                self.param_labels[part.index] = label
        return expr_to_sql(prepared, dialect)

    def _within_bounds(self, interval: tuple[int, int]) -> bool:
        return self._int_min <= interval[0] and interval[1] <= self._int_max

    def _prepare(self, expr: ax.Expr, schema: Schema) -> ax.Expr:
        """Static semantic gate + rewrite pass.

        Rejects expressions the target cannot evaluate with identical
        semantics (non-finite or out-of-range constants, booleans the
        mirror stores as 0/1 reaching a function or a CAST) and rewrites
        division/modulo to the exact ``div``/``mod`` UDFs unless the
        divisor is a nonzero constant (where native arithmetic provably
        matches). Operand types need no gate: the analyzer rejects an
        ill-typed operator before a plan exists."""
        outers = self._outer_schemas()
        int_gated = self._int_min is not None
        int_bounds = (self._int_min, self._int_max) if int_gated else None

        def static_type(e: ax.Expr) -> SQLType:
            return ax.infer_type(e, schema, outers)

        def int_interval(e: ax.Expr) -> Optional[tuple[int, int]]:
            """Conservative runtime-value bounds of an integer-typed
            expression, or ``None`` when it is not statically integer.

            Sound because every integer that enters a compiled statement
            is bounded by construction — mirrored columns refuse wider
            values, parameters escape at bind, UDF and sublink-slot
            results are range-checked on return — and because unsafe
            arithmetic below has already been rewritten to the escaping
            ``i*`` UDFs when this runs (``map_expr`` is bottom-up), so
            any surviving native node was itself proven in-range."""
            if isinstance(e, ax.Const):
                if e.value is None:
                    return (0, 0)  # NULL propagates; no value to bound
                if isinstance(e.value, int) and not isinstance(e.value, bool):
                    return (e.value, e.value)
                return None
            t = static_type(e)
            if t in (SQLType.FLOAT, SQLType.TEXT, SQLType.BOOL):
                return None
            if isinstance(e, ax.BinOp):
                if e.op in ("+", "-", "*"):
                    li = int_interval(e.left) or int_bounds
                    ri = int_interval(e.right) or int_bounds
                    return arith_interval(e.op, li, ri)
                if e.op == "/":
                    # Surviving native division has |divisor| >= 1, so
                    # |quotient| <= |dividend| (the INT_MIN / -1 edge
                    # is forced through the div UDF below).
                    lo, hi = int_interval(e.left) or int_bounds
                    magnitude = max(abs(lo), abs(hi))
                    return (-magnitude, magnitude)
                if e.op == "%":
                    # Surviving native modulo has an integer constant
                    # divisor; the result is smaller in magnitude.
                    if isinstance(e.right, ax.Const) and isinstance(e.right.value, int):
                        bound = abs(e.right.value) - 1
                        return (-bound, bound)
                    return int_bounds
            if isinstance(e, ax.UnOp) and e.op == "-":
                lo, hi = int_interval(e.operand) or int_bounds
                return (-hi, -lo)
            return int_bounds

        def gate(e: ax.Expr) -> Optional[ax.Expr]:
            if isinstance(e, ax.Const) and isinstance(e.value, float) and (
                e.value != e.value or e.value in (float("inf"), float("-inf"))
            ):
                # repr() would render a bare `inf`/`nan` token, which
                # SQL lexers read as a column name; there is no literal
                # with identical semantics.
                raise Unsupported("non-finite float constant")
            if (
                int_gated
                and isinstance(e, ax.Const)
                and isinstance(e.value, int)
                and not isinstance(e.value, bool)
                and not (self._int_min <= e.value <= self._int_max)
            ):
                # The target lexes an over-wide integer literal as REAL,
                # silently losing precision; the row engine keeps it
                # exact, so the subtree must run there.
                raise Unsupported("integer constant beyond the target's range")
            if (
                int_gated
                and isinstance(e, ax.UnOp)
                and e.op == "-"
                and static_type(e.operand) in (SQLType.INT, SQLType.NULL)
            ):
                lo, hi = int_interval(e.operand) or int_bounds
                if not self._within_bounds((-hi, -lo)):
                    return ax.FuncExpr("ineg", (e.operand,))
            if isinstance(e, ax.BinOp):
                lt, rt = static_type(e.left), static_type(e.right)
                if (
                    int_gated
                    and e.op in ("+", "-", "*")
                    and lt in (SQLType.INT, SQLType.NULL)
                    and rt in (SQLType.INT, SQLType.NULL)
                ):
                    # Integer arithmetic: native targets silently promote
                    # an overflowing result to REAL. When the statically
                    # derived result interval cannot be proven within the
                    # dialect's bounds, compute exactly in Python instead
                    # (the UDF escapes to the row engine if the exact
                    # result itself exceeds the bounds).
                    li = int_interval(e.left) or int_bounds
                    ri = int_interval(e.right) or int_bounds
                    if not self._within_bounds(arith_interval(e.op, li, ri)):
                        exact = {"+": "iadd", "-": "isub", "*": "imul"}[e.op]
                        return ax.FuncExpr(exact, (e.left, e.right))
                if e.op in ("/", "%"):
                    native = (
                        isinstance(e.right, ax.Const)
                        and not isinstance(e.right.value, bool)
                        and isinstance(e.right.value, (int, float))
                        and e.right.value != 0
                    )
                    if e.op == "%" and not (lt is SQLType.INT and rt is SQLType.INT):
                        native = False
                    if native and int_gated and e.op == "/" and e.right.value == -1:
                        # INT_MIN / -1 = -INT_MIN, the one in-range
                        # operand pair whose quotient escapes the bounds;
                        # route through the exact UDF unless the dividend
                        # provably avoids INT_MIN.
                        dividend = int_interval(e.left)
                        if dividend is None or dividend[0] <= self._int_min:
                            native = False
                    if not native:
                        return ax.FuncExpr("div" if e.op == "/" else "mod", (e.left, e.right))
            elif isinstance(e, ax.FuncExpr):
                if any(static_type(a) is SQLType.BOOL for a in e.args):
                    # Most scalar functions reject booleans at runtime;
                    # through the mirror they would arrive as plain 0/1.
                    raise Unsupported(f"{e.name}() over a boolean argument")
            elif isinstance(e, ax.CastExpr):
                if static_type(e.operand) is SQLType.BOOL:
                    # CAST(true AS text) is 'true'; the mirror's 1 would
                    # cast to '1'.
                    raise Unsupported("CAST over a boolean operand")
            return None

        return ax.map_expr(expr, gate)

    # ------------------------------------------------------------------
    # Sublinks
    # ------------------------------------------------------------------
    def _sublink(self, sub: ax.SubqueryExpr, schema: Schema) -> str:
        correlated = ax.plan_is_correlated(sub.plan)
        if sub.kind == "quant":
            raise Unsupported("quantified comparison (ANY/ALL) sublink")
        if not correlated:
            return self._uncorrelated_sublink(sub, schema)
        if sub.kind not in ("exists", "in"):
            # A correlated scalar sublink: SQL targets silently yield the
            # first row where the engine raises on multi-row results.
            raise Unsupported(f"correlated {sub.kind} sublink")
        self._validate_outer_refs(sub.plan, schema)
        saved_tree = self._current_tree
        self._scopes.append((schema, saved_tree))
        self._current_tree = _tree_names(sub.plan)
        try:
            inner = self._dispatch(sub.plan)
        except Unsupported:
            # No materialization point inside a correlated sublink.
            raise
        finally:
            self._scopes.pop()
            self._current_tree = saved_tree
        if sub.kind == "exists":
            prefix = "NOT " if sub.negated else ""
            return f"({prefix}EXISTS ({inner.sql}))"
        assert sub.operand is not None
        operand = self._expr(sub.operand, schema)
        alias = self._alias()
        value = q(sub.plan.schema[0].name)
        maybe_not = "NOT " if sub.negated else ""
        return (
            f"({operand} {maybe_not}IN "
            f"(SELECT {alias}.{value} FROM ({inner.sql}) AS {alias}))"
        )

    def _uncorrelated_sublink(self, sub: ax.SubqueryExpr, schema: Schema) -> str:
        """Evaluate once per execution with the row engine; surface the
        value through the slot UDF so an evaluation error (or multi-row
        scalar result) fires only if the statement actually evaluates
        the expression — matching the row engine's lazy
        uncorrelated-subquery cache."""
        plan = self.planner.plan(sub.plan)
        slot_id = self.backend.fresh_slot_id()
        if sub.kind == "scalar":
            self.slots.append(SubplanSlot("scalar", plan, slot_id=slot_id))
            return self.dialect.slot_expr(slot_id)
        if sub.kind == "exists":
            self.slots.append(
                SubplanSlot("exists", plan, slot_id=slot_id, negated=sub.negated)
            )
            return self.dialect.slot_expr(slot_id)
        if sub.kind == "in":
            assert sub.operand is not None
            frag = self.backend.fresh_fragment_name()
            self.slots.append(
                SubplanSlot("rows", plan, slot_id=slot_id, frag_table=frag)
            )
            operand = self._expr(sub.operand, schema)
            maybe_not = "NOT " if sub.negated else ""
            # The CASE guard evaluates the slot first: raises the stored
            # error if subplan evaluation failed, yields the IN result
            # (true/false/NULL) otherwise.
            return (
                f"(CASE WHEN {self.dialect.slot_expr(slot_id)} = 1 THEN "
                f"({operand} {maybe_not}IN "
                f"(SELECT c0 FROM {self.backend.fragment_source(frag)})) END)"
            )
        raise Unsupported(f"sublink kind {sub.kind!r}")

    def _validate_outer_refs(self, plan: an.Node, schema: Schema) -> None:
        """A pushed-down correlated sublink resolves outer references by
        *name* through the target's scoping rules; refuse pushdown
        whenever a name could bind to the wrong scope (shadowed by any
        relation the resolution path crosses)."""
        plan_names = _tree_names(plan)
        # Scopes outward from the sublink: level 1 is the holder's input.
        scopes_out: list[tuple[set[str], set[str]]] = [
            ({a.name.lower() for a in schema}, self._current_tree)
        ]
        scopes_out += [
            ({a.name.lower() for a in s}, tree) for s, tree in reversed(self._scopes)
        ]
        for level in range(1, len(scopes_out) + 2):
            names = {n.lower() for n in ax._outer_columns_of_plan(plan, level)}
            if not names:
                continue
            if level > len(scopes_out):
                raise Unsupported("correlated reference beyond available scopes")
            target_names, _ = scopes_out[level - 1]
            shadows = set(plan_names)
            for schema_names, tree_names in scopes_out[: level - 1]:
                shadows |= schema_names | tree_names
            for name in names:
                if name not in target_names:
                    raise Unsupported(f"outer reference {name!r} not in target scope")
                if name in shadows:
                    raise Unsupported(f"outer reference {name!r} shadowed on pushdown")


def _order_realized(node: an.Node) -> bool:
    """Whether the compiled SQL for *node* is physically scanned in its
    ordinal order, making order-sensitive (float) aggregation above it
    safe: table scans walk the mirror's ordinal, LIMIT subqueries carry
    an inner ORDER BY, single-row subqueries are trivially ordered;
    filters and projections never reorder."""
    while isinstance(node, an.BaseRelationNode):
        node = node.child
    if isinstance(node, (an.Scan, an.SingleRow, an.Limit)):
        return True
    if isinstance(node, an.Aggregate) and not node.group_items:
        return True
    if isinstance(node, _ORDER_PRESERVING):
        return _order_realized(node.child)
    return False


def _base_column(node: an.Node, name: str) -> Optional[tuple[an.Scan, str]]:
    """The ``Scan`` and stored column that attribute *name* of *node* is
    a plain copy of, following renames through Project and passing
    through Select; ``None`` once anything computes, groups or combines."""
    while True:
        if isinstance(node, an.Scan):
            return node, node.columns[node.schema.index_of(name)]
        if isinstance(node, an.Project):
            expr = node.items[node.schema.index_of(name)][1]
            if not isinstance(expr, ax.Column):
                return None
            name = expr.name
        elif not isinstance(node, (an.Select, an.BaseRelationNode)):
            return None
        node = node.child


def _tree_names(node: an.Node) -> set[str]:
    """Lowercased attribute names appearing anywhere in *node*'s tree."""
    names: set[str] = set()
    for part in walk_tree(node):
        names.update(a.name.lower() for a in part.schema)
    return names


def compile_pushdown_plan(planner: "Planner", backend: MirrorAdapter, node: an.Node):
    """Compile *node* for a pushdown backend (entry point for the
    planner); returns the backend's query operator or, when nothing at
    all can be pushed down, the equivalent row-engine plan."""
    return PushdownCompiler(planner, backend).compile_root(node)
