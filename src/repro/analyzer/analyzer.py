"""The analyzer: turns parsed ASTs into resolved algebra trees.

Responsibilities (the "Parser & Analyzer" box of the paper's Figure 3):

* name resolution against the catalog and FROM-clause scopes, including
  correlated references into enclosing queries;
* view unfolding — view references are replaced by their defining query's
  algebra, re-qualified under the view alias;
* aggregation analysis: GROUP BY matching, aggregate extraction, HAVING;
* typing of every expression, operands checked by ``infer_type``
  against the block's input and the enclosing scopes;
* capture of SQL-PLE constructs as :class:`ProvenanceNode` /
  :class:`BaseRelationNode` markers for the provenance rewriter.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Iterator, Optional

from ..algebra import expressions as ax
from ..algebra import nodes as an
from ..catalog.catalog import Catalog
from ..catalog.schema import Schema
from ..datatypes import type_from_name
from ..errors import AnalyzeError, CatalogError
from ..scalars import SCALARS
from ..sql import ast
from .scope import Scope, ScopeEntry

_AGG_NAMES = frozenset({"count", "sum", "avg", "min", "max"})

# Maximum view-unfolding depth; guards against (indirect) recursive views.
_MAX_VIEW_DEPTH = 64


class Analyzer:
    """Stateful analyzer bound to a catalog.

    One instance may analyze many statements; it only keeps a counter
    used to generate unique synthetic names.
    """

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._ids = count()
        self._view_depth = 0
        # Set by the engine: expands SELECT PROVENANCE markers inside
        # derived tables and views at analysis time, so their provenance
        # columns are part of the visible schema (Perm extends the
        # PostgreSQL analyzer the same way — the paper's §2.4 example
        # filters on a provenance column of a provenance subquery).
        self.provenance_expander: Optional[Callable[[an.Node], an.Node]] = None
        # Materialized views: ``inline_matviews`` forces every matview
        # reference to unfold to its defining query (used when analyzing
        # a matview's own definition, so maintenance programs see true
        # base-table leaves). ``stale_matviews`` records each matview
        # that was unfolded because its stored contents could not be
        # trusted (stale flag, or base-table version skew) — the
        # connection refreshes these before re-planning a read.
        # ``fresh_matviews`` records each matview served from its stored
        # heap — a decision valid only while the view stays fresh for
        # the executing snapshot, so plans carry the set and revalidate
        # it before every execution (PreparedPlan.deps_valid).
        self.inline_matviews = False
        self.stale_matviews: set[str] = set()
        self.fresh_matviews: set[str] = set()

    def _expand_markers(self, node: an.Node) -> an.Node:
        if self.provenance_expander is None:
            return node
        from ..core.provenance import contains_provenance_marker

        if contains_provenance_marker(node):
            return self.provenance_expander(node)
        return node

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def analyze_query(self, query: ast.QueryExpr, outer: Optional[Scope] = None) -> an.Node:
        """Analyze a query expression into an algebra tree whose output
        schema carries the user-visible result column names."""
        if isinstance(query, ast.SetOp):
            return self._analyze_setop(query, outer)
        return self._analyze_select(query, outer)

    def resolve_scalar(
        self,
        expr: ast.Expression,
        schema: Schema,
        alias: str,
        context: Optional[str] = None,
    ) -> ax.Expr:
        """Resolve and type *expr* against a single relation's schema
        under *alias* — DML conditions (*context* ``"WHERE"``: boolean),
        assignments and INSERT values. The result references the table's
        own (unqualified) column names, so it evaluates against stored
        rows directly."""
        entry = ScopeEntry.from_names(alias, schema.names, schema.names)
        scope = Scope([entry], schema=schema)
        return self._typed(self._resolve(expr, scope, agg_resolver=None), scope, context)

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------
    def _analyze_setop(self, query: ast.SetOp, outer: Optional[Scope]) -> an.Node:
        # SQL-PLE scoping: ``SELECT PROVENANCE ... UNION SELECT ...``
        # computes the provenance of the *whole* set operation (the
        # paper's q1 / Figure 2), so a provenance clause on the leftmost
        # SELECT is lifted to wrap the set-operation tree.
        provenance = _take_leftmost_provenance(query)
        try:
            # Inner operands keep their own (parenthesized) ORDER BY/LIMIT.
            left = self.analyze_query(query.left, outer)
            right = self.analyze_query(query.right, outer)
            if len(left.schema) != len(right.schema):
                raise AnalyzeError(
                    f"each {query.op.upper()} query must have the same number of columns"
                )
            node: an.Node = an.SetOpNode(left, right, query.op, query.all)
            if provenance is not None:
                node = an.ProvenanceNode(node, provenance.contribution)
            node = self._apply_trailing(node, query, result_names=node.schema.names)
            return node
        finally:
            _restore_leftmost_provenance(query, provenance)

    # ------------------------------------------------------------------
    # SELECT blocks
    # ------------------------------------------------------------------
    def _analyze_select(self, select: ast.Select, outer: Optional[Scope]) -> an.Node:
        # 1. FROM clause.
        if select.from_items:
            node, entries = self._build_from(select.from_items, outer)
        else:
            node, entries = an.SingleRow(), []
        scope = Scope(entries, parent=outer, schema=node.schema)

        # 2. WHERE clause (no aggregates allowed).
        if select.where is not None:
            condition = self._resolve(select.where, scope, agg_resolver=_forbid_aggregates("WHERE"))
            self._typed(condition, scope, "WHERE")
            node = an.Select(node, condition)

        # 3. Expand stars in the select list now that the scope is known.
        items = self._expand_stars(select.items, scope)

        # 4. Aggregation.
        has_aggregates = any(
            _contains_aggregate(item.expression) for item in items
        ) or (select.having is not None and _contains_aggregate(select.having)) or any(
            _contains_aggregate(o.expression) for o in select.order_by
        )
        grouped = bool(select.group_by) or has_aggregates or select.having is not None

        if grouped:
            node, post_scope, post_resolver = self._build_aggregate(node, scope, select, items)
        else:
            post_scope = scope
            post_resolver = lambda e: self._typed(self._resolve(e, scope, None), scope)  # noqa: E731

        # 5. HAVING (resolved post-aggregation).
        if select.having is not None:
            having = post_resolver(select.having)
            self._typed(having, scope, "HAVING", node.schema)
            node = an.Select(node, having)

        # 6. Final projection.
        project_items: list[tuple[str, ax.Expr]] = []
        result_names = self._output_names(items)
        for item, name in zip(items, result_names):
            project_items.append((name, post_resolver(item.expression)))

        # 7. ORDER BY resolution may need hidden sort columns.
        sort_keys, hidden = self._resolve_order_by(
            select.order_by, items, result_names, project_items, post_resolver
        )
        if hidden and select.distinct:
            raise AnalyzeError(
                "for SELECT DISTINCT, ORDER BY expressions must appear in the select list"
            )
        node = an.Project(node, project_items + hidden)
        if select.distinct:
            node = an.Distinct(node)
        if sort_keys:
            node = an.Sort(node, sort_keys)
        if hidden:
            node = an.Project(node, [(n, ax.Column(n)) for n in result_names])

        # 8. LIMIT / OFFSET.
        node = self._apply_limit(node, select.limit, select.offset)

        # 9. SQL-PLE: SELECT PROVENANCE wraps the whole block.
        if select.provenance is not None:
            node = an.ProvenanceNode(node, select.provenance.contribution)
        return node

    # ------------------------------------------------------------------
    def _apply_trailing(
        self, node: an.Node, query: ast.SetOp, result_names: list[str]
    ) -> an.Node:
        """ORDER BY / LIMIT on a set operation (keys must be output
        columns or ordinals)."""
        if query.order_by:
            keys = []
            for item in query.order_by:
                expr = item.expression
                if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                    position = expr.value
                    if not 1 <= position <= len(result_names):
                        raise AnalyzeError(f"ORDER BY position {position} is out of range")
                    column = ax.Column(result_names[position - 1])
                elif isinstance(expr, ast.ColumnRef) and len(expr.parts) == 1:
                    matches = [n for n in result_names if n.lower() == expr.name.lower()]
                    if not matches:
                        raise AnalyzeError(f"column {expr.name!r} does not exist")
                    column = ax.Column(matches[0])
                else:
                    raise AnalyzeError(
                        "ORDER BY on a set operation must name an output column"
                    )
                keys.append(an.SortKey(column, item.descending, item.nulls_first))
            node = an.Sort(node, keys)
        return self._apply_limit(node, query.limit, query.offset)

    def _apply_limit(
        self, node: an.Node, limit: Optional[ast.Expression], offset: Optional[ast.Expression]
    ) -> an.Node:
        if limit is None and offset is None:
            return node
        limit_expr = self._resolve_constant(limit, "LIMIT") if limit is not None else None
        offset_expr = self._resolve_constant(offset, "OFFSET") if offset is not None else None
        return an.Limit(node, limit_expr, offset_expr)

    def _resolve_constant(self, expr: ast.Expression, context: str) -> ax.Expr:
        try:
            resolved = self._resolve(expr, Scope([]), agg_resolver=_forbid_aggregates(context))
        except AnalyzeError as exc:
            raise AnalyzeError(f"{context} must not reference columns ({exc})") from None
        for sub in ax.walk_expr(resolved):
            if isinstance(sub, (ax.Column, ax.OuterColumn)):
                raise AnalyzeError(f"{context} must not reference columns")
        ax.infer_type(resolved, Schema(()))
        return resolved

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------
    def _build_from(
        self, from_items: list[ast.FromItem], outer: Optional[Scope]
    ) -> tuple[an.Node, list[ScopeEntry]]:
        node: Optional[an.Node] = None
        entries: list[ScopeEntry] = []
        seen_aliases: set[str] = set()
        for item in from_items:
            item_node, item_entries = self._build_from_item(item, outer)
            for entry in item_entries:
                key = entry.alias.lower()
                if key in seen_aliases:
                    raise AnalyzeError(
                        f"table name {entry.alias!r} specified more than once"
                    )
                seen_aliases.add(key)
            if node is None:
                node = item_node
            else:
                node = an.Join(node, item_node, "cross", None)
            entries.extend(item_entries)
        assert node is not None
        return node, entries

    def _build_from_item(
        self, item: ast.FromItem, outer: Optional[Scope]
    ) -> tuple[an.Node, list[ScopeEntry]]:
        if isinstance(item, ast.TableRef):
            return self._build_table_ref(item)
        if isinstance(item, ast.SubqueryRef):
            return self._build_subquery_ref(item, outer)
        if isinstance(item, ast.JoinRef):
            return self._build_join_ref(item, outer)
        raise AnalyzeError(f"unsupported FROM item {type(item).__name__}")

    def _build_table_ref(self, item: ast.TableRef) -> tuple[an.Node, list[ScopeEntry]]:
        alias = item.alias or item.name
        if self.catalog.has_table(item.name):
            table = self.catalog.table(item.name)
            scan = an.Scan(item.name, alias, table.schema)
            return self._relation_ref(
                item, alias, scan, table.schema.names, table.provenance_attrs
            )
        if self.catalog.has_matview(item.name):
            matview = self.catalog.matview(item.name)
            if not self.inline_matviews and self.catalog.matview_fresh(matview):
                # Fresh contents: scan the stored heap like a table.
                self.fresh_matviews.add(matview.name)
                schema = matview.table.schema
                scan = an.Scan(item.name, alias, schema)
                return self._relation_ref(
                    item, alias, scan, schema.names, matview.provenance_attrs
                )
            # Unfold the defining query (matview inlining for its own
            # maintenance program, or stored rows that cannot be
            # trusted). The unfolded plan computes the same columns, so
            # results are identical — just not served from the heap.
            if not self.inline_matviews:
                self.stale_matviews.add(matview.name)
            return self._unfold(item, alias, matview.query, matview.provenance_attrs)
        if self.catalog.has_view(item.name):
            view = self.catalog.view(item.name)
            return self._unfold(item, alias, view.query, view.provenance_attrs)
        raise AnalyzeError(f"relation {item.name!r} does not exist")

    def _unfold(
        self,
        item: ast.TableRef,
        alias: str,
        query: ast.QueryExpr,
        registered_attrs: tuple[str, ...],
    ) -> tuple[an.Node, list[ScopeEntry]]:
        """A view (or an unfolded matview) reference: its defining
        query, re-qualified under *alias*."""
        if self._view_depth >= _MAX_VIEW_DEPTH:
            raise AnalyzeError(f"view nesting too deep (is view {item.name!r} recursive?)")
        self._view_depth += 1
        try:
            inner = self._expand_markers(self.analyze_query(query, outer=None))
        finally:
            self._view_depth -= 1
        exposed = inner.schema.names
        project = _requalify(inner, alias, exposed)
        return self._relation_ref(item, alias, project, exposed, registered_attrs)

    def _relation_ref(
        self,
        item: ast.FromItem,
        alias: str,
        node: an.Node,
        exposed: list[str],
        registered_attrs: tuple[str, ...],
    ) -> tuple[an.Node, list[ScopeEntry]]:
        """The scope entry of a FROM item whose algebra is *node*, and
        *node* under its SQL-PLE marker, if any."""
        entry = ScopeEntry.from_names(alias, exposed, node.schema.names)
        node = self._wrap_base_relation(
            node,
            entry,
            relation_label=item.name if isinstance(item, ast.TableRef) else alias,
            explicit_baserelation=item.baserelation,
            explicit_attrs=item.provenance_attrs,
            registered_attrs=registered_attrs,
        )
        return node, [entry]

    def _build_subquery_ref(
        self, item: ast.SubqueryRef, outer: Optional[Scope]
    ) -> tuple[an.Node, list[ScopeEntry]]:
        alias = item.alias or f"subquery_{next(self._ids)}"
        # Derived tables are not LATERAL — they cannot see their FROM
        # siblings — but they do see the scopes of *enclosing* queries
        # (PostgreSQL semantics: a derived table inside a sublink may
        # correlate to the sublink's outer query).
        inner = self._expand_markers(self.analyze_query(item.query, outer=outer))
        exposed = list(item.column_aliases or inner.schema.names)
        if len(exposed) != len(inner.schema):
            raise AnalyzeError(
                f"derived table {alias!r} has {len(inner.schema)} columns, "
                f"{len(exposed)} aliases given"
            )
        return self._relation_ref(item, alias, _requalify(inner, alias, exposed), exposed, ())

    def _wrap_base_relation(
        self,
        node: an.Node,
        entry: ScopeEntry,
        relation_label: str,
        explicit_baserelation: bool,
        explicit_attrs: Optional[list[str]],
        registered_attrs: tuple[str, ...],
    ) -> an.Node:
        """Attach a :class:`BaseRelationNode` marker when SQL-PLE modifiers
        or eager-provenance catalog registrations apply."""
        attrs: Optional[tuple[str, ...]] = None
        if explicit_attrs is not None:
            resolved = []
            for name in explicit_attrs:
                target = entry.columns.get(name.lower())
                if target is None:
                    raise AnalyzeError(
                        f"provenance attribute {name!r} not found in relation {entry.alias!r}"
                    )
                resolved.append(target)
            attrs = tuple(resolved)
        elif registered_attrs:
            attrs = tuple(
                entry.columns[name.lower()] for name in registered_attrs
                if name.lower() in entry.columns
            )
        if explicit_baserelation or attrs is not None:
            return an.BaseRelationNode(node, relation_label, attrs)
        return node

    def _build_join_ref(
        self, item: ast.JoinRef, outer: Optional[Scope]
    ) -> tuple[an.Node, list[ScopeEntry]]:
        left_node, left_entries = self._build_from_item(item.left, outer)
        right_node, right_entries = self._build_from_item(item.right, outer)
        entries = left_entries + right_entries
        scope = Scope(entries, parent=outer, schema=left_node.schema.concat(right_node.schema))

        if item.kind == "cross":
            return an.Join(left_node, right_node, "cross", None), entries

        condition: Optional[ax.Expr]
        if item.natural or item.using is not None:
            common = self._common_columns(left_entries, right_entries, item.using)
            if not common:
                # NATURAL JOIN with no shared columns degrades to a cross
                # join (PostgreSQL behaviour).
                if item.kind == "inner":
                    return an.Join(left_node, right_node, "cross", None), entries
                raise AnalyzeError("NATURAL/USING join has no common columns")
            parts = [
                ax.BinOp("=", ax.Column(lu), ax.Column(ru)) for lu, ru in common
            ]
            condition = self._typed(ax.combine_conjuncts(parts), scope)
        else:
            assert item.condition is not None
            condition = self._resolve(
                item.condition, scope, agg_resolver=_forbid_aggregates("JOIN/ON")
            )
            self._typed(condition, scope, "JOIN/ON")
        node = an.Join(left_node, right_node, item.kind, condition)
        return node, entries

    def _common_columns(
        self,
        left_entries: list[ScopeEntry],
        right_entries: list[ScopeEntry],
        using: Optional[list[str]],
    ) -> list[tuple[str, str]]:
        def lookup(entries: list[ScopeEntry], name: str) -> Optional[str]:
            matches = [
                e.columns[name.lower()] for e in entries if name.lower() in e.columns
            ]
            if len(matches) > 1:
                raise AnalyzeError(f"common column name {name!r} appears more than once")
            return matches[0] if matches else None

        if using is not None:
            names = using
        else:
            left_names = {n for e in left_entries for n in e.columns}
            right_names = {n for e in right_entries for n in e.columns}
            names = sorted(left_names & right_names)
        pairs = []
        for name in names:
            left_unique = lookup(left_entries, name)
            right_unique = lookup(right_entries, name)
            if left_unique is None or right_unique is None:
                raise AnalyzeError(f"column {name!r} specified in USING is missing")
            pairs.append((left_unique, right_unique))
        return pairs

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _build_aggregate(
        self,
        node: an.Node,
        scope: Scope,
        select: ast.Select,
        items: list[ast.SelectItem],
    ) -> tuple[an.Node, Scope, Callable[[ast.Expression], ax.Expr]]:
        """Build the Aggregate operator and a post-aggregation resolver."""
        # Resolve GROUP BY expressions (supporting ordinals and aliases).
        group_exprs: list[ax.Expr] = []
        for g in select.group_by:
            group_exprs.append(self._typed(self._resolve_group_expr(g, scope, items), scope))

        group_items: list[tuple[str, ax.Expr]] = []
        group_map: dict[ax.Expr, str] = {}
        used_names: set[str] = set()
        for index, expr in enumerate(group_exprs):
            if expr in group_map:
                continue  # duplicate GROUP BY expression
            if isinstance(expr, ax.Column) and expr.name not in used_names:
                name = expr.name
            else:
                name = f"_group_{index}"
            used_names.add(name)
            group_items.append((name, expr))
            group_map[expr] = name

        # Collect aggregate calls from select list, HAVING and ORDER BY.
        agg_items: list[tuple[str, ax.AggExpr]] = []
        agg_map: dict[ax.AggExpr, str] = {}

        def register_aggregate(call: ast.FuncCall) -> str:
            if call.star:
                agg = ax.AggExpr(call.name, None, False)
            else:
                if len(call.args) != 1:
                    raise AnalyzeError(f"aggregate {call.name} takes exactly one argument")
                if _contains_aggregate(call.args[0]):
                    raise AnalyzeError("aggregate calls cannot be nested")
                arg = self._typed(self._resolve(call.args[0], scope, agg_resolver=None), scope)
                agg = ax.AggExpr(call.name, arg, call.distinct)
            if agg not in agg_map:
                name = f"_agg_{len(agg_items)}"
                agg_map[agg] = name
                agg_items.append((name, agg))
            return agg_map[agg]

        aggregate = _AggregateState(group_map, register_aggregate)

        # Pre-register aggregates appearing anywhere, so the Aggregate
        # node is complete before post-resolution begins.
        sources = [item.expression for item in items]
        if select.having is not None:
            sources.append(select.having)
        sources += [order.expression for order in select.order_by]
        for source in sources:
            for call in _aggregate_calls(source):
                register_aggregate(call)

        agg_node = an.Aggregate(node, group_items, agg_items)

        def post_resolver(expr: ast.Expression) -> ax.Expr:
            resolved = self._resolve(expr, scope, agg_resolver=aggregate)
            self._validate_grouping(resolved, agg_node.schema)
            return self._typed(resolved, scope, schema=agg_node.schema)

        return agg_node, scope, post_resolver

    def _resolve_group_expr(
        self, expr: ast.Expression, scope: Scope, items: list[ast.SelectItem]
    ) -> ax.Expr:
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            position = expr.value
            if not 1 <= position <= len(items):
                raise AnalyzeError(f"GROUP BY position {position} is out of range")
            target = items[position - 1].expression
            return self._resolve(target, scope, agg_resolver=_forbid_aggregates("GROUP BY"))
        try:
            return self._resolve(expr, scope, agg_resolver=_forbid_aggregates("GROUP BY"))
        except AnalyzeError:
            # Fall back to select-list aliases (GROUP BY output_alias).
            if isinstance(expr, ast.ColumnRef) and len(expr.parts) == 1:
                for item in items:
                    if item.alias and item.alias.lower() == expr.name.lower():
                        return self._resolve(
                            item.expression, scope, agg_resolver=_forbid_aggregates("GROUP BY")
                        )
            raise

    def _validate_grouping(self, expr: ax.Expr, agg_schema: Schema) -> None:
        """Every level-0 column reference above the Aggregate must be one
        of its outputs (group keys or aggregate results)."""
        for sub in ax.walk_expr(expr):
            if isinstance(sub, ax.Column) and not agg_schema.has(sub.name):
                raise AnalyzeError(
                    f"column {sub.name!r} must appear in the GROUP BY clause "
                    "or be used in an aggregate function"
                )
            if isinstance(sub, ax.SubqueryExpr):
                for name in ax._outer_columns_of_plan(sub.plan, level=1):
                    if not agg_schema.has(name):
                        raise AnalyzeError(
                            f"subquery uses ungrouped column {name!r} from outer query"
                        )

    # ------------------------------------------------------------------
    # Select list helpers
    # ------------------------------------------------------------------
    def _expand_stars(
        self, items: list[ast.SelectItem], scope: Scope
    ) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            if isinstance(item.expression, ast.Star):
                qualifier = item.expression.qualifier
                pairs = scope.star_columns(qualifier)
                if not pairs:
                    raise AnalyzeError("SELECT * with no FROM clause")
                for exposed, unique in pairs:
                    # Reference by unique name with explicit qualifier so
                    # later resolution is unambiguous.
                    alias_part, _, column_part = unique.partition(".")
                    ref = ast.ColumnRef((alias_part, column_part) if column_part else (unique,))
                    expanded.append(ast.SelectItem(ref, alias=exposed))
            else:
                expanded.append(item)
        if not expanded:
            raise AnalyzeError("select list is empty")
        return expanded

    def _output_names(self, items: list[ast.SelectItem]) -> list[str]:
        names: list[str] = []
        for index, item in enumerate(items):
            if item.alias:
                name = item.alias
            else:
                name = _derive_name(item.expression, index)
            names.append(name)
        return _uniquify(names)

    def _resolve_order_by(
        self,
        order_by: list[ast.OrderItem],
        items: list[ast.SelectItem],
        result_names: list[str],
        project_items: list[tuple[str, ax.Expr]],
        post_resolver: Callable[[ast.Expression], ax.Expr],
    ) -> tuple[list[an.SortKey], list[tuple[str, ax.Expr]]]:
        """Resolve ORDER BY into sort keys over the projection output,
        adding hidden projection columns when a key is not in the select
        list."""
        keys: list[an.SortKey] = []
        hidden: list[tuple[str, ax.Expr]] = []
        expr_to_name = {expr: name for name, expr in project_items}
        for order in order_by:
            expr = order.expression
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                position = expr.value
                if not 1 <= position <= len(result_names):
                    raise AnalyzeError(f"ORDER BY position {position} is out of range")
                keys.append(
                    an.SortKey(ax.Column(result_names[position - 1]), order.descending, order.nulls_first)
                )
                continue
            if isinstance(expr, ast.ColumnRef) and len(expr.parts) == 1:
                matches = [
                    (name, i) for i, name in enumerate(result_names)
                    if name.lower() == expr.name.lower()
                ]
                if len(matches) == 1:
                    keys.append(
                        an.SortKey(ax.Column(matches[0][0]), order.descending, order.nulls_first)
                    )
                    continue
                if len(matches) > 1:
                    raise AnalyzeError(f"ORDER BY {expr.name!r} is ambiguous")
            resolved = post_resolver(expr)
            if resolved in expr_to_name:
                keys.append(
                    an.SortKey(ax.Column(expr_to_name[resolved]), order.descending, order.nulls_first)
                )
                continue
            name = f"_sort_{len(hidden)}"
            hidden.append((name, resolved))
            keys.append(an.SortKey(ax.Column(name), order.descending, order.nulls_first))
        return keys, hidden

    # ------------------------------------------------------------------
    # Expression resolution
    # ------------------------------------------------------------------
    def _resolve(
        self,
        expr: ast.Expression,
        scope: Scope,
        agg_resolver: Optional["_AggregateState" | Callable[[ast.FuncCall], str]],
    ) -> ax.Expr:
        resolve = lambda e: self._resolve(e, scope, agg_resolver)  # noqa: E731

        # Post-aggregation resolution: an expression that matches a GROUP
        # BY expression *as a whole* resolves to that group column, e.g.
        # ``SELECT upper(name) ... GROUP BY upper(name)``.
        if (
            isinstance(agg_resolver, _AggregateState)
            and not isinstance(expr, ast.Literal)
            and not _contains_aggregate(expr)
        ):
            try:
                whole = self._resolve(expr, scope, agg_resolver=None)
            except AnalyzeError:
                whole = None
            if whole is not None and whole in agg_resolver.group_map:
                return ax.Column(agg_resolver.group_map[whole])

        if isinstance(expr, ast.Literal):
            return ax.Const.of(expr.value)
        if isinstance(expr, ast.Parameter):
            return ax.Param(expr.index, expr.name)
        if isinstance(expr, ast.ColumnRef):
            if len(expr.parts) > 2:
                raise AnalyzeError(
                    f"cross-database references are not supported: {'.'.join(expr.parts)}"
                )
            unique, level = scope.resolve(expr.qualifier, expr.name)
            if level == 0:
                return ax.Column(unique)
            return ax.OuterColumn(unique, level)
        if isinstance(expr, ast.Star):
            raise AnalyzeError("'*' is only allowed as a top-level select item or in count(*)")
        if isinstance(expr, ast.BinaryOp):
            return ax.BinOp(expr.op, resolve(expr.left), resolve(expr.right))
        if isinstance(expr, ast.UnaryOp):
            return ax.UnOp(expr.op, resolve(expr.operand))
        if isinstance(expr, ast.IsNull):
            return ax.IsNullTest(resolve(expr.operand), expr.negated)
        if isinstance(expr, ast.IsDistinct):
            return ax.DistinctTest(resolve(expr.left), resolve(expr.right), expr.negated)
        if isinstance(expr, ast.Between):
            operand = resolve(expr.operand)
            low = resolve(expr.low)
            high = resolve(expr.high)
            test: ax.Expr = ax.BinOp(
                "and", ax.BinOp(">=", operand, low), ax.BinOp("<=", operand, high)
            )
            return ax.UnOp("not", test) if expr.negated else test
        if isinstance(expr, ast.InList):
            return ax.InListExpr(
                resolve(expr.operand), tuple(resolve(i) for i in expr.items), expr.negated
            )
        if isinstance(expr, ast.InSubquery):
            plan = self.analyze_query(expr.query, outer=scope)
            if len(plan.schema) != 1:
                raise AnalyzeError("subquery of IN must return exactly one column")
            return ax.SubqueryExpr("in", plan, resolve(expr.operand), negated=expr.negated)
        if isinstance(expr, ast.Exists):
            plan = self.analyze_query(expr.query, outer=scope)
            return ax.SubqueryExpr("exists", plan, negated=expr.negated)
        if isinstance(expr, ast.ScalarSubquery):
            plan = self.analyze_query(expr.query, outer=scope)
            if len(plan.schema) != 1:
                raise AnalyzeError("scalar subquery must return exactly one column")
            return ax.SubqueryExpr("scalar", plan)
        if isinstance(expr, ast.QuantifiedComparison):
            plan = self.analyze_query(expr.query, outer=scope)
            if len(plan.schema) != 1:
                raise AnalyzeError(f"subquery of {expr.quantifier.upper()} must return one column")
            return ax.SubqueryExpr(
                "quant", plan, resolve(expr.operand), op=expr.op, quantifier=expr.quantifier
            )
        if isinstance(expr, ast.FuncCall):
            if expr.name in _AGG_NAMES:
                if agg_resolver is None:
                    raise AnalyzeError(
                        f"aggregate function {expr.name}() is not allowed here"
                    )
                if isinstance(agg_resolver, _AggregateState):
                    return ax.Column(agg_resolver.register(expr))
                # A plain callable signals a context that forbids them.
                return ax.Column(agg_resolver(expr))
            if expr.star:
                raise AnalyzeError(f"{expr.name}(*) is not a known aggregate")
            if expr.distinct:
                raise AnalyzeError("DISTINCT is only allowed in aggregate calls")
            entry = SCALARS.get(expr.name)
            if entry is None or not entry.sql_visible:
                raise AnalyzeError(f"unknown function {expr.name!r}")
            entry.check_arity(len(expr.args))
            return ax.FuncExpr(expr.name, tuple(resolve(a) for a in expr.args))
        if isinstance(expr, ast.Case):
            operand = resolve(expr.operand) if expr.operand is not None else None
            whens = tuple((resolve(c), resolve(r)) for c, r in expr.whens)
            else_result = resolve(expr.else_result) if expr.else_result is not None else None
            return ax.CaseExpr(operand, whens, else_result)
        if isinstance(expr, ast.Cast):
            return ax.CastExpr(resolve(expr.operand), type_from_name(expr.type_name))
        raise AnalyzeError(f"unsupported expression {type(expr).__name__}")

    def _typed(
        self,
        expr: ax.Expr,
        scope: Scope,
        context: Optional[str] = None,
        schema: Optional[Schema] = None,
    ) -> ax.Expr:
        """*expr*, typed against its input (*schema*, by default the
        scope's) and the enclosing scopes, so that a correlated reference
        is checked as a local one is. A truth-value *context* (``WHERE``)
        demands a boolean."""
        type_ = ax.infer_type(
            expr, scope.schema if schema is None else schema, scope.outer_schemas
        )
        if context is not None:
            ax.require_operand(type_, "boolean", context)
        return expr


class _AggregateState:
    """Post-aggregation resolution context: maps aggregate calls to their
    Aggregate-node output columns."""

    def __init__(
        self,
        group_map: dict[ax.Expr, str],
        register: Callable[[ast.FuncCall], str],
    ):
        self.group_map = group_map
        self.register = register


def _forbid_aggregates(context: str) -> Callable[[ast.FuncCall], str]:
    def fail(call: ast.FuncCall) -> str:
        raise AnalyzeError(f"aggregate functions are not allowed in {context}")

    return fail


def _aggregate_calls(expr: ast.Expression) -> Iterator[ast.FuncCall]:
    """The aggregate calls in *expr*, in textual order — not descending
    into their arguments or into subqueries, whose aggregates belong to
    the subquery."""
    if isinstance(expr, ast.FuncCall):
        if expr.name in _AGG_NAMES:
            yield expr
            return
        children: list[ast.Expression] = list(expr.args)
    elif isinstance(expr, (ast.BinaryOp, ast.IsDistinct)):
        children = [expr.left, expr.right]
    elif isinstance(
        expr,
        (ast.UnaryOp, ast.IsNull, ast.Cast, ast.InSubquery, ast.QuantifiedComparison),
    ):
        children = [expr.operand]
    elif isinstance(expr, ast.Between):
        children = [expr.operand, expr.low, expr.high]
    elif isinstance(expr, ast.InList):
        children = [expr.operand, *expr.items]
    elif isinstance(expr, ast.Case):
        children = [expr.operand] if expr.operand is not None else []
        children += [part for when in expr.whens for part in when]
        if expr.else_result is not None:
            children.append(expr.else_result)
    else:
        return
    for child in children:
        yield from _aggregate_calls(child)


def _contains_aggregate(expr: ast.Expression) -> bool:
    return next(_aggregate_calls(expr), None) is not None


def _derive_name(expr: ast.Expression, index: int) -> str:
    """PostgreSQL-style derived output column names."""
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FuncCall):
        return expr.name
    if isinstance(expr, ast.Cast):
        return _derive_name(expr.operand, index)
    if isinstance(expr, ast.Case):
        return "case"
    if isinstance(expr, ast.Exists) or isinstance(expr, ast.InSubquery):
        return "exists" if isinstance(expr, ast.Exists) else "in"
    return f"column_{index + 1}"


def _requalify(inner: an.Node, alias: str, exposed: list[str]) -> an.Node:
    """*inner*'s columns renamed ``alias.<exposed name>``, made unique."""
    unique = _uniquify([f"{alias}.{name}" for name in exposed])
    return an.Project(inner, [(u, ax.Column(a.name)) for u, a in zip(unique, inner.schema)])


def _uniquify(names: list[str]) -> list[str]:
    """Disambiguate duplicate names with numeric suffixes (SQL result sets
    may repeat names; our schemas require uniqueness)."""
    seen: dict[str, int] = {}
    out: list[str] = []
    for name in names:
        key = name.lower()
        if key not in seen:
            seen[key] = 0
            out.append(name)
        else:
            seen[key] += 1
            candidate = f"{name}_{seen[key]}"
            while candidate.lower() in seen:
                seen[key] += 1
                candidate = f"{name}_{seen[key]}"
            seen[candidate.lower()] = 0
            out.append(candidate)
    return out


def _take_leftmost_provenance(query: ast.SetOp) -> Optional[ast.ProvenanceClause]:
    """Detach the provenance clause from the leftmost SELECT of a set
    operation (SQL-PLE scopes it over the whole operation)."""
    current: ast.QueryExpr = query
    while isinstance(current, ast.SetOp):
        current = current.left
    clause = current.provenance
    current.provenance = None
    return clause


def _restore_leftmost_provenance(
    query: ast.SetOp, clause: Optional[ast.ProvenanceClause]
) -> None:
    if clause is None:
        return
    current: ast.QueryExpr = query
    while isinstance(current, ast.SetOp):
        current = current.left
    current.provenance = clause


def analyze_query(catalog: Catalog, query: ast.QueryExpr) -> an.Node:
    """Convenience function: analyze one query against *catalog*."""
    return Analyzer(catalog).analyze_query(query)
