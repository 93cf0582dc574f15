"""Incrementally maintained materialized views.

A materialized view stores the result of its (provenance-rewritten)
query in an ordinary :class:`~repro.storage.table.HeapTable`, so MVCC
snapshots, the WAL and table statistics cover the rows for free. What
this module adds is the *maintenance* machinery, at two timings:

* :func:`compile_program` turns the analyzer's rewritten algebra tree
  into a :class:`MatviewProgram` — a tiny direct interpreter over
  SPJ-shaped plans (scans, projections, selections, inner/cross joins,
  and the rewriter's ``BaseRelationNode`` markers), optionally ending in
  one aggregate: projections over a ``GROUP BY`` (or global) aggregate
  whose child is SPJ. Any other shape (DISTINCT, set operations, outer
  joins, sublinks, parameters, HAVING/ORDER BY/LIMIT above the
  aggregate, an aggregate anywhere else) is **not maintainable**: a read
  that finds it behind recomputes it through the connection's engine.

* **SPJ views are maintained at commit.** :class:`MatviewMaintainer`
  hooks transaction commit: for every SPJ view whose base tables a
  commit touches, it reads each base table's change from the commit's
  own record (:meth:`CommitChange.resolve()
  <repro.storage.mvcc.CommitChange.resolve>` — the write set the
  transaction holds, never a comparison of table states) and propagates
  it through the program — removed combinations are found by source-row
  -id intersection, added combinations by the telescoping expansion —
  and emits one extra :class:`~repro.storage.mvcc.CommitChange` that
  updates the view's heap *in the same commit* (so the WAL and crash
  recovery see an atomic unit). A commit it cannot follow (version
  skew, a recovered view without its program, interpreter errors) marks
  the view stale, counted per reason in
  :attr:`MatviewMaintainer.stale_reasons`.

* **Aggregate views catch up at their first read.** The commit hook
  does no work for them and marks nothing: such a view is simply
  *behind* — its ``base_versions`` no longer match the tables, so
  readers inside a transaction unfold it. A read outside one calls
  :meth:`MatviewMaintainer.catch_up`, which takes each base table's net
  change since the view's base version from
  :meth:`~repro.storage.table.HeapTable.changes_since`, runs the same
  telescoping expansion twice — over the new states for the child's
  added derived rows, over the old states the view's
  :class:`AggregateState` keeps for the removed ones — and folds both
  into per-group accumulators through the one table of aggregate rules,
  :data:`~repro.executor.expr_eval.AGGREGATES` (``accumulate`` and
  ``retract``), re-terminating only the touched groups: work in the
  change, the groups and the touched groups, never in a base table. The
  new state, the rows and the advanced base versions install together
  under a compare-and-swap on the state, without a catalog version bump
  (cached plans stay valid). What the rules cannot follow is recomputed
  under a reason counted in :attr:`MatviewMaintainer.recompute_reasons`:
  ``"delta log gap"`` (``changes_since`` cannot say), ``"float
  aggregate"`` (sum/avg/min/max over floats, or float group keys:
  float results depend on input order), ``"distinct aggregate"``,
  ``"min/max retraction"`` (the current extreme left the group),
  ``"no aggregate state"`` (recovered from disk: the state is not
  persisted), ``"not maintainable"`` and ``"marked stale"`` (a view
  redefinition or a failed refresh).

Ordering: row ids ascend in every base-table state — appended rows take
fresh ids from one global counter, every mutator keeps row order, a
merged commit re-ids its inserts (``Transaction._merged_state``);
``resolve_write_set``'s bisection and the sqlite mirror's rowid rely on
the same invariant. Every engine emits inner-join output probe-major,
which makes query output order lexicographic in the left-to-right
sequence of base leaf positions, hence in the tuple of source row ids.
The interpreter therefore tags each derived row with that tuple alone:
it keys removal, and sorting by it is the canonical order — no
order-preserving join machinery is needed, and the stored rows are
bit-identical to the unfolded query on every engine. Across a commit
survivors keep their relative order and the sorted additions merge in.
An aggregate's groups come out in first-seen order over that sequence:
ascending by each group's smallest member source-id tuple, so deleting
a group's first member can move the group.

The telescoping expansion counts each *added* combination exactly once,
by the first leaf position holding a new row: with per-leaf new state
``N``, inserted-or-updated rows ``A`` and unchanged rows
``U = N\\A = O\\R``,

    added   = Σ_i  U_1 × … × U_{i-1} × A_i × N_{i+1} × … × N_k

and, with old state ``O`` and the removed rows' old contents ``R``,

    removed = Σ_i  U_1 × … × U_{i-1} × R_i × O_{i+1} × … × O_k
"""

from __future__ import annotations

import threading
from bisect import bisect_left, insort
from functools import cached_property, partial
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from ..algebra import expressions as ax
from ..algebra import nodes as an
from ..datatypes import SQLType, is_true, row_identity, value_identity
from ..executor.expr_eval import (
    AGGREGATES,
    AggregateAccumulator,
    ExprCompiler,
    count_star_sentinel,
)
from ..planner.planner import _equi_pair
from ..storage import mvcc

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..catalog.catalog import Catalog, MatviewEntry
    from ..storage.table import HeapTable

__all__ = [
    "AggregateState",
    "MatviewContents",
    "MatviewProgram",
    "MatviewMaintainer",
    "MatviewCommitChange",
    "compile_program",
    "base_table_names",
]

#: A derived row in flight is ``(output values, source row ids per leaf)``;
#: the id tuple keys removal and, sorted, is the canonical order.
_source_ids = itemgetter(1)

#: Expression nodes that make a shape non-delta-safe: their value can
#: depend on state outside the leaf rows (sublinks, parameters, outer
#: references) or they are only valid under operators we reject anyway.
_UNSAFE_EXPRS = (ax.SubqueryExpr, ax.Param, ax.OuterColumn, ax.AggExpr)


class _Unsafe(Exception):
    """Internal signal: the plan shape is not delta-safe."""


def _leaf_rows(rows, ids) -> list:
    return [(row, (rid,)) for row, rid in zip(rows, ids)]


def _rows_by_id(state: tuple, wanted) -> list:
    """The derived leaf rows of the ids *wanted* in the ``(rows,
    version, ids)`` *state*, found by bisection (ids ascend)."""
    rows, _, ids = state
    out = []
    for rid in sorted(wanted):
        pos = bisect_left(ids, rid)
        if pos == len(ids) or ids[pos] != rid:
            raise LookupError(f"row id {rid} is not in the state it left")
        out.append((rows[pos], (rid,)))
    return out


class _LeafState:
    """What one leaf produces for one evaluation: a cache token naming
    the state, and its derived rows ``(row, (rid,))`` — built when a
    scan first reads them, so a state no term scans costs nothing."""

    def __init__(self, token: tuple, build: Callable[[], list]):
        self.token = token
        self._build = build

    @cached_property
    def rows(self) -> list:
        return self._build()


class _Ctx(NamedTuple):
    """One evaluation's leaf states plus the two result caches: the
    per-round cache (any state mix) and the program's persistent cache
    (per join step, its latest result over fully-committed leaf states,
    whose tokens carry version stamps and so can never alias)."""

    states: list
    cache: dict
    full_cache: dict


# ---------------------------------------------------------------------------
# Interpreter steps
# ---------------------------------------------------------------------------


class _Step:
    """``rows(ctx)`` evaluates the step over the context's leaf states;
    ``leaf_start:leaf_end`` are the leaves below it."""

    __slots__ = ("index", "leaf_start", "leaf_end")


class _ScanStep(_Step):
    __slots__ = ("leaf",)

    def __init__(self, leaf: int):
        self.leaf = leaf

    def rows(self, ctx: _Ctx) -> list:
        return ctx.states[self.leaf].rows


class _SingleRowStep(_Step):
    __slots__ = ()

    def rows(self, ctx: _Ctx) -> list:
        return [((), ())]


class _ProjectStep(_Step):
    __slots__ = ("child", "fns")

    def __init__(self, child: _Step, fns: list):
        self.child = child
        self.fns = fns

    def rows(self, ctx: _Ctx) -> list:
        fns = self.fns
        return [
            (tuple(fn(values, None) for fn in fns), sids)
            for values, sids in self.child.rows(ctx)
        ]


class _SelectStep(_Step):
    __slots__ = ("child", "predicate")

    def __init__(self, child: _Step, predicate):
        self.child = child
        self.predicate = predicate

    def rows(self, ctx: _Ctx) -> list:
        predicate = self.predicate
        return [
            derived
            for derived in self.child.rows(ctx)
            if is_true(predicate(derived[0], None))
        ]


class _JoinStep(_Step):
    """Inner (or cross) hash/nested-loop join, the one step whose
    results are cached. Output order is arbitrary — the program sorts
    final results by source-id tuple, so the build side is chosen purely
    by size."""

    __slots__ = ("left", "right", "left_keys", "right_keys", "null_safe", "residual")

    def __init__(self, left, right, left_keys, right_keys, null_safe, residual):
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.null_safe = null_safe
        self.residual = residual

    @staticmethod
    def _key(values, positions, null_safe):
        key = []
        for position, ns in zip(positions, null_safe):
            value = values[position]
            if value is None and not ns:
                return None
            key.append(value_identity(value))
        return tuple(key)

    def rows(self, ctx: _Ctx) -> list:
        tokens = tuple(
            s.token for s in ctx.states[self.leaf_start : self.leaf_end]
        )
        key = (self.index, tokens)
        hit = ctx.cache.get(key)
        if hit is not None:
            return hit
        known = ctx.full_cache.get(self.index)
        if known is not None and known[0] == tokens:
            result = known[1]
        else:
            result = self._join(ctx)
            if all(token[0] == "full" for token in tokens):
                ctx.full_cache[self.index] = (tokens, result)
        ctx.cache[key] = result
        return result

    def _join(self, ctx: _Ctx) -> list:
        left_rows = self.left.rows(ctx)
        right_rows = self.right.rows(ctx)
        out: list = []
        if not left_rows or not right_rows:
            return out
        residual = self.residual
        if not self.left_keys:
            # Cross join (or residual-only condition): nested loops.
            for lv, ls in left_rows:
                for rv, rs in right_rows:
                    if residual is None or is_true(residual(lv + rv, None)):
                        out.append((lv + rv, ls + rs))
            return out
        null_safe = self.null_safe
        if len(left_rows) <= len(right_rows):
            build, build_keys = left_rows, self.left_keys
            probe, probe_keys = right_rows, self.right_keys
            build_is_left = True
        else:
            build, build_keys = right_rows, self.right_keys
            probe, probe_keys = left_rows, self.left_keys
            build_is_left = False
        table: dict = {}
        for derived in build:
            key = self._key(derived[0], build_keys, null_safe)
            if key is None:
                continue
            table.setdefault(key, []).append(derived)
        for values, sids in probe:
            key = self._key(values, probe_keys, null_safe)
            if key is None:
                continue
            bucket = table.get(key)
            if bucket is None:
                continue
            for other_values, other_sids in bucket:
                if build_is_left:
                    joined = (other_values + values, other_sids + sids)
                else:
                    joined = (values + other_values, sids + other_sids)
                if residual is None or is_true(residual(joined[0], None)):
                    out.append(joined)
        return out


# ---------------------------------------------------------------------------
# The aggregate fold
# ---------------------------------------------------------------------------


class _Group:
    """One group of an aggregate view: its key values, its members'
    source-id tuples (sorted — the first says where the group sits in
    the output), one accumulator per aggregate, and its output row."""

    __slots__ = ("key", "members", "accs", "row")

    def __init__(self, key: tuple, members: list, accs: list, row=None):
        self.key = key
        self.members = members
        self.accs = accs
        self.row = row

    def copy(self) -> "_Group":
        return _Group(
            self.key, list(self.members), [acc.copy() for acc in self.accs], self.row
        )


class AggregateState(NamedTuple):
    """An aggregate view's fold as of the base-table states it was
    computed from. ``bases`` maps each base table to that ``(rows,
    version, ids)`` state — installed states are never mutated, so the
    removed rows' old contents can be read there — and ``groups`` maps
    each group's identity key to its :class:`_Group`, in output order.
    A value: a catch-up builds a new one (sharing untouched groups) and
    installs it with the rows."""

    bases: dict
    groups: dict


class _Aggregate:
    """The fold an aggregate view's program ends in: ``GROUP BY`` keys
    and ``(func, distinct, argument)`` aggregates over the SPJ child's
    derived rows, then the projections above the aggregate (innermost
    first). ``blocker`` is the reason a catch-up cannot follow it: the
    view still computes through the fold, it just recomputes whenever a
    read finds it behind."""

    __slots__ = ("group_fns", "specs", "projections", "blocker")

    def __init__(self, group_fns, specs, projections, blocker):
        self.group_fns = group_fns
        self.specs = specs
        self.projections = projections
        self.blocker = blocker

    def key(self, values) -> tuple:
        return tuple(fn(values, None) for fn in self.group_fns)

    def new_group(self, key: tuple) -> _Group:
        return _Group(
            key, [], [AggregateAccumulator(func, distinct) for func, distinct, _ in self.specs]
        )

    def _args(self, values) -> list:
        star = count_star_sentinel()
        return [star if arg is None else arg(values, None) for _, _, arg in self.specs]

    def accumulate(self, group: _Group, values) -> None:
        for acc, value in zip(group.accs, self._args(values)):
            acc.add(value)

    def retract(self, group: _Group, values) -> Optional[str]:
        for acc, value in zip(group.accs, self._args(values)):
            reason = acc.rule.retract(acc, value)
            if reason is not None:
                return reason
        return None

    def output(self, group: _Group) -> tuple:
        row = group.key + tuple(acc.result() for acc in group.accs)
        for fns in self.projections:
            row = tuple(fn(row, None) for fn in fns)
        return row

    def fold(self, derived: list) -> dict:
        """The groups of *derived* rows, given in source-id order."""
        groups: dict = {}
        if not self.group_fns:
            groups[()] = self.new_group(())  # a global aggregate always has its row
        for values, sids in derived:
            key = self.key(values)
            ident = row_identity(key)
            group = groups.get(ident)
            if group is None:
                group = groups[ident] = self.new_group(key)
            group.members.append(sids)
            self.accumulate(group, values)
        for group in groups.values():
            group.row = self.output(group)
        return groups

    def refold(self, groups: dict, gone: list, added: list) -> "dict | str":
        """*groups* (left as they are) with the derived rows *gone*
        retracted and *added* accumulated, or the reason the rules cannot
        follow. Touched groups are copied and re-terminated, emptied ones
        dropped; the groups re-sort only when one appeared or a first
        member changed."""
        groups = dict(groups)
        touched: dict = {}

        def touch(values) -> _Group:
            key = self.key(values)
            ident = row_identity(key)
            group = touched.get(ident)
            if group is None:
                known = groups.get(ident)
                group = known.copy() if known is not None else self.new_group(key)
                touched[ident] = group
            return group

        for values, sids in gone:
            group = touch(values)
            members = group.members
            pos = bisect_left(members, sids)
            if pos == len(members) or members[pos] != sids:
                raise LookupError("a removed derived row is not in its group")
            del members[pos]
            reason = self.retract(group, values)
            if reason is not None:
                return reason
        for values, sids in sorted(added, key=_source_ids):
            group = touch(values)
            insort(group.members, sids)
            self.accumulate(group, values)

        reorder = False
        for ident, group in touched.items():
            if any(acc.float_seen for acc in group.accs):
                return "float aggregate"
            known = groups.get(ident)
            if group.members or not self.group_fns:
                if known is None or known.members[:1] != group.members[:1]:
                    reorder = True
                group.row = self.output(group)
                groups[ident] = group
            elif known is not None:
                del groups[ident]
        if reorder and self.group_fns:
            groups = dict(sorted(groups.items(), key=lambda item: item[1].members[0]))
        return groups


def _aggregate_blocker(node: an.Aggregate) -> Optional[str]:
    """Why a catch-up cannot follow *node*, or ``None``."""
    if any(agg.distinct for _, agg in node.agg_items):
        return "distinct aggregate"
    ordered = [expr for _, expr in node.group_items] + [
        agg.arg for _, agg in node.agg_items if agg.func != "count" and not agg.star
    ]
    if any(ax.infer_type(expr, node.child.schema) is SQLType.FLOAT for expr in ordered):
        return "float aggregate"
    return None


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def _check_exprs(exprs) -> None:
    for expr in exprs:
        for sub in ax.walk_expr(expr):
            if isinstance(sub, _UNSAFE_EXPRS):
                raise _Unsafe


class MatviewContents(NamedTuple):
    """A view's computed contents plus the maintenance state that goes
    with them, installed as one unit by :meth:`MatviewMaintainer.install`:
    the rows, per-row source ids (SPJ views) or the aggregate state, the
    base versions they reflect, the base tables, and the program
    (``None`` when the shape is not maintainable)."""

    rows: list
    source_ids: Optional[list]
    agg_state: Optional[AggregateState]
    base_versions: dict
    base_tables: tuple
    program: Optional["MatviewProgram"]


class MatviewProgram:
    """A compiled delta-safe plan: the SPJ step tree, the left-to-right
    base table of every leaf, the aggregate fold the view ends in (if
    any), and the persistent committed-state cache (``step index ->
    (leaf tokens, result)``, one entry per join step)."""

    def __init__(self, root: _Step, leaves: list[str], schema, aggregate=None):
        self.root = root
        self.leaves = leaves
        self.schema = schema
        self.aggregate: Optional[_Aggregate] = aggregate
        self._full_cache: dict = {}

    # -- full evaluation (CREATE / REFRESH) ----------------------------
    def compute_full(self, catalog: "Catalog", base_tables: tuple) -> MatviewContents:
        """Evaluate over the currently visible state of every base table
        (through the active transaction, if any): the stored rows in
        canonical order with their maintenance state."""
        bases: dict = {}
        built: dict[str, _LeafState] = {}
        for name in self.leaves:
            if name not in built:
                heap = catalog.table(name).table
                rows, ids = heap._visible_pair()
                bases[name] = (rows, heap.version, ids)
                built[name] = _LeafState(
                    ("full", name, bases[name][1]), partial(_leaf_rows, rows, ids)
                )
        states = [built[name] for name in self.leaves]
        derived = sorted(self.root.rows(_Ctx(states, {}, {})), key=_source_ids)
        versions = {name: state[1] for name, state in bases.items()}
        if self.aggregate is None:
            rows = [d[0] for d in derived]
            return MatviewContents(
                rows, [d[1] for d in derived], None, versions, base_tables, self
            )
        groups = self.aggregate.fold(derived)
        return MatviewContents(
            [group.row for group in groups.values()],
            None,
            AggregateState(bases, groups),
            versions,
            base_tables,
            self,
        )

    # -- delta evaluation -----------------------------------------------
    def expand(self, leaf_deltas: list, after: list, pick, cache: dict) -> list:
        """The telescoping sum over the leaves whose table changed —
        ``Σ_i U_1 × … × U_{i-1} × pick(Δ_i) × after_{i+1} × … ×
        after_k`` — where ``U`` is a changed leaf's unchanged rows and
        *after* the complete leaf states of the side expanded: the new
        ones with *pick* the added rows, the old ones with *pick* the
        removed rows. Derived rows, in no particular order."""
        out: list = []
        for i, delta in enumerate(leaf_deltas):
            term = None if delta is None else pick(delta)
            if term is None:
                continue
            states = list(after)
            states[i] = term
            for j in range(i):
                if leaf_deltas[j] is not None:
                    states[j] = leaf_deltas[j].unchanged
            out.extend(self.root.rows(_Ctx(states, cache, self._full_cache)))
        return out


def _pick_added(delta: "_TableDelta") -> Optional[_LeafState]:
    return delta.delta if delta.added else None


def _pick_removed(delta: "_TableDelta") -> Optional[_LeafState]:
    return delta.gone if delta.removed else None


def compile_program(root: an.Node, catalog: "Catalog") -> Optional[MatviewProgram]:
    """Compile the rewritten tree into a delta interpreter, or ``None``
    when the shape is not maintainable."""
    leaves: list[str] = []
    steps: list[_Step] = []

    def register(step: _Step, start: int, end: int) -> _Step:
        step.index = len(steps)
        step.leaf_start = start
        step.leaf_end = end
        steps.append(step)
        return step

    def build(node: an.Node) -> _Step:
        if isinstance(node, an.BaseRelationNode):
            return build(node.child)
        if isinstance(node, an.Scan):
            if not catalog.has_table(node.table_name):
                raise _Unsafe
            leaf = len(leaves)
            leaves.append(node.table_name.lower())
            return register(_ScanStep(leaf), leaf, leaf + 1)
        if isinstance(node, an.SingleRow):
            at = len(leaves)
            return register(_SingleRowStep(), at, at)
        if isinstance(node, an.Project):
            child = build(node.child)
            _check_exprs(expr for _, expr in node.items)
            compiler = ExprCompiler(node.child.schema)
            fns = [compiler.compile(expr) for _, expr in node.items]
            return register(
                _ProjectStep(child, fns), child.leaf_start, child.leaf_end
            )
        if isinstance(node, an.Select):
            child = build(node.child)
            _check_exprs((node.condition,))
            predicate = ExprCompiler(node.child.schema).compile(node.condition)
            return register(
                _SelectStep(child, predicate), child.leaf_start, child.leaf_end
            )
        if isinstance(node, an.Join):
            if node.kind not in ("inner", "cross"):
                raise _Unsafe
            left = build(node.left)
            right = build(node.right)
            equi: list = []
            residual_parts: list = []
            if node.condition is not None:
                _check_exprs((node.condition,))
                left_names = {a.name.lower() for a in node.left.schema}
                right_names = {a.name.lower() for a in node.right.schema}
                for conjunct in ax.conjuncts(node.condition):
                    pair = _equi_pair(conjunct, left_names, right_names)
                    if pair is None:
                        residual_parts.append(conjunct)
                    else:
                        equi.append(pair)
            left_keys = [
                node.left.schema.index_of(col.name) for col, _, _ in equi
            ]
            right_keys = [
                node.right.schema.index_of(col.name) for _, col, _ in equi
            ]
            null_safe = [ns for _, _, ns in equi]
            residual_expr = ax.combine_conjuncts(residual_parts)
            residual = (
                ExprCompiler(node.schema).compile(residual_expr)
                if residual_expr is not None
                else None
            )
            return register(
                _JoinStep(left, right, left_keys, right_keys, null_safe, residual),
                left.leaf_start,
                right.leaf_end,
            )
        raise _Unsafe

    def build_aggregate(node: an.Aggregate, projections: list) -> _Aggregate:
        aggs = [agg for _, agg in node.agg_items]
        if any(agg.func not in AGGREGATES for agg in aggs):
            raise _Unsafe
        _check_exprs(expr for _, expr in node.group_items)
        _check_exprs(agg.arg for agg in aggs if not agg.star)
        compiler = ExprCompiler(node.child.schema)
        finish = []
        for project in reversed(projections):
            _check_exprs(expr for _, expr in project.items)
            above = ExprCompiler(project.child.schema)
            finish.append([above.compile(expr) for _, expr in project.items])
        return _Aggregate(
            [compiler.compile(expr) for _, expr in node.group_items],
            [
                (agg.func, agg.distinct, None if agg.star else compiler.compile(agg.arg))
                for agg in aggs
            ],
            finish,
            _aggregate_blocker(node),
        )

    projections: list = []
    top = root
    while isinstance(top, an.Project):
        projections.append(top)
        top = top.child
    try:
        if isinstance(top, an.Aggregate):
            root_step = build(top.child)
            aggregate = build_aggregate(top, projections)
        else:
            root_step, aggregate = build(root), None
    except _Unsafe:
        return None
    return MatviewProgram(root_step, leaves, root.schema, aggregate)


def base_table_names(root: an.Node, catalog: "Catalog") -> tuple[str, ...]:
    """Every base table a rewritten tree scans (lowercased, ordered by
    first appearance) — the tables whose commits affect the view, also
    for shapes that are not delta-safe."""
    seen: list[str] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, an.Scan) and catalog.has_table(node.table_name):
            key = node.table_name.lower()
            if key not in seen:
                seen.append(key)
        stack.extend(node.children)
    return tuple(seen)


# ---------------------------------------------------------------------------
# Maintenance
# ---------------------------------------------------------------------------


class MatviewCommitChange(mvcc.CommitChange):
    """A maintainer-generated commit change carrying the compact WAL
    delta (removed matview row ids + positioned inserts) so the log does
    not have to record the full view contents on every base commit."""

    __slots__ = ("wal_delta",)

    def __init__(self, *args, wal_delta=None):
        super().__init__(*args)
        self.wal_delta = wal_delta


class _TableDelta:
    """One base table's change between two of its states, shared by
    every view that reads it: the added rows (inserts plus
    updated-to-new-content), the removed row ids (deletes plus the old
    halves of updates), and the leaf states the telescoping expansion
    reads — ``delta`` (the added rows), ``gone`` (the removed rows' old
    contents), ``full``/``old`` (the complete new/old state) and
    :attr:`unchanged` (``U = N \\ A = O \\ R``)."""

    __slots__ = ("added", "removed", "delta", "gone", "full", "old", "_sub")

    def __init__(self, name: str, previous: tuple, new: tuple, change: tuple):
        deleted, updated, inserted = change
        # An update is the removal of the old content plus the addition
        # of the new one (under the same row id).
        added = self.added = [(row, rid) for rid, row in updated + inserted]
        removed = self.removed = set(deleted).union(rid for rid, _ in updated)
        span = (previous[1], new[1])
        self.delta = _LeafState(
            ("delta", name, span), lambda: [(row, (rid,)) for row, rid in added]
        )
        self.gone = _LeafState(("gone", name, span), partial(_rows_by_id, previous, removed))
        full = self.full = _LeafState(
            ("full", name, new[1]), partial(_leaf_rows, new[0], new[2])
        )
        self.old = _LeafState(
            ("full", name, previous[1]), partial(_leaf_rows, previous[0], previous[2])
        )

        # No reference back to the delta: a cycle would keep the
        # superseded state alive until the cyclic collector ran.
        def sub() -> list:
            added_ids = {rid for _, rid in added}
            return [d for d in full.rows if d[1][0] not in added_ids]

        self._sub = _LeafState(("sub", name, span), sub)

    @property
    def unchanged(self) -> _LeafState:
        return self._sub if self.added else self.full


class MatviewMaintainer:
    """Keeps materialized views up to date with committed base-table
    changes. Installed on the :class:`~repro.storage.mvcc.TransactionManager`
    by the database: :meth:`on_commit` is invoked under the manager lock
    with every staged :class:`~repro.storage.mvcc.CommitChange` of a
    commit, before the write-ahead hook runs, and maintains SPJ views in
    the same commit. Aggregate views are caught up by :meth:`catch_up`
    when a read finds them behind."""

    def __init__(self, catalog: "Catalog"):
        self.catalog = catalog
        # Telemetry (surfaced through Database.matview_stats / STATS).
        self.incremental_commits = 0
        self.rows_added = 0
        self.rows_removed = 0
        #: Commits maintenance could not follow, counted per reason.
        self.stale_reasons: dict[str, int] = {}
        #: Read-time refreshes computed incrementally ...
        self.catch_ups = 0
        #: ... and recomputed instead, counted per reason.
        self.recompute_reasons: dict[str, int] = {}
        # Per-table committed leaf state: name -> (heap, state).
        self._ext: dict[str, tuple] = {}
        # Serializes installs (a catch-up's is conditional) and the
        # read-time counters, which reader sessions bump concurrently.
        self._lock = threading.Lock()

    def _ext_state(self, name: str, heap: "HeapTable", state: tuple) -> _LeafState:
        """The ``(rows, version, ids)`` *state* of a table the change
        leaves alone, memoized per version stamp."""
        rows, version, ids = state
        known = self._ext.get(name)
        if known is None or known[0] is not heap or known[1].token[2] != version:
            leaf = _LeafState(("full", name, version), partial(_leaf_rows, rows, ids))
            known = self._ext[name] = (heap, leaf)
        return known[1]

    def _delta(self, name: str, change: mvcc.CommitChange) -> _TableDelta:
        new = (change.rows, change.version, change.ids)
        return _TableDelta(name, change.previous, new, change.resolve())

    # -- installs -------------------------------------------------------
    def install(
        self,
        entry: "MatviewEntry",
        contents: MatviewContents,
        expected: Optional[AggregateState] = None,
    ) -> None:
        """Store computed contents with their maintenance state: the
        rows first, the base versions last (until then readers see the
        view behind and unfold). CREATE and REFRESH install
        unconditionally and mark the view fresh. A catch-up passes the
        state it started from as *expected* and installs only while that
        is still the view's state — a concurrent catch-up, refresh or
        staleness mark wins, so nothing regresses or applies twice — and
        advances the base versions without a catalog version bump."""
        with self._lock:
            if expected is not None and (entry.agg_state is not expected or entry.stale):
                return
            rows = contents.rows
            entry.table._install_direct(rows, mvcc.new_row_ids(len(rows)))
            program = contents.program
            entry.base_tables = contents.base_tables
            entry.delta_safe = program is not None and program.aggregate is None
            entry.program = program
            entry.source_ids = contents.source_ids
            entry.agg_state = contents.agg_state
            if expected is None:
                entry.base_versions = contents.base_versions
                self.catalog.set_matview_fresh(entry.name)
            else:
                self.catalog.advance_matview(entry, contents.base_versions)
                self.catch_ups += 1

    # -- the commit hook ------------------------------------------------
    def on_commit(
        self, seq: int, changes: list[mvcc.CommitChange]
    ) -> tuple[list[mvcc.CommitChange], Optional[Callable[[], None]]]:
        catalog = self.catalog
        if not catalog._matviews:
            return [], None
        by_name = {change.table.name.lower(): change for change in changes}
        extra: list[mvcc.CommitChange] = []
        finalizers: list[Callable[[], None]] = []
        deltas: dict[str, _TableDelta] = {}
        for entry in list(catalog._matviews.values()):
            # Views maintained elsewhere (aggregates: at first read) or
            # not at all just fall behind; reads bring them up to date.
            if entry.stale or not entry.delta_safe:
                continue
            relevant = [t for t in entry.base_tables if t in by_name]
            if not relevant:
                continue
            try:
                reason = self._maintain(entry, relevant, by_name, deltas, extra, finalizers)
            except Exception as exc:
                reason = f"error: {type(exc).__name__}"
            if reason is not None:
                finalizers.append(partial(self._degrade, entry.name, reason))
        if not finalizers:
            return [], None

        def finalize() -> None:
            for fn in finalizers:
                fn()

        return extra, finalize

    def mark_stale(self, name: str) -> None:
        """Flag a view stale so neither the commit hook nor a catch-up
        touches it until its next refresh (refresh fencing, a changed
        view definition, a failed refresh). Not a degradation:
        ``stale_reasons`` counts only the commits maintenance could not
        follow."""
        try:
            self.catalog.mark_matview_stale(name)
        except Exception:  # pragma: no cover - dropped concurrently
            pass

    def _degrade(self, name: str, reason: str) -> None:
        self.mark_stale(name)
        self.stale_reasons[reason] = self.stale_reasons.get(reason, 0) + 1

    def _maintain(
        self,
        entry: "MatviewEntry",
        relevant: Sequence[str],
        by_name: dict[str, mvcc.CommitChange],
        deltas: dict[str, _TableDelta],
        extra: list[mvcc.CommitChange],
        finalizers: list[Callable[[], None]],
    ) -> Optional[str]:
        """Stage *entry*'s share of the commit; returns ``None``, or the
        reason the view has to go stale instead."""
        program = entry.program
        if program is None or entry.source_ids is None:
            # Recovered from disk: the program is rebuilt by a refresh.
            return "no maintenance state"
        catalog = self.catalog
        for name in entry.base_tables:
            change = by_name.get(name)
            state = change.previous if change else catalog.table(name).table._state
            if entry.base_versions.get(name) != state[1]:
                # A base commit landed that maintenance did not follow
                # (e.g. between a refresh's recompute and its install):
                # the stored rows no longer track the bases.
                return "version skew"
        heap = entry.table
        old_rows, _, old_ids = heap._state
        sids = entry.source_ids
        if len(sids) != len(old_rows):
            return "source ids out of step"
        for name in relevant:
            if name not in deltas:
                deltas[name] = self._delta(name, by_name[name])
        leaf_deltas = [deltas.get(name) for name in program.leaves]

        # Removal: any stored row deriving from a removed base row dies.
        dead: set[int] = set()
        for i, delta in enumerate(leaf_deltas):
            if delta is not None and delta.removed:
                gone = delta.removed
                dead.update(k for k, sid in enumerate(sids) if sid[i] in gone)
        removed_mv_ids = [old_ids[k] for k in sorted(dead)]

        # Addition: the telescoping expansion over the new states. A
        # changed table's full new state is built only if a term scans it.
        full_states = []
        for name, delta in zip(program.leaves, leaf_deltas):
            if delta is None:
                base = catalog.table(name).table
                full_states.append(self._ext_state(name, base, base._state))
            else:
                full_states.append(delta.full)
        additions = program.expand(leaf_deltas, full_states, _pick_added, {})
        additions.sort(key=_source_ids)
        add_ids = mvcc.new_row_ids(len(additions))

        # Survivors keep their source ids, hence their relative order:
        # two ascending runs, which the sort merges in one pass.
        merged = [
            stored
            for k, stored in enumerate(zip(sids, old_rows, old_ids))
            if k not in dead
        ]
        merged += [(sid, row, rid) for (row, sid), rid in zip(additions, add_ids)]
        merged.sort(key=itemgetter(0))
        final_rows = [stored[1] for stored in merged]
        final_ids = [stored[2] for stored in merged]
        final_sids = [stored[0] for stored in merged]

        new_base_versions = dict(entry.base_versions)
        new_base_versions.update((name, by_name[name].version) for name in relevant)

        added_id_set = set(add_ids)
        insert_at = [
            (index, rid, row)
            for index, (_, row, rid) in enumerate(merged)
            if rid in added_id_set
        ]
        # The WAL logs the positioned delta (not the full contents) plus
        # the base versions it advances to, so recovery replays both the
        # rows and the freshness bookkeeping.
        wal_delta = {
            "remove": removed_mv_ids,
            "insert_at": insert_at,
            "base_versions": new_base_versions,
        }
        extra.append(
            MatviewCommitChange(
                heap,
                heap._state,
                mvcc.next_stamp(),
                final_rows,
                final_ids,
                None,
                wal_delta=wal_delta,
            )
        )

        def finalize() -> None:
            entry.base_versions = new_base_versions
            entry.source_ids = final_sids
            self.incremental_commits += 1
            self.rows_added += len(additions)
            self.rows_removed += len(removed_mv_ids)

        finalizers.append(finalize)
        return None

    # -- read-time catch-up ---------------------------------------------
    def catch_up(self, entry: "MatviewEntry", in_snapshot) -> Optional[str]:
        """Bring a behind view up to the committed state from each base
        table's :meth:`~repro.storage.table.HeapTable.changes_since` its
        base version. *in_snapshot(fn)* runs ``fn`` in a fresh read
        snapshot. Returns ``None`` when the view needs nothing more
        (caught up here, or by a concurrent catch-up first), else the
        reason it has to be recomputed."""
        if entry.stale:
            return "marked stale"
        # Read before the snapshot begins: whoever installed this state
        # did so from a snapshot no newer than ours, so the delta log
        # leads forward from it.
        state, program = entry.agg_state, entry.program
        if program is None:
            return "not maintainable"  # or recovered: see record_recompute
        if program.aggregate is None or state is None:
            return "version skew"  # a commit-maintained view out of step
        if program.aggregate.blocker is not None:
            return program.aggregate.blocker
        try:
            outcome = in_snapshot(partial(self._catch_up_contents, entry, state))
        except Exception as exc:
            return f"error: {type(exc).__name__}"
        if isinstance(outcome, str):
            return outcome
        if outcome is not None:
            self.install(entry, outcome, expected=state)
        return None

    def _catch_up_contents(
        self, entry: "MatviewEntry", state: AggregateState
    ) -> "MatviewContents | str | None":
        """*entry*'s contents at the active snapshot, folded from *state*
        (``None``: already there; a str: why the rules cannot follow)."""
        program = entry.program
        catalog = self.catalog
        bases: dict = {}
        deltas: dict[str, _TableDelta] = {}
        for name, old in state.bases.items():
            heap = catalog.table(name).table
            rows, ids = heap._visible_pair()
            new = bases[name] = (rows, heap.version, ids)
            if new[1] == old[1]:
                continue
            change = heap.changes_since(old[1])
            if change is None:
                return "delta log gap"
            deltas[name] = _TableDelta(name, old, new, change)
        if not deltas:
            return None
        leaf_deltas = [deltas.get(name) for name in program.leaves]
        old_states, new_states = [], []
        for name, delta in zip(program.leaves, leaf_deltas):
            if delta is None:
                leaf = self._ext_state(name, catalog.table(name).table, bases[name])
                old_states.append(leaf)
                new_states.append(leaf)
            else:
                old_states.append(delta.old)
                new_states.append(delta.full)
        cache: dict = {}
        gone = program.expand(leaf_deltas, old_states, _pick_removed, cache)
        added = program.expand(leaf_deltas, new_states, _pick_added, cache)
        groups = program.aggregate.refold(state.groups, gone, added)
        if isinstance(groups, str):
            return groups
        return MatviewContents(
            [group.row for group in groups.values()],
            None,
            AggregateState(bases, groups),
            {name: base[1] for name, base in bases.items()},
            entry.base_tables,
            program,
        )

    def record_recompute(self, entry: "MatviewEntry", reason: str) -> None:
        """Count a read-time recompute under *reason*. A view without a
        program is either not maintainable or was recovered from disk
        (no maintenance state survives a restart); the recompute just
        compiled it, which tells the two apart."""
        if reason == "not maintainable" and entry.agg_state is not None:
            reason = "no aggregate state"
        with self._lock:
            self.recompute_reasons[reason] = self.recompute_reasons.get(reason, 0) + 1
