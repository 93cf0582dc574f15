"""Incrementally maintained materialized views.

A materialized view stores the result of its (provenance-rewritten)
query in an ordinary :class:`~repro.storage.table.HeapTable`, so MVCC
snapshots, the WAL and table statistics cover the rows for free. What
this module adds is the *maintenance*: one step, run at two timings.

* :func:`compile_program` turns the analyzer's rewritten algebra tree
  into a :class:`MatviewProgram` — a tiny direct interpreter over
  SPJ-shaped plans (scans, projections, selections, inner/cross joins,
  and the rewriter's ``BaseRelationNode`` markers) ending in a
  *terminal*: the derived rows themselves (SPJ views), or one
  aggregate — projections over a ``GROUP BY`` (or global) aggregate
  whose child is SPJ. Any other shape (DISTINCT, set operations, outer
  joins, sublinks, parameters, HAVING/ORDER BY/LIMIT above the
  aggregate, an aggregate anywhere else) is **not maintainable**: a read
  that finds it behind recomputes it through the connection's engine.

* **One step, two timings.** A maintainable view's
  :class:`MatviewState` pins the ``(rows, version, ids)`` base-table
  states its contents reflect (installed states are never mutated) and
  the terminal's *fold*: the derived rows in source-id order, or the
  groups. :meth:`MatviewProgram.advance` moves it across each base
  table's change — the telescoping expansion over the old states yields
  the removed derived rows, the one over the new states the added ones —
  and the terminal refolds both (an aggregate through
  :data:`~repro.executor.expr_eval.AGGREGATES`' ``accumulate`` and
  ``retract``, re-terminating only the touched groups): work in the
  change, never in a base table or the view. SPJ views advance in the
  committing transaction (:meth:`MatviewMaintainer.on_commit`, the
  change read from the commit's own record, :meth:`CommitChange.resolve()
  <repro.storage.mvcc.CommitChange.resolve>`), emitting one extra
  :class:`~repro.storage.mvcc.CommitChange` for the view's heap, so the
  WAL and crash recovery see an atomic unit. Aggregate views advance at
  their first read outside a transaction (:meth:`MatviewMaintainer.catch_up`,
  the change read from :meth:`~repro.storage.table.HeapTable.changes_since`),
  installing under a compare-and-swap on the state without a catalog
  version bump, so cached plans stay valid.

* **Behind, not stale.** A view whose ``base_versions`` lag its tables
  is *behind*: readers inside a transaction unfold it, the next read
  outside one catches it up. Aggregate views fall behind on every base
  commit; an SPJ view on a commit the hook cannot follow — one it was
  already behind for, one it has no state for (recovered from disk), or
  one whose step fails (counted per reason in
  :attr:`MatviewMaintainer.stale_reasons`). The hook never marks a view
  stale nor touches the catalog version. What a catch-up cannot follow
  is recomputed under a reason counted in
  :attr:`MatviewMaintainer.recompute_reasons`: ``"delta log gap"``
  (``changes_since`` cannot say), ``"float aggregate"`` (float results
  depend on input order), ``"distinct aggregate"``, ``"min/max
  retraction"`` (the current extreme left the group), ``"no maintenance
  state"`` (not persisted), ``"not maintainable"`` and ``"marked
  stale"`` (a view redefinition or a failed refresh).

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
bit-identical to the unfolded query on every engine. Across a step
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

from bisect import bisect_left, insort
from functools import cached_property, partial
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from ..algebra import expressions as ax
from ..algebra import nodes as an
from ..datatypes import SQLType, is_true, row_identity, value_identity
from ..errors import CatalogError
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

__all__ = [
    "MatviewState",
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


def _locate(items: list, keys, key=None) -> list:
    """The ascending positions of *keys* in *items* (ascending by *key*),
    found by bisection."""
    out = []
    for wanted in sorted(keys):
        pos = bisect_left(items, wanted, key=key)
        if pos == len(items) or (key(items[pos]) if key else items[pos]) != wanted:
            raise LookupError(f"{wanted} is not in the state it left")
        out.append(pos)
    return out


def _rows_by_id(state: tuple, wanted) -> list:
    """The derived leaf rows of the ids *wanted* in the ``(rows,
    version, ids)`` *state*."""
    rows, _, ids = state
    return [(rows[pos], (ids[pos],)) for pos in _locate(ids, wanted)]


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
# Terminals: what a view's derived rows fold into
# ---------------------------------------------------------------------------


def _drop(items: list, dead: list) -> list:
    """*items* without the ascending positions *dead*."""
    out, at = [], 0
    for pos in dead:
        out += items[at:pos]
        at = pos + 1
    return out + items[at:]


def _place(items: list, placed: list) -> list:
    """*items* with each ``(position, item)`` of *placed* (ascending
    final positions) put in."""
    out, at = [], 0
    for pos, item in placed:
        take = pos - len(out)
        out += items[at : at + take]
        at += take
        out.append(item)
    return out + items[at:]


class _Rows:
    """The terminal of an SPJ view: the fold is the view's derived rows
    themselves, sorted by source ids — the stored order."""

    at_commit = True
    blocker = None

    @staticmethod
    def fold(derived: list) -> list:
        return derived

    @staticmethod
    def rows(fold: list) -> list:
        return [values for values, _ in fold]

    @staticmethod
    def refold(fold: list, gone: list, added: list) -> list:
        """*fold* without the *gone* derived rows and with the sorted
        *added* ones merged in (two ascending runs: one merge pass)."""
        merged = _drop(fold, _locate(fold, map(_source_ids, gone), _source_ids)) + added
        merged.sort(key=_source_ids)
        return merged


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


class _Aggregate:
    """The terminal of an aggregate view: ``GROUP BY`` keys and
    ``(func, distinct, argument)`` aggregates over the SPJ child's
    derived rows, then the projections above the aggregate (innermost
    first). The fold maps each group's identity key to its
    :class:`_Group`, in output order. ``blocker`` is the reason a
    catch-up cannot follow it: the view still computes through the fold,
    it just recomputes whenever a read finds it behind."""

    __slots__ = ("group_fns", "specs", "projections", "blocker")
    at_commit = False

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

    @staticmethod
    def rows(groups: dict) -> list:
        return [group.row for group in groups.values()]

    def refold(self, groups: dict, gone: list, added: list) -> "dict | str":
        """*groups* (left as they are) with the derived rows *gone*
        retracted and the sorted *added* accumulated, or the reason the
        rules cannot follow. Touched groups are copied and re-terminated,
        emptied ones dropped; the groups re-sort only when one appeared
        or a first member changed."""
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
        for values, sids in added:
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


class MatviewState(NamedTuple):
    """A maintainable view's state: ``bases`` maps each base table to the
    ``(rows, version, ids)`` state its contents reflect (a step reads the
    removed rows' old contents there), ``fold`` is what the terminal
    keeps — the derived rows sorted by source ids (SPJ views) or the
    groups in output order (aggregate views). A value: a step builds a
    new one, sharing what it did not touch."""

    bases: dict
    fold: object


class MatviewContents(NamedTuple):
    """A view's computed contents as :meth:`MatviewMaintainer.install`
    stores them: the rows, the state and program (``None`` when the shape
    is not maintainable), the base versions and the base tables."""

    rows: list
    state: Optional[MatviewState]
    base_versions: dict
    base_tables: tuple
    program: Optional["MatviewProgram"]


class MatviewProgram:
    """A compiled delta-safe plan: the SPJ step tree, the left-to-right
    base table of every leaf, the terminal the view ends in, and the
    persistent committed-state cache (``step index -> (leaf tokens,
    result)``, one entry per join step)."""

    def __init__(self, root: _Step, leaves: list[str], terminal):
        self.root = root
        self.leaves = leaves
        self.terminal = terminal
        self._full_cache: dict = {}

    def contents(self, state: MatviewState, base_tables: tuple) -> MatviewContents:
        return MatviewContents(
            self.terminal.rows(state.fold),
            state,
            {name: base[1] for name, base in state.bases.items()},
            base_tables,
            self,
        )

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
        return self.contents(
            MatviewState(bases, self.terminal.fold(derived)), base_tables
        )

    # -- delta evaluation -----------------------------------------------
    def advance(self, state: MatviewState, deltas: dict, leaf) -> "tuple | str":
        """The one maintenance step: *state* moved across *deltas* (base
        table -> :class:`_TableDelta`; ``leaf(name, base)`` is the leaf of
        a table without one, which did not change). Returns ``(new state,
        removed derived rows, added ones sorted by source ids)``, or the
        reason the terminal cannot follow."""
        leaf_deltas = [deltas.get(name) for name in self.leaves]
        old_states, new_states = [], []
        for name, delta in zip(self.leaves, leaf_deltas):
            if delta is None:
                unchanged = leaf(name, state.bases[name])
                old_states.append(unchanged)
                new_states.append(unchanged)
            else:
                old_states.append(delta.old)
                new_states.append(delta.full)
        cache: dict = {}
        gone = self.expand(leaf_deltas, old_states, _pick_removed, cache)
        added = self.expand(leaf_deltas, new_states, _pick_added, cache)
        added.sort(key=_source_ids)
        fold = self.terminal.refold(state.fold, gone, added)
        if isinstance(fold, str):
            return fold
        bases = {
            name: deltas[name].new if name in deltas else base
            for name, base in state.bases.items()
        }
        return MatviewState(bases, fold), gone, added

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
            terminal = build_aggregate(top, projections)
        else:
            root_step, terminal = build(root), _Rows
    except _Unsafe:
        return None
    return MatviewProgram(root_step, leaves, terminal)


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
    halves of updates), the ``new`` ``(rows, version, ids)`` state, and
    the leaf states the telescoping expansion reads — ``delta`` (the
    added rows), ``gone`` (the removed rows' old contents),
    ``full``/``old`` (the complete new/old state) and :attr:`unchanged`
    (``U = N \\ A = O \\ R``)."""

    __slots__ = ("added", "removed", "new", "delta", "gone", "full", "old", "_sub")

    def __init__(self, name: str, previous: tuple, new: tuple, change: tuple):
        deleted, updated, inserted = change
        # An update is the removal of the old content plus the addition
        # of the new one (under the same row id).
        added = self.added = [(row, rid) for rid, row in updated + inserted]
        removed = self.removed = set(deleted).union(rid for rid, _ in updated)
        self.new = new
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


def _count(ledger: dict, reason: str) -> None:
    ledger[reason] = ledger.get(reason, 0) + 1


class MatviewMaintainer:
    """Keeps materialized views up to date with committed base-table
    changes, one :meth:`MatviewProgram.advance` at a time. Installed on
    the :class:`~repro.storage.mvcc.TransactionManager` by the database:
    :meth:`on_commit` is invoked under the manager lock with every staged
    :class:`~repro.storage.mvcc.CommitChange` of a commit, before the
    write-ahead hook runs, and advances SPJ views in the same commit;
    :meth:`catch_up` advances a view a read finds behind. *lock* is that
    manager lock: installs take it too, so none lands between a commit's
    hook, its log record and its install."""

    def __init__(self, catalog: "Catalog", lock):
        self.catalog = catalog
        # Telemetry (surfaced through Database.matview_stats / STATS).
        self.incremental_commits = 0
        self.rows_added = 0
        self.rows_removed = 0
        #: Commits whose step failed for a view, counted per reason.
        self.stale_reasons: dict[str, int] = {}
        #: Read-time refreshes computed incrementally ...
        self.catch_ups = 0
        #: ... and recomputed instead, counted per reason.
        self.recompute_reasons: dict[str, int] = {}
        # Per table, the leaf of the latest state a step left alone.
        self._ext: dict[str, _LeafState] = {}
        self._lock = lock

    def _leaf(self, name: str, state: tuple) -> _LeafState:
        """The leaf of a table's ``(rows, version, ids)`` *state*, memoized
        per version stamp (stamps are never reused)."""
        rows, version, ids = state
        known = self._ext.get(name)
        if known is None or known.token[2] != version:
            known = self._ext[name] = _LeafState(
                ("full", name, version), partial(_leaf_rows, rows, ids)
            )
        return known

    # -- installs -------------------------------------------------------
    def install(
        self,
        entry: "MatviewEntry",
        contents: MatviewContents,
        expected: Optional[MatviewState] = None,
    ) -> None:
        """Store computed contents with their maintenance state: the
        rows first, the base versions last (until then readers see the
        view behind and unfold). CREATE and REFRESH install
        unconditionally and mark the view fresh. A catch-up passes the
        state it started from as *expected* and installs only while that
        is still the view's state (so nothing regresses or applies twice),
        advancing the base versions without a catalog version bump."""
        with self._lock:
            if expected is not None and (entry.state is not expected or entry.stale):
                return
            rows = contents.rows
            entry.table._install_direct(rows, mvcc.new_row_ids(len(rows)))
            program = contents.program
            entry.base_tables = contents.base_tables
            entry.delta_safe = program is not None and program.terminal.at_commit
            entry.program = program
            entry.state = contents.state
            if expected is None:
                entry.base_versions = contents.base_versions
                self.catalog.set_matview_fresh(entry.name)
            else:
                self.catalog.advance_matview(entry, contents.base_versions)
                self.catch_ups += 1

    # -- the commit hook ------------------------------------------------
    def on_commit(self, seq: int, changes: list) -> "tuple[list, Optional[Callable]]":
        catalog = self.catalog
        if not catalog._matviews:
            return [], None
        by_name = {change.table.name.lower(): change for change in changes}
        extra: list[mvcc.CommitChange] = []
        finalizers: list[Callable[[], None]] = []
        deltas: dict[str, _TableDelta] = {}
        for entry in list(catalog._matviews.values()):
            # Aggregate views advance at their first read; views without
            # a state (not maintainable, or recovered) recompute there.
            state = entry.state
            if entry.stale or not entry.delta_safe or state is None:
                continue
            if by_name.keys().isdisjoint(state.bases):
                continue
            try:
                outcome = self._follow(entry, state, by_name, deltas, extra)
            except Exception as exc:
                outcome = f"error: {type(exc).__name__}"
            if isinstance(outcome, str):
                outcome = partial(_count, self.stale_reasons, outcome)
            if outcome is not None:
                finalizers.append(outcome)
        if not finalizers:
            return [], None

        def finalize() -> None:
            for fn in finalizers:
                fn()

        return extra, finalize

    def _follow(
        self, entry: "MatviewEntry", state: MatviewState, by_name: dict, deltas: dict, extra: list
    ) -> "Callable[[], None] | str | None":
        """Stage *entry*'s share of the commit in *extra* and return the
        finalizer that records it — or ``None`` when the view was already
        behind the states the commit starts from, or the reason its step
        cannot follow. Either way the view is left behind."""
        for name, base in state.bases.items():
            change = by_name.get(name)
            if change is not None and name not in deltas:
                after = (change.rows, change.version, change.ids)
                deltas[name] = _TableDelta(name, change.previous, after, change.resolve())
            current = change.previous if change else self.catalog.table(name).table._state
            if current[1] != base[1]:
                return None
        step = entry.program.advance(state, deltas, self._leaf)
        if isinstance(step, str):
            return step
        new, gone, added = step
        heap = entry.table
        old_ids = heap._state[2]
        dead = _locate(state.fold, map(_source_ids, gone), _source_ids)
        placed = [
            (bisect_left(new.fold, sids, key=_source_ids), rid)
            for (_, sids), rid in zip(added, mvcc.new_row_ids(len(added)))
        ]
        base_versions = {name: base[1] for name, base in new.bases.items()}
        # The WAL logs the positioned delta (not the full contents) plus
        # the base versions it advances to, so recovery replays both the
        # rows and the freshness bookkeeping.
        wal_delta = {
            "remove": [old_ids[k] for k in dead],
            "insert_at": [(pos, rid, row) for (pos, rid), (row, _) in zip(placed, added)],
            "base_versions": base_versions,
        }
        ids = _place(_drop(old_ids, dead), placed)
        rows = _Rows.rows(new.fold)
        extra.append(
            MatviewCommitChange(
                heap, heap._state, mvcc.next_stamp(), rows, ids, None, wal_delta=wal_delta
            )
        )

        def finalize() -> None:
            entry.state, entry.base_versions = new, base_versions
            self.incremental_commits += 1
            self.rows_added += len(added)
            self.rows_removed += len(dead)

        return finalize

    def mark_stale(self, name: str) -> None:
        """Flag a view stale so neither the commit hook nor a catch-up
        touches it until its next refresh (refresh fencing, a changed
        view definition, a failed refresh). Never done by a commit:
        ``stale_reasons`` counts the steps that failed, which leave the
        view behind."""
        try:
            self.catalog.mark_matview_stale(name)
        except CatalogError:  # dropped concurrently
            pass

    # -- read-time catch-up ---------------------------------------------
    def catch_up(self, entry: "MatviewEntry", in_snapshot) -> Optional[str]:
        """Bring a behind view up to the committed state from each base
        table's :meth:`~repro.storage.table.HeapTable.changes_since` its
        base version. *in_snapshot(fn)* runs ``fn`` in a fresh read
        snapshot. Returns ``None`` when the view needs nothing more
        (caught up here, or by a concurrent step first), else the
        reason it has to be recomputed."""
        if entry.stale:
            return "marked stale"
        # Read before the snapshot begins: whoever installed this state
        # did so from a snapshot no newer than ours, so the delta log
        # leads forward from it.
        state, program = entry.state, entry.program
        if state is None:
            return "not maintainable"  # or recovered: see record_recompute
        if program.terminal.blocker is not None:
            return program.terminal.blocker
        try:
            outcome = in_snapshot(
                partial(self._catch_up_contents, program, state, entry.base_tables)
            )
        except Exception as exc:
            return f"error: {type(exc).__name__}"
        if isinstance(outcome, str):
            return outcome
        if outcome is not None:
            self.install(entry, outcome, expected=state)
        return None

    def _catch_up_contents(self, program, state, base_tables) -> "MatviewContents | str | None":
        """The contents at the active snapshot, advanced from *state*
        (``None``: already there; a str: why the step cannot follow)."""
        deltas: dict[str, _TableDelta] = {}
        for name, old in state.bases.items():
            heap = self.catalog.table(name).table
            if heap.version == old[1]:
                continue
            change = heap.changes_since(old[1])
            if change is None:
                return "delta log gap"
            rows, ids = heap._visible_pair()
            deltas[name] = _TableDelta(name, old, (rows, heap.version, ids), change)
        if not deltas:
            return None
        step = program.advance(state, deltas, self._leaf)
        if isinstance(step, str):
            return step
        return program.contents(step[0], base_tables)

    def record_recompute(self, entry: "MatviewEntry", reason: str) -> None:
        """Count a read-time recompute under *reason*. A view without a
        state is either not maintainable or was recovered from disk (no
        maintenance state survives a restart); the recompute just
        compiled it, which tells the two apart."""
        if reason == "not maintainable" and entry.state is not None:
            reason = "no maintenance state"
        with self._lock:
            _count(self.recompute_reasons, reason)
