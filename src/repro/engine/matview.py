"""Incrementally maintained materialized views.

A materialized view stores the result of its (provenance-rewritten)
query in an ordinary :class:`~repro.storage.table.HeapTable`, so MVCC
snapshots, the WAL and table statistics cover the rows for free. What
this module adds is the *maintenance* machinery:

* :func:`compile_program` turns the analyzer's rewritten algebra tree
  into a :class:`MatviewProgram` — a tiny direct interpreter over
  SPJ-shaped plans (scans, projections, selections, inner/cross joins,
  and the rewriter's ``BaseRelationNode`` markers). A shape outside
  that fragment (aggregation, set operations, DISTINCT, ORDER BY/LIMIT,
  outer joins, sublinks, parameters) is **not delta-safe**: the view
  falls back to stale-and-recompute maintenance.

* :class:`MatviewMaintainer` hooks transaction commit. For every
  delta-safe view whose base tables a commit touches, it reads each
  base table's change from the commit's own record
  (:meth:`CommitChange.resolve() <repro.storage.mvcc.CommitChange.resolve>`
  — the write set the transaction holds, never a comparison of table
  states) and propagates it through the program — removed combinations
  are found by source-row-id intersection, added combinations by the
  telescoping delta expansion — and emits one extra
  :class:`~repro.storage.mvcc.CommitChange` that updates the view's
  heap *in the same commit* (so the WAL and crash recovery see an
  atomic unit). Anything it cannot handle incrementally (a shape that is
  not delta-safe, version skew, interpreter errors) degrades to marking
  the view stale, counted per reason in
  :attr:`MatviewMaintainer.stale_reasons`; stale views are refreshed on
  the next read outside a transaction.

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

The telescoping expansion counts each *added* combination exactly once,
by the first leaf position holding a new row: with per-leaf new state
``N``, inserted-or-updated rows ``A`` and unchanged rows ``N\\A``,

    added = Σ_i  (N\\A)_1 × … × (N\\A)_{i-1} × A_i × N_{i+1} × … × N_k
"""

from __future__ import annotations

from functools import cached_property, partial
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from ..algebra import expressions as ax
from ..algebra import nodes as an
from ..datatypes import is_true, value_identity
from ..executor.expr_eval import ExprCompiler
from ..planner.planner import _equi_pair
from ..storage import mvcc

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..catalog.catalog import Catalog, MatviewEntry
    from ..storage.table import HeapTable, Row

__all__ = [
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
# Compilation
# ---------------------------------------------------------------------------


def _check_exprs(exprs) -> None:
    for expr in exprs:
        for sub in ax.walk_expr(expr):
            if isinstance(sub, _UNSAFE_EXPRS):
                raise _Unsafe


class MatviewProgram:
    """A compiled delta-safe plan: the step tree, the left-to-right base
    table of every leaf, and the persistent committed-state cache
    (``step index -> (leaf tokens, result)``, one entry per join step)."""

    def __init__(self, root: _Step, leaves: list[str], schema):
        self.root = root
        self.leaves = leaves
        self.schema = schema
        self._full_cache: dict = {}

    # -- full evaluation (CREATE / REFRESH) ----------------------------
    def compute_full(
        self, catalog: "Catalog"
    ) -> tuple[list["Row"], list[tuple], dict[str, int]]:
        """Evaluate over the currently visible state of every base table
        (through the active transaction, if any). Returns the stored
        rows in canonical order, the parallel source-id tuples, and the
        base versions the content was computed from."""
        base_versions: dict[str, int] = {}
        built: dict[str, _LeafState] = {}
        for name in self.leaves:
            if name not in built:
                heap = catalog.table(name).table
                version = base_versions[name] = heap.version
                built[name] = _LeafState(
                    ("full", name, version),
                    partial(_leaf_rows, *heap._visible_pair()),
                )
        states = [built[name] for name in self.leaves]
        out = sorted(self.root.rows(_Ctx(states, {}, {})), key=_source_ids)
        return [d[0] for d in out], [d[1] for d in out], base_versions


def compile_program(root: an.Node, catalog: "Catalog") -> Optional[MatviewProgram]:
    """Compile the rewritten tree into a delta interpreter, or ``None``
    when the shape is not delta-safe."""
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

    try:
        root_step = build(root)
    except _Unsafe:
        return None
    return MatviewProgram(root_step, leaves, root.schema)


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
# Commit-time maintenance
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
    """One commit's effect on one base table, shared by every view that
    reads it: the added rows (inserts plus updated-to-new-content), the
    removed row ids (deletes plus the old halves of updates), and the
    three leaf states the telescoping expansion reads — ``delta`` (the
    added rows), ``full`` (the complete new state) and ``sub`` (the new
    state minus the added rows, ``N \\ A``)."""

    __slots__ = ("added", "removed", "delta", "full", "sub")

    def __init__(self, name, seq, change: mvcc.CommitChange, added, removed):
        self.added = added
        self.removed = removed
        self.delta = _LeafState(
            ("delta", name, seq),
            lambda: [(row, (rid,)) for row, rid in added],
        )
        self.full = _LeafState(
            ("full", name, change.version),
            partial(_leaf_rows, change.rows, change.ids),
        )

        def sub() -> list:
            added_ids = {rid for _, rid in added}
            return [d for d in self.full.rows if d[1][0] not in added_ids]

        self.sub = _LeafState(("sub", name, seq), sub)


class MatviewMaintainer:
    """Propagates committed base-table write sets into materialized
    views. Installed on the :class:`~repro.storage.mvcc.TransactionManager`
    by the database; invoked under the manager lock with every staged
    :class:`~repro.storage.mvcc.CommitChange` of a commit, before the
    write-ahead hook runs. Returns extra changes to ride in the same
    commit plus a finalizer the commit applies after installation."""

    def __init__(self, catalog: "Catalog"):
        self.catalog = catalog
        # Telemetry (surfaced through Database.matview_stats / STATS).
        self.incremental_commits = 0
        self.rows_added = 0
        self.rows_removed = 0
        #: Commits maintenance could not follow, counted per reason.
        self.stale_reasons: dict[str, int] = {}
        # Per-table committed leaf state: name -> (heap, state).
        self._ext: dict[str, tuple] = {}

    def _ext_state(self, name: str, heap: "HeapTable") -> _LeafState:
        """The committed state of a table the commit leaves alone,
        memoized per version stamp."""
        rows, version, ids = heap._state
        known = self._ext.get(name)
        if known is None or known[0] is not heap or known[1].token[2] != version:
            state = _LeafState(("full", name, version), partial(_leaf_rows, rows, ids))
            known = self._ext[name] = (heap, state)
        return known[1]

    def _delta(self, name: str, change: mvcc.CommitChange, seq: int) -> _TableDelta:
        deleted, updated, inserted = change.resolve()
        # An update is the removal of the old content plus the addition
        # of the new one (under the same row id).
        added = [(row, rid) for rid, row in updated + inserted]
        removed = set(deleted).union(rid for rid, _ in updated)
        return _TableDelta(name, seq, change, added, removed)

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
            if entry.stale:
                continue
            relevant = [t for t in entry.base_tables if t in by_name]
            if not relevant:
                continue
            try:
                reason = self._maintain(
                    entry, relevant, by_name, deltas, seq, extra, finalizers
                )
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
        """Flag a view stale so commit-time maintenance skips it until
        its next refresh (refresh fencing, a changed view definition, a
        failed refresh). Not a degradation: ``stale_reasons`` counts
        only the commits maintenance could not follow."""
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
        seq: int,
        extra: list[mvcc.CommitChange],
        finalizers: list[Callable[[], None]],
    ) -> Optional[str]:
        """Stage *entry*'s share of the commit; returns ``None``, or the
        reason the view has to go stale instead."""
        program = entry.program
        if not entry.delta_safe or program is None or entry.source_ids is None:
            return "not delta-safe"
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
                deltas[name] = self._delta(name, by_name[name], seq)
        leaf_deltas = [deltas.get(name) for name in program.leaves]

        # Removal: any stored row deriving from a removed base row dies.
        dead: set[int] = set()
        for i, delta in enumerate(leaf_deltas):
            if delta is not None and delta.removed:
                gone = delta.removed
                dead.update(k for k, sid in enumerate(sids) if sid[i] in gone)
        removed_mv_ids = [old_ids[k] for k in sorted(dead)]

        # Addition: the telescoping expansion, one term per leaf whose
        # table gained new rows this commit. A changed table's full new
        # state is built only if some term scans it.
        full_states = [
            delta.full
            if delta is not None
            else self._ext_state(name, catalog.table(name).table)
            for name, delta in zip(program.leaves, leaf_deltas)
        ]
        additions: list = []
        cache: dict = {}
        for i, delta in enumerate(leaf_deltas):
            if delta is None or not delta.added:
                continue
            states = list(full_states)
            states[i] = delta.delta
            for j in range(i):
                dj = leaf_deltas[j]
                if dj is not None and dj.added:
                    states[j] = dj.sub
            ctx = _Ctx(states, cache, program._full_cache)
            additions.extend(program.root.rows(ctx))
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
