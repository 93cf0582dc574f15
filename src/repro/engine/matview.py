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
  atomic unit). Anything it cannot handle incrementally (coarse writes,
  version skew from non-transactional installs, interpreter errors)
  degrades to marking the view stale; stale views are refreshed on the
  next read outside a transaction.

Ordering: every engine emits inner-join output probe-major, which makes
query output order lexicographic in the left-to-right sequence of base
leaf positions. The interpreter therefore tags each derived row with
the tuple of its source-row *positions* and sorts the final content by
that tuple — no order-preserving join machinery is needed, and the
stored rows are bit-identical to the unfolded query on every engine.

The telescoping expansion counts each *added* combination exactly once,
by the first leaf position holding a new row: with per-leaf new state
``N``, inserted-or-updated rows ``A`` and unchanged rows ``N\\A``,

    added = Σ_i  (N\\A)_1 × … × (N\\A)_{i-1} × A_i × N_{i+1} × … × N_k
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Optional, Sequence

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

#: A derived row in flight: (output values, source row ids per leaf,
#: source row positions per leaf). The id tuple keys removal, the
#: position tuple keys canonical order.
Triple = "tuple[tuple, tuple[int, ...], tuple[int, ...]]"

_pos_key = itemgetter(2)

#: Expression nodes that make a shape non-delta-safe: their value can
#: depend on state outside the leaf rows (sublinks, parameters, outer
#: references) or they are only valid under operators we reject anyway.
_UNSAFE_EXPRS = (ax.SubqueryExpr, ax.Param, ax.OuterColumn, ax.AggExpr)

#: Bound on cached all-committed-state subtree results per program.
_FULL_CACHE_LIMIT = 128


class _Unsafe(Exception):
    """Internal signal: the plan shape is not delta-safe."""


class _LeafState:
    """What one leaf produces for one evaluation: a cache token naming
    the state, and the triples ``(row, (rid,), (pos,))``."""

    __slots__ = ("token", "triples")

    def __init__(self, token: tuple, triples: list):
        self.token = token
        self.triples = triples


class _Ctx:
    """One evaluation's leaf states plus the two result caches: the
    per-round cache (any state mix) and the program's persistent cache
    (only subtree results over fully-committed leaf states, whose
    tokens carry version stamps and so can never alias)."""

    __slots__ = ("states", "cache", "full_cache")

    def __init__(self, states, cache, full_cache):
        self.states = states
        self.cache = cache
        self.full_cache = full_cache


# ---------------------------------------------------------------------------
# Interpreter steps
# ---------------------------------------------------------------------------


class _Step:
    __slots__ = ("index", "leaf_start", "leaf_end")
    cacheable = False

    def rows(self, ctx: _Ctx) -> list:
        if not self.cacheable:
            return self._compute(ctx)
        tokens = tuple(
            s.token for s in ctx.states[self.leaf_start : self.leaf_end]
        )
        key = (self.index, tokens)
        hit = ctx.cache.get(key)
        if hit is not None:
            return hit
        hit = ctx.full_cache.get(key)
        if hit is not None:
            return hit
        result = self._compute(ctx)
        ctx.cache[key] = result
        if all(token[0] == "full" for token in tokens):
            if len(ctx.full_cache) >= _FULL_CACHE_LIMIT:
                ctx.full_cache.clear()
            ctx.full_cache[key] = result
        return result

    def _compute(self, ctx: _Ctx) -> list:  # pragma: no cover - abstract
        raise NotImplementedError


class _ScanStep(_Step):
    __slots__ = ("leaf",)

    def __init__(self, leaf: int):
        self.leaf = leaf

    def _compute(self, ctx: _Ctx) -> list:
        return ctx.states[self.leaf].triples


class _SingleRowStep(_Step):
    __slots__ = ()

    def _compute(self, ctx: _Ctx) -> list:
        return [((), (), ())]


class _ProjectStep(_Step):
    __slots__ = ("child", "fns")

    def __init__(self, child: _Step, fns: list):
        self.child = child
        self.fns = fns

    def _compute(self, ctx: _Ctx) -> list:
        fns = self.fns
        return [
            (tuple(fn(values, None) for fn in fns), sids, pos)
            for values, sids, pos in self.child.rows(ctx)
        ]


class _SelectStep(_Step):
    __slots__ = ("child", "predicate")

    def __init__(self, child: _Step, predicate):
        self.child = child
        self.predicate = predicate

    def _compute(self, ctx: _Ctx) -> list:
        predicate = self.predicate
        return [
            triple
            for triple in self.child.rows(ctx)
            if is_true(predicate(triple[0], None))
        ]


class _JoinStep(_Step):
    """Inner (or cross) hash/nested-loop join. Output order is arbitrary
    — the program sorts final results by position tuple, so the build
    side is chosen purely by size."""

    __slots__ = ("left", "right", "left_keys", "right_keys", "null_safe", "residual")
    cacheable = True

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

    def _compute(self, ctx: _Ctx) -> list:
        left_rows = self.left.rows(ctx)
        right_rows = self.right.rows(ctx)
        out: list = []
        if not left_rows or not right_rows:
            return out
        residual = self.residual
        if not self.left_keys:
            # Cross join (or residual-only condition): nested loops.
            for lv, ls, lp in left_rows:
                for rv, rs, rp in right_rows:
                    if residual is None or is_true(residual(lv + rv, None)):
                        out.append((lv + rv, ls + rs, lp + rp))
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
        for triple in build:
            key = self._key(triple[0], build_keys, null_safe)
            if key is None:
                continue
            bucket = table.get(key)
            if bucket is None:
                table[key] = [triple]
            else:
                bucket.append(triple)
        for triple in probe:
            key = self._key(triple[0], probe_keys, null_safe)
            if key is None:
                continue
            bucket = table.get(key)
            if bucket is None:
                continue
            values, sids, pos = triple
            for other in bucket:
                if build_is_left:
                    joined = (
                        other[0] + values,
                        other[1] + sids,
                        other[2] + pos,
                    )
                else:
                    joined = (values + other[0], sids + other[1], pos + other[2])
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
    table of every leaf, and the persistent committed-state cache."""

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
        states: list[_LeafState] = []
        base_versions: dict[str, int] = {}
        built: dict[str, _LeafState] = {}
        for name in self.leaves:
            state = built.get(name)
            if state is None:
                heap = catalog.table(name).table
                rows, ids = heap._visible_pair()
                version = heap.version
                base_versions[name] = version
                state = _LeafState(
                    ("full", name, version),
                    [
                        (row, (rid,), (pos,))
                        for pos, (row, rid) in enumerate(zip(rows, ids))
                    ],
                )
                built[name] = state
            states.append(state)
        ctx = _Ctx(states, {}, {})
        out = list(self.root.rows(ctx))
        out.sort(key=_pos_key)
        return [t[0] for t in out], [t[1] for t in out], base_versions


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
    reads it: the added rows (inserts plus updated-to-new-content, with
    their new positions), the removed row ids (deletes plus the old
    halves of updates), and the complete new state in leaf-triple form."""

    __slots__ = (
        "added",
        "added_ids",
        "removed",
        "wrapped",
        "pos_by_id",
        "version",
        "_sub",
        "_delta_state",
        "name",
        "seq",
    )

    def __init__(self, name, seq, added, removed, wrapped, pos_by_id, version):
        self.name = name
        self.seq = seq
        self.added = added
        self.added_ids = {rid for _, rid, _ in added}
        self.removed = removed
        self.wrapped = wrapped
        self.pos_by_id = pos_by_id
        self.version = version
        self._sub = None
        self._delta_state = None

    def delta_state(self) -> _LeafState:
        if self._delta_state is None:
            self._delta_state = _LeafState(
                ("delta", self.name, self.seq),
                [(row, (rid,), (pos,)) for row, rid, pos in self.added],
            )
        return self._delta_state

    def sub_state(self) -> _LeafState:
        """The new state minus the added rows (``N \\ A``)."""
        if self._sub is None:
            added = self.added_ids
            self._sub = _LeafState(
                ("sub", self.name, self.seq),
                [t for t in self.wrapped if t[1][0] not in added],
            )
        return self._sub


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
        self.stale_marks = 0
        self.rows_added = 0
        self.rows_removed = 0
        # Per-table extended committed state:
        # name -> (heap, version, wrapped triples, pos-by-id).
        self._ext: dict[str, tuple] = {}

    # -- extended-state cache ------------------------------------------
    def _ext_state(self, name: str, heap: "HeapTable") -> tuple:
        rows, version, ids = heap._state
        known = self._ext.get(name)
        if known is not None and known[0] is heap and known[1] == version:
            return known
        wrapped = [
            (row, (rid,), (pos,)) for pos, (row, rid) in enumerate(zip(rows, ids))
        ]
        pos_by_id = {rid: pos for pos, rid in enumerate(ids)}
        state = (heap, version, wrapped, pos_by_id)
        self._ext[name] = state
        return state

    def _delta(self, name: str, change: mvcc.CommitChange, seq: int) -> _TableDelta:
        deleted, updated, inserted = change.resolve()
        if change.rows is None:
            # Append-only: extend the previous state's cached triples in
            # place (nothing has installed yet, so ``_ext_state`` is the
            # previous state). They stop describing that state, so they
            # leave the cache; ``finalize`` files them under the new
            # stamp once the commit has installed.
            _, _, wrapped, pos_by_id = self._ext_state(name, change.table)
            del self._ext[name]
            for pos, (rid, row) in enumerate(inserted, len(wrapped)):
                wrapped.append((row, (rid,), (pos,)))
                pos_by_id[rid] = pos
        else:
            wrapped = [
                (row, (rid,), (pos,))
                for pos, (row, rid) in enumerate(zip(change.rows, change.ids))
            ]
            pos_by_id = {rid: pos for pos, rid in enumerate(change.ids)}
        # An update is the removal of the old content plus the addition
        # of the new one (under the same row id).
        added = [(row, rid, pos_by_id[rid]) for rid, row in updated + inserted]
        removed = set(deleted)
        removed.update(rid for rid, _ in updated)
        return _TableDelta(name, seq, added, removed, wrapped, pos_by_id, change.version)

    # -- the commit hook ------------------------------------------------
    def on_commit(
        self, seq: int, changes: list[mvcc.CommitChange]
    ) -> tuple[list[mvcc.CommitChange], Optional[Callable[[], None]]]:
        catalog = self.catalog
        if not catalog._matviews:
            return [], None
        by_name: dict[str, mvcc.CommitChange] = {}
        for change in changes:
            by_name[change.table.name.lower()] = change
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
                ok = self._maintain(
                    entry, relevant, by_name, deltas, seq, extra, finalizers
                )
            except Exception:
                ok = False
            if not ok:
                finalizers.append(lambda n=entry.name: self._degrade(n))
        if not extra and not finalizers:
            return [], None

        pending_ext = {
            name: (
                by_name[name].table,
                deltas[name].version,
                deltas[name].wrapped,
                deltas[name].pos_by_id,
            )
            for name in deltas
        }

        def finalize() -> None:
            self._ext.update(pending_ext)
            for fn in finalizers:
                fn()

        return extra, finalize

    def mark_stale(self, name: str) -> None:
        """Flag a view stale so commit-time maintenance skips it until
        its next refresh (refresh fencing, a changed view definition, a
        failed refresh). Not a degradation: ``stale_marks`` counts only
        the commits maintenance could not follow."""
        try:
            self.catalog.mark_matview_stale(name)
        except Exception:  # pragma: no cover - dropped concurrently
            pass

    def _degrade(self, name: str) -> None:
        self.mark_stale(name)
        self.stale_marks += 1

    def _maintain(
        self,
        entry: "MatviewEntry",
        relevant: Sequence[str],
        by_name: dict[str, mvcc.CommitChange],
        deltas: dict[str, _TableDelta],
        seq: int,
        extra: list[mvcc.CommitChange],
        finalizers: list[Callable[[], None]],
    ) -> bool:
        program = entry.program
        if not entry.delta_safe or program is None or entry.source_ids is None:
            return False
        catalog = self.catalog
        for name in relevant:
            change = by_name[name]
            if change.written is None:
                return False
            if entry.base_versions.get(name) != change.previous[1]:
                # Something bypassed maintenance (e.g. a direct install):
                # the stored rows no longer track the bases.
                return False
        for name in entry.base_tables:
            if name not in by_name:
                if entry.base_versions.get(name) != catalog.table(name).table._state[1]:
                    return False
        for name in relevant:
            if name not in deltas:
                deltas[name] = self._delta(name, by_name[name], seq)

        leaves = program.leaves
        heap = entry.table
        old_rows, _, old_ids = heap._state
        sids = entry.source_ids
        if len(sids) != len(old_rows):
            return False

        # Position maps under the new base states (changed tables from
        # their staged deltas, unchanged from the committed state).
        pos_maps = []
        leaf_deltas = []
        for name in leaves:
            delta = deltas.get(name)
            leaf_deltas.append(delta)
            if delta is not None:
                pos_maps.append(delta.pos_by_id)
            else:
                pos_maps.append(self._ext_state(name, catalog.table(name).table)[3])

        # Removal: any stored row deriving from a removed base row dies.
        survivors: list = []
        removed_mv_ids: list[int] = []
        width = len(leaves)
        for row, rid, sid in zip(old_rows, old_ids, sids):
            dead = False
            for i in range(width):
                delta = leaf_deltas[i]
                if delta is not None and sid[i] in delta.removed:
                    dead = True
                    break
            if dead:
                removed_mv_ids.append(rid)
                continue
            new_pos = tuple(pos_maps[i][sid[i]] for i in range(width))
            survivors.append((new_pos, row, rid, sid))

        # Addition: the telescoping expansion, one term per leaf whose
        # table gained new rows this commit.
        full_states = []
        for i, name in enumerate(leaves):
            delta = leaf_deltas[i]
            if delta is not None:
                full_states.append(
                    _LeafState(("full", name, delta.version), delta.wrapped)
                )
            else:
                ext = self._ext_state(name, catalog.table(name).table)
                full_states.append(_LeafState(("full", name, ext[1]), ext[2]))
        additions: list = []
        ctx = _Ctx(None, {}, program._full_cache)
        for i in range(width):
            delta = leaf_deltas[i]
            if delta is None or not delta.added:
                continue
            states = list(full_states)
            states[i] = delta.delta_state()
            for j in range(i):
                dj = leaf_deltas[j]
                if dj is not None and dj.added:
                    states[j] = dj.sub_state()
            ctx.states = states
            additions.extend(program.root.rows(ctx))

        additions.sort(key=_pos_key)
        add_ids = mvcc.new_row_ids(len(additions))
        combined = survivors + [
            (t[2], t[0], add_ids[k], t[1]) for k, t in enumerate(additions)
        ]
        combined.sort(key=itemgetter(0))
        final_rows = [c[1] for c in combined]
        final_ids = [c[2] for c in combined]
        final_sids = [c[3] for c in combined]

        new_base_versions = dict(entry.base_versions)
        for name in relevant:
            new_base_versions[name] = deltas[name].version

        added_id_set = set(add_ids)
        insert_at = [
            (index, c[2], c[1])
            for index, c in enumerate(combined)
            if c[2] in added_id_set
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

        def finalize(
            entry=entry,
            versions=new_base_versions,
            sids=final_sids,
            added=len(additions),
            removed=len(removed_mv_ids),
        ) -> None:
            entry.base_versions = versions
            entry.source_ids = sids
            self.incremental_commits += 1
            self.rows_added += added
            self.rows_removed += removed

        finalizers.append(finalize)
        return True
