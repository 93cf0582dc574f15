"""Backend-agnostic pushdown runtime.

The pushdown architecture (the paper's: rewrite the query tree, hand one
SQL statement to a conventional DBMS) splits per backend into three
pieces with distinct responsibilities:

* a :class:`~repro.backend.dialects.base.Dialect` — pure SQL string
  rendering (quoting, literals, parameter syntax, UDF naming);
* a :class:`MirrorAdapter` (this module) — the stateful half: owns the
  target DBMS connection, mirrors heap tables into it, registers the
  exact-semantics UDFs, materializes fallback fragments, and runs
  statements;
* the shared plan compiler (:mod:`repro.backend.compile`) — one
  implementation of the ordering channel, the fallback machinery and
  the integer gates, parameterized by the two objects above.

This module holds the adapter interface and everything the compiled
plans need at *execution* time regardless of target: the
:class:`PushdownQueryOp` physical operator, subplan slots, limit binds,
and the :class:`IntegerRangeEscape` rescue protocol.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from ..catalog.schema import Schema
from ..datatypes import SQLType, Value
from ..errors import ExecutionError
from ..executor.expr_eval import CompiledExpr, Env, ParamContext, Row
from ..executor.iterators import PhysicalOp, evaluate_limit_count

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..catalog.catalog import Catalog
    from .dialects.base import Dialect


class IntegerRangeEscape(Exception):
    """A value crossed the target DBMS's integer boundary mid-statement.

    The engine's integers are unbounded Python ints; pushdown targets
    hold 64-bit integers. Rather than diverging (silent REAL promotion)
    or erroring (the row engine computes these queries fine), every
    place a too-wide integer can enter or leave a pushed-down statement
    raises this escape — UDF/aggregate return values, parameter and
    fragment binds, mirror sync of stored big integers, native ``sum()``
    overflow — and :class:`PushdownQueryOp` re-runs the whole query on
    the row engine, whose exact arbitrary-precision result is returned
    instead. Internal control flow only: it must never surface to users.
    """


def adapt_value(value: Value) -> Value:
    """Python -> mirror storage: booleans become 1/0, the rest maps
    directly (the convention every current adapter shares)."""
    if isinstance(value, bool):
        return int(value)
    return value


def adapt_row(row: Row) -> Row:
    return tuple(int(v) if isinstance(v, bool) else v for v in row)


class SubplanSlot:
    """One execution-time obligation of a compiled statement.

    Three kinds, all evaluated by the row engine immediately before the
    SQL statement runs (sublink subplans always use the row engine, the
    same policy the vectorized engine follows):

    * ``"rows"`` — a fallback subtree (or IN-sublink value list): the
      row plan's output is loaded into a temp-schema fragment table the
      statement reads from;
    * ``"scalar"`` — an uncorrelated scalar sublink: its single value
      (or the row engine's multi-row error);
    * ``"exists"`` — an uncorrelated EXISTS sublink: 1/0 with the
      negation already applied.

    Sublink slots (``slot_id`` set) surface through the slot UDF
    (:meth:`Dialect.slot_expr`) rather than plain bound parameters, so
    an error raised while evaluating the subplan fires only if the
    statement actually evaluates the expression — exactly like the row
    engine's lazy uncorrelated-subquery cache (an empty outer relation
    never touches the sublink on any engine). Fragment slots for
    fallback *subtrees* (``slot_id`` None) are data sources the
    statement always scans, so their errors raise immediately.
    """

    __slots__ = ("kind", "plan", "slot_id", "negated", "frag_table")

    def __init__(
        self,
        kind: str,
        plan: PhysicalOp,
        slot_id: Optional[int] = None,
        negated: bool = False,
        frag_table: Optional[str] = None,
    ):
        self.kind = kind
        self.plan = plan
        self.slot_id = slot_id
        self.negated = negated
        self.frag_table = frag_table


class LimitBind:
    """A LIMIT/OFFSET expression evaluated per execution and bound as a
    named parameter (reusing the row engine's evaluation and errors)."""

    __slots__ = ("bind_name", "compiled", "what")

    def __init__(self, bind_name: str, compiled: Optional[CompiledExpr], what: str):
        self.bind_name = bind_name
        self.compiled = compiled
        self.what = what


class MirrorAdapter:
    """The stateful half of a pushdown backend: one mirror database.

    Subclasses own a connection to the target DBMS, keep its tables in
    sync with the engine's heap tables, and execute compiled statements.
    The contract the shared compiler and :class:`PushdownQueryOp`
    depend on:

    * :meth:`sync_table` — bring the mirror of a catalog table up to
      date (keyed on snapshot identity; must raise
      :class:`IntegerRangeEscape` for values the target cannot hold).
    * :meth:`ensure_index` / :meth:`native_plan` — optional: the
      compiler's join-key index requests (default: ignore them) and the
      target's own plan of a statement for ``EXPLAIN`` (default: none).
    * :meth:`scan_source` / :meth:`scan_ordinal` — how a base-table
      scan is spelled and which hidden column yields the engine's heap
      order (``None`` if no such column can be exposed).
    * :meth:`materialize_fragment` / :meth:`fragment_source` /
      :meth:`drop_fragment` — row-engine fallback fragments; fragment
      tables must expose ``rowid`` in insertion order.
    * :meth:`run_statement` — execute one statement; must translate
      UDF-side-channel errors back to the original exception and map
      integer-range conditions to :class:`IntegerRangeEscape`.
    * :meth:`dialect` — a fresh rendering dialect, optionally wired to
      the compiler's sublink renderer; :attr:`dialect_class` exposes
      static facts (integer bounds, UDF prefix) without an instance.
    * :meth:`make_query_op` — wrap a compiled statement in this
      backend's physical operator (:class:`PushdownQueryOp` unless the
      backend overrides execution).
    * :attr:`supports_full_join` / :attr:`native_float_agg` —
      capability flags the compiler's gates consult.

    The base class provides the generic bookkeeping every adapter
    shares: fragment/slot id allocation, the slot-state table the slot
    UDF reads, the pending-error side channel, and counters
    (:meth:`counters`; an adapter that never reloads, delta-syncs or
    indexes simply leaves those at zero).
    """

    #: Dialect class for this adapter (static facts; no instance needed).
    dialect_class: type = None  # type: ignore[assignment]

    #: Whether the target can run RIGHT/FULL OUTER JOIN natively.
    supports_full_join = False

    #: Whether native sum()/avg() accumulates naively left-to-right
    #: (bit-identical to the engine); otherwise the compiler routes
    #: float aggregation through the naive aggregate UDFs.
    native_float_agg = False

    def __init__(self, catalog: "Catalog"):
        self.catalog = catalog
        self._frag_names = count()
        self._slot_ids = count()
        # slot id -> ("ok", value) | ("error", exception); installed by
        # the executing PushdownQueryOp, read by the slot UDF.
        self._slot_states: dict[int, tuple[str, object]] = {}
        self._pending_error: Optional[BaseException] = None
        self.statements_executed = 0
        # sync_table calls that changed the mirror; each is either a
        # reload (why: reload_reasons) or a delta sync.
        self.tables_synced = 0
        self.mirror_reloads = 0
        self.mirror_delta_syncs = 0
        self.mirror_rows_applied = 0
        self.indexes_built = 0
        self.reload_reasons: dict[str, int] = {}

    # -- identifiers ---------------------------------------------------
    def fresh_fragment_name(self) -> str:
        return f"_frag_{next(self._frag_names)}"

    def fresh_slot_id(self) -> int:
        return next(self._slot_ids)

    def _read_slot(self, args):
        kind, payload = self._slot_states[args[0]]
        if kind == "error":
            raise payload  # re-raised with type+message via the channel
        return payload

    # -- rendering -----------------------------------------------------
    def dialect(self, subquery_renderer=None) -> "Dialect":
        """A fresh dialect instance for rendering one statement."""
        return self.dialect_class(subquery_renderer)

    # -- contract points (subclass responsibilities) -------------------
    def sync_table(self, name: str) -> None:
        raise NotImplementedError

    def scan_source(self, table_key: str) -> str:
        """FROM-clause spelling of the mirror of catalog table
        *table_key* (already lowercased)."""
        raise NotImplementedError

    def scan_ordinal(self, columns: Sequence[str]) -> Optional[str]:
        """The hidden column of a mirrored table that yields the
        engine's heap order (*columns* are the scan's stored column
        names, for collision avoidance), or ``None`` when the target
        cannot expose one — the compiler then refuses the scan."""
        raise NotImplementedError

    def materialize_fragment(self, frag: str, rows: list[Row], width: int) -> None:
        raise NotImplementedError

    def fragment_source(self, frag: str) -> str:
        """FROM-clause spelling of fragment table *frag*."""
        raise NotImplementedError

    def drop_fragment(self, frag: str) -> None:
        raise NotImplementedError

    def run_statement(self, sql: str, binds: dict[str, Value]) -> list[Row]:
        raise NotImplementedError

    def ensure_index(self, table: str, columns: Sequence[str]) -> None:
        """Optional: the compiler found an equi-join keyed on *columns*
        (stored column names, in conjunct order) of catalog table
        *table*, already synced. Called on every execution of such a
        statement, so an implementation must make repeats free. Purely
        an access-path hint — results may not depend on it. Default:
        ignore it."""

    def native_plan(self, sql: str, binds: dict[str, Value]) -> Optional[str]:
        """Optional: the target DBMS's own plan for a compiled statement
        (its ``EXPLAIN``), for the engine's ``EXPLAIN`` output. Default:
        not available."""
        return None

    def counters(self) -> dict:
        """The adapter's cumulative counters (server ``STATS``)."""
        return {
            "statements_executed": self.statements_executed,
            "tables_synced": self.tables_synced,
            "mirror_reloads": self.mirror_reloads,
            "mirror_delta_syncs": self.mirror_delta_syncs,
            "mirror_rows_applied": self.mirror_rows_applied,
            "indexes_built": self.indexes_built,
            "reload_reasons": dict(self.reload_reasons),
        }

    def make_query_op(
        self,
        sql: str,
        schema: Schema,
        table_names: Sequence[str],
        slots: Sequence["SubplanSlot"],
        limit_binds: Sequence["LimitBind"],
        param_labels: dict[int, str],
        params: ParamContext,
        rescue_planner=None,
        rescue_node=None,
        index_requests: Sequence[tuple[str, tuple[str, ...]]] = (),
        fallbacks: Sequence[str] = (),
    ) -> "PushdownQueryOp":
        return PushdownQueryOp(
            self,
            sql,
            schema,
            table_names,
            slots,
            limit_binds,
            param_labels,
            params,
            rescue_planner=rescue_planner,
            rescue_node=rescue_node,
            index_requests=index_requests,
            fallbacks=fallbacks,
        )

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class PushdownQueryOp(PhysicalOp):
    """A compiled pushdown statement as a physical plan.

    ``rows(env)`` (the executor contract) syncs the mirrored base
    tables, passes on the compiler's join-key index requests, evaluates
    sublink/fallback slots with the row engine, binds parameters from
    the shared :class:`ParamContext`, runs the single SQL statement, and
    adapts values back (0/1 -> bool per the static output schema).

    ``index_requests`` (``(table, columns)`` per equi-join key the
    compiler resolved to a base table) and ``fallbacks`` (one line per
    subtree the compiler handed to the row engine, with the reason) are
    what the compiler knew beyond the SQL text; ``EXPLAIN`` prints both.
    """

    __slots__ = (
        "backend",
        "sql",
        "table_names",
        "index_requests",
        "fallbacks",
        "slots",
        "limit_binds",
        "param_labels",
        "params",
        "_bool_columns",
        "_rescue_planner",
        "_rescue_node",
        "_rescue_plan",
    )

    def __init__(
        self,
        backend: MirrorAdapter,
        sql: str,
        schema: Schema,
        table_names: Sequence[str],
        slots: Sequence[SubplanSlot],
        limit_binds: Sequence[LimitBind],
        param_labels: dict[int, str],
        params: ParamContext,
        rescue_planner=None,
        rescue_node=None,
        index_requests: Sequence[tuple[str, tuple[str, ...]]] = (),
        fallbacks: Sequence[str] = (),
    ):
        self.backend = backend
        self.sql = sql
        self.schema = schema
        self.table_names = tuple(table_names)
        self.index_requests = tuple(index_requests)
        self.fallbacks = tuple(fallbacks)
        self.slots = tuple(slots)
        self.limit_binds = tuple(limit_binds)
        self.param_labels = dict(param_labels)
        self.params = params
        self._bool_columns = tuple(
            i for i, a in enumerate(schema) if a.type is SQLType.BOOL
        )
        # Exact-integer rescue: when execution raises
        # IntegerRangeEscape (a value crossed the int64 boundary), the
        # original algebra tree is planned on the row engine — lazily,
        # once — and its exact result returned instead. The row plan
        # shares this op's ParamContext, so per-execution parameter
        # values flow through unchanged.
        self._rescue_planner = rescue_planner
        self._rescue_node = rescue_node
        self._rescue_plan: Optional[PhysicalOp] = None

    # ------------------------------------------------------------------
    def rows(self, env: Env) -> Iterator[Row]:
        return iter(self._execute(env))

    def _sync(self) -> None:
        """Mirrors current, requested indexes in place."""
        for name in self.table_names:
            self.backend.sync_table(name)
        for table, columns in self.index_requests:
            self.backend.ensure_index(table, columns)

    def _execute(self, env: Env) -> list[Row]:
        try:
            self._sync()
        except IntegerRangeEscape:
            return self._rescue(env)

        binds = self._bind_params(env)
        try:
            for slot in self.slots:
                self._evaluate_slot(slot, env)
            raw = self.backend.run_statement(self.sql, binds)
        except IntegerRangeEscape:
            return self._rescue(env)
        finally:
            self._release_slots()
        return self._adapt(raw)

    def explain(self) -> str:
        """What the backend was given, for ``EXPLAIN``: the compiled
        statement, the subtrees that stayed on the row engine, the index
        requests, and the target's own plan of the statement (planned
        against synced mirrors and empty fragment tables; nothing is
        executed)."""
        lines = [f"pushdown statement ({type(self.backend).__name__}):", self.sql]
        lines.append("row-engine fallbacks:")
        lines += [f"  {line}" for line in self.fallbacks] or ["  none"]
        lines.append("index requests:")
        lines += [
            f"  {table} ({', '.join(columns)})" for table, columns in self.index_requests
        ] or ["  none"]
        lines.append("backend plan:")
        try:
            self._sync()
            for slot in self.slots:
                if slot.frag_table is not None:
                    self.backend.materialize_fragment(
                        slot.frag_table, [], len(slot.plan.schema)
                    )
            binds: dict[str, Value] = {f"p{i}": None for i in self.param_labels}
            binds.update({bind.bind_name: None for bind in self.limit_binds})
            plan = self.backend.native_plan(self.sql, binds)
        except IntegerRangeEscape as escape:
            plan = f"none: the row engine answers this query ({escape})"
        finally:
            self._release_slots()
        lines += [f"  {line}" for line in (plan or "not available").splitlines()]
        return "\n".join(lines)

    def _bind_params(self, env: Env) -> dict[str, Value]:
        binds: dict[str, Value] = {}
        values = self.params.values
        for index, label in self.param_labels.items():
            if index >= len(values):
                raise ExecutionError(
                    f"parameter {label} has no bound value ({len(values)} bound)"
                )
            binds[f"p{index}"] = adapt_value(values[index])
        for bind in self.limit_binds:
            value = evaluate_limit_count(bind.compiled, env, bind.what)
            if value is None:
                value = -1 if bind.what == "LIMIT" else 0
            binds[bind.bind_name] = value
        return binds

    def _rescue(self, env: Env) -> list[Row]:
        """Re-run the whole query on the row engine after an integer
        crossed the int64 boundary. Row-engine rows are already in
        engine-native values (real booleans, unbounded ints), so they
        bypass :meth:`_adapt`."""
        if self._rescue_planner is None or self._rescue_node is None:
            raise ExecutionError(
                "pushdown backend: integer beyond the 64-bit range with no "
                "row-engine rescue plan available"
            )
        plan = self._rescue_plan
        if plan is None:
            plan = self._rescue_planner.plan(self._rescue_node)
            self._rescue_plan = plan
        return list(plan.rows(env))

    def _release_slots(self) -> None:
        """Drop per-execution slot state so a long-lived connection does
        not accumulate fragment rows and stored exceptions across the
        distinct queries it has ever run."""
        for slot in self.slots:
            if slot.slot_id is not None:
                self.backend._slot_states.pop(slot.slot_id, None)
            if slot.frag_table is not None:
                self.backend.drop_fragment(slot.frag_table)

    def _evaluate_slot(self, slot: SubplanSlot, env: Env) -> None:
        """Run one slot's row plan. Sublink slots store their value —
        or the exception — for the slot UDF, so errors fire only if the
        statement evaluates the expression; fallback-subtree fragments
        (no slot id) are unconditional sources and raise now."""
        states = self.backend._slot_states
        if slot.kind == "rows":
            assert slot.frag_table is not None
            width = len(slot.plan.schema)
            if slot.slot_id is None:
                rows = list(slot.plan.rows(env))
                self.backend.materialize_fragment(slot.frag_table, rows, width)
                return
            try:
                rows = list(slot.plan.rows(env))
            except Exception as exc:  # noqa: BLE001 - deferred to evaluation
                self.backend.materialize_fragment(slot.frag_table, [], width)
                states[slot.slot_id] = ("error", exc)
                return
            self.backend.materialize_fragment(slot.frag_table, rows, width)
            states[slot.slot_id] = ("ok", 1)
            return
        assert slot.slot_id is not None
        try:
            if slot.kind == "scalar":
                rows = list(slot.plan.rows(env))
                if len(rows) > 1:
                    raise ExecutionError("scalar subquery returned more than one row")
                value = adapt_value(rows[0][0]) if rows else None
            elif slot.kind == "exists":
                found = next(iter(slot.plan.rows(env)), None) is not None
                value = int((not found) if slot.negated else found)
            else:  # pragma: no cover - compiler emits only the kinds above
                raise ExecutionError(f"unknown subplan slot kind {slot.kind!r}")
        except Exception as exc:  # noqa: BLE001 - deferred to evaluation
            states[slot.slot_id] = ("error", exc)
            return
        states[slot.slot_id] = ("ok", value)

    def _adapt(self, raw: list[Row]) -> list[Row]:
        if not self._bool_columns:
            return raw
        bool_columns = self._bool_columns
        adapted = []
        for row in raw:
            out = list(row)
            for i in bool_columns:
                if out[i] is not None:
                    out[i] = bool(out[i])
            adapted.append(tuple(out))
        return adapted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {len(self.sql)} chars, "
            f"{len(self.slots)} slot(s)>"
        )
