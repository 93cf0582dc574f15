"""Operand types are checked once, at analysis, on every engine.

An ill-typed operator, or a bind value of the wrong type for its slot,
raises :class:`~repro.errors.TypeCheckError` before any row is read:
the same error from every differential engine, under both optimizer
modes, over an empty and over a non-empty table, and (for a query) from
``EXPLAIN``, so no plan is built. Before the analyzer checked operands,
each of these statements failed per row or not at all, depending on
the plan and the data, and the engines disagreed. A mistyped bind
value fails at bind, after the statement is prepared but before it
runs.
"""

from __future__ import annotations

import pytest

from harness import assert_engines_agree
from querygen import generate_ill_typed_query
from repro import connect
from repro.backend import differential_engines

# (statement, bind values) over t(a INT, b TEXT).
STATEMENTS = [
    ("SELECT a FROM t WHERE a AND true", None),
    ("SELECT t.a FROM t JOIN t u ON t.a", None),
    ("SELECT a FROM t WHERE CASE WHEN a > 0 THEN ? END", (1,)),
    ("SELECT a FROM t WHERE coalesce(?, ?) = a", ("x", None)),
    ("SELECT a FROM t WHERE coalesce(?, ?) AND a > 0", (1, 1)),
    ("SELECT a FROM t WHERE (SELECT ?) AND a > 0", (1,)),
    ("SELECT a = b FROM t", None),
    ("SELECT x FROM (SELECT a AS x, a = b AS y FROM t) s", None),
    ("SELECT x FROM (SELECT a AS x, NOT a AS y FROM t) s", None),
    ("SELECT x FROM (SELECT a AS x, -b AS y FROM t) s", None),
    ("SELECT t.a FROM t JOIN t u ON t.a = u.b", None),
    ("SELECT NOT a FROM t WHERE a > 5", None),
    ("SELECT a || b FROM t", None),
    ("SELECT a FROM t WHERE b IN (1, 2)", None),
    ("SELECT CASE a WHEN 'x' THEN 1 END FROM t", None),
    ("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM t u WHERE u.b = t.a)", None),
    ("DELETE FROM t WHERE a", None),
    ("DELETE FROM t WHERE a = ?", ("2",)),
    ("UPDATE t SET b = a || 'x'", None),
]

MODES = ("cost", "rules")
FILLS = ("empty", "filled")


@pytest.fixture(scope="module")
def configurations():
    """{label: Connection} over every differential engine x optimizer
    mode x (empty, two-row) ``t``."""
    connections = {}
    for engine in differential_engines():
        for mode in MODES:
            for fill in FILLS:
                conn = connect(engine=engine, optimizer=mode)
                conn.execute("CREATE TABLE t (a INT, b TEXT)")
                if fill == "filled":
                    conn.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
                connections[f"{engine}/{mode}/{fill}"] = conn
    return connections


def _outcome(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - compared structurally
        return type(exc).__name__, str(exc)
    return ("ok",)


def _rows(conn):
    return conn.execute("SELECT a, b FROM t ORDER BY a").fetchall()


@pytest.mark.parametrize("sql,params", STATEMENTS, ids=[sql for sql, _ in STATEMENTS])
def test_rejected_at_analysis_everywhere(configurations, sql, params):
    outcomes = {}
    for label, conn in configurations.items():
        before = _rows(conn)
        counters = conn.counters
        plans, executions = counters.plan, counters.execute
        outcomes[label] = _outcome(lambda: conn.execute(sql, params))
        # A bind error comes after the statement is prepared; an
        # operand-type error before anything is planned. Neither runs.
        assert counters.execute == executions, label
        if params is None:
            assert counters.plan == plans, label
        assert _rows(conn) == before, label
        if params is None and sql.startswith("SELECT"):
            explained = _outcome(lambda: conn.execute(f"EXPLAIN {sql}"))
            assert explained == outcomes[label], label
    first = next(iter(outcomes.values()))
    assert first[0] == "TypeCheckError", first
    assert all(outcome == first for outcome in outcomes.values()), outcomes


def test_the_well_typed_forms_run(configurations):
    """The rejections are about operand types, not the shapes: the same
    statements with well-typed operands or values run everywhere."""
    for conn in configurations.values():
        assert conn.execute("SELECT a FROM t WHERE a > 0 AND true").fetchall() == (
            [(1,), (2,)] if _rows(conn) else []
        )
        conn.execute("SELECT a FROM t WHERE CASE WHEN a > 0 THEN ? END", (True,))
        conn.execute("SELECT a FROM t WHERE coalesce(?, ?) = a", (2, None))
        conn.execute("SELECT a FROM t WHERE (SELECT ?) AND a > 0", (False,))
        conn.execute("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM t u WHERE u.b = t.b)")


# The ill-typed bank: each query holds one ill-typed projection or
# conjunct below a derived table, in a join condition or under a
# correlated sublink. A few seeds run in tier-1; the rest carry the
# ``exhaustive`` marker and run in the full differential job.
ILL_TYPED_SEEDS = range(40)
CORE_ILL_TYPED_SEEDS = range(4)
WORKLOADS = ("forum", "tpch")


def _assert_rejected(engine_pairs, optimizer_pairs, workload, seed):
    sql = generate_ill_typed_query(seed, workload)
    connections = {**engine_pairs[workload], **optimizer_pairs[workload]}
    outcome = assert_engines_agree(connections, sql)
    assert outcome[:2] == ("error", "TypeCheckError"), (sql, outcome)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", CORE_ILL_TYPED_SEEDS)
def test_ill_typed_query_is_rejected_alike(engine_pairs, optimizer_pairs, workload, seed):
    _assert_rejected(engine_pairs, optimizer_pairs, workload, seed)


@pytest.mark.exhaustive
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize(
    "seed", [s for s in ILL_TYPED_SEEDS if s not in CORE_ILL_TYPED_SEEDS]
)
def test_ill_typed_query_is_rejected_alike_exhaustive(
    engine_pairs, optimizer_pairs, workload, seed
):
    _assert_rejected(engine_pairs, optimizer_pairs, workload, seed)
