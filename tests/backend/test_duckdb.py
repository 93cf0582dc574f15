"""The optional DuckDB pushdown backend.

DuckDB is an optional dependency: the backend registers itself only
when the module is importable, and this whole file skips cleanly when
it is not (the registry keeps ``engine="duckdb"`` an ordinary unknown
engine there — see test_registry.py for that degradation). Everything
below runs the same plans through ``engine="duckdb"`` and the row
engine and asserts identical results.
"""

from __future__ import annotations

import pytest

duckdb = pytest.importorskip("duckdb")

import repro
from repro.backend import engine_names

pytestmark = pytest.mark.skipif(
    "duckdb" not in engine_names(), reason="duckdb backend not registered"
)

_DDL = [
    "CREATE TABLE t (k INT, grp TEXT, x FLOAT, flag BOOL)",
    "INSERT INTO t VALUES "
    "(5, 'a', 1.5, TRUE), (2, 'b', 2.5, FALSE), (9, 'a', 0.5, TRUE), "
    "(4, 'c', 3.5, NULL), (7, 'b', 4.5, FALSE), (1, 'a', 5.5, TRUE)",
]

_QUERIES = [
    "SELECT k, grp FROM t WHERE k > 2 ORDER BY k",
    "SELECT grp, count(*), sum(k) FROM t GROUP BY grp",
    "SELECT DISTINCT grp FROM t",
    "SELECT count(*), min(k), max(k) FROM t WHERE flag",
    "SELECT PROVENANCE grp, sum(k) FROM t GROUP BY grp",
    # One varargs UDF per repro.scalars entry: every arity must bind.
    "SELECT k, substring(grp || 'xyz', 2), substring(grp || 'xyz', 2, 2), "
    "round(x), round(x, 1), abs(k - 5), concat(grp, 'x', grp), "
    "coalesce(NULL, k), coalesce(NULL, NULL, k, 1) FROM t ORDER BY k",
]


@pytest.fixture()
def pair():
    connections = {}
    for engine in ("row", "duckdb"):
        db = repro.connect(engine=engine)
        for statement in _DDL:
            db.run(statement)
        connections[engine] = db
    yield connections
    for db in connections.values():
        db.close()


@pytest.mark.parametrize("sql", _QUERIES)
def test_duckdb_matches_row_engine(pair, sql):
    expected = pair["row"].run(sql)
    actual = pair["duckdb"].run(sql)
    assert actual.rows == expected.rows
    assert [a.name for a in actual.schema] == [a.name for a in expected.schema]


def test_duckdb_in_differential_matrix():
    from repro.backend import differential_engines

    assert "duckdb" in differential_engines()
