"""DML target sets against SELECT: for the generator's single-table
predicates ``P``, ``DELETE FROM t WHERE P`` must remove exactly the rows,
in heap order, that ``SELECT * FROM t WHERE P`` returns on the row
engine, and ``UPDATE t SET c = c WHERE P`` must report that many rows —
or both must fail with the same error. It runs on every differential
engine, once with the predicate as generated and once with its
comparison literals lifted into ``?`` parameters (DML binds parameters
unchecked, so the comparison kernels see the raw values).

Each statement runs in a transaction that is rolled back, so the shared
workload databases stay as built. The first seeds run in tier-1; the
wider bank carries the ``exhaustive`` marker and runs in the CI
differential job.
"""

from __future__ import annotations

import re

import pytest

from querygen import generate_dml_predicate

CORE_SEEDS = range(12)
EXHAUSTIVE_SEEDS = range(12, 150)
WORKLOADS = ("forum", "tpch")

# A literal right of a comparison operator, as the generator spells it.
_COMPARISON_LITERAL = re.compile(r"(?<=[=<>] )(-?\d+(?:\.\d+)?|'[^']*')")


def lift_literals(predicate: str) -> tuple[str, list]:
    """*predicate* with each comparison literal replaced by ``?``, and
    the values in placeholder order."""
    params: list = []

    def lift(match: re.Match) -> str:
        text = match.group(0)
        if text.startswith("'"):
            params.append(text[1:-1])
        else:
            params.append(float(text) if "." in text else int(text))
        return "?"

    return _COMPARISON_LITERAL.sub(lift, predicate), params


def _outcome(run):
    try:
        return ("ok",) + run()
    except Exception as exc:  # noqa: BLE001 - compared structurally
        return ("error", type(exc).__name__, str(exc))


def _removed(before, after):
    """The rows of *before* missing from *after* (a subsequence of it),
    in heap order."""
    removed, position = [], 0
    for row in before:
        if position < len(after) and after[position] == row:
            position += 1
        else:
            removed.append(row)
    return removed


def _rolled_back(connection, run):
    connection.begin()
    try:
        return _outcome(run)
    finally:
        connection.rollback()


def _delete(connection, table, where, params):
    def run():
        before = connection.execute(f"SELECT * FROM {table}").fetchall()
        count = connection.execute(f"DELETE FROM {table} WHERE {where}", params).rowcount
        after = connection.execute(f"SELECT * FROM {table}").fetchall()
        return count, _removed(before, after)

    return _rolled_back(connection, run)


def _update(connection, table, column, where, params):
    def run():
        sql = f"UPDATE {table} SET {column} = {column} WHERE {where}"
        return (connection.execute(sql, params).rowcount,)

    return _rolled_back(connection, run)


def check_dml_matches_select(connections, workload, seed):
    table, predicate = generate_dml_predicate(seed, workload)
    row_engine = connections["row"]
    column = row_engine.catalog.table(table).schema.names[0]

    def select():
        rows = row_engine.execute(f"SELECT * FROM {table} WHERE {predicate}").fetchall()
        return len(rows), rows

    expected = _outcome(select)
    expected_count = expected[:2] if expected[0] == "ok" else expected
    lifted, params = lift_literals(predicate)
    for engine, connection in connections.items():
        for where, bound in ((predicate, None), (lifted, params)):
            label = f"{engine}: {table} WHERE {where} {bound or ''}"
            assert _delete(connection, table, where, bound) == expected, label
            assert _update(connection, table, column, where, bound) == expected_count, label


def test_lifting_replaces_only_comparison_literals():
    assert lift_literals("(a = 3 AND b IN (1, 2)) OR c <> 'x' OR d LIKE 'y'") == (
        "(a = ? AND b IN (1, 2)) OR c <> ? OR d LIKE 'y'",
        [3, "x"],
    )
    assert lift_literals("a >= -9223372036854775808") == (
        "a >= ?",
        [-9223372036854775808],
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", CORE_SEEDS)
def test_dml_target_set_matches_select(engine_pairs, workload, seed):
    check_dml_matches_select(engine_pairs[workload], workload, seed)


@pytest.mark.exhaustive
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", EXHAUSTIVE_SEEDS)
def test_dml_target_set_matches_select_exhaustive(engine_pairs, workload, seed):
    check_dml_matches_select(engine_pairs[workload], workload, seed)
