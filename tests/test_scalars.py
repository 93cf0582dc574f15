"""Table-driven checks over :mod:`repro.scalars`.

Every table entry is run against one shared bank of argument vectors
(NULLs, wrong-typed operands, int64 boundaries, non-finite floats) —
directly through its kernel, and as SQL on every engine — so a new entry
is covered the moment it is added, and no engine can restate a scalar
fact differently from the table.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import pytest

import repro
from repro import AnalyzeError, ParseError, PermError
from repro.datatypes import SQLType, type_of_value, unify_types
from repro.scalars import SCALARS, Scalar

ENGINES = ("row", "vectorized", "sqlite", "sqlite-partition")

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)

BANK: list[tuple] = [
    # one argument
    (None,), (0,), (-7,), (INT64_MAX,), (INT64_MIN,), (2**63,),
    (2.5,), (-1.5,), (math.inf,), (-math.inf,),
    ("abc",), ("",), ("  x ",), ("12",), (True,),
    # two arguments
    (None, 1), (1, None), (7, 2), (-7, 2), (7, 0), (7, -1), (2.5, 2), (7.5, 0.0),
    (INT64_MAX, 1), (INT64_MIN, -1), (INT64_MAX, INT64_MAX), (INT64_MIN, 1),
    (0, -1), (-8, 0.5), (10.0, 400), (math.inf, 1.0), (2.567, 2), (1.5, 2**70),
    ("abc", "a%"), ("ABC", "a_c"), ("a%c", "a\\%c"), ("hello", 2), ("hello", math.inf),
    (1, "a"), ("abc", 1), (True, 1), ("x", "x"),
    # three arguments
    ("hello", 2, 3), ("hello", 0, 3), ("hello", 2, -1), ("hello", None, 1),
    ("aaa", "a", "b"), ("aaa", "a", 1), (1, 2, 3), (None, None, 2.5), (3, 2.5, None),
]

# How an internal (not SQL-visible) entry is reached from SQL text.
SURFACE = {
    "div": "{0} / {1}",
    "iadd": "{0} + {1}",
    "isub": "{0} - {1}",
    "imul": "{0} * {1}",
    "ineg": "-{0}",
    "like": "{0} LIKE {1}",
    "ilike": "{0} ILIKE {1}",
    "cast_int": "CAST({0} AS int)",
    "cast_float": "CAST({0} AS float)",
    "cast_text": "CAST({0} AS text)",
    "cast_bool": "CAST({0} AS bool)",
}


def _vectors(entry: Scalar) -> list[tuple]:
    high = 3 if entry.max_args is None else entry.max_args
    return [v for v in BANK if max(entry.min_args, 1) <= len(v) <= high]


def _column_type(value) -> str:
    return "int" if value is None else type_of_value(value).value


def _call(entry: Scalar, args: list[str]) -> str:
    if entry.sql_visible:
        return f"{entry.name}({', '.join(args)})"
    return SURFACE[entry.name].format(*args)


def _outcome(conn, sql: str):
    """What *sql* does on *conn*, comparable across engines: values by
    ``repr`` (``2`` and ``2.0`` differ), errors by class and message."""
    try:
        cursor = conn.execute(sql)
        return ("ok", repr(cursor.fetchall()), [d[1] for d in cursor.description])
    except PermError as exc:
        return ("error", type(exc).__name__, str(exc))


@pytest.fixture(scope="module")
def connections():
    """{engine: Connection} over one database holding each bank vector
    as a one-row table ``v<i>(a0, a1, ...)`` with typed columns."""
    database = repro.Database()
    loader = repro.connect(database=database, engine="row")
    for index, vector in enumerate(BANK):
        columns = ", ".join(f"a{i} {_column_type(v)}" for i, v in enumerate(vector))
        loader.run(f"CREATE TABLE v{index} ({columns})")
        loader.load_rows(f"v{index}", [vector])
    opened = {e: repro.connect(database=database, engine=e) for e in ENGINES}
    yield opened
    for conn in (loader, *opened.values()):
        conn.close()


def test_every_internal_entry_has_a_sql_surface():
    assert set(SURFACE) == {n for n, e in SCALARS.items() if not e.sql_visible}


@pytest.mark.parametrize("name", sorted(SCALARS))
def test_kernel_value_conforms_to_declared_type(name):
    entry = SCALARS[name]
    for vector in _vectors(entry):
        try:
            declared = entry.result_type([type_of_value(v) for v in vector])
        except AnalyzeError:
            continue  # ill-typed call: rejected before any kernel runs
        try:
            value = entry.kernel(list(vector))
        except PermError:
            continue  # a defined engine error (never a leaked builtin)
        actual = type_of_value(value)
        assert unify_types(declared, actual) is declared or actual is SQLType.NULL, (
            f"{name}{vector} returned {value!r} ({actual}), declared {declared}"
        )


@pytest.mark.parametrize("name", sorted(SCALARS))
def test_engines_agree_on_every_bank_vector(connections, name):
    entry = SCALARS[name]
    disagreements = []
    for vector in _vectors(entry):
        table = f"v{BANK.index(vector)}"
        sql = f"SELECT {_call(entry, [f'a{i}' for i in range(len(vector))])} FROM {table}"
        outcomes = {e: _outcome(conn, sql) for e, conn in connections.items()}
        if len({repr(o) for o in outcomes.values()}) != 1:
            disagreements.append((sql, vector, outcomes))
    assert not disagreements


def test_constant_like_patterns_agree(connections):
    """A constant pattern is compiled once by the engines that can; the
    hoisted form must answer like the per-row one — for every one-value
    bank vector (NULL and mistyped operands included)."""
    disagreements = []
    for index, vector in enumerate(BANK):
        if len(vector) != 1:
            continue
        for op in ("LIKE", "ILIKE"):
            for pattern in ("a%", "A_C", "%", "__x_", "1_", "a\\%c"):
                sql = f"SELECT a0 {op} '{pattern}' FROM v{index}"
                outcomes = {e: _outcome(conn, sql) for e, conn in connections.items()}
                per_row = _outcome(
                    connections["row"], f"SELECT a0 {op} ('{pattern}' || '') FROM v{index}"
                )
                if {repr(o) for o in outcomes.values()} != {repr(per_row)}:
                    disagreements.append((sql, vector, outcomes, per_row))
    assert not disagreements


# A bind parameter projected through a derived table is a column the
# analyzer could not type; the unifying rules (coalesce, CASE, greatest)
# then type an expression over it from the *other* operands.
UNTYPED = [
    "SELECT coalesce(x, 1) * 2 FROM (SELECT a, ? AS x FROM t) q",
    "SELECT coalesce(x, 1) + 1 FROM (SELECT a, ? AS x FROM t) q",
    "SELECT CASE WHEN a > 1 THEN x ELSE 1 END + 1 FROM (SELECT a, ? AS x FROM t) q",
    "SELECT greatest(x, 1) * 2 FROM (SELECT a, (SELECT ?) AS x FROM t) q",
    "SELECT a FROM (SELECT a, ? AS x FROM t) q WHERE coalesce(x, 1) < 5",
    "SELECT coalesce(?, 1) * 2, coalesce(?, 1) < 5 FROM t",
]


@pytest.mark.parametrize("value", ["zz", True, 3, 2.5, None, 2**63])
def test_untyped_operand_never_takes_a_typed_kernel(value):
    """The vectorized engine picks native kernels from static types; a
    type that unification derived over an untyped operand proves nothing
    about the values, so it must answer exactly like the row engine."""
    outcomes = {}
    for engine in ("row", "vectorized"):
        conn = repro.connect(engine=engine)
        conn.run("CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2), (NULL)")
        outcomes[engine] = []
        for sql in UNTYPED:
            try:
                rows = conn.execute(sql, (value,) * sql.count("?")).fetchall()
                outcomes[engine].append(("ok", repr(rows)))
            except PermError as exc:
                outcomes[engine].append(("error", type(exc).__name__, str(exc)))
        conn.close()
    assert outcomes["vectorized"] == outcomes["row"]


@pytest.mark.parametrize(
    "name", sorted(n for n, e in SCALARS.items() if e.sql_visible)
)
def test_out_of_arity_calls_rejected_identically(connections, name):
    entry = SCALARS[name]
    counts = [entry.min_args - 1]
    if entry.max_args is not None:
        counts.append(entry.max_args + 1)
    for count in (c for c in counts if c >= 0):
        sql = f"SELECT {name}({', '.join(['a0'] * count)}) FROM v0"
        outcomes = {repr(_outcome(conn, sql)) for conn in connections.values()}
        assert len(outcomes) == 1
        (outcome,) = outcomes
        assert "AnalyzeError" in outcome and f"function {name}() takes" in outcome


@pytest.mark.parametrize(
    "name", sorted(n for n, e in SCALARS.items() if not e.sql_visible)
)
def test_internal_helpers_unreachable_from_sql(connections, name):
    args = ", ".join(["a0"] * SCALARS[name].min_args)
    for conn in connections.values():
        # like/ilike are keywords: the parser already refuses the call.
        with pytest.raises((AnalyzeError, ParseError), match="unknown function|keyword"):
            conn.execute(f"SELECT {name}({args}) FROM v0")


def test_one_table_entry_reaches_every_engine(monkeypatch):
    """Adding a scalar function is one table entry: analyzer, typing and
    all engines serve it with no other edit."""
    monkeypatch.setitem(
        SCALARS,
        "twice",
        Scalar(
            "twice",
            1,
            1,
            lambda args: None if args[0] is None else args[0] * 2,
            lambda types: types[0],
        ),
    )
    outcomes = {}
    for engine in ENGINES:
        conn = repro.connect(engine=engine)
        conn.run("CREATE TABLE t (a int); INSERT INTO t VALUES (7), (NULL)")
        outcomes[engine] = _outcome(conn, "SELECT twice(a) FROM t WHERE twice(a) > 1")
        with pytest.raises(AnalyzeError, match=r"twice\(\) takes 1 argument"):
            conn.execute("SELECT twice(a, a) FROM t")
        conn.close()
    assert set(map(repr, outcomes.values())) == {repr(("ok", "[(14,)]", [SQLType.INT]))}


def test_readme_function_table_matches_the_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Scalar functions", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| (`.*?) \|", section, flags=re.MULTILINE)
    documented = {name for row in rows for name in re.findall(r"`(\w+)\(", row)}
    assert documented == {n for n, e in SCALARS.items() if e.sql_visible}
