"""Deterministic random query generator over the workload schemas.

Generates well-typed SQL over the paper's forum database and the
TPC-H-like benchmark database: select/project/filter, two-table joins of
every kind (including the explicit ``LEFT OUTER JOIN`` spelling),
grouped and global aggregation with multi-aggregate HAVING clauses over
joins, set operations, sublinks (IN / EXISTS / scalar) nested up to
depth 2, DISTINCT, ORDER BY and LIMIT — optionally wrapped in ``SELECT
PROVENANCE`` with a random contribution semantics.

Queries are generated from an explicit seed (``generate_query(seed)``)
so every differential-test failure is reproducible by its seed alone.
The generator only emits queries that cannot raise *data-dependent*
runtime errors (no division by columns, no mixed-type comparisons), so
all engines must agree on results — not merely on error behavior.
``generate_ill_typed_query`` is the opposite mode: one ill-typed
projection or conjunct hidden below a derived table, in a join
condition or under a correlated sublink, which every engine must reject
at analysis with the same ``TypeCheckError``.
Integer constants at and just past the int64 boundary (2^63 and its
neighbours, both signs) appear in comparison, projection-arithmetic and
aggregate positions, pinning exact unbounded-integer semantics across
all three engines.
"""

from __future__ import annotations

import random

# Column catalogs: name -> type per table, per workload.
FORUM_TABLES: dict[str, dict[str, str]] = {
    "messages": {"mid": "int", "text": "text", "uid": "int"},
    "users": {"uid": "int", "name": "text"},
    "imports": {"mid": "int", "text": "text", "origin": "text"},
    "approved": {"uid": "int", "mid": "int"},
}

TPCH_TABLES: dict[str, dict[str, str]] = {
    "customer": {
        "c_custkey": "int",
        "c_name": "text",
        "c_acctbal": "float",
        "c_mktsegment": "text",
        "c_nationkey": "int",
    },
    "orders": {
        "o_orderkey": "int",
        "o_custkey": "int",
        "o_totalprice": "float",
        "o_orderstatus": "text",
    },
    "lineitem": {
        "l_orderkey": "int",
        "l_partkey": "int",
        "l_quantity": "int",
        "l_extendedprice": "float",
        "l_returnflag": "text",
    },
    "part": {"p_partkey": "int", "p_name": "text", "p_retailprice": "float"},
}

# Equi-join pairs that produce interesting (non-empty) matches.
TPCH_JOINS = [
    ("customer", "c_custkey", "orders", "o_custkey"),
    ("orders", "o_orderkey", "lineitem", "l_orderkey"),
    ("part", "p_partkey", "lineitem", "l_partkey"),
]
FORUM_JOINS = [
    ("messages", "uid", "users", "uid"),
    ("messages", "mid", "approved", "mid"),
    ("users", "uid", "approved", "uid"),
    ("messages", "mid", "imports", "mid"),
]

# Three-table chains (two pairs sharing the middle table) so the corpus
# contains join regions the cost-based reorderer can actually re-shape.
TPCH_CHAINS = [
    (
        ("customer", "c_custkey", "orders", "o_custkey"),
        ("orders", "o_orderkey", "lineitem", "l_orderkey"),
    ),
    (
        ("part", "p_partkey", "lineitem", "l_partkey"),
        ("lineitem", "l_orderkey", "orders", "o_orderkey"),
    ),
]
FORUM_CHAINS = [
    (
        ("messages", "uid", "users", "uid"),
        ("users", "uid", "approved", "uid"),
    ),
    (
        ("imports", "mid", "messages", "mid"),
        ("messages", "uid", "users", "uid"),
    ),
]

_TEXT_CONSTS = {
    "forum": ["'lorem ipsum ...'", "'superForum'", "'Gert'", "'hi%'", "'x'"],
    "tpch": ["'O'", "'F'", "'R'", "'AUTOMOBILE'", "'BUILDING'", "'N'"],
}
# int64-boundary magnitudes (2^63 and its neighbours): emitted in
# comparison, arithmetic and aggregate positions so the corpus exercises
# exact-integer semantics — the engines keep Python bignums, the sqlite
# backend must rewrite/escape rather than silently promote to REAL.
_BOUNDARY_INTS = [
    9223372036854775806,  # 2^63 - 2
    9223372036854775807,  # 2^63 - 1 (int64 max)
    9223372036854775808,  # 2^63 (first value beyond int64)
]
_SIGNED_BOUNDARY_INTS = _BOUNDARY_INTS + [-b for b in _BOUNDARY_INTS]
_JOIN_KINDS = [
    "JOIN",
    "LEFT JOIN",
    "LEFT OUTER JOIN",
    "RIGHT JOIN",
    "FULL JOIN",
    "FULL OUTER JOIN",
]
_CONTRIBUTIONS = ["", " ON CONTRIBUTION (INFLUENCE)", " ON CONTRIBUTION (COPY PARTIAL)"]


class _Source:
    """One FROM item: alias -> available columns with types."""

    def __init__(self, sql: str, columns: dict[str, str]):
        self.sql = sql
        self.columns = columns  # qualified name -> type


def _single_table(rng: random.Random, tables: dict[str, dict[str, str]]) -> _Source:
    name = rng.choice(sorted(tables))
    alias = f"t{rng.randrange(10)}"
    columns = {f"{alias}.{c}": t for c, t in tables[name].items()}
    return _Source(f"{name} {alias}", columns)


def _join(rng: random.Random, workload: str) -> _Source:
    tables = TPCH_TABLES if workload == "tpch" else FORUM_TABLES
    if rng.random() < 0.35:
        return _chain_join(rng, workload, tables)
    joins = TPCH_JOINS if workload == "tpch" else FORUM_JOINS
    left, lcol, right, rcol = rng.choice(joins)
    la, ra = "a", "b"
    kind = rng.choice(_JOIN_KINDS)
    condition = f"{la}.{lcol} = {ra}.{rcol}"
    if rng.random() < 0.3:
        # Add a residual conjunct so hash joins keep a residual filter.
        extra_col = rng.choice(sorted(tables[left]))
        condition += f" AND {la}.{extra_col} {_null_safe_cmp(rng)} {la}.{extra_col}"
    sql = f"{left} {la} {kind} {right} {ra} ON {condition}"
    columns = {f"{la}.{c}": t for c, t in tables[left].items()}
    columns.update({f"{ra}.{c}": t for c, t in tables[right].items()})
    return _Source(sql, columns)


def _chain_join(
    rng: random.Random, workload: str, tables: dict[str, dict[str, str]]
) -> _Source:
    """A three-table chain join (syntactically left-deep), mixing inner
    and outer kinds — the region shape the cost-based join reorderer
    re-associates, run under the optimizer-on/off differential."""
    chains = TPCH_CHAINS if workload == "tpch" else FORUM_CHAINS
    (t1, c1, t2, c2), (m, mc, t3, c3) = rng.choice(chains)
    assert m == t2 or m == t1  # the middle pair starts from a joined table
    aliases = {t1: "a", t2: "b"}
    third_alias = "c"
    # Biased toward inner joins: all-inner chains form the 3-term join
    # regions the reorderer can re-associate; outer kinds still appear
    # to cover the region-boundary behavior.
    first_kind = rng.choice(["JOIN", "JOIN", "JOIN"] + _JOIN_KINDS)
    second_kind = rng.choice(["JOIN", "JOIN", "JOIN", "LEFT JOIN"])
    middle_alias = aliases[m]
    sql = (
        f"{t1} a {first_kind} {t2} b ON a.{c1} = b.{c2} "
        f"{second_kind} {t3} {third_alias} ON {middle_alias}.{mc} = {third_alias}.{c3}"
    )
    columns = {f"a.{c}": t for c, t in tables[t1].items()}
    columns.update({f"b.{c}": t for c, t in tables[t2].items()})
    columns.update({f"{third_alias}.{c}": t for c, t in tables[t3].items()})
    return _Source(sql, columns)


def _null_safe_cmp(rng: random.Random) -> str:
    return rng.choice(["=", "IS NOT DISTINCT FROM"])


def _columns_of_type(source: _Source, type_: str) -> list[str]:
    return [c for c, t in source.columns.items() if t == type_]


def _numeric_columns(source: _Source) -> list[str]:
    return [c for c, t in source.columns.items() if t in ("int", "float")]


def _predicate(rng: random.Random, source: _Source, workload: str, depth: int = 0) -> str:
    roll = rng.random()
    if depth < 2 and roll < 0.15:
        return f"({_predicate(rng, source, workload, depth + 1)} AND {_predicate(rng, source, workload, depth + 1)})"
    if depth < 2 and roll < 0.3:
        return f"({_predicate(rng, source, workload, depth + 1)} OR {_predicate(rng, source, workload, depth + 1)})"
    if roll < 0.38:
        return f"NOT ({_predicate(rng, source, workload, depth + 1)})"
    if roll < 0.5:
        column = rng.choice(sorted(source.columns))
        return f"{column} IS {rng.choice(['NULL', 'NOT NULL'])}"
    text_columns = _columns_of_type(source, "text")
    if roll < 0.62 and text_columns:
        column = rng.choice(text_columns)
        if rng.random() < 0.5:
            return f"{column} LIKE {rng.choice(_TEXT_CONSTS[workload])}"
        return f"{column} {rng.choice(['=', '<>', '<', '>'])} {rng.choice(_TEXT_CONSTS[workload])}"
    numeric = _numeric_columns(source)
    if numeric:
        column = rng.choice(numeric)
        if rng.random() < 0.3 and len(numeric) > 1:
            other = rng.choice(numeric)
            return f"{column} {rng.choice(['=', '<>', '<', '<=', '>', '>='])} {other}"
        if rng.random() < 0.25:
            values = ", ".join(str(rng.randrange(0, 2000)) for _ in range(rng.randint(2, 4)))
            negated = "NOT " if rng.random() < 0.3 else ""
            return f"{column} {negated}IN ({values})"
        if rng.random() < 0.1:
            constant = rng.choice(_SIGNED_BOUNDARY_INTS)
        else:
            constant = rng.choice([0, 1, 2, 3, 5, 10, 100, 1000, 50000, 200000])
        return f"{column} {rng.choice(['=', '<>', '<', '<=', '>', '>='])} {constant}"
    column = rng.choice(sorted(source.columns))
    return f"{column} IS NOT NULL"


def _projection(rng: random.Random, source: _Source) -> tuple[str, list[str]]:
    """Random select list; returns (sql, output aliases)."""
    columns = sorted(source.columns)
    count = rng.randint(1, min(4, len(columns)))
    chosen = rng.sample(columns, count)
    items, names = [], []
    for i, column in enumerate(chosen):
        name = f"c{i}"
        roll = rng.random()
        type_ = source.columns[column]
        if roll < 0.15 and type_ in ("int", "float"):
            if type_ == "int" and rng.random() < 0.3:
                # int64-boundary arithmetic: exact bignum on every
                # engine (never wrapped, never REAL).
                boundary = rng.choice(_BOUNDARY_INTS)
                shape = rng.choice(["{c} + {b}", "{c} - {b}", "-{c} - {b}", "{c} * {b}"])
                items.append(f"{shape.format(c=column, b=boundary)} AS {name}")
            else:
                items.append(f"{column} + {rng.randrange(1, 10)} AS {name}")
        elif roll < 0.25 and type_ == "text":
            items.append(f"{rng.choice(['upper', 'lower', 'length'])}({column}) AS {name}")
        elif roll < 0.33:
            items.append(
                f"CASE WHEN {column} IS NULL THEN 1 ELSE 0 END AS {name}"
            )
        else:
            items.append(f"{column} AS {name}")
        names.append(name)
    return ", ".join(items), names


def _having_clause(rng: random.Random, source: _Source) -> str:
    """A well-typed HAVING condition: one or two aggregate comparisons
    (count/sum/min/max over integer columns or counts, so no engine can
    hit a type error and float summation order stays irrelevant)."""
    int_columns = _columns_of_type(source, "int")

    def term() -> str:
        roll = rng.random()
        if roll < 0.4 or not int_columns:
            return f"count(*) {rng.choice(['>=', '>', '<>', '='])} {rng.randint(1, 3)}"
        column = rng.choice(int_columns)
        if roll < 0.7:
            func = rng.choice(["min", "max"])
            return f"{func}({column}) {rng.choice(['>', '>=', '<', '<='])} {rng.randrange(0, 500)}"
        return f"sum({column}) {rng.choice(['>', '<='])} {rng.randrange(0, 2000)}"

    if rng.random() < 0.35:
        return f" HAVING {term()} {rng.choice(['AND', 'OR'])} {term()}"
    return f" HAVING {term()}"


def _aggregate_query(rng: random.Random, source: _Source, where: str) -> str:
    numeric = _numeric_columns(source)
    group_columns = rng.sample(
        sorted(source.columns), 2 if rng.random() < 0.25 and len(source.columns) > 1 else 1
    )
    aggs = []
    for i in range(rng.randint(1, 3)):
        func = rng.choice(["count", "sum", "min", "max", "avg"])
        if func == "count" and rng.random() < 0.5:
            aggs.append(f"count(*) AS a{i}")
        elif func in ("sum", "avg"):
            int_columns = [c for c in numeric if source.columns[c] == "int"]
            if not numeric:
                aggs.append(f"count(*) AS a{i}")
            elif int_columns and rng.random() < 0.2:
                # Aggregate near the int64 boundary: per-row shifts push
                # the total past 2^63, so sum() must return the exact
                # bignum and avg() the correctly-rounded quotient on
                # every engine.
                column = rng.choice(int_columns)
                boundary = rng.choice(_BOUNDARY_INTS)
                aggs.append(f"{func}({column} + {boundary}) AS a{i}")
            else:
                distinct = "DISTINCT " if rng.random() < 0.2 else ""
                aggs.append(f"{func}({distinct}{rng.choice(numeric)}) AS a{i}")
        else:
            column = rng.choice(sorted(source.columns))
            aggs.append(f"{func}({column}) AS a{i}")
    agg_sql = ", ".join(aggs)
    if rng.random() < 0.3:  # global aggregate
        return f"SELECT {agg_sql} FROM {source.sql}{where}"
    # Joined sources always exercise GROUP BY + HAVING over a join;
    # single-table sources keep HAVING at the original 30% rate.
    joined = " JOIN " in f" {source.sql} "
    having = ""
    if joined or rng.random() < 0.3:
        having = _having_clause(rng, source)
    group_sql = ", ".join(group_columns)
    select_groups = ", ".join(f"{c} AS g{i}" for i, c in enumerate(group_columns))
    return (
        f"SELECT {select_groups}, {agg_sql} FROM {source.sql}{where} "
        f"GROUP BY {group_sql}{having}"
    )


def _setop_query(rng: random.Random, workload: str) -> str:
    tables = TPCH_TABLES if workload == "tpch" else FORUM_TABLES
    type_ = rng.choice(["int", "text"])
    candidates = [
        (table, column)
        for table, columns in sorted(tables.items())
        for column, t in sorted(columns.items())
        if t == type_
    ]
    (lt, lc), (rt, rc) = rng.sample(candidates, 2)
    op = rng.choice(["UNION", "UNION ALL", "INTERSECT", "EXCEPT"])
    left_where = f" WHERE {_predicate(rng, _Source(lt, {c: t for c, t in tables[lt].items()}), workload)}" if rng.random() < 0.5 else ""
    return f"SELECT {lc} FROM {lt}{left_where} {op} SELECT {rc} FROM {rt}"


def _sublink_query(rng: random.Random, workload: str) -> str:
    tables = TPCH_TABLES if workload == "tpch" else FORUM_TABLES
    if workload == "tpch":
        outer, okey, inner, ikey = rng.choice(TPCH_JOINS)
    else:
        outer, okey, inner, ikey = rng.choice(FORUM_JOINS)
    outer_cols = ", ".join(sorted(tables[outer]))
    kind = rng.random()
    inner_source = _Source(inner, {c: t for c, t in tables[inner].items()})
    inner_where = (
        f" WHERE {_predicate(rng, inner_source, workload)}" if rng.random() < 0.5 else ""
    )
    if kind < 0.3:
        negated = "NOT " if rng.random() < 0.3 else ""
        return (
            f"SELECT {outer_cols} FROM {outer} "
            f"WHERE {okey} {negated}IN (SELECT {ikey} FROM {inner}{inner_where})"
        )
    if kind < 0.55:
        negated = "NOT " if rng.random() < 0.3 else ""
        return (
            f"SELECT {outer_cols} FROM {outer} x WHERE {negated}EXISTS "
            f"(SELECT 1 FROM {inner} WHERE {inner}.{ikey} = x.{okey})"
        )
    if kind < 0.85:
        return _nested_sublink_query(rng, tables, outer, okey, inner, ikey)
    numeric = [c for c, t in tables[inner].items() if t in ("int", "float")]
    target = rng.choice(numeric) if numeric else ikey
    outer_numeric = [c for c, t in tables[outer].items() if t in ("int", "float")]
    subject = rng.choice(outer_numeric) if outer_numeric else okey
    return (
        f"SELECT {outer_cols} FROM {outer} "
        f"WHERE {subject} > (SELECT avg({target}) FROM {inner})"
    )


def _nested_sublink_query(
    rng: random.Random,
    tables: dict[str, dict[str, str]],
    outer: str,
    okey: str,
    inner: str,
    ikey: str,
) -> str:
    """Depth-2 sublink nesting: a sublink whose subquery itself filters
    through another sublink (IN-in-IN, EXISTS-in-EXISTS, IN-in-EXISTS)."""
    outer_cols = ", ".join(sorted(tables[outer]))
    shape = rng.random()
    if shape < 0.35:
        # IN whose subquery is itself restricted by an uncorrelated IN.
        negated = "NOT " if rng.random() < 0.25 else ""
        inner_negated = "NOT " if rng.random() < 0.25 else ""
        return (
            f"SELECT {outer_cols} FROM {outer} "
            f"WHERE {okey} {negated}IN (SELECT {ikey} FROM {inner} "
            f"WHERE {ikey} {inner_negated}IN (SELECT {okey} FROM {outer}))"
        )
    if shape < 0.7:
        # Correlated EXISTS containing a second EXISTS correlated one
        # level up (to the middle scope).
        negated = "NOT " if rng.random() < 0.25 else ""
        return (
            f"SELECT {outer_cols} FROM {outer} x WHERE {negated}EXISTS "
            f"(SELECT 1 FROM {inner} i WHERE i.{ikey} = x.{okey} AND EXISTS "
            f"(SELECT 1 FROM {outer} o2 WHERE o2.{okey} = i.{ikey}))"
        )
    # Correlated EXISTS whose subquery filters through an IN sublink.
    return (
        f"SELECT {outer_cols} FROM {outer} x WHERE EXISTS "
        f"(SELECT 1 FROM {inner} i WHERE i.{ikey} = x.{okey} "
        f"AND i.{ikey} IN (SELECT {okey} FROM {outer}))"
    )


def generate_dml_predicate(seed: int, workload: str) -> tuple[str, str]:
    """One deterministic single-table predicate for (*seed*, *workload*):
    ``(table, predicate)`` over the table's unqualified column names —
    the ``WHERE`` of an UPDATE or DELETE, or of the SELECT that must
    return exactly the rows it targets."""
    rng = random.Random(("dml", seed, workload).__repr__())
    tables = TPCH_TABLES if workload == "tpch" else FORUM_TABLES
    table = rng.choice(sorted(tables))
    return table, _predicate(rng, _Source(table, dict(tables[table])), workload)


# One ill-typed expression over an int operand {i} and a text operand
# {t}: each breaks one operand-type rule (comparison, boolean, text,
# numeric) in a position a predicate or a select item can take.
_ILL_TYPED = [
    "{i} = {t}",
    "{t} <> {i}",
    "{i} >= {t}",
    "NOT {i}",
    "{i} AND {t} IS NULL",
    "{t} IS NULL OR {i}",
    "{t} || {i} = {t}",
    "-{t} > {i}",
    "{t} IN ({i}, 1)",
    "{i} IS DISTINCT FROM {t}",
    "CASE {i} WHEN {t} THEN true ELSE false END",
    "CASE WHEN {i} THEN true END",
]


def _typed_pair(rng: random.Random, ints: list[str], texts: list[str]) -> str:
    return "(" + rng.choice(_ILL_TYPED).format(i=rng.choice(ints), t=rng.choice(texts)) + ")"


def generate_ill_typed_query(seed: int, workload: str) -> str:
    """One deterministic query for (*seed*, *workload*) holding exactly
    one ill-typed projection or conjunct, placed where a plan could hide
    it: below a derived table, in a join condition, or under a
    correlated sublink. Every engine must reject it at analysis with
    the same ``TypeCheckError``, whatever the optimizer does."""
    rng = random.Random(("ill-typed", seed, workload).__repr__())
    tables = TPCH_TABLES if workload == "tpch" else FORUM_TABLES
    joins = TPCH_JOINS if workload == "tpch" else FORUM_JOINS
    place = rng.choice(["derived", "join", "sublink"])
    if place == "derived":
        table = rng.choice([t for t in sorted(tables) if "text" in tables[t].values()])
        source = _Source(table, {c: t for c, t in tables[table].items()})
        bad = _typed_pair(rng, _columns_of_type(source, "int"), _columns_of_type(source, "text"))
        key = rng.choice(sorted(source.columns))
        if rng.random() < 0.5:
            inner = f"SELECT {key} AS c0, {bad} AS c1 FROM {table}"
        else:
            inner = (
                f"SELECT {key} AS c0 FROM {table} "
                f"WHERE ({_predicate(rng, source, workload)}) AND {bad}"
            )
        sql = f"SELECT s.c0 FROM ({inner}) s"
    else:
        outer, okey, inner_table, ikey = rng.choice(joins)
        left = _Source(f"{outer} x", {f"x.{c}": t for c, t in tables[outer].items()})
        right = _Source(f"{inner_table} i", {f"i.{c}": t for c, t in tables[inner_table].items()})
        # One operand from each side: the correlated one (or the other
        # join input) is what a plan could evaluate elsewhere.
        pairs = [
            (ints, texts)
            for ints, texts in (
                (_columns_of_type(left, "int"), _columns_of_type(right, "text")),
                (_columns_of_type(right, "int"), _columns_of_type(left, "text")),
            )
            if ints and texts
        ]
        bad = _typed_pair(rng, *rng.choice(pairs))
        outer_cols = ", ".join(sorted(left.columns))
        if place == "join":
            kind = rng.choice(_JOIN_KINDS)
            sql = (
                f"SELECT {outer_cols} FROM {left.sql} {kind} {right.sql} "
                f"ON x.{okey} = i.{ikey} AND {bad}"
            )
        else:
            negated = "NOT " if rng.random() < 0.3 else ""
            sql = (
                f"SELECT {outer_cols} FROM {left.sql} WHERE {negated}EXISTS "
                f"(SELECT 1 FROM {right.sql} WHERE i.{ikey} = x.{okey} AND {bad})"
            )
    if rng.random() < 0.4:
        sql = "SELECT PROVENANCE" + sql[len("SELECT") :]
    return sql


def generate_query(seed: int, workload: str) -> str:
    """One deterministic random query for (*seed*, *workload*)."""
    rng = random.Random((seed, workload).__repr__())
    shape = rng.random()

    if shape < 0.12:
        sql = _setop_query(rng, workload)
    elif shape < 0.27:
        sql = _sublink_query(rng, workload)
    else:
        tables = TPCH_TABLES if workload == "tpch" else FORUM_TABLES
        if rng.random() < 0.45:
            source = _join(rng, workload)
        else:
            source = _single_table(rng, tables)
        where = (
            f" WHERE {_predicate(rng, source, workload)}"
            if rng.random() < 0.75
            else ""
        )
        if shape < 0.52:
            sql = _aggregate_query(rng, source, where)
        else:
            projection, names = _projection(rng, source)
            distinct = "DISTINCT " if rng.random() < 0.15 else ""
            sql = f"SELECT {distinct}{projection} FROM {source.sql}{where}"
            if rng.random() < 0.35:
                keys = ", ".join(
                    f"{n} {rng.choice(['ASC', 'DESC'])}" for n in rng.sample(names, rng.randint(1, len(names)))
                )
                sql += f" ORDER BY {keys}"
                if rng.random() < 0.5:
                    sql += f" LIMIT {rng.randint(0, 20)}"
                    if rng.random() < 0.4:
                        sql += f" OFFSET {rng.randint(0, 5)}"

    if rng.random() < 0.45:
        contribution = rng.choice(_CONTRIBUTIONS)
        sql = "SELECT PROVENANCE" + contribution + sql[len("SELECT") :]
    return sql
