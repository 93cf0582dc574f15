"""Cross-engine agreement for reads through views and materialized views.

Every registered differential engine — plus ``sqlite-partition``
explicitly pinned at 2 and at 3 shards — builds the same base data,
the same virtual views and the same materialized views (a delta-safe
join, a provenance-carrying one, and an aggregate caught up at its
first read). Agreement is asserted before and after an identical DML
burst, so commit-time maintenance and read-time catch-up — including a
group moving when its first-seen row goes, and an emptied group coming
back — run under the N-way comparison.

Each engine is additionally held to the tentpole identity: reading a
materialized view must be bit-identical (rows, order, column names) to
running its unfolded defining query on the same connection.
"""

from __future__ import annotations

import os

import pytest

import repro
from harness import assert_engines_agree, run_engines
from repro.backend import differential_engines

BASE_ENGINES = differential_engines()

# Label -> (engine name, forced shard count or None). The registry's
# default sqlite-partition entry also runs; the pinned variants make
# the 2- and 3-shard merges explicit members of the matrix.
ENGINE_SPECS = [(name, name, None) for name in BASE_ENGINES] + [
    ("sqlite-partition@2", "sqlite-partition", 2),
    ("sqlite-partition@3", "sqlite-partition", 3),
]

_ITEM_ROWS = [
    (1, "tool", 3, 9.5),
    (2, "toy", 1, 4.25),
    (3, "tool", 5, None),
    (4, "book", 2, 15.0),
    (5, None, 4, 1.5),
    (6, "toy", 2, 4.25),
]
_TAG_ROWS = [
    (1, "red"),
    (1, "heavy"),
    (3, "red"),
    (4, "paper"),
    (6, "red"),
    (7, "orphan"),
]

_DDL = (
    "CREATE TABLE item (id int, cat text, qty int, price float)",
    "CREATE TABLE tag (item int, label text)",
    "CREATE VIEW v_pricey AS SELECT id, cat, price FROM item WHERE price > 4",
    "CREATE MATERIALIZED VIEW mv_join AS "
    "SELECT i.id, i.cat, t.label FROM item i JOIN tag t ON t.item = i.id "
    "WHERE i.qty > 1",
    "CREATE MATERIALIZED VIEW mv_prov WITH PROVENANCE AS "
    "SELECT id, price FROM item WHERE qty >= 2",
    "CREATE MATERIALIZED VIEW mv_totals AS "
    "SELECT cat, count(*) AS n, sum(qty) AS total FROM item GROUP BY cat",
    "CREATE VIEW v_over_mv AS SELECT id, label FROM mv_join WHERE label = 'red'",
)

# The matview identity pairs: reading the view must equal running its
# unfolded definition on the same connection.
_UNFOLDED = {
    "mv_join": "SELECT i.id, i.cat, t.label FROM item i JOIN tag t "
    "ON t.item = i.id WHERE i.qty > 1",
    "mv_prov": "SELECT PROVENANCE id, price FROM item WHERE qty >= 2",
    "mv_totals": "SELECT cat, count(*) AS n, sum(qty) AS total "
    "FROM item GROUP BY cat",
}

QUERIES = (
    "SELECT id, cat, price FROM v_pricey",
    "SELECT * FROM mv_join",
    "SELECT label, count(*) FROM mv_join GROUP BY label ORDER BY label",
    "SELECT m.id, m.label, i.price FROM mv_join m JOIN item i ON i.id = m.id "
    "WHERE i.qty < 5 ORDER BY m.id, m.label",
    "SELECT * FROM mv_prov",
    "SELECT * FROM mv_totals",
    "SELECT cat, total FROM mv_totals WHERE total > 3 ORDER BY total, cat",
    "SELECT id, label FROM v_over_mv",
    "SELECT PROVENANCE id, label FROM v_over_mv",
    "SELECT v.id, v.label FROM v_over_mv v JOIN mv_prov p ON p.id = v.id",
)

# Identical burst applied to every engine between the two assertion
# rounds: inserts join the delta path, the UPDATE rewrites matching
# rows (remove + insert deltas), the DELETE shrinks a join side, and
# all of it leaves mv_totals behind for the read-time catch-up. The
# last three steps delete the NULL group's only row, the 'tool' group's
# first-seen row (so 'tool' moves behind 'toy'), and re-fill the emptied
# NULL group (which comes back last).
_DML = (
    "INSERT INTO item VALUES (7, 'book', 6, 2.5), (8, 'toy', 0, 8.0)",
    "INSERT INTO tag VALUES (7, 'red'), (7, 'paper')",
    "UPDATE item SET qty = qty + 2 WHERE cat = 'toy'",
    "DELETE FROM tag WHERE label = 'heavy'",
    "UPDATE item SET price = 3.75 WHERE id = 3",
    "DELETE FROM item WHERE id = 5",
    "DELETE FROM item WHERE id = 1",
    "INSERT INTO item VALUES (9, NULL, 3, 1.25)",
)


def _connect(engine: str, shards):
    if shards is None:
        return repro.connect(engine=engine)
    previous = os.environ.get("REPRO_PARTITIONS")
    os.environ["REPRO_PARTITIONS"] = str(shards)
    try:
        return repro.connect(engine=engine)
    finally:
        if previous is None:
            del os.environ["REPRO_PARTITIONS"]
        else:
            os.environ["REPRO_PARTITIONS"] = previous


def _build(connection):
    for sql in _DDL[:2]:
        connection.execute(sql)
    connection.load_rows("item", _ITEM_ROWS)
    connection.load_rows("tag", _TAG_ROWS)
    for sql in _DDL[2:]:
        connection.execute(sql)
    return connection


@pytest.fixture(scope="module")
def view_engines():
    """{label: Connection} over identical data, views and matviews."""
    connections = {}
    for label, engine, shards in ENGINE_SPECS:
        connections[label] = _build(_connect(engine, shards))
    yield connections
    for connection in connections.values():
        connection.close()


def test_shard_counts_are_really_pinned(view_engines):
    for label, shards in (("sqlite-partition@2", 2), ("sqlite-partition@3", 3)):
        backend = view_engines[label].pipeline.planner.backend
        assert backend.shard_count == shards


@pytest.mark.parametrize("sql", QUERIES)
def test_view_reads_agree_across_engines(view_engines, sql):
    outcome = assert_engines_agree(view_engines, sql)
    assert outcome[0] == "ok", outcome


@pytest.mark.parametrize("name", sorted(_UNFOLDED))
def test_matview_read_is_identical_to_unfolded_query(view_engines, name):
    """The tentpole identity, held per engine: a matview read returns
    exactly the rows, order and column names of its defining query."""
    for label, connection in view_engines.items():
        through = connection.execute(f"SELECT * FROM {name}")
        through_rows = through.fetchall()
        through_cols = [entry[0] for entry in through.description]
        direct = connection.execute(_UNFOLDED[name])
        assert through_rows == direct.fetchall(), (label, name)
        assert through_cols == [entry[0] for entry in direct.description], (
            label,
            name,
        )


def test_agreement_survives_identical_dml_burst(view_engines):
    """After the same writes everywhere, commit-time maintenance (the
    join and provenance matviews) and read-time catch-up (the aggregate)
    must land every engine on the same contents again."""
    for sql in _DML:
        for label, connection in view_engines.items():
            connection.execute(sql)
        # Interleave reads so maintenance output feeds later deltas.
        for read in ("SELECT * FROM mv_join", "SELECT * FROM mv_totals"):
            outcome = assert_engines_agree(view_engines, read)
            assert outcome[0] == "ok", (sql, read, outcome)
    for sql in QUERIES:
        outcome = assert_engines_agree(view_engines, sql)
        assert outcome[0] == "ok", (sql, outcome)
    for name, unfolded in sorted(_UNFOLDED.items()):
        for label, connection in view_engines.items():
            assert (
                connection.execute(f"SELECT * FROM {name}").fetchall()
                == connection.execute(unfolded).fetchall()
            ), (label, name)
    for label, connection in view_engines.items():
        stats = connection.database.matview_stats()
        assert stats["catch_ups"] > 0, (label, stats)
        assert stats["recomputes"] == 0, (label, stats)


def test_matview_errors_agree_across_engines(view_engines):
    """Refusals are part of the surface: every engine raises the same
    error type and message for DML against a matview."""
    outcomes = run_engines(view_engines, "DELETE FROM mv_join WHERE id = 1")
    baseline = next(iter(outcomes.values()))
    assert baseline[0] == "error"
    assert all(outcome == baseline for outcome in outcomes.values()), outcomes
