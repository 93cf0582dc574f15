"""The paper's Figure 1 example database and queries.

An online forum with users, messages, messages imported from other
forums, and approvals. The tables, rows and the queries q1–q3 are
exactly those of Figure 1; the provenance of q1 (Figure 2) and the
§2.4 listings are reproduced byte for byte by
``tests/core/test_paper_figures.py``.
"""

from __future__ import annotations

from ..engine.connection import Connection, connect

# The example queries of Figure 1 (q2 is the CREATE VIEW below).
Q1 = "SELECT mId, text FROM messages UNION SELECT mId, text FROM imports"
Q2 = f"CREATE VIEW v1 AS {Q1}"
Q3 = (
    "SELECT count(*), text "
    "FROM v1 JOIN approved a ON (v1.mId = a.mId) "
    "GROUP BY v1.mId, text"
)

FORUM_QUERIES = {"q1": Q1, "q2": Q2, "q3": Q3}

# SQL-PLE examples of the paper's §2.4, verbatim modulo the provenance
# attribute naming scheme (the paper abbreviates `prov_imports_origin`
# as `p_origin` "to keep the examples compact").
SQLPLE_AGGREGATION = (
    "SELECT PROVENANCE ON CONTRIBUTION (INFLUENCE) count(*), text "
    "FROM v1 JOIN approved a ON v1.mId = a.mId "
    "GROUP BY v1.mId, text"
)
SQLPLE_QUERYING_PROVENANCE = (
    "SELECT text, prov_imports_origin "
    "FROM (SELECT PROVENANCE count(*) AS cnt, text "
    "      FROM v1 JOIN approved a ON v1.mId = a.mId "
    "      GROUP BY v1.mId, text) AS prov "
    "WHERE cnt > 0 AND prov_imports_origin = 'superForum'"
)
SQLPLE_BASERELATION = "SELECT PROVENANCE text FROM v1 BASERELATION"


def create_forum_db(
    db: Connection | None = None,
    engine: str | None = None,
    optimizer: str | None = None,
) -> Connection:
    """Create the Figure 1 database (tables, rows and the view v1)."""
    db = db or connect(engine=engine, optimizer=optimizer)
    db.run(
        """
        CREATE TABLE messages (mId int, text text, uId int);
        CREATE TABLE users (uId int, name text);
        CREATE TABLE imports (mId int, text text, origin text);
        CREATE TABLE approved (uId int, mId int);
        """
    )
    db.load_rows(
        "messages",
        [
            (1, "lorem ipsum ...", 3),
            (4, "hi there ...", 2),
        ],
    )
    db.load_rows("users", [(1, "Bert"), (2, "Gert"), (3, "Gertrud")])
    db.load_rows(
        "imports",
        [
            (2, "hello ...", "superForum"),
            (3, "I don't ...", "HiBoard"),
        ],
    )
    db.load_rows("approved", [(2, 2), (1, 4), (2, 4), (3, 4)])
    db.run(Q2)
    return db


def scaled_forum_db(
    messages: int = 1000,
    users: int = 100,
    imports: int = 500,
    approvals_per_message: int = 3,
    db: Connection | None = None,
    seed: int = 7,
    engine: str | None = None,
    optimizer: str | None = None,
) -> Connection:
    """A larger forum instance with the same schema, for benchmarks.

    Deterministic given *seed*; message ids are disjoint between
    ``messages`` (odd ids) and ``imports`` (even ids), mirroring the
    paper's instance where the two relations overlap only by accident.
    """
    import random

    rng = random.Random(seed)
    db = db or connect(engine=engine, optimizer=optimizer)
    db.run(
        """
        CREATE TABLE messages (mId int, text text, uId int);
        CREATE TABLE users (uId int, name text);
        CREATE TABLE imports (mId int, text text, origin text);
        CREATE TABLE approved (uId int, mId int);
        """
    )
    db.load_rows("users", [(u, f"user_{u}") for u in range(1, users + 1)])
    db.load_rows(
        "messages",
        [
            (2 * i + 1, f"message body {2 * i + 1}", rng.randint(1, users))
            for i in range(messages)
        ],
    )
    origins = ["superForum", "HiBoard", "chatPlace", "boardX"]
    db.load_rows(
        "imports",
        [
            (2 * i + 2, f"imported body {2 * i + 2}", rng.choice(origins))
            for i in range(imports)
        ],
    )
    approvals = []
    for i in range(messages):
        mid = 2 * i + 1
        for approver in rng.sample(range(1, users + 1), min(approvals_per_message, users)):
            approvals.append((approver, mid))
    db.load_rows("approved", approvals)
    db.run(Q2)
    return db
