"""repro — a full reproduction of the Perm provenance management system.

Perm (Glavic & Alonso, SIGMOD 2009 demonstration; ICDE/EDBT 2009
companions) computes tuple-level data provenance for relational queries
by *query rewriting*: a query ``q`` is transformed into a query ``q+``
whose result is the original result annotated with the contributing base
tuples in ``prov_<relation>_<attribute>`` columns. Because provenance
data and provenance computation are plain relations and plain queries,
they can be stored, optimized and queried with the full power of SQL.

The public API follows DB-API 2.0 (PEP 249): connections, cursors,
``?``/``:name`` placeholders, prepared statements.

Quickstart::

    import repro

    conn = repro.connect()
    conn.execute("CREATE TABLE messages (mid int, text text, uid int)")
    conn.executemany(
        "INSERT INTO messages VALUES (?, ?, ?)",
        [(1, 'lorem ipsum', 3), (2, 'hi there', 2)],
    )

    cursor = conn.execute("SELECT PROVENANCE text FROM messages WHERE uid = ?", (3,))
    for row in cursor:                       # cursors iterate
        print(row)
    print([name for name, *_ in cursor.description])

    # Prepared statements pay the parse/analyze/rewrite/optimize/plan
    # pipeline once; each execute() only pays execution.
    stmt = conn.prepare("SELECT PROVENANCE text FROM messages WHERE uid = ?")
    for uid in (1, 2, 3):
        print(stmt.execute((uid,)).rows)

Repeated ``conn.execute`` of the same SQL text hits an LRU plan cache
(``conn.plan_cache.stats()``), so hot parameterized queries skip straight
to the execute stage.

Three execution engines are available — ``repro.connect(engine="row")``
(tuple-at-a-time volcano iterators, the default), ``engine="vectorized"``
(batch-at-a-time columnar execution, typically 2-5x faster on scan-heavy
queries) and ``engine="sqlite"`` (the paper's pushdown architecture: the
rewritten plan is compiled to one SQL statement executed by an embedded
``sqlite3`` database, often 10-40x faster on large scans). All compile
from the same physical plan decisions and return identical results;
``REPRO_ENGINE`` sets the process default. See README.md for the
benchmark table.

The package layers match the paper's Figure 3 architecture: SQL frontend
(:mod:`repro.sql`), analyzer with view unfolding (:mod:`repro.analyzer`),
the provenance rewriter — the paper's contribution — (:mod:`repro.core`),
logical optimizer (:mod:`repro.optimizer`), planner and executors
(:mod:`repro.planner`, :mod:`repro.executor`), the SQLite pushdown
backend (:mod:`repro.backend`), the explicit pipeline and DB-API front
end (:mod:`repro.engine`), plus the Perm browser (:mod:`repro.browser`)
and example workloads (:mod:`repro.workloads`).
"""

from .core.context import RewriteOptions
from .core.external import attach_external_provenance, detach_external_provenance
from .engine import (
    Connection,
    Cursor,
    Database,
    Pipeline,
    PipelineCounters,
    PlanCache,
    PreparedPlan,
    PreparedStatement,
    connect,
)
from .errors import (
    AnalyzeError,
    CatalogError,
    CostEstimationError,
    ExecutionError,
    IntegrityError,
    NotSupportedError,
    OperationalError,
    ParseError,
    PermError,
    PermWarning,
    PlanError,
    ProgrammingError,
    RewriteError,
    SerializationError,
    ServerBusy,
    TypeCheckError,
)
from .storage.table import Relation

__version__ = "2.0.0"

# ---------------------------------------------------------------------------
# DB-API 2.0 (PEP 249) module-level attributes
# ---------------------------------------------------------------------------
apilevel = "2.0"
# Threads may share the module, but not connections (the engine keeps
# per-connection mutable state: catalog, plan cache, parameter context).
threadsafety = 1
# Positional placeholders are "?"; named ":name" placeholders are also
# accepted (PEP 249 allows supporting several styles).
paramstyle = "qmark"

# PEP 249 exception aliases layered onto the native hierarchy.
# OperationalError is a real class now (transaction-state violations and
# serialization failures), no longer an alias of ExecutionError.
Warning = PermWarning  # noqa: A001 - name required by PEP 249
Error = PermError
DatabaseError = PermError
InterfaceError = ProgrammingError
DataError = ExecutionError
InternalError = PlanError

__all__ = [
    "connect",
    "Connection",
    "Cursor",
    "PreparedStatement",
    "PreparedPlan",
    "Pipeline",
    "PipelineCounters",
    "PlanCache",
    "Relation",
    "RewriteOptions",
    "attach_external_provenance",
    "detach_external_provenance",
    "apilevel",
    "threadsafety",
    "paramstyle",
    "PermError",
    "ParseError",
    "AnalyzeError",
    "TypeCheckError",
    "CatalogError",
    "CostEstimationError",
    "RewriteError",
    "PlanError",
    "ExecutionError",
    "ProgrammingError",
    "NotSupportedError",
    "IntegrityError",
    "Warning",
    "Error",
    "DatabaseError",
    "InterfaceError",
    "DataError",
    "OperationalError",
    "SerializationError",
    "ServerBusy",
    "Database",
    "InternalError",
]
