"""Pushdown execution backends.

The paper's Perm prototype executes provenance-rewritten query trees by
deparsing them to SQL and handing them to a conventional DBMS
(PostgreSQL). This package reproduces that architecture: compiled plans
run inside an embedded mirror database, selected with
``repro.connect(engine="sqlite")`` (or ``"sqlite-partition"``,
``"duckdb"``, ...).

Backends are pluggable. A backend is three objects behind two
interfaces —

* a :class:`~repro.backend.dialects.base.Dialect` (how SQL is spelled),
* a :class:`~repro.backend.runtime.MirrorAdapter` (how tables are
  mirrored and statements run),
* a :class:`BackendSpec` tying them into the planner,

— registered through :func:`register`. The shared plan compiler
(:mod:`repro.backend.compile`) provides the ordering channel, fallback
machinery and exact-integer gates once, for every backend.

This module stays import-light: the registry loads eagerly (engine
validation must know the names), while the sqlite/duckdb/partition
modules — and their connections — load only when first used.
"""

from .registry import (  # noqa: F401
    BackendSpec,
    backend_specs,
    differential_engines,
    engine_names,
    get_spec,
    register,
    register_builtins,
    unknown_engine_message,
    unregister,
)

register_builtins()

# Heavier names, resolved lazily (PEP 562) to keep `import repro` from
# touching sqlite3.
_LAZY = {
    "PushdownCompiler": "compile",
    "Unsupported": "compile",
    "compile_pushdown_plan": "compile",
    "SQLiteBackend": "sqlite",
    "SQLiteQueryOp": "sqlite",
    "MirrorAdapter": "runtime",
    "PushdownQueryOp": "runtime",
    "IntegerRangeEscape": "runtime",
    "SubplanSlot": "runtime",
    "LimitBind": "runtime",
    "PartitionedSQLiteBackend": "partition",
    "PartitionedQueryOp": "partition",
    "resolve_shard_count": "partition",
    "Dialect": "dialects",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)
