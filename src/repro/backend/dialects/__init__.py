"""SQL dialects behind the :class:`~repro.backend.dialects.base.Dialect`
interface.

One dialect per SQL target: the browser dialect (the engine's own SQL,
shown in the Perm browser and re-parseable), the SQLite pushdown
dialect, and the optional DuckDB pushdown dialect. The generic plan
compiler (:mod:`repro.backend.compile`) is parameterized by a dialect
plus a :class:`~repro.backend.runtime.MirrorAdapter`; adding an engine
means providing those two objects and registering them
(:func:`repro.backend.register`) — not forking the compiler.
"""

from .base import (  # noqa: F401
    Dialect,
    expr_to_sql,
    quote_identifier,
    quote_identifier_always,
)
from .browser import BROWSER_DIALECT, BrowserDialect  # noqa: F401
from .duckdb import DuckDBDialect  # noqa: F401
from .sqlite import SQLiteDialect  # noqa: F401
