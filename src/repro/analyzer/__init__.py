"""Semantic analysis: AST -> resolved algebra trees.

Mirrors the "Parser & Analyzer" stage of the paper's Figure 3, including
view unfolding, and captures the SQL-PLE constructs as marker nodes for
the provenance rewriter.
"""

from .analyzer import Analyzer, analyze_query  # noqa: F401
from .params import infer_param_types, infer_scalar_param_types  # noqa: F401
from .scope import Scope, ScopeEntry  # noqa: F401
