"""The Perm browser, as text.

The demonstration client of the paper's §3 / Figure 4 "enables a user to
send queries to the system (marker 1), view query results (marker 5),
activate or deactivate rewrite strategies, and choose between different
contribution semantics. In addition to the query results, the browser
presents the rewritten query as an SQL statement (marker 2) together
with algebra trees for the original (marker 3) and rewritten query
(marker 4)."

:class:`PermBrowser` renders the same five panes as text:

1. the (normalized) input query,
2. the rewritten query as SQL,
3. the algebra tree of the original query,
4. the algebra tree of the rewritten query,
5. the result grid.

Strategy toggles and contribution-semantics selection are exposed as
methods, matching the demo's interactive controls.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra.render import render_side_by_side, render_tree
from ..algebra.to_sql import algebra_to_sql
from ..engine.connection import Connection
from ..storage.table import Relation


@dataclass
class BrowserView:
    """The rendered panes for one query."""

    input_sql: str
    rewritten_sql: str
    original_tree: str
    rewritten_tree: str
    result: Relation

    def render(self, max_rows: int | None = 20) -> str:
        """One screen combining all panes, Figure 4 style."""
        sections = [
            ("query input (1)", self.input_sql),
            ("rewritten SQL (2)", self.rewritten_sql),
            (
                "algebra trees (3: original | 4: rewritten)",
                render_side_by_side(self.original_tree, self.rewritten_tree),
            ),
            ("result (5)", self.result.format(max_rows=max_rows)),
        ]
        blocks = []
        for title, body in sections:
            bar = "─" * max(len(title) + 2, 30)
            blocks.append(f"┌{bar}\n│ {title}\n└{bar}\n{body}")
        return "\n\n".join(blocks)


class PermBrowser:
    """Interactive inspection of the provenance rewrite process.

    Accepts any :class:`~repro.engine.connection.Connection`."""

    def __init__(self, db: Connection):
        self.db = db

    # -- the demo's interactive controls --------------------------------
    def set_union_strategy(self, strategy: str) -> None:
        """Activate/deactivate union rewrite strategies
        ("pad", "joinback", "heuristic", "cost")."""
        self.db.options.union_strategy = strategy
        self.db.options.__post_init__()  # validate

    def set_sublink_strategy(self, strategy: str) -> None:
        """Choose the sublink strategy ("gen", "left", "keep",
        "heuristic", "cost")."""
        self.db.options.sublink_strategy = strategy
        self.db.options.__post_init__()

    def set_difference_semantics(self, semantics: str) -> None:
        """"lineage" (all of T2 contributes) or "left-only"."""
        self.db.options.difference_semantics = semantics
        self.db.options.__post_init__()

    # -- pane rendering ---------------------------------------------------
    def run(self, sql: str) -> BrowserView:
        """Execute *sql* and build all browser panes."""
        profile = self.db.profile(sql)
        assert profile.analyzed is not None
        assert profile.rewritten is not None
        assert profile.result is not None
        return BrowserView(
            input_sql=sql.strip(),
            rewritten_sql=algebra_to_sql(profile.rewritten),
            original_tree=render_tree(profile.analyzed),
            rewritten_tree=render_tree(profile.rewritten),
            result=profile.result,
        )

    def show(self, sql: str, max_rows: int | None = 20) -> str:
        """Render the full browser screen for *sql*."""
        return self.run(sql).render(max_rows=max_rows)
