"""Name-resolution scopes.

A :class:`Scope` describes the attributes visible to expressions of one
SELECT block: one :class:`ScopeEntry` per FROM item, each mapping the
item's exposed column names to the unique attribute names of the algebra
tree (``alias.column``). Scopes chain to their enclosing query's scope,
which is how correlated sublinks resolve to
:class:`~repro.algebra.expressions.OuterColumn` references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..catalog.schema import Schema
from ..errors import AnalyzeError


@dataclass
class ScopeEntry:
    """One FROM item: alias plus exposed-name -> unique-attribute mapping.

    ``ordered`` keeps every exposed column in declaration order (used for
    ``*`` expansion); ``columns`` maps lower-cased exposed names to unique
    attribute names for reference resolution (first occurrence wins when
    a derived table exposes duplicate names).
    """

    alias: str
    ordered: list[tuple[str, str]] = field(default_factory=list)
    columns: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_names(cls, alias: str, exposed: list[str], unique: list[str]) -> "ScopeEntry":
        if len(exposed) != len(unique):
            raise AnalyzeError(f"alias {alias!r}: {len(exposed)} columns vs {len(unique)} names")
        entry = cls(alias=alias)
        for name, target in zip(exposed, unique):
            entry.ordered.append((name, target))
            entry.columns.setdefault(name.lower(), target)
        return entry


class Scope:
    """Attributes visible to one SELECT block, chained to outer scopes.

    ``schema`` types the unique attribute names the entries map to, and
    ``outer_schemas`` the enclosing scopes' (innermost first, as
    :func:`~repro.algebra.expressions.infer_type` takes them)."""

    def __init__(
        self,
        entries: list[ScopeEntry],
        parent: Optional["Scope"] = None,
        schema: Schema = Schema(()),
    ):
        self.entries = entries
        self.parent = parent
        self.schema = schema
        self.outer_schemas = () if parent is None else (parent.schema, *parent.outer_schemas)
        seen: set[str] = set()
        for entry in entries:
            key = entry.alias.lower()
            if key in seen:
                raise AnalyzeError(f"table alias {entry.alias!r} specified more than once")
            seen.add(key)

    # ------------------------------------------------------------------
    def resolve_local(self, qualifier: Optional[str], name: str) -> Optional[str]:
        """Resolve in this scope only; returns the unique attribute name,
        ``None`` if not found. Raises on ambiguity."""
        key = name.lower()
        if qualifier is not None:
            for entry in self.entries:
                if entry.alias.lower() == qualifier.lower():
                    if key in entry.columns:
                        return entry.columns[key]
                    raise AnalyzeError(f"column {name!r} not found in relation {qualifier!r}")
            return None
        matches = [entry.columns[key] for entry in self.entries if key in entry.columns]
        if len(matches) > 1:
            raise AnalyzeError(f"column reference {name!r} is ambiguous")
        return matches[0] if matches else None

    def resolve(self, qualifier: Optional[str], name: str) -> tuple[str, int]:
        """Resolve through the scope chain.

        Returns ``(unique_attribute_name, level)`` where level 0 is this
        scope and level N a correlated reference N queries out.
        """
        scope: Optional[Scope] = self
        level = 0
        while scope is not None:
            found = scope.resolve_local(qualifier, name)
            if found is not None:
                return found, level
            scope = scope.parent
            level += 1
        full = f"{qualifier}.{name}" if qualifier else name
        raise AnalyzeError(f"column {full!r} does not exist")

    def entry(self, alias: str) -> Optional[ScopeEntry]:
        for entry in self.entries:
            if entry.alias.lower() == alias.lower():
                return entry
        return None

    def star_columns(self, qualifier: Optional[str] = None) -> list[tuple[str, str]]:
        """(exposed name, unique attribute) pairs for ``*`` / ``alias.*``."""
        if qualifier is not None:
            entry = self.entry(qualifier)
            if entry is None:
                raise AnalyzeError(f"relation {qualifier!r} not found in FROM clause")
            return list(entry.ordered)
        out: list[tuple[str, str]] = []
        for entry in self.entries:
            out.extend(entry.ordered)
        return out
