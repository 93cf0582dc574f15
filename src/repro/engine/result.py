"""Execution artifacts: per-stage profiling of the Figure 3 pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..algebra.nodes import Node
    from ..executor.iterators import PhysicalOp
    from ..sql import ast
    from ..storage.table import Relation


@dataclass
class StageTiming:
    """Wall-clock duration of one pipeline stage, in seconds."""

    name: str
    seconds: float


@dataclass
class ExecutionProfile:
    """Everything produced while executing one query, stage by stage.

    The stages mirror the paper's Figure 3: parse/analyze (syntactic and
    semantic analysis, view unfolding), provenance rewrite, optimize,
    plan, execute.
    """

    sql: str
    statement: Optional["ast.Statement"] = None
    analyzed: Optional["Node"] = None
    rewritten: Optional["Node"] = None
    optimized: Optional["Node"] = None
    physical: Optional["PhysicalOp"] = None
    result: Optional["Relation"] = None
    provenance_attrs: tuple[str, ...] = ()
    timings: list[StageTiming] = field(default_factory=list)

    def timing(self, stage: str) -> float:
        for entry in self.timings:
            if entry.name == stage:
                return entry.seconds
        raise KeyError(f"no timing recorded for stage {stage!r}")

    @property
    def total_seconds(self) -> float:
        return sum(entry.seconds for entry in self.timings)

    def summary(self) -> str:
        """Aligned per-stage timing table (the CLI's ``\\timing``)."""
        width = max(len(t.name) for t in self.timings)
        lines = [
            f"{t.name.ljust(width)}  {t.seconds * 1000:10.3f} ms" for t in self.timings
        ]
        lines.append(f"{'total'.ljust(width)}  {self.total_seconds * 1000:10.3f} ms")
        return "\n".join(lines)
