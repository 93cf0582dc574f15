"""Engine: the user-facing database session.

:class:`Connection` / :class:`Cursor` form the DB-API 2.0 front end;
:class:`Pipeline` is the explicit Figure 3 stage sequence with its plan
cache and prepared plans.
"""

from .connection import Connection, connect  # noqa: F401
from .cursor import Cursor  # noqa: F401
from .database import Database  # noqa: F401
from .pipeline import (  # noqa: F401
    Pipeline,
    PipelineCounters,
    PlanCache,
    PreparedPlan,
    bind_parameters,
)
from .prepared import PreparedStatement  # noqa: F401
from .result import ExecutionProfile, StageTiming  # noqa: F401
