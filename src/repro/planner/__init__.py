"""Planner: logical algebra -> physical operator trees."""

from .planner import Planner, plan  # noqa: F401
