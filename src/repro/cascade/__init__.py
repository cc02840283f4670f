"""Cascading q-hierarchical queries over one database (Section 4.2)."""

from .engine import CascadeEngine
from .multi import MultiQueryEngine, QueryAssignment, StaleCascadeError

__all__ = [
    "CascadeEngine",
    "MultiQueryEngine",
    "QueryAssignment",
    "StaleCascadeError",
]
