"""Data integrity constraints: FDs and PK-FK maintenance (Section 4.4)."""

from .fds import (
    FunctionalDependency,
    closure,
    fd_guided_order,
    parse_fds,
    q_hierarchical_under_fds,
    sigma_reduct,
)
from .pkfk import Dimension, StarJoinCounter

__all__ = [
    "Dimension",
    "FunctionalDependency",
    "StarJoinCounter",
    "closure",
    "fd_guided_order",
    "parse_fds",
    "q_hierarchical_under_fds",
    "sigma_reduct",
]
