"""Static versus dynamic relations (Section 4.5): the tractability
analysis and the variable-order rewrite.  The one ``ViewTreeEngine``
runs the order and rejects updates to static relations."""

from ..viewtree.engine import StaticRelationUpdateError
from .analysis import (
    constant_update_atoms,
    enumerate_orders,
    find_static_dynamic_order,
    is_static_dynamic_tractable,
)

__all__ = [
    "StaticRelationUpdateError",
    "constant_update_atoms",
    "enumerate_orders",
    "find_static_dynamic_order",
    "is_static_dynamic_tractable",
]
