"""Conjunctive queries with free access patterns (Section 4.3): the
fracture and its tractability test.  A tractable CQAP is maintained by
the one ``ViewTreeEngine`` over the combined fracture."""

from .fracture import Fracture, bind_inputs, fracture, is_tractable_cqap

__all__ = ["Fracture", "bind_inputs", "fracture", "is_tractable_cqap"]
