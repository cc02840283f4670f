"""Payload rings and lifting functions (Section 2 of the paper)."""

from .analytics import CovarianceRing, Moments, moment_lifting
from .base import Ring, Semiring, check_ring_axioms, negate
from .lifting import Lifting, LiftingMap, count_lifting, identity_lifting
from .provenance import PROVENANCE, Polynomial, ProvenanceSemiring
from .standard import (
    B,
    MIN_PLUS,
    R,
    Z,
    BooleanSemiring,
    FloatRing,
    IntegerRing,
    MinPlusSemiring,
    ProductRing,
)

__all__ = [
    "B",
    "BooleanSemiring",
    "CovarianceRing",
    "FloatRing",
    "IntegerRing",
    "Lifting",
    "LiftingMap",
    "MIN_PLUS",
    "MinPlusSemiring",
    "Moments",
    "PROVENANCE",
    "Polynomial",
    "ProductRing",
    "ProvenanceSemiring",
    "R",
    "Ring",
    "Semiring",
    "Z",
    "check_ring_axioms",
    "count_lifting",
    "identity_lifting",
    "moment_lifting",
    "negate",
]
