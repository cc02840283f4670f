"""The covariance (degree-2 moments) ring for in-database analytics.

Section 6 of the paper points to the F-IVM line of work that maintains
machine-learning aggregates over evolving databases.  The key enabler is a
ring whose elements carry the degree-2 statistics needed by linear
regression: a count, per-variable sums, and per-variable-pair sums of
products.  Maintaining one view tree over this ring keeps the full
covariance matrix of the join result fresh under updates, without ever
materializing the join.

An element is a triple ``(count, sums, quads)`` where ``sums`` maps a
variable name to ``SUM(x)`` and ``quads`` maps an unordered variable pair
to ``SUM(x * y)``.  Multiplication follows the F-IVM composition rule::

    (c1,s1,Q1) * (c2,s2,Q2) =
        (c1*c2, c2*s1 + c1*s2, c2*Q1 + c1*Q2 + s1 (x) s2 + s2 (x) s1)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .base import Ring


def _pair(x: str, y: str) -> tuple[str, str]:
    """Canonical (sorted) key for the symmetric quadratic entry (x, y)."""
    return (x, y) if x <= y else (y, x)


@dataclass(frozen=True)
class Moments:
    """A covariance-ring element: count, linear sums, quadratic sums."""

    count: float = 0.0
    sums: Mapping[str, float] = field(default_factory=dict)
    quads: Mapping[tuple[str, str], float] = field(default_factory=dict)

    def sum_of(self, variable: str) -> float:
        """``SUM(variable)`` over the tuples this element aggregates."""
        return self.sums.get(variable, 0.0)

    def quad_of(self, x: str, y: str) -> float:
        """``SUM(x * y)`` over the tuples this element aggregates."""
        return self.quads.get(_pair(x, y), 0.0)

    def mean_of(self, variable: str) -> float:
        """``AVG(variable)``; zero when the element is empty."""
        if self.count == 0:
            return 0.0
        return self.sum_of(variable) / self.count

    def covariance(self, x: str, y: str) -> float:
        """Sample covariance ``E[xy] - E[x]E[y]`` over the aggregated tuples."""
        if self.count == 0:
            return 0.0
        return self.quad_of(x, y) / self.count - self.mean_of(x) * self.mean_of(y)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Moments):
            return NotImplemented
        return (
            self.count == other.count
            and _clean(self.sums) == _clean(other.sums)
            and _clean(self.quads) == _clean(other.quads)
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.count,
                frozenset(_clean(self.sums).items()),
                frozenset(_clean(self.quads).items()),
            )
        )


def _clean(mapping: Mapping) -> dict:
    return {k: v for k, v in mapping.items() if v != 0}


class CovarianceRing(Ring):
    """Ring of :class:`Moments` elements (the F-IVM degree-2 ring)."""

    name = "covariance"
    exact_zero = False  # cleans near-zero float moments first

    @property
    def zero(self) -> Moments:
        return Moments(0.0, {}, {})

    @property
    def one(self) -> Moments:
        return Moments(1.0, {}, {})

    def add(self, a: Moments, b: Moments) -> Moments:
        sums = dict(a.sums)
        for var, value in b.sums.items():
            sums[var] = sums.get(var, 0.0) + value
        quads = dict(a.quads)
        for key, value in b.quads.items():
            quads[key] = quads.get(key, 0.0) + value
        return Moments(a.count + b.count, _clean(sums), _clean(quads))

    def neg(self, a: Moments) -> Moments:
        return Moments(
            -a.count,
            {var: -value for var, value in a.sums.items()},
            {key: -value for key, value in a.quads.items()},
        )

    def mul(self, a: Moments, b: Moments) -> Moments:
        count = a.count * b.count
        sums: dict[str, float] = {}
        for var, value in a.sums.items():
            sums[var] = sums.get(var, 0.0) + b.count * value
        for var, value in b.sums.items():
            sums[var] = sums.get(var, 0.0) + a.count * value
        quads: dict[tuple[str, str], float] = {}
        for key, value in a.quads.items():
            quads[key] = quads.get(key, 0.0) + b.count * value
        for key, value in b.quads.items():
            quads[key] = quads.get(key, 0.0) + a.count * value
        # Cross terms s1 (x) s2 + s2 (x) s1.  On the symmetric one-entry-per-
        # unordered-pair representation, iterating both (a, b) orderings
        # already covers the off-diagonal symmetric sum; the diagonal entry
        # (x, x) is visited once and needs the explicit factor 2.
        for var_a, value_a in a.sums.items():
            for var_b, value_b in b.sums.items():
                key = _pair(var_a, var_b)
                term = value_a * value_b
                if var_a == var_b:
                    term *= 2
                quads[key] = quads.get(key, 0.0) + term
        return Moments(count, _clean(sums), _clean(quads))

    def is_zero(self, a: Moments) -> bool:
        return a.count == 0 and not _clean(a.sums) and not _clean(a.quads)


class MomentLifting:
    """Lifting for a numeric ``variable`` into the covariance ring.

    ``g_X(x) = (count=1, sums={X: x}, quads={(X, X): x * x})`` — the degree-2
    moments of the single value ``x``.  A named class (not a closure), as
    :class:`~repro.rings.lifting.ConstantLifting` is, so engines holding
    it pickle — the process-pool shard executor ships engines whole.
    """

    __slots__ = ("variable",)

    def __init__(self, variable: str):
        self.variable = variable

    def __call__(self, value) -> Moments:
        x = float(value)
        variable = self.variable
        return Moments(1.0, {variable: x}, {(variable, variable): x * x})


def moment_lifting(variable: str) -> MomentLifting:
    """The covariance-ring lifting of ``variable`` (:class:`MomentLifting`)."""
    return MomentLifting(variable)
