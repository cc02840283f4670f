"""Standard payload rings: integers, reals, Booleans, tropical min-plus.

The integer ring is the workhorse of the paper (Section 2): payloads are
tuple multiplicities, a positive multiplicity counts derivations, and a
negative multiplicity can transiently appear under out-of-order updates.
"""

from __future__ import annotations

from typing import Any

from .base import Ring, Semiring


class IntegerRing(Ring):
    """The ring of integers ``(Z, +, *, 0, 1)`` used for multiplicities."""

    name = "Z"
    add_operator = "+"
    mul_operator = "*"

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        return a + b

    def mul(self, a: int, b: int) -> int:
        return a * b

    def neg(self, a: int) -> int:
        return -a


class FloatRing(Ring):
    """The field of floats, for SUM-style numeric aggregates.

    Float payloads that fall within ``tolerance`` of zero are treated as
    zero, so that a long insert/delete history does not leave residual
    entries due to rounding.
    """

    name = "R"
    exact_zero = False  # tolerance band, not plain equality
    add_operator = "+"
    mul_operator = "*"

    def __init__(self, tolerance: float = 1e-12):
        self.tolerance = tolerance

    @property
    def zero(self) -> float:
        return 0.0

    @property
    def one(self) -> float:
        return 1.0

    def add(self, a: float, b: float) -> float:
        return a + b

    def mul(self, a: float, b: float) -> float:
        return a * b

    def neg(self, a: float) -> float:
        return -a

    def is_zero(self, a: float) -> bool:
        return abs(a) <= self.tolerance

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FloatRing) and other.tolerance == self.tolerance

    def __hash__(self) -> int:
        return hash((FloatRing, self.tolerance))


class BooleanSemiring(Semiring):
    """The Boolean semiring ``({F, T}, or, and, F, T)``.

    Used for set semantics and for *detection* queries such as the Boolean
    triangle query of Section 3.4.  It is not a ring — ``True`` has no
    additive inverse — so deletes are not supported under it; maintain the
    integer-ring count and test positivity instead (exactly how the paper
    phrases triangle detection as "count greater than 0").
    """

    name = "B"

    @property
    def zero(self) -> bool:
        return False

    @property
    def one(self) -> bool:
        return True

    def add(self, a: bool, b: bool) -> bool:
        return a or b

    def mul(self, a: bool, b: bool) -> bool:
        return a and b


class MinPlusSemiring(Semiring):
    """The tropical semiring ``(R ∪ {∞}, min, +, ∞, 0)``.

    Included because shortest-path style aggregates are the classic example
    of a non-invertible aggregation: it demonstrates why the library's
    insert-delete path demands a true ring while the insert-only path
    (Section 4.6) happily accepts any semiring.
    """

    name = "min-plus"

    INFINITY = float("inf")

    @property
    def zero(self) -> float:
        return self.INFINITY

    @property
    def one(self) -> float:
        return 0.0

    def add(self, a: float, b: float) -> float:
        return a if a <= b else b

    def mul(self, a: float, b: float) -> float:
        return a + b


class ProductRing(Ring):
    """Component-wise product of rings, payloads are tuples.

    Product rings let one view tree maintain several aggregates at once,
    e.g. ``(COUNT, SUM(units))`` with a single propagation pass — the basic
    trick behind F-IVM's composite analytics payloads.
    """

    def __init__(self, *factors: Ring):
        if not factors:
            raise ValueError("ProductRing needs at least one factor ring")
        for factor in factors:
            if not isinstance(factor, Ring):
                raise TypeError(f"ProductRing factors must be rings, got {factor!r}")
        self.factors = factors
        self.name = " x ".join(f.name for f in factors)
        # Tuple equality against the zero tuple is exact iff every
        # component's zero test is.
        self.exact_zero = all(f.exact_zero for f in factors)

    @property
    def zero(self) -> tuple[Any, ...]:
        return tuple(f.zero for f in self.factors)

    @property
    def one(self) -> tuple[Any, ...]:
        return tuple(f.one for f in self.factors)

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple(f.add(x, y) for f, x, y in zip(self.factors, a, b))

    def mul(self, a: tuple, b: tuple) -> tuple:
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def neg(self, a: tuple) -> tuple:
        return tuple(f.neg(x) for f, x in zip(self.factors, a))

    def is_zero(self, a: tuple) -> bool:
        return all(f.is_zero(x) for f, x in zip(self.factors, a))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProductRing) and other.factors == self.factors

    def __hash__(self) -> int:
        return hash((ProductRing, self.factors))


#: Shared singletons; prefer these over constructing new instances.
Z = IntegerRing()
R = FloatRing()
B = BooleanSemiring()
MIN_PLUS = MinPlusSemiring()
