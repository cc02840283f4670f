"""Ring and semiring abstractions for relation payloads.

Following Section 2 of the paper, a relation over a schema ``S`` and a ring
``(D, +, *, 0, 1)`` maps tuples over ``S`` to ring values.  Inserts map
tuples to positive ring values and deletes to negative ring values, so both
kinds of updates are plain tuples and commute with each other.

Every concrete ring in :mod:`repro.rings` subclasses :class:`Ring` (or
:class:`Semiring` when no additive inverse exists).  Ring instances are
stateless and cheap; modules typically share the singletons exported from
:mod:`repro.rings`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable


class Semiring(ABC):
    """A commutative semiring ``(D, +, *, 0, 1)``.

    Semirings support inserts but not deletes: without additive inverses a
    tuple cannot be retracted from a payload.  The full IVM machinery in
    this library therefore requires a :class:`Ring`; semirings are exposed
    for the insert-only setting of Section 4.6 and for static evaluation.
    """

    #: Human-readable name used in reprs and error messages.
    name: str = "semiring"

    #: Whether ``value == self.zero`` is exactly :meth:`is_zero`.  Hot
    #: loops (the compiled batch kernel, :meth:`Relation.add_delta`)
    #: inline the equality comparison when this is set, skipping a
    #: Python method call per payload.  Subclasses that override
    #: :meth:`is_zero` with anything other than plain equality
    #: (tolerance bands, structural emptiness checks) MUST set this to
    #: ``False``.
    exact_zero: bool = True

    #: Infix operator symbols that compute :meth:`add` / :meth:`mul` on
    #: payload values (``"+"`` / ``"*"``), or ``None`` when the ring
    #: operation is not a plain Python operator.  The code generator
    #: (:mod:`repro.viewtree.codegen`) inlines the operator into emitted
    #: kernels, turning a Python method call per ring operation into a
    #: single bytecode.  Subclasses MUST only set these when the operator
    #: expression is *bit-identical* to the method for every payload.
    add_operator: str | None = None
    mul_operator: str | None = None

    #: numpy dtype name that losslessly represents this ring's payloads
    #: (e.g. ``"float64"``), or ``None``.  The columnar batch path uses
    #: it to coalesce numeric payload arrays with vectorized numpy ops;
    #: accumulation must stay bit-identical to sequential :meth:`add`.
    numeric_dtype: str | None = None

    @property
    @abstractmethod
    def zero(self) -> Any:
        """The additive identity; tuples mapped to ``zero`` are absent."""

    @property
    @abstractmethod
    def one(self) -> Any:
        """The multiplicative identity; the payload of a bare insert."""

    @abstractmethod
    def add(self, a: Any, b: Any) -> Any:
        """Return ``a + b``."""

    @abstractmethod
    def mul(self, a: Any, b: Any) -> Any:
        """Return ``a * b``."""

    def is_zero(self, a: Any) -> bool:
        """True when ``a`` equals the additive identity.

        Relations drop entries whose payload is zero, keeping their size
        equal to the number of tuples with non-zero payload (Section 2).
        """
        return a == self.zero

    def sum(self, values: Iterable[Any]) -> Any:
        """Fold ``values`` with :meth:`add`, starting from :attr:`zero`."""
        acc = self.zero
        for value in values:
            acc = self.add(acc, value)
        return acc

    def product(self, values: Iterable[Any]) -> Any:
        """Fold ``values`` with :meth:`mul`, starting from :attr:`one`."""
        acc = self.one
        for value in values:
            acc = self.mul(acc, value)
        return acc

    @property
    def has_negation(self) -> bool:
        """Whether additive inverses exist (i.e. this is a ring)."""
        return False

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{type(self).__name__} {self.name}>"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))


class Ring(Semiring):
    """A commutative ring: a semiring with additive inverses.

    The additive inverse is what makes deletes expressible as ordinary
    tuples with negated payloads, which in turn makes update batches
    commutative (Section 2).
    """

    name = "ring"

    @abstractmethod
    def neg(self, a: Any) -> Any:
        """Return the additive inverse ``-a``."""

    def sub(self, a: Any, b: Any) -> Any:
        """Return ``a - b`` = ``a + (-b)``."""
        return self.add(a, self.neg(b))

    @property
    def has_negation(self) -> bool:
        return True


def negate(ring: Semiring, payload: Any) -> Any:
    """``ring.neg(payload)``: the payload that deletes ``payload``.

    Raises :class:`TypeError` naming ``ring`` when it has no additive
    inverses (:attr:`Semiring.has_negation`): a semiring cannot express a
    delete, so a caller checks here before it writes anything.
    """
    if not ring.has_negation:
        raise TypeError(
            f"cannot delete under {type(ring).__name__} ({ring.name!r}): "
            "it has no additive inverses; deletes need a ring"
        )
    return ring.neg(payload)


def check_ring_axioms(ring: Semiring, samples: list[Any]) -> None:
    """Assert the (semi)ring axioms on a list of sample values.

    This is a testing utility: it raises :class:`AssertionError` with a
    descriptive message on the first violated axiom.  Property-based tests
    drive it with randomly generated samples.
    """
    zero, one = ring.zero, ring.one
    for a in samples:
        assert ring.add(a, zero) == a, f"{ring}: a + 0 != a for a={a!r}"
        assert ring.add(zero, a) == a, f"{ring}: 0 + a != a for a={a!r}"
        assert ring.mul(a, one) == a, f"{ring}: a * 1 != a for a={a!r}"
        assert ring.mul(one, a) == a, f"{ring}: 1 * a != a for a={a!r}"
        assert ring.is_zero(ring.mul(a, zero)), f"{ring}: a * 0 != 0 for a={a!r}"
        if isinstance(ring, Ring):
            assert ring.is_zero(ring.add(a, ring.neg(a))), (
                f"{ring}: a + (-a) != 0 for a={a!r}"
            )
    for a in samples:
        for b in samples:
            assert ring.add(a, b) == ring.add(b, a), (
                f"{ring}: + not commutative for {a!r}, {b!r}"
            )
            for c in samples:
                assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c)), (
                    f"{ring}: + not associative for {a!r}, {b!r}, {c!r}"
                )
                assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c)), (
                    f"{ring}: * not associative for {a!r}, {b!r}, {c!r}"
                )
                lhs = ring.mul(a, ring.add(b, c))
                rhs = ring.add(ring.mul(a, b), ring.mul(a, c))
                assert lhs == rhs, (
                    f"{ring}: * does not distribute over + for {a!r}, {b!r}, {c!r}"
                )
