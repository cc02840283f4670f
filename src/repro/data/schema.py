"""Schemas: ordered tuples of variable names with set-like helpers.

A schema is "a tuple of variables, which we also see as a set" (Section 2).
:class:`Schema` keeps the tuple order (needed to interpret key tuples) while
offering the set operations the query machinery needs.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator


class Schema:
    """An ordered, duplicate-free tuple of variable names."""

    __slots__ = ("variables", "_positions", "_positions_cache", "_projector_cache")

    def __init__(self, variables: Iterable[str]):
        variables = tuple(variables)
        positions: dict[str, int] = {}
        for i, var in enumerate(variables):
            if var in positions:
                raise ValueError(f"duplicate variable {var!r} in schema {variables!r}")
            positions[var] = i
        self.variables = variables
        self._positions = positions
        # Memoized positions()/projector() results.  Schemas are immutable
        # and shared by every operator touching a relation, so the view-tree
        # hot path resolves each (schema, variables) pair exactly once.
        self._positions_cache: dict[tuple[str, ...], tuple[int, ...]] = {}
        self._projector_cache: dict = {}

    def __reduce__(self):
        # Rebuild from the variable tuple: the caches are derived state and
        # need not travel with a pickled relation (a shard worker's
        # database crosses a pipe inside its ShardWorkerSpec).
        return (Schema, (self.variables,))

    @classmethod
    def of(cls, *variables: str) -> "Schema":
        """Convenience constructor: ``Schema.of('A', 'B')``."""
        return cls(variables)

    def position(self, variable: str) -> int:
        """Index of ``variable`` within key tuples over this schema."""
        return self._positions[variable]

    def positions(self, variables: Iterable[str]) -> tuple[int, ...]:
        """Indexes of several variables, in the order given (memoized)."""
        variables = tuple(variables)
        cached = self._positions_cache.get(variables)
        if cached is None:
            cached = tuple(self._positions[v] for v in variables)
            self._positions_cache[variables] = cached
        return cached

    def project(self, key: tuple, variables: Iterable[str]) -> tuple:
        """Project a key tuple over this schema onto ``variables``."""
        return self.projector(variables)(key)

    def projector(self, variables: Iterable[str]) -> itemgetter:
        """Return a ``key -> projected key`` function (memoized).

        The one projection routine of the data layer: a C-level
        :func:`operator.itemgetter` that always returns a tuple.  Ascending
        contiguous positions — one position and none included — take the
        slice form (``key[i:j]``), which for the full schema returns the
        key itself; any other order picks the positions one by one.
        Picklable, so group indexes holding one travel with their relation.
        """
        variables = tuple(variables)
        projector = self._projector_cache.get(variables)
        if projector is None:
            positions = self.positions(variables)
            start = positions[0] if positions else 0
            if positions == tuple(range(start, start + len(positions))):
                projector = itemgetter(slice(start, start + len(positions)))
            else:
                projector = itemgetter(*positions)
            self._projector_cache[variables] = projector
        return projector

    def union(self, other: "Schema") -> "Schema":
        """Variables of ``self`` followed by the new variables of ``other``."""
        extra = [v for v in other.variables if v not in self._positions]
        return Schema(self.variables + tuple(extra))

    def intersect(self, other: "Schema | Iterable[str]") -> "Schema":
        members = set(other.variables if isinstance(other, Schema) else other)
        return Schema(v for v in self.variables if v in members)

    def without(self, variables: Iterable[str]) -> "Schema":
        dropped = set(variables)
        return Schema(v for v in self.variables if v not in dropped)

    def covers(self, variables: Iterable[str]) -> bool:
        return all(v in self._positions for v in variables)

    def __contains__(self, variable: str) -> bool:
        return variable in self._positions

    def __iter__(self) -> Iterator[str]:
        return iter(self.variables)

    def __len__(self) -> int:
        return len(self.variables)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Schema):
            return self.variables == other.variables
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.variables)

    def __repr__(self) -> str:
        return f"Schema{self.variables!r}"

    def as_set(self) -> frozenset[str]:
        return frozenset(self.variables)


EMPTY_SCHEMA = Schema(())
