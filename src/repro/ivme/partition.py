"""Heavy/light data partitioning (Section 3.3).

A :class:`PartitionedRelation` splits a relation into a *light* and a
*heavy* part by the degree of a designated partition variable: a value is
heavy when it appears in at least ``threshold`` tuples.  IVM^epsilon sets
``threshold = N^epsilon`` so that

* every light value has degree < ``threshold`` (small groups), and
* there are at most ``N / (threshold / hysteresis)`` heavy values.

Updates keep the partition consistent: when a value's degree crosses the
promotion (demotion) bound, all its tuples migrate between the parts and
registered listeners are notified so that dependent views can be fixed.
A hysteresis factor separates the two bounds, which makes migrations
amortizable: between two migrations of the same value, at least
``threshold * (1 - 1/hysteresis)`` updates must touch it.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from ..data.relation import Relation
from ..data.schema import Schema
from ..rings.base import Ring
from ..rings.standard import Z

#: Listener signature: (value, moved keys with payloads, became_heavy).
MigrationListener = Callable[[Any, list[tuple[tuple, Any]], bool], None]


class PartitionedRelation:
    """A relation split into light/heavy parts by one variable's degree."""

    def __init__(
        self,
        name: str,
        schema: Schema | Iterable[str],
        partition_variable: str,
        threshold: float,
        ring: Ring = Z,
        hysteresis: float = 2.0,
    ):
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        if partition_variable not in schema:
            raise ValueError(
                f"partition variable {partition_variable!r} not in schema "
                f"{schema.variables!r}"
            )
        if hysteresis <= 1.0:
            raise ValueError("hysteresis must be > 1")
        self.name = name
        self.schema = schema
        self.ring = ring
        self.partition_variable = partition_variable
        self.hysteresis = hysteresis
        self.light = Relation(f"{name}_L", schema, ring)
        self.heavy = Relation(f"{name}_H", schema, ring)
        self._position = schema.position(partition_variable)
        self._degrees: dict[Any, int] = {}
        self._heavy_values: set[Any] = set()
        self._listeners: list[MigrationListener] = []
        #: Optional MaintenanceStats recorder; set by an observing engine
        #: so that migrations and repartitions show up as rebalance events.
        self.stats = None
        self.set_threshold(threshold)

    def set_threshold(self, threshold: float) -> None:
        """Set the heavy bound and migrate values across the new bounds.

        The migration happens here, not in the caller: a forgotten
        re-partition after a threshold change used to leave heavy values
        stranded below the demotion bound (and light values above the
        promotion bound), silently breaking the partition invariant every
        complexity argument rests on.  Registered listeners fire for each
        migrated value exactly as for update-driven migrations.
        """
        if threshold < 1:
            threshold = 1
        self.threshold = threshold
        self._demote_below = threshold / self.hysteresis
        self._enforce_threshold()

    def _enforce_threshold(self) -> None:
        """Migrate every value to the side the current threshold demands."""
        for value in list(self._degrees):
            degree = self._degrees.get(value, 0)
            if value in self._heavy_values:
                if degree < self.threshold:
                    self._migrate(value, to_heavy=False)
            elif degree >= self.threshold:
                self._migrate(value, to_heavy=True)

    def add_listener(self, listener: MigrationListener) -> None:
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # Lookup API
    # ------------------------------------------------------------------

    def get(self, key: tuple) -> Any:
        value = self.light.data.get(key)
        if value is not None:
            return value
        return self.heavy.get(key)

    def is_heavy(self, value: Any) -> bool:
        return value in self._heavy_values

    def degree(self, value: Any) -> int:
        return self._degrees.get(value, 0)

    def part_of(self, value: Any) -> Relation:
        """The part (light or heavy relation) holding ``value``'s tuples."""
        return self.heavy if value in self._heavy_values else self.light

    def __len__(self) -> int:
        return len(self.light) + len(self.heavy)

    def items(self) -> Iterator[tuple[tuple, Any]]:
        yield from self.light.items()
        yield from self.heavy.items()

    def heavy_values(self) -> frozenset:
        return frozenset(self._heavy_values)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def add(self, key: tuple, payload: Any) -> None:
        """Single-tuple update; migrates the touched value if it crosses
        a partition bound."""
        value = key[self._position]
        target = self.part_of(value)
        before = key in target.data
        target.add(key, payload)
        after = key in target.data
        if after and not before:
            self._degrees[value] = self._degrees.get(value, 0) + 1
        elif before and not after:
            remaining = self._degrees.get(value, 0) - 1
            if remaining:
                self._degrees[value] = remaining
            else:
                self._degrees.pop(value, None)
        self._maybe_migrate(value)

    def _maybe_migrate(self, value: Any) -> None:
        degree = self._degrees.get(value, 0)
        if value in self._heavy_values:
            if degree < self._demote_below:
                self._migrate(value, to_heavy=False)
        elif degree >= self.threshold:
            self._migrate(value, to_heavy=True)

    def _migrate(self, value: Any, to_heavy: bool) -> None:
        source = self.light if to_heavy else self.heavy
        target = self.heavy if to_heavy else self.light
        moved = [
            (key, source.get(key))
            for key in list(source.group((self.partition_variable,), (value,)))
        ]
        for key, payload in moved:
            source.set(key, self.ring.zero)
            target.set(key, payload)
        if to_heavy:
            self._heavy_values.add(value)
        else:
            self._heavy_values.discard(value)
        if self.stats is not None:
            self.stats.record_migration(len(moved), to_heavy)
        for listener in self._listeners:
            listener(value, moved, to_heavy)

    def repartition(self, threshold: float | None = None) -> None:
        """Rebuild both parts from scratch under a (new) threshold.

        Used by the periodic global rebalancing step: after sufficiently
        many updates the database size N — and with it the bound
        ``N^epsilon`` — has drifted, so the partition is recomputed in
        one O(N) pass (listeners are notified per migrated value).
        """
        if self.stats is not None:
            self.stats.record_repartition(
                self.threshold if threshold is None else max(1, threshold)
            )
        if threshold is not None:
            self.set_threshold(threshold)
        else:
            self._enforce_threshold()
