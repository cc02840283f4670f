"""Updates: single-tuple deltas and commutative update batches.

Updates are tuples mapped to ring values — positive for inserts, negative
for deletes (Section 2).  A batch of updates can be executed in any order
with the same cumulative effect; :func:`permuted` exists so tests can check
exactly that commutativity property.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from ..rings.base import Ring, Semiring
from ..rings.standard import Z
from .database import Database
from .relation import Relation


@dataclass(frozen=True, slots=True)
class Update:
    """A single-tuple update: ``relation[key] += payload``.

    Slotted: streams hold one instance per update, and without a
    per-instance ``__dict__`` each takes 64 bytes instead of 104.
    """

    relation: str
    key: tuple
    payload: Any = 1

    @property
    def is_insert(self) -> bool:
        """Heuristic polarity check for numeric payloads (multiplicities)."""
        try:
            return self.payload > 0
        except TypeError:
            return True

    def inverted(self, ring: Ring) -> "Update":
        """The update that undoes this one."""
        return Update(self.relation, self.key, ring.neg(self.payload))


def insert(relation: str, *key, payload: Any = 1) -> Update:
    """Convenience constructor for an insert update."""
    return Update(relation, tuple(key), payload)


def delete(relation: str, *key, payload: Any = 1, ring: Ring = Z) -> Update:
    """Convenience constructor for a delete update (negated payload)."""
    return Update(relation, tuple(key), ring.neg(payload))


def apply_update(database: Database, update: Update) -> None:
    """Apply one update to the input database."""
    database[update.relation].add(update.key, update.payload)


def apply_batch(database: Database, batch: Iterable[Update]) -> None:
    for update in batch:
        apply_update(database, update)


def coalesce(batch: Iterable[Update], ring: Semiring = Z) -> list[Update]:
    """Ring-sum same ``(relation, key)`` deltas; drop the zero sums.

    An update batch over a ring commutes, so replacing all updates that
    hit the same tuple with their ring sum — and dropping tuples whose
    deltas cancel to the ring zero — leaves the cumulative effect of the
    batch unchanged while shrinking the work every downstream engine has
    to do.  A ``+1`` immediately followed by its ``-1`` (the churn shape
    of sliding-window streams) disappears entirely.

    The result keeps one update per surviving ``(relation, key)`` pair,
    in first-occurrence order (deterministic for tests and replays).
    """
    totals: dict[tuple[str, tuple], Any] = {}
    add = ring.add
    for update in batch:
        slot = (update.relation, update.key)
        previous = totals.get(slot)
        totals[slot] = (
            update.payload if previous is None else add(previous, update.payload)
        )
    if ring.exact_zero:
        zero = ring.zero
        return [
            Update(relation, key, payload)
            for (relation, key), payload in totals.items()
            if payload != zero
        ]
    is_zero = ring.is_zero
    return [
        Update(relation, key, payload)
        for (relation, key), payload in totals.items()
        if not is_zero(payload)
    ]


def coalesce_grouped(
    batch: Iterable[Update], ring: Semiring = Z
) -> dict[str, dict[tuple, Any]]:
    """Coalesce a batch into per-relation delta dicts (zeros dropped).

    Same cancellation semantics as :func:`coalesce`, grouped for batch
    maintenance: ``{relation: {key: payload}}`` with relations and keys
    in first-occurrence order.  Relations whose deltas cancel entirely
    are absent from the result.  The view-tree oracle
    (``generated=False``) coalesces with this; the generated kernels use
    its columnar twin, :func:`repro.data.columnar.coalesce_columnar`.
    """
    grouped: dict[str, dict[tuple, Any]] = {}
    add = ring.add
    for update in batch:
        deltas = grouped.get(update.relation)
        if deltas is None:
            deltas = grouped[update.relation] = {}
        previous = deltas.get(update.key)
        deltas[update.key] = (
            update.payload if previous is None else add(previous, update.payload)
        )
    is_zero = ring.is_zero
    exact = ring.exact_zero
    zero = ring.zero
    result: dict[str, dict[tuple, Any]] = {}
    for relation, deltas in grouped.items():
        surviving = {
            key: payload
            for key, payload in deltas.items()
            if ((payload != zero) if exact else not is_zero(payload))
        }
        if surviving:
            result[relation] = surviving
    return result


def permuted(batch: Sequence[Update], seed: int = 0) -> list[Update]:
    """A deterministic random permutation of a batch.

    Batches of updates over a ring commute, so applying ``permuted(batch)``
    must leave the database — and every maintained view — in the same state
    as applying ``batch``.  Property-based tests rely on this helper.
    """
    shuffled = list(batch)
    random.Random(seed).shuffle(shuffled)
    return shuffled


def delta_relation(
    name: str,
    schema: Iterable[str],
    entries: Iterable[tuple[tuple, Any]],
    ring: Semiring = Z,
) -> Relation:
    """Build a delta relation from (key, payload) pairs."""
    delta = Relation(name, schema, ring)
    for key, payload in entries:
        delta.add(key, payload)
    return delta


def batches_of(updates: Sequence[Update], batch_size: int) -> Iterator[list[Update]]:
    """Split an update stream into consecutive batches of ``batch_size``."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    for start in range(0, len(updates), batch_size):
        yield list(updates[start : start + batch_size])
