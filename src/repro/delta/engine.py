"""Classical first-order IVM via delta queries (Section 3.1).

``DeltaQueryEngine`` maintains the materialized query output by evaluating
delta queries against the input database.  It supports:

* **eager** mode — every single-tuple update immediately triggers the
  delta query and refreshes the output (the textbook approach; O(N) per
  update for the triangle query, as derived in Example 3.1);
* **lazy** mode — updates are buffered into per-relation delta relations
  and drained on the next enumeration request, evaluating one batch delta
  query per touched relation (the ``lazy-list`` strategy of Fig. 4).

Self-joins are handled by the subset expansion of delta rule (2): for a
relation occurring ``k`` times, the delta query is the union over the
non-empty subsets of occurrences replaced by the delta relation.
"""

from __future__ import annotations

from itertools import combinations
from typing import Any, Iterator

from ..data.database import Database
from ..data.relation import Relation
from ..data.update import Update
from ..naive.evaluator import evaluate
from ..backend import Backend
from ..obs import observed
from ..query.ast import Atom, Query
from ..rings.lifting import LiftingMap

_DELTA_PREFIX = "__delta__"


class DeltaQueryEngine(Backend):
    """First-order IVM: maintain ``query`` over ``database`` with deltas."""

    def __init__(
        self,
        query: Query,
        database: Database,
        lifting: LiftingMap | None = None,
        eager: bool = True,
    ):
        self.query = query
        self.database = database
        self.lifting = lifting if lifting is not None else LiftingMap(database.ring)
        self.eager = eager
        #: The materialized output; built once at preprocessing time.
        self.output = evaluate(query, database, self.lifting)
        self._pending: dict[str, Relation] = {}
        self._pending_order: list[str] = []
        #: Accumulated output change since the last delta enumeration
        #: (footnote 2 of the paper: *delta enumeration* yields only the
        #: tuples in the change to the query output).
        self._output_delta = Relation(
            f"d{query.name}", self.output.schema, database.ring
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    @observed
    def apply(self, update: Update) -> None:
        """Process one single-tuple update."""
        if self.eager:
            delta = self._singleton_delta(update)
            self._propagate(update.relation, delta)
            self.database[update.relation].add(update.key, update.payload)
        else:
            self._buffer(update)

    @observed
    def apply_batch(self, batch) -> None:
        for update in batch:
            self.apply(update)

    def _singleton_delta(self, update: Update) -> Relation:
        relation = self.database[update.relation]
        delta = Relation(
            f"d{update.relation}", relation.schema, self.database.ring
        )
        delta.add(update.key, update.payload)
        return delta

    def _buffer(self, update: Update) -> None:
        delta = self._pending.get(update.relation)
        if delta is None:
            relation = self.database[update.relation]
            delta = Relation(
                f"d{update.relation}", relation.schema, self.database.ring
            )
            self._pending[update.relation] = delta
            self._pending_order.append(update.relation)
        delta.add(update.key, update.payload)

    def _propagate(self, relation_name: str, delta: Relation) -> None:
        """Add the delta query output for ``delta`` to the materialized output.

        Must be called *before* the delta is applied to the database (the
        delta rules reference the old relation states plus the delta).
        """
        occurrences = [
            i for i, atom in enumerate(self.query.atoms)
            if atom.relation == relation_name
        ]
        if not occurrences:
            return
        delta_name = _DELTA_PREFIX + relation_name
        overrides = {delta_name: delta}
        for size in range(1, len(occurrences) + 1):
            for subset in combinations(occurrences, size):
                atoms = list(self.query.atoms)
                for index in subset:
                    original = atoms[index]
                    atoms[index] = Atom(delta_name, original.variables)
                variant = Query(self.query.name, self.query.head, tuple(atoms))
                delta_out = evaluate(
                    variant, self.database, self.lifting, overrides
                )
                self.output.apply(delta_out)
                self._output_delta.apply(delta_out)

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------

    def refresh(self) -> None:
        """Drain buffered updates (lazy mode); no-op when nothing pending."""
        if not self._pending:
            return
        if not self.query.is_self_join_free() and len(self._pending_order) > 0:
            # Batch deltas with self-joins would need cross terms between
            # occurrences of the *same* batch; drain tuple by tuple instead.
            for name in self._pending_order:
                delta = self._pending[name]
                for key, payload in list(delta.items()):
                    single = Update(name, key, payload)
                    singleton = self._singleton_delta(single)
                    self._propagate(name, singleton)
                    self.database[name].add(key, payload)
        else:
            for name in self._pending_order:
                delta = self._pending[name]
                self._propagate(name, delta)
                self.database[name].apply(delta)
        self._pending = {}
        self._pending_order = []

    def enumerate(self) -> Iterator[tuple[tuple, object]]:
        """Enumerate the output tuples (draining pending updates first)."""
        self.refresh()
        yield from self.output.items()

    def lookup(self, key: tuple) -> Any:
        """Payload of one output tuple: one probe of the materialization."""
        key = tuple(key)
        if len(key) != len(self.query.head):
            raise ValueError(
                f"lookup key {key!r} does not match head {self.query.head!r}"
            )
        self.refresh()
        return self.output.get(key)

    def result(self) -> Relation:
        """The current output as a relation (pending updates drained)."""
        self.refresh()
        return self.output

    def enumerate_delta(self) -> Iterator[tuple[tuple, object]]:
        """Delta enumeration (footnote 2): yield only the net change to
        the output since the previous delta enumeration, then reset.

        A key may appear with a negative payload (net retraction).  Keys
        whose inserts and deletes cancelled out are not reported.
        """
        self.refresh()
        delta = self._output_delta
        self._output_delta = Relation(
            delta.name, delta.schema, self.database.ring
        )
        yield from delta.items()

    def scalar(self):
        """The single payload of a Boolean query's output."""
        if self.query.head:
            raise ValueError("scalar() requires an empty-head query")
        self.refresh()
        return self.output.get(())
