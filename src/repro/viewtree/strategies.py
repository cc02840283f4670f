"""The four maintenance strategies compared in Fig. 4 of the paper.

Two orthogonal dimensions (Section 4.1):

* **eager vs lazy** — propagate updates through the view tree immediately,
  or only update the input relations and construct the output on an
  enumeration request;
* **list vs fact** — keep the query output as a flat materialized list of
  tuples, or factorized over the views of the view tree.

======================  =============================================
``eager-fact``          F-IVM: eager view-tree deltas + factorized
                        enumeration (constant update & delay for
                        q-hierarchical queries).
``eager-list``          DBToaster-style: eagerly maintain the flat
                        output via delta queries; enumeration scans it.
``lazy-list``           Delta-query baseline: inputs only; recompute
                        the flat output from scratch on request.
``lazy-fact``           Hybrid: inputs only; (re)build the view tree on
                        request, then enumerate factorized.
======================  =============================================
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterator

from ..data.database import Database
from ..data.update import Update
from ..delta.engine import DeltaQueryEngine
from ..naive.evaluator import evaluate
from ..obs import Observable, observed, observed_enumeration
from ..query.ast import Query
from ..query.variable_order import VariableOrder
from ..rings.lifting import LiftingMap
from .engine import ViewTreeEngine


class MaintenanceStrategy(Observable, ABC):
    """Common interface: feed updates, request full enumeration."""

    name: str

    @abstractmethod
    def apply(self, update: Update) -> None:
        """Process one single-tuple update."""

    @observed
    def apply_batch(self, batch) -> None:
        """Process a batch of updates (default: per-update loop).

        Lazy strategies only touch the inputs per update, so the loop is
        already optimal for them; ``eager-fact`` overrides this with the
        view-tree batch kernel.
        """
        for update in batch:
            self.apply(update)

    @abstractmethod
    def enumerate(self) -> Iterator[tuple[tuple, Any]]:
        """Enumerate all output tuples (a full enumeration request)."""

    def enumerate_count(self) -> int:
        """Drain a full enumeration and return the tuple count.

        When a stats recorder is attached, per-tuple enumeration delays
        are sampled into it.
        """
        iterator = self.enumerate()
        stats = self._maintenance_stats
        if stats is not None:
            iterator = observed_enumeration(stats, iterator)
        return sum(1 for _ in iterator)


class EagerFact(MaintenanceStrategy):
    """Eager propagation, factorized output (F-IVM)."""

    name = "eager-fact"

    def __init__(
        self,
        query: Query,
        database: Database,
        order: VariableOrder | None = None,
        lifting: LiftingMap | None = None,
        generated: bool = True,
    ):
        self.engine = ViewTreeEngine(
            query, database, order, lifting, generated=generated
        )

    def _propagate_stats(self, stats) -> None:
        self.engine._maintenance_stats = stats

    @observed
    def apply(self, update: Update) -> None:
        self.engine.apply(update)

    @observed
    def apply_batch(self, batch) -> None:
        """Batch maintenance through the engine's three-way heuristic
        (batch kernels / per-tuple / rebuild)."""
        self.engine.apply_batch(list(batch))

    def enumerate(self) -> Iterator[tuple[tuple, Any]]:
        return self.engine.enumerate()


class EagerList(MaintenanceStrategy):
    """Eager propagation, flat materialized output (DBToaster-style).

    Every update triggers a delta query whose result is merged into the
    flat output list; the cost per update is proportional to the number
    of affected output tuples — the reason ``eager-fact`` dominates it at
    high update rates in Fig. 4.
    """

    name = "eager-list"

    def __init__(
        self,
        query: Query,
        database: Database,
        lifting: LiftingMap | None = None,
    ):
        self.engine = DeltaQueryEngine(query, database, lifting, eager=True)

    def _propagate_stats(self, stats) -> None:
        self.engine._maintenance_stats = stats

    @observed
    def apply(self, update: Update) -> None:
        self.engine.apply(update)

    def enumerate(self) -> Iterator[tuple[tuple, Any]]:
        return self.engine.output.items()


class LazyList(MaintenanceStrategy):
    """Lazy, flat output: recompute from scratch on each request."""

    name = "lazy-list"

    def __init__(
        self,
        query: Query,
        database: Database,
        lifting: LiftingMap | None = None,
    ):
        self.query = query
        self.database = database
        self.lifting = lifting if lifting is not None else LiftingMap(database.ring)
        self._output = evaluate(query, database, self.lifting)
        self._dirty = False

    @observed
    def apply(self, update: Update) -> None:
        self.database[update.relation].add(update.key, update.payload)
        self._dirty = True

    def enumerate(self) -> Iterator[tuple[tuple, Any]]:
        if self._dirty:
            if self._maintenance_stats is not None:
                self._maintenance_stats.record_lazy_refresh()
            self._output = evaluate(self.query, self.database, self.lifting)
            self._dirty = False
        return self._output.items()


class LazyFact(MaintenanceStrategy):
    """Lazy, factorized output: rebuild the view tree on request."""

    name = "lazy-fact"

    def __init__(
        self,
        query: Query,
        database: Database,
        order: VariableOrder | None = None,
        lifting: LiftingMap | None = None,
        generated: bool = True,
    ):
        self.query = query
        self.database = database
        self.order = order
        self.lifting = lifting
        self.generated = generated
        # Rebuilds hit the process-wide kernel shape cache, so only the
        # first one pays generation time; the delta kernels a lazy
        # rebuild never runs ride along for tens of microseconds against
        # the O(N) rebuild itself.
        self._engine = ViewTreeEngine(
            query, database, order, lifting, generated=generated
        )
        self._dirty = False

    def _propagate_stats(self, stats) -> None:
        self._engine._maintenance_stats = stats

    @observed
    def apply(self, update: Update) -> None:
        self.database[update.relation].add(update.key, update.payload)
        self._dirty = True

    def enumerate(self) -> Iterator[tuple[tuple, Any]]:
        if self._dirty:
            if self._maintenance_stats is not None:
                self._maintenance_stats.record_lazy_refresh()
            self._engine = ViewTreeEngine(
                self.query,
                self.database,
                self.order,
                self.lifting,
                generated=self.generated,
            )
            # The rebuilt tree inherits the attached recorder, if any.
            self._engine._maintenance_stats = self._maintenance_stats
            self._dirty = False
        return self._engine.enumerate()


STRATEGIES = {
    cls.name: cls for cls in (EagerFact, EagerList, LazyList, LazyFact)
}


def make_strategy(
    name: str, query: Query, database: Database, **kwargs
) -> MaintenanceStrategy:
    """Instantiate a Fig. 4 strategy by name."""
    try:
        factory = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; choose from {sorted(STRATEGIES)}"
        ) from None
    if factory is EagerList or factory is LazyList:
        # The list strategies run no view tree: no order, no kernels.
        kwargs.pop("order", None)
        kwargs.pop("generated", None)
    return factory(query, database, **kwargs)
