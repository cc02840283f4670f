"""Maintenance over mixed static/dynamic relations (Section 4.5)."""

from __future__ import annotations

from typing import Any, Iterator

from ..data.database import Database
from ..data.update import Update, coalesce
from ..obs import Observable, observed, share_stats
from ..query.ast import Query
from ..rings.lifting import LiftingMap
from ..viewtree.engine import ViewTreeEngine
from .analysis import find_static_dynamic_order


class StaticRelationUpdateError(RuntimeError):
    """An update targeted a relation adorned as static."""


class StaticDynamicEngine(Observable):
    """View-tree engine specialised for static/dynamic adornments.

    Views over static-only subtrees are computed once at preprocessing
    time (possibly superlinear, e.g. the static-static join of
    Example 4.14's second query) and never touched again; updates to
    dynamic relations propagate in O(1) when the query passes
    :func:`repro.staticdyn.analysis.is_static_dynamic_tractable`.
    """

    def __init__(
        self,
        query: Query,
        database: Database,
        lifting: LiftingMap | None = None,
        search_limit: int = 100_000,
        generated: bool = True,
    ):
        order = find_static_dynamic_order(query, limit=search_limit)
        if order is None:
            raise ValueError(
                f"{query.name} is not tractable in the static/dynamic "
                "setting (no free-top order gives constant dynamic updates)"
            )
        self.query = query
        self.order = order
        self.engine = ViewTreeEngine(
            query, database, order, lifting, generated=generated
        )
        self.generated = self.engine.generated
        self._static = frozenset(a.relation for a in query.static_atoms)
        self._dynamic = frozenset(a.relation for a in query.dynamic_atoms)
        overlap = self._static & self._dynamic
        if overlap:
            raise ValueError(
                f"relations {sorted(overlap)} appear both static and dynamic"
            )

    def _propagate_stats(self, stats) -> None:
        share_stats(self.engine, stats)

    @observed
    def apply(self, update: Update, update_base: bool = True) -> None:
        if update.relation in self._static:
            raise StaticRelationUpdateError(
                f"relation {update.relation!r} is adorned static"
            )
        self.engine.apply(update, update_base)

    @observed
    def apply_batch(self, batch) -> None:
        """Coalesced batch maintenance through the view-tree batch path."""
        batch = coalesce(batch, self.engine.ring)
        for update in batch:
            if update.relation in self._static:
                raise StaticRelationUpdateError(
                    f"relation {update.relation!r} is adorned static"
                )
        self.engine.apply_batch(batch)

    def enumerate(self) -> Iterator[tuple[tuple, Any]]:
        return self.engine.enumerate()

    def scalar(self) -> Any:
        return self.engine.scalar()
