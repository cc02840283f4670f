"""Cascading q-hierarchical queries (Section 4.2, Example 4.5, Fig. 5).

A non-q-hierarchical query ``Q1`` that admits a q-hierarchical rewriting
``Q1' = Q2(head) * rest`` over a q-hierarchical query ``Q2`` piggybacks
on ``Q2``'s maintenance: ``Q2``'s view tree keeps O(1) updates and
delay, and ``Q1``'s tree over ``Q1'`` reads ``Q2``'s output through the
materialized view ``V_Q2``, refreshed only while ``Q2`` is enumerated.
:class:`CascadeEngine` is the two-query case of
:class:`~repro.cascade.multi.MultiQueryEngine`, which documents the
protocol and the shared-database rules.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..data.database import Database
from ..query.ast import Query
from ..query.properties import is_q_hierarchical
from ..query.rewriting import rewrite_using
from ..rings.lifting import LiftingMap
from .multi import MultiQueryEngine


class CascadeEngine(MultiQueryEngine):
    """Joint maintenance of a q-hierarchical Q2 and a cascading Q1."""

    def __init__(
        self,
        q1: Query,
        q2: Query,
        database: Database,
        lifting: LiftingMap | None = None,
    ):
        if not is_q_hierarchical(q2):
            raise ValueError(f"{q2.name} is not q-hierarchical")
        rewriting = rewrite_using(q1, q2)
        if rewriting is None:
            raise ValueError(
                f"no sound rewriting of {q1.name} over {q2.name} exists"
            )
        if not is_q_hierarchical(rewriting):
            raise ValueError(
                f"the rewriting {rewriting.name} is not q-hierarchical"
            )
        self.q1 = q1
        self.q2 = q2
        self.rewriting = rewriting
        self._build([q1, q2], database, {q1.name: (q2, rewriting)}, lifting)
        #: Q1's tree over the rewriting, Q2's tree, and V_Q2.
        self.q1_engine = self._members[q1.name]
        self.q2_engine = self._members[q2.name]
        self.v_q2 = self._hosts[q2.name].view

    def enumerate_q2(self) -> Iterator[tuple[tuple, Any]]:
        """Enumerate Q2's output, refreshing V_Q2 and Q1's tree."""
        return self.enumerate(self.q2.name)

    def refresh(self) -> None:
        """Drain a Q2 enumeration purely for its propagation side effect."""
        for _ in self.enumerate_q2():
            pass

    def enumerate_q1(self, strict: bool = True) -> Iterator[tuple[tuple, Any]]:
        """Enumerate Q1's output.

        With ``strict`` (the default) this raises
        :class:`~repro.cascade.multi.StaleCascadeError` when Q2 was
        updated but not enumerated since — the paper's condition (ii).
        With ``strict=False`` Q2 is enumerated first.
        """
        return self._enumerate_rider(self.q1.name, strict)
