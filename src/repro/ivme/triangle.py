"""IVM^epsilon for the triangle count query (Section 3.3).

Maintains ``Q = SUM_{A,B,C} R(A,B) * S(B,C) * T(C,A)`` under single-tuple
updates in amortized ``O(N^max(eps, 1-eps))`` time — ``O(sqrt(N))`` at
``eps = 1/2``, which is worst-case optimal conditioned on the OuMv
conjecture (Theorem 3.4).

The three relations are partitioned by their first variable's degree
(R on A, S on B, T on C) with threshold ``N^eps``.  Three auxiliary views
cover the one skew combination per relation that intersection cannot
handle cheaply::

    V_ST(B,A) = SUM_C S_H(B,C) * T_L(C,A)     (for updates to R)
    V_TR(C,B) = SUM_A T_H(C,A) * R_L(A,B)     (for updates to S)
    V_RS(A,C) = SUM_B R_H(A,B) * S_L(B,C)     (for updates to T)

On ``dR(a,b) -> m`` the count delta is ``m * SUM_C S(b,C) * T(C,a)``
split over the four heavy/light combinations exactly as derived in the
paper; the two views that mention R (``V_TR`` and ``V_RS``) are repaired,
and partition migrations triggered by the update repair them too.  A
global rebalance (new threshold, repartition, view rebuild) runs whenever
the database size doubles or halves since the last one.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..backend import Backend
from ..data.database import Database
from ..data.opcounter import COUNTER
from ..data.relation import Relation
from ..data.update import Update
from ..obs import observed
from ..rings.standard import Z
from .partition import PartitionedRelation


class TriangleCounter(Backend):
    """Worst-case optimal maintenance of the triangle count."""

    def __init__(
        self,
        epsilon: float = 0.5,
        relation_names: tuple[str, str, str] = ("R", "S", "T"),
        database: Database | None = None,
    ):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        self.epsilon = epsilon
        self.ring = Z
        self.names = relation_names
        self.count = 0

        threshold = 1.0
        self.R = PartitionedRelation("R", ("A", "B"), "A", threshold)
        self.S = PartitionedRelation("S", ("B", "C"), "B", threshold)
        self.T = PartitionedRelation("T", ("C", "A"), "C", threshold)
        self.V_ST = Relation("V_ST", ("B", "A"), Z)
        self.V_TR = Relation("V_TR", ("C", "B"), Z)
        self.V_RS = Relation("V_RS", ("A", "C"), Z)

        self.R.add_listener(self._on_migrate_r)
        self.S.add_listener(self._on_migrate_s)
        self.T.add_listener(self._on_migrate_t)

        self._updates_since_rebalance = 0
        self._size_at_rebalance = 0

        #: The base relations this counter was loaded from, if any;
        #: every applied update lands on them as well.
        self.database = database
        if database is not None:
            self._bulk_load(database)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def size(self) -> int:
        return len(self.R) + len(self.S) + len(self.T)

    def detect(self) -> bool:
        """Triangle detection: is the count positive? (Section 3.4)."""
        return self.count > 0

    def _propagate_stats(self, stats) -> None:
        for part in (self.R, self.S, self.T):
            part.stats = stats

    @observed
    def apply(self, update: Update) -> None:
        """Process one single-tuple update to R, S, or T."""
        name_r, name_s, name_t = self.names
        if update.relation == name_r:
            self._update_r(update.key, update.payload)
        elif update.relation == name_s:
            self._update_s(update.key, update.payload)
        elif update.relation == name_t:
            self._update_t(update.key, update.payload)
        else:
            raise KeyError(f"unknown relation {update.relation!r}")
        if self.database is not None:
            self.database[update.relation].add(update.key, update.payload)
        self._updates_since_rebalance += 1
        self._maybe_rebalance()

    @observed
    def apply_batch(self, batch) -> None:
        # Per update, uncoalesced: the amortization argument charges
        # rebalances to the updates of the stream as it arrived.
        for update in batch:
            self.apply(update)

    def scalar(self) -> int:
        """The maintained triangle count (the Boolean query's payload)."""
        return self.count

    def enumerate(self) -> Iterator[tuple[tuple, int]]:
        if self.count:
            yield (), self.count

    def lookup(self, key: tuple) -> int:
        if tuple(key):
            raise ValueError(f"lookup key {key!r} does not match empty head")
        return self.count

    # ------------------------------------------------------------------
    # Update handlers (one per relation; symmetric under rotation)
    # ------------------------------------------------------------------

    def _count_delta(
        self,
        first: PartitionedRelation,
        second: PartitionedRelation,
        skew_view: Relation,
        left_key: Any,
        right_key: Any,
    ) -> int:
        """``SUM_M first(left_key, M) * second(M, right_key)`` split by parts.

        ``first`` is partitioned on its first variable (= ``left_key``'s
        role is the *second* variable there), ``second`` on its first
        variable M.  The four heavy/light combinations:

        * first_L x second_*: iterate the light group of ``left_key`` in
          ``first`` (< threshold entries) and look the partner up;
        * first_H x second_H: iterate ``second_H``'s group of
          ``right_key`` (at most #heavy values entries) and look up;
        * first_H x second_L: one lookup in the materialized skew view.
        """
        total = 0
        first_group_vars = (first.schema.variables[0],)
        # Light part of `first`: its partition variable is variables[0],
        # so group by that variable being... no: we need tuples of `first`
        # whose FIRST variable equals left_key.
        for key in first.light.group(first_group_vars, (left_key,)):
            middle = key[1]
            partner = second.get((middle, right_key))
            if partner:
                total += first.light.get(key) * partner
        second_group_vars = (second.schema.variables[1],)
        for key in second.heavy.group(second_group_vars, (right_key,)):
            middle = key[0]
            mine = first.heavy.get((left_key, middle))
            if mine:
                total += mine * second.heavy.get(key)
        COUNTER.bump("lookup")
        total += skew_view.get((left_key, right_key))
        return total

    def _update_r(self, key: tuple, payload: int) -> None:
        a, b = key
        # dQ = m * SUM_C S(b, C) * T(C, a), with the H x L combination
        # served by V_ST (one lookup).
        self.count += payload * self._count_delta(self.S, self.T, self.V_ST, b, a)
        # Repair the views that mention R.
        if self.R.is_heavy(a):
            # V_RS(A,C) += dR_H(a,b) * S_L(b,C)
            for s_key in self.S.light.group(("B",), (b,)):
                self.V_RS.add((a, s_key[1]), payload * self.S.light.get(s_key))
        else:
            # V_TR(C,B) += T_H(C,a) * dR_L(a,b)
            for t_key in self.T.heavy.group(("A",), (a,)):
                self.V_TR.add((t_key[0], b), self.T.heavy.get(t_key) * payload)
        self.R.add(key, payload)

    def _update_s(self, key: tuple, payload: int) -> None:
        b, c = key
        # dQ = m * SUM_A T(c, A) * R(A, b): rotate roles (T, R, V_TR).
        self.count += payload * self._count_delta(self.T, self.R, self.V_TR, c, b)
        if self.S.is_heavy(b):
            # V_ST(B,A) += dS_H(b,c) * T_L(c,A)
            for t_key in self.T.light.group(("C",), (c,)):
                self.V_ST.add((b, t_key[1]), payload * self.T.light.get(t_key))
        else:
            # V_RS(A,C) += R_H(A,b) * dS_L(b,c)
            for r_key in self.R.heavy.group(("B",), (b,)):
                self.V_RS.add((r_key[0], c), self.R.heavy.get(r_key) * payload)
        self.S.add(key, payload)

    def _update_t(self, key: tuple, payload: int) -> None:
        c, a = key
        # dQ = m * SUM_B R(a, B) * S(B, c): rotate roles (R, S, V_RS).
        self.count += payload * self._count_delta(self.R, self.S, self.V_RS, a, c)
        if self.T.is_heavy(c):
            # V_TR(C,B) += dT_H(c,a) * R_L(a,B)
            for r_key in self.R.light.group(("A",), (a,)):
                self.V_TR.add((c, r_key[1]), payload * self.R.light.get(r_key))
        else:
            # V_ST(B,A) += S_H(B,c) * dT_L(c,a)
            for s_key in self.S.heavy.group(("C",), (c,)):
                self.V_ST.add((s_key[0], a), self.S.heavy.get(s_key) * payload)
        self.T.add(key, payload)

    # ------------------------------------------------------------------
    # Migration listeners: keep the skew views consistent when values
    # change part.  Each view mentions exactly one part per relation, so
    # a migration adds or removes the moved tuples' contributions.
    # ------------------------------------------------------------------

    def _on_migrate_r(self, value: Any, moved, became_heavy: bool) -> None:
        sign = 1 if became_heavy else -1
        for key, payload in moved:
            a, b = key
            # Entering (leaving) R_H adds (removes) V_RS contributions.
            for s_key in self.S.light.group(("B",), (b,)):
                self.V_RS.add((a, s_key[1]), sign * payload * self.S.light.get(s_key))
            # Leaving (entering) R_L removes (adds) V_TR contributions.
            for t_key in self.T.heavy.group(("A",), (a,)):
                self.V_TR.add((t_key[0], b), -sign * self.T.heavy.get(t_key) * payload)

    def _on_migrate_s(self, value: Any, moved, became_heavy: bool) -> None:
        sign = 1 if became_heavy else -1
        for key, payload in moved:
            b, c = key
            for t_key in self.T.light.group(("C",), (c,)):
                self.V_ST.add((b, t_key[1]), sign * payload * self.T.light.get(t_key))
            for r_key in self.R.heavy.group(("B",), (b,)):
                self.V_RS.add((r_key[0], c), -sign * self.R.heavy.get(r_key) * payload)

    def _on_migrate_t(self, value: Any, moved, became_heavy: bool) -> None:
        sign = 1 if became_heavy else -1
        for key, payload in moved:
            c, a = key
            for r_key in self.R.light.group(("A",), (a,)):
                self.V_TR.add((c, r_key[1]), sign * payload * self.R.light.get(r_key))
            for s_key in self.S.heavy.group(("C",), (c,)):
                self.V_ST.add((s_key[0], a), -sign * self.S.heavy.get(s_key) * payload)

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------

    def _maybe_rebalance(self) -> None:
        size = self.size()
        if size == 0:
            return
        reference = max(self._size_at_rebalance, 1)
        if size >= 2 * reference or 2 * size <= reference:
            self.rebalance()

    def rebalance(self) -> None:
        """Global rebalance: new threshold N^eps, repartition, rebuild views.

        Costs O(N^(1 + min(eps, 1-eps))); amortized over the Omega(N)
        updates between rebalances this adds O(N^min(eps, 1-eps)) per
        update, within the target bound.
        """
        size = self.size()
        threshold = max(1.0, size**self.epsilon)
        # Clear views and detach listeners *before* touching thresholds:
        # set_threshold migrates eagerly, and migrations would otherwise
        # patch views we are about to rebuild from scratch.
        self.V_ST.clear()
        self.V_TR.clear()
        self.V_RS.clear()
        listeners_backup = []
        for partitioned in (self.R, self.S, self.T):
            listeners_backup.append(partitioned._listeners)
            partitioned._listeners = []
        try:
            for partitioned in (self.R, self.S, self.T):
                partitioned.repartition(threshold)
        finally:
            for partitioned, saved in zip((self.R, self.S, self.T), listeners_backup):
                partitioned._listeners = saved
        self._rebuild_views()
        self._size_at_rebalance = size
        self._updates_since_rebalance = 0

    def _rebuild_views(self) -> None:
        for s_key, s_payload in self.S.heavy.items():
            b, c = s_key
            for t_key in self.T.light.group(("C",), (c,)):
                self.V_ST.add((b, t_key[1]), s_payload * self.T.light.get(t_key))
        for t_key, t_payload in self.T.heavy.items():
            c, a = t_key
            for r_key in self.R.light.group(("A",), (a,)):
                self.V_TR.add((c, r_key[1]), t_payload * self.R.light.get(r_key))
        for r_key, r_payload in self.R.heavy.items():
            a, b = r_key
            for s_key in self.S.light.group(("B",), (b,)):
                self.V_RS.add((a, s_key[1]), r_payload * self.S.light.get(s_key))

    # ------------------------------------------------------------------
    # Bulk load
    # ------------------------------------------------------------------

    def _bulk_load(self, database: Database) -> None:
        name_r, name_s, name_t = self.names
        for key, payload in database[name_r].items():
            self.R.add(key, payload)
        for key, payload in database[name_s].items():
            self.S.add(key, payload)
        for key, payload in database[name_t].items():
            self.T.add(key, payload)
        self.rebalance()
        self.count = self._recount()

    def _recount(self) -> int:
        """O(N^{3/2})-style recount used only at preprocessing time."""
        total = 0
        for r_key, r_payload in self.R.items():
            a, b = r_key
            # Iterate the smaller adjacency list.
            s_size = self.S.light.group_size(("B",), (b,)) + self.S.heavy.group_size(
                ("B",), (b,)
            )
            t_size = self.T.light.group_size(("A",), (a,)) + self.T.heavy.group_size(
                ("A",), (a,)
            )
            if s_size <= t_size:
                for s_key in list(self.S.light.group(("B",), (b,))) + list(
                    self.S.heavy.group(("B",), (b,))
                ):
                    c = s_key[1]
                    t_payload = self.T.get((c, a))
                    if t_payload:
                        total += r_payload * self.S.get(s_key) * t_payload
            else:
                for t_key in list(self.T.light.group(("A",), (a,))) + list(
                    self.T.heavy.group(("A",), (a,))
                ):
                    c = t_key[0]
                    s_payload = self.S.get((b, c))
                    if s_payload:
                        total += r_payload * s_payload * self.T.get(t_key)
        return total
