"""The maintenance planner: Section 6's "effective guide" as code.

Given a query plus optional context (functional dependencies, static
adornments, access patterns, insert-only promises), the planner walks the
paper's decision ladder and picks the strongest applicable engine:

1. q-hierarchical                      -> view tree, O(1)/O(1) (Thm 4.1)
2. Sigma-reduct q-hierarchical        -> FD-guided view tree (Thm 4.11)
3. static/dynamic tractable            -> mixed view tree (Sec 4.5)
4. tractable CQAP (input variables)    -> fracture view trees (Thm 4.8)
5. insert-only + acyclic full join     -> monotone activation (Sec 4.6)
6. triangle-shaped cyclic, over Z      -> IVM^eps, O(sqrt N) (Sec 3.3)
7. otherwise                           -> first-order delta queries (Sec 3.1)

Every decision is returned as a :class:`Plan` with the guarantee it
carries, so callers (and tests) can check *why* an engine was chosen.
The paper presents rungs 2-4 as *reductions* to rung 1, and so does the
plan: for every view-tree strategy it carries the rewrite — the query
the one :class:`~repro.viewtree.engine.ViewTreeEngine` maintains, its
variable order and the output head — and the facade just runs it.
*How* the engine executes (generated kernels, or the generic walk as
the oracle) is the engine's ``generated`` flag, not a plan field.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Optional

from ..constraints.fds import (
    FunctionalDependency,
    fd_guided_order,
    q_hierarchical_under_fds,
)
from ..cqap.fracture import fracture
from ..query.ast import Query
from ..query.hypergraph import is_alpha_acyclic
from ..query.properties import is_hierarchical, is_q_hierarchical
from ..query.variable_order import (
    VariableOrder,
    canonical_order,
    search_order,
)
from ..rings.base import Semiring
from ..rings.standard import Z
from ..staticdyn.analysis import find_static_dynamic_order


@dataclass(frozen=True)
class Plan:
    """A chosen maintenance strategy with its complexity guarantee."""

    strategy: str
    reason: str
    update_time: str
    enumeration_delay: str
    preprocessing_time: str
    #: The rewrite, for view-tree strategies: the maintained query (the
    #: extended-head query under FDs, the combined fracture of a CQAP,
    #: else the query itself), its variable order, and the output head
    #: the caller sees (``None``: the maintained head).
    query: Optional[Query] = field(default=None, compare=False, repr=False)
    order: Optional[VariableOrder] = field(
        default=None, compare=False, repr=False
    )
    head: Optional[tuple[str, ...]] = field(
        default=None, compare=False, repr=False
    )
    #: CQAP plans only: fresh input variable of the fracture -> the
    #: input variable of the original query it copies.  Such a plan is
    #: read through access requests, never enumerated whole.
    input_origin: Optional[Mapping[str, str]] = field(
        default=None, compare=False, repr=False
    )

    def __str__(self) -> str:
        return (
            f"{self.strategy}: {self.reason} "
            f"[preprocess {self.preprocessing_time}, update {self.update_time}, "
            f"delay {self.enumeration_delay}]"
        )


def _is_triangle_shaped(query: Query) -> bool:
    """Three binary atoms forming a cycle over three variables."""
    if len(query.atoms) != 3 or query.head:
        return False
    if any(len(a.variables) != 2 for a in query.atoms):
        return False
    variables = query.variables()
    if len(variables) != 3:
        return False
    counts = {v: 0 for v in variables}
    for atom in query.atoms:
        if len(set(atom.variables)) != 2:
            return False
        for var in atom.variables:
            counts[var] += 1
    return all(count == 2 for count in counts.values())


#: Strategies whose engine is a plain view tree and thus shardable.
_SHARDABLE_STRATEGIES = frozenset({"viewtree", "viewtree-hierarchical"})


def plan_maintenance(
    query: Query,
    fds: Iterable[FunctionalDependency] = (),
    insert_only: bool = False,
    shards: int = 1,
    ring: Semiring = Z,
) -> Plan:
    """Choose a maintenance plan following the Section 6 decision ladder.

    ``ring`` is the database's: the ``ivm-eps-triangle`` rung counts in
    ``Z``, so over any other ring a triangle takes the ``delta`` rung.

    With ``shards > 1`` the planner upgrades a (plain) view-tree plan to
    ``sharded-viewtree``: view-tree maintenance is key-partitioned group
    work, so hash shards of the join key maintain disjoint view slices
    in parallel.  Strategies with cross-shard state (IVM^eps partitions,
    CQAP fractures, delta materializations) keep their unsharded plan.
    """
    plan = _plan_unsharded(query, tuple(fds), insert_only, ring)
    if shards > 1 and plan.strategy in _SHARDABLE_STRATEGIES:
        plan = replace(
            plan,
            strategy="sharded-viewtree",
            reason=f"{plan.reason}; hash-partitioned across {shards} shards",
            update_time=f"{plan.update_time} per shard",
        )
    return plan


def _plan_unsharded(
    query: Query,
    fds: tuple[FunctionalDependency, ...],
    insert_only: bool,
    ring: Semiring,
) -> Plan:

    if query.input_variables:
        fractured = fracture(query)
        if fractured.is_tractable():
            # The components are the roots of one tree; inputs sit on
            # top of each and arrive prebound with an access request.
            combined = fractured.combined()
            return Plan(
                "cqap",
                "tractable CQAP: fracture is hierarchical, free- and "
                "input-dominant (Theorem 4.8)",
                "O(1)",
                "O(1)",
                "O(N)",
                query=combined,
                order=canonical_order(combined),
                head=query.output_variables,
                input_origin=fractured.input_origin,
            )
        return Plan(
            "delta",
            "intractable CQAP: falling back to first-order delta queries",
            "O(N)",
            "O(1) after materialization",
            "O(N^w)",
        )

    if is_q_hierarchical(query):
        return Plan(
            "viewtree",
            "q-hierarchical query (Theorem 4.1)",
            "O(1)",
            "O(1)",
            "O(N)",
            query=query,
            order=canonical_order(query),
        )

    if fds and q_hierarchical_under_fds(query, fds):
        # Maintain the extended-head query under the Sigma-reduct's
        # order; the closure-added head variables are determined by the
        # original head, so projecting them away loses nothing.
        order = fd_guided_order(query, fds)
        return Plan(
            "fd-viewtree",
            "Sigma-reduct is q-hierarchical under the given FDs "
            "(Theorem 4.11)",
            "O(1)",
            "O(1)",
            "O(N)",
            query=order.query,
            order=order,
            head=query.head,
        )

    if query.static_atoms:
        order = find_static_dynamic_order(query)
        if order is not None:
            return Plan(
                "static-dynamic",
                "tractable in the mixed static/dynamic setting (Section 4.5)",
                "O(1) per dynamic update",
                "O(1)",
                "poly(N) over the static part",
                query=query,
                order=order,
            )

    # The insert-only engine enumerates the full join; a projection falls through.
    full_join = set(query.head) == query.variables()
    if insert_only and full_join and is_alpha_acyclic(query):
        return Plan(
            "insert-only",
            "alpha-acyclic full join under an insert-only stream "
            "(Section 4.6)",
            "amortized O(1)",
            "O(1)",
            "O(N)",
        )

    if ring == Z and _is_triangle_shaped(query):
        return Plan(
            "ivm-eps-triangle",
            "cyclic triangle count: worst-case optimal IVM^eps "
            "(Section 3.3, optimal by Theorem 3.4)",
            "amortized O(N^(1/2))",
            "O(1)",
            "O(N^(3/2))",
        )

    if is_hierarchical(query):
        # Not q-hierarchical, so enumeration needs a searched free-top
        # order; updates are then rightly costlier — the Theorem 4.1
        # lower bound says they must be.
        return Plan(
            "viewtree-hierarchical",
            "hierarchical but not q-hierarchical: view-tree maintenance "
            "without the constant-delay guarantee",
            "O(N)",
            "O(N)",
            "O(N)",
            query=query,
            order=(
                search_order(query, require_free_top=True)
                if query.head
                else canonical_order(query)
            ),
        )

    return Plan(
        "delta",
        "no structural shortcut applies: classical first-order delta "
        "queries (Section 3.1)",
        "O(N^(w-1))",
        "O(1) after materialization",
        "O(N^w)",
    )
