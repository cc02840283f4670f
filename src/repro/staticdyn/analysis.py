"""Static vs dynamic relations: tractability analysis (Section 4.5).

When some relations are declared static (never updated), queries beyond
the q-hierarchical class admit O(1) single-tuple updates and O(1) delay.
The view-tree criterion from the paper: there must exist a free-top
variable order in which, along every dynamic atom's leaf-to-root path,
each sibling source's schema is covered by the variables the propagated
single-tuple delta has already bound — then every propagation step is a
constant number of lookups.

:func:`constant_update_atoms` performs that static analysis on a given
order; :func:`find_static_dynamic_order` searches the order space for one
where *all* dynamic atoms pass.  This covers the paper's Example 4.14
(including the variant needing a static-static join at preprocessing) but
not the exponential-preprocessing extreme of its last example, which is
out of scope for view trees.
"""

from __future__ import annotations

from itertools import islice, product
from typing import Iterator, Optional

from ..query.ast import Atom, Query, atom_components
from ..query.variable_order import (
    VariableOrder,
    VarOrderNode,
    validate_order,
)


def constant_update_atoms(order: VariableOrder) -> set[Atom]:
    """The atoms whose single-tuple updates propagate in O(1) lookups.

    Thin wrapper over :func:`repro.query.analysis.update_cost_bounds`,
    which implements the anchor-to-root sibling-coverage walk.
    """
    from ..query.analysis import update_cost_bounds

    return {bound.atom for bound in update_cost_bounds(order) if bound.constant}


def _all_orders(
    query: Query,
    atoms: tuple[Atom, ...],
    local_vars: frozenset[str],
    bound: frozenset[str],
    free: frozenset[str],
    require_free_top: bool,
) -> Iterator[VarOrderNode]:
    """All variable-order subtrees for one connected component."""
    local_free = sorted(local_vars & free)
    candidates = local_free if (require_free_top and local_free) else sorted(local_vars)
    for variable in candidates:
        remaining = local_vars - {variable}
        new_bound = bound | {variable}
        anchored = [
            a
            for a in atoms
            if not (set(a.variables) & remaining) and variable in a.variables
        ]
        dangling = [
            a
            for a in atoms
            if not (set(a.variables) & remaining) and variable not in a.variables
        ]
        if dangling:
            continue
        open_atoms = [a for a in atoms if set(a.variables) & remaining]
        components = atom_components(open_atoms, remaining)
        child_choices = [
            list(
                _all_orders(
                    query,
                    tuple(comp_atoms),
                    frozenset(comp_vars),
                    new_bound,
                    free,
                    require_free_top,
                )
            )
            for comp_atoms, comp_vars in components
        ]
        if any(not choices for choices in child_choices):
            continue
        for combo in product(*child_choices):
            node = VarOrderNode(variable)
            node.atoms.extend(anchored)
            node.children.extend(map(_clone, combo))
            yield node


def _clone(node: VarOrderNode) -> VarOrderNode:
    copy = VarOrderNode(node.variable)
    copy.atoms.extend(node.atoms)
    copy.children.extend(_clone(c) for c in node.children)
    return copy


def enumerate_orders(
    query: Query, require_free_top: bool = True, limit: int = 100_000
) -> Iterator[VariableOrder]:
    """All (up to ``limit``) valid variable orders for the query."""
    free = query.free_variables
    component_queries = query.connected_components()
    per_component = [
        list(
            _all_orders(
                query,
                component.atoms,
                frozenset(component.variables()),
                frozenset(),
                free,
                require_free_top,
            )
        )
        for component in component_queries
    ]

    for roots in islice(product(*per_component), limit):
        yield validate_order(query, list(map(_clone, roots)))


def find_static_dynamic_order(
    query: Query, limit: int = 100_000
) -> Optional[VariableOrder]:
    """A free-top order giving O(1) updates to every dynamic atom, if any.

    Static atoms never receive updates, so only the dynamic atoms need
    constant propagation paths.  Returns ``None`` when no order in the
    searched space qualifies.
    """
    dynamic = set(query.dynamic_atoms)
    if not dynamic:
        # Fully static query: any free-top order will do.
        for order in enumerate_orders(query, limit=1):
            return order
        return None
    for order in enumerate_orders(query, limit=limit):
        if dynamic <= constant_update_atoms(order):
            return order
    return None


def is_static_dynamic_tractable(query: Query, limit: int = 100_000) -> bool:
    """Does the (view-tree) mixed static/dynamic criterion hold?

    For all-dynamic queries this coincides with q-hierarchicality on the
    examples of Section 4.5; declaring relations static strictly enlarges
    the class.
    """
    return find_static_dynamic_order(query, limit) is not None
