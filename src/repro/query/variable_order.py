"""Variable orders: the plan language for view trees.

A *variable order* for a query is a forest over its variables such that the
variables of each atom lie along a single root-to-leaf path.  Every query
admits one (possibly with large dependency sets); hierarchical queries
admit the *canonical* order in which each variable's ancestors appear in
all atoms below it — the shape that yields constant-time single-tuple
updates (Section 4.1).

The view tree of Section 3.2/4.1 is obtained by materializing, per node,
the aggregate of the join of everything below the node; see
:mod:`repro.viewtree`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from .ast import Atom, Query
from .properties import is_hierarchical


@dataclass
class VarOrderNode:
    """One variable of the order, with anchored atoms and children."""

    variable: str
    children: list["VarOrderNode"] = field(default_factory=list)
    atoms: list[Atom] = field(default_factory=list)
    #: Ancestor variables occurring in atoms anchored within this subtree.
    dependency: tuple[str, ...] = ()

    def walk(self) -> Iterator["VarOrderNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (
            f"VarOrderNode({self.variable!r}, dep={self.dependency!r}, "
            f"atoms={[str(a) for a in self.atoms]}, children={len(self.children)})"
        )


class InvalidVariableOrder(ValueError):
    """Raised when a forest is not a valid variable order for a query."""


@dataclass
class VariableOrder:
    """A validated variable order (forest) for a query."""

    query: Query
    roots: list[VarOrderNode]

    def walk(self) -> Iterator[VarOrderNode]:
        for root in self.roots:
            yield from root.walk()

    def node_of(self, variable: str) -> VarOrderNode:
        for node in self.walk():
            if node.variable == variable:
                return node
        raise KeyError(variable)

    def anchor_of(self, atom: Atom) -> VarOrderNode:
        """The node at which ``atom`` is anchored (its deepest variable)."""
        for node in self.walk():
            if atom in node.atoms:
                return node
        raise KeyError(str(atom))

    def parents(self) -> dict[str, Optional[str]]:
        parent: dict[str, Optional[str]] = {}
        for root in self.roots:
            parent[root.variable] = None
            stack = [root]
            while stack:
                node = stack.pop()
                for child in node.children:
                    parent[child.variable] = node.variable
                    stack.append(child)
        return parent

    def path_to_root(self, variable: str) -> list[str]:
        """Variables from ``variable`` (inclusive) up to its root."""
        parent = self.parents()
        path = [variable]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path

    def max_dependency_size(self) -> int:
        return max((len(n.dependency) for n in self.walk()), default=0)

    def is_free_top(self) -> bool:
        """Free variables form a prefix of every root-to-leaf path.

        This is the property that enables constant-delay factorized
        enumeration: the enumeration walks the free prefix top-down.
        """
        free = self.query.free_variables
        for root in self.roots:
            stack = [(root, True)]
            while stack:
                node, ancestors_free = stack.pop()
                node_free = node.variable in free
                if node_free and not ancestors_free:
                    return False
                for child in node.children:
                    stack.append((child, ancestors_free and node_free))
        return True

    def render(self) -> str:
        """ASCII rendering of the order, for docs and debugging."""
        lines: list[str] = []

        def visit(node: VarOrderNode, depth: int) -> None:
            dep = f" [dep: {', '.join(node.dependency)}]" if node.dependency else ""
            anchored = "  " + "; ".join(str(a) for a in node.atoms) if node.atoms else ""
            lines.append("  " * depth + node.variable + dep + anchored)
            for child in node.children:
                visit(child, depth + 1)

        for root in self.roots:
            visit(root, 0)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------


def _compute_dependencies(roots: list[VarOrderNode]) -> None:
    def visit(node: VarOrderNode, ancestors: tuple[str, ...]) -> set[str]:
        subtree_vars: set[str] = set()
        for atom in node.atoms:
            subtree_vars.update(atom.variables)
        for child in node.children:
            subtree_vars |= visit(child, ancestors + (node.variable,))
        node.dependency = tuple(v for v in ancestors if v in subtree_vars)
        return subtree_vars

    for root in roots:
        visit(root, ())


def validate_order(query: Query, roots: list[VarOrderNode]) -> VariableOrder:
    """Check validity and compute dependency sets.

    Validity: every query variable appears exactly once; every atom is
    anchored exactly once, at a node such that the atom's variables all lie
    on the path from that node to its root.
    """
    seen_vars: set[str] = set()
    for root in roots:
        for node in root.walk():
            if node.variable in seen_vars:
                raise InvalidVariableOrder(f"variable {node.variable!r} repeated")
            seen_vars.add(node.variable)
    missing = query.variables() - seen_vars
    if missing:
        raise InvalidVariableOrder(f"variables missing from order: {sorted(missing)}")

    anchored: list[Atom] = []
    order = VariableOrder(query, roots)
    for root in roots:
        _validate_paths(root, (), anchored)
    if len(anchored) != len(query.atoms):
        seen = {id(a) for a in anchored}
        extra = [str(a) for a in query.atoms if id(a) not in seen]
        raise InvalidVariableOrder(f"atoms not anchored: {extra}")

    _compute_dependencies(roots)
    return order


def _validate_paths(node: VarOrderNode, path: tuple[str, ...], anchored: list[Atom]) -> None:
    path = path + (node.variable,)
    for atom in node.atoms:
        if not set(atom.variables) <= set(path):
            raise InvalidVariableOrder(
                f"atom {atom} anchored at {node.variable!r} but its variables "
                f"are not on the path {path!r}"
            )
        if atom.variables and node.variable not in atom.variables:
            raise InvalidVariableOrder(
                f"atom {atom} anchored at {node.variable!r}, which it does not contain"
            )
        anchored.append(atom)
    for child in node.children:
        _validate_paths(child, path, anchored)


def _rank(query: Query) -> Callable[[str], tuple]:
    """Tie-breaking priority: input < free < bound, then alphabetical."""
    inputs = set(query.input_variables)
    free = query.free_variables

    def rank(variable: str) -> tuple:
        if variable in inputs:
            tier = 0
        elif variable in free:
            tier = 1
        else:
            tier = 2
        return (tier, variable)

    return rank


def canonical_order(query: Query) -> VariableOrder:
    """The canonical variable order of a hierarchical query.

    Per connected component, the variables occurring in *all* atoms of the
    component form the top chain (input variables first, then free, then
    bound); the rest recursively forms child subtrees.  For q-hierarchical
    queries the result is free-top, giving O(1) updates and O(1) delay.
    """
    if not is_hierarchical(query):
        raise InvalidVariableOrder(
            f"query {query.name} is not hierarchical; use search_order instead"
        )
    rank = _rank(query)

    def build(atoms: list[Atom], local_vars: set[str]) -> VarOrderNode:
        in_all = {
            v
            for v in local_vars
            if all(v in atom.variables for atom in atoms)
        }
        if not in_all:
            raise InvalidVariableOrder(
                "no variable occurs in all atoms of a connected component; "
                "query is not hierarchical"
            )
        chain_vars = sorted(in_all, key=rank)
        top = VarOrderNode(chain_vars[0])
        bottom = top
        for variable in chain_vars[1:]:
            node = VarOrderNode(variable)
            bottom.children.append(node)
            bottom = node
        remaining = local_vars - in_all
        exhausted = [a for a in atoms if not (set(a.variables) & remaining)]
        bottom.atoms.extend(exhausted)
        open_atoms = [a for a in atoms if set(a.variables) & remaining]
        for component_atoms, component_vars in _components(open_atoms, remaining):
            bottom.children.append(build(component_atoms, component_vars))
        return top

    roots = []
    for component in query.connected_components():
        atoms = list(component.atoms)
        local_vars = set()
        for atom in atoms:
            local_vars.update(atom.variables)
        roots.append(build(atoms, local_vars))
    return validate_order(query, roots)


def _components(
    atoms: list[Atom], variables: set[str]
) -> Iterator[tuple[list[Atom], set[str]]]:
    """Connected components of ``atoms`` linked through ``variables``."""
    remaining = list(atoms)
    while remaining:
        seed = remaining.pop(0)
        component = [seed]
        vars_seen = set(seed.variables) & variables
        changed = True
        while changed:
            changed = False
            for atom in list(remaining):
                if vars_seen & set(atom.variables):
                    remaining.remove(atom)
                    component.append(atom)
                    vars_seen |= set(atom.variables) & variables
                    changed = True
        yield component, vars_seen


def search_order(
    query: Query,
    prefer_free_top: bool = True,
    require_free_top: bool = False,
) -> VariableOrder:
    """Search for a variable order minimizing the largest dependency set.

    Works for *any* query (hierarchical, merely acyclic, or cyclic — cyclic
    queries simply get large dependency sets, hence expensive views).  The
    search recursively picks a top variable per connected component and
    keeps the choice minimizing ``(max |dep|, sum |dep|)`` over the subtree.

    With ``require_free_top`` the free variables are forced above the bound
    ones (needed for constant-delay enumeration); ``prefer_free_top`` only
    breaks cost ties in that direction.
    """
    free = query.free_variables
    # Memo key: the component's atoms plus which of their variables are
    # already bound above — the same atom set can be reached with different
    # ancestor contexts, which changes both costs and the variables that
    # still need placing.
    memo: dict[tuple, tuple[tuple[int, int], VarOrderNode]] = {}

    def candidates(local_vars: set[str]) -> list[str]:
        local_free = sorted(v for v in local_vars if v in free)
        local_bound = sorted(v for v in local_vars if v not in free)
        if require_free_top and local_free:
            return local_free
        if prefer_free_top:
            return local_free + local_bound
        return sorted(local_vars)

    def best_subtree(
        atoms: tuple[Atom, ...], bound_above: frozenset[str]
    ) -> tuple[tuple[int, int], VarOrderNode]:
        local_vars = set()
        for atom in atoms:
            local_vars.update(atom.variables)
        local_vars -= bound_above
        all_vars = {v for atom in atoms for v in atom.variables}
        key = (
            frozenset(id(a) for a in atoms),
            frozenset(bound_above & all_vars),
        )
        if key in memo:
            return memo[key]

        best: tuple[tuple[int, int], VarOrderNode] | None = None
        for variable in candidates(local_vars):
            node = VarOrderNode(variable)
            new_bound = bound_above | {variable}
            remaining_vars = local_vars - {variable}
            exhausted = [a for a in atoms if not (set(a.variables) & remaining_vars)]
            node.atoms.extend(a for a in exhausted if variable in a.variables)
            dangling = [
                a
                for a in exhausted
                if variable not in a.variables and a not in node.atoms
            ]
            if dangling:
                # An atom none of whose variables remain must contain the
                # current variable to be anchored here; otherwise this pick
                # is invalid for that atom.
                continue
            open_atoms = tuple(
                a for a in atoms if set(a.variables) & remaining_vars
            )
            cost_max = 0
            cost_sum = 0
            feasible = True
            for component_atoms, _ in _components(list(open_atoms), remaining_vars):
                sub_cost, child = best_subtree(tuple(component_atoms), new_bound)
                if child is None:
                    feasible = False
                    break
                node.children.append(child)
                cost_max = max(cost_max, sub_cost[0])
                cost_sum += sub_cost[1]
            if not feasible:
                continue
            dep_size = len(
                bound_above
                & {v for a in atoms for v in a.variables}
            )
            cost = (max(cost_max, dep_size), cost_sum + dep_size)
            if best is None or cost < best[0]:
                best = (cost, node)
        if best is None:
            raise InvalidVariableOrder(
                f"no valid variable order found for atoms {[str(a) for a in atoms]}"
            )
        memo[key] = best
        return best

    roots = []
    for component in query.connected_components():
        __, root = best_subtree(tuple(component.atoms), frozenset())
        roots.append(root)
    return validate_order(query, roots)


def order_for(query: Query) -> VariableOrder:
    """The default order: canonical when hierarchical, searched otherwise."""
    if is_hierarchical(query):
        return canonical_order(query)
    return search_order(query)
