"""Functional dependencies: closures, Sigma-reducts, FD-guided variable
orders (Section 4.4, Definition 4.9, Theorem 4.11).

Non-hierarchical queries can behave like hierarchical ones over databases
satisfying functional dependencies.  The *Sigma-reduct* extends each
atom's schema (and the head) with its closure under the FDs; when the
reduct is q-hierarchical, the reduct's canonical variable order — with
the *original* atoms re-anchored into it — maintains the original query
with O(1) updates and O(1) delay, because every sibling lookup that looks
linear syntactically touches at most one tuple on FD-satisfying data
(Example 4.12 / Fig. 6).

This module is the analysis and the rewrite, not an engine: the planner
takes :func:`fd_guided_order` (whose ``.query`` is the extended-head
query) and the one ``ViewTreeEngine`` maintains it, reading it through
the original head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..query.ast import Atom, Query
from ..query.properties import is_q_hierarchical
from ..query.variable_order import (
    VariableOrder,
    VarOrderNode,
    canonical_order,
    validate_order,
)


@dataclass(frozen=True)
class FunctionalDependency:
    """``determinant -> dependent``, e.g. ``(X,) -> Y``."""

    determinant: tuple[str, ...]
    dependent: str

    @classmethod
    def parse(cls, text: str) -> "FunctionalDependency":
        """Parse ``"A, B -> C"``."""
        lhs, arrow, rhs = text.partition("->")
        if not arrow:
            raise ValueError(f"missing '->' in FD {text!r}")
        determinant = tuple(v.strip() for v in lhs.split(",") if v.strip())
        dependent = rhs.strip()
        if not determinant or not dependent:
            raise ValueError(f"malformed FD {text!r}")
        return cls(determinant, dependent)

    def __str__(self) -> str:
        return f"{', '.join(self.determinant)} -> {self.dependent}"


def parse_fds(*texts: str) -> tuple[FunctionalDependency, ...]:
    return tuple(FunctionalDependency.parse(t) for t in texts)


def closure(
    variables: Iterable[str], fds: Iterable[FunctionalDependency]
) -> frozenset[str]:
    """``C_Sigma(S)``: the closure of a variable set under the FDs."""
    result = set(variables)
    fds = list(fds)
    changed = True
    while changed:
        changed = False
        for fd in fds:
            if fd.dependent not in result and set(fd.determinant) <= result:
                result.add(fd.dependent)
                changed = True
    return frozenset(result)


def sigma_reduct(query: Query, fds: Iterable[FunctionalDependency]) -> Query:
    """The Sigma-reduct (Definition 4.9): every atom schema and the head
    are extended with their closure, restricted to the query's variables."""
    fds = list(fds)
    query_vars = query.variables()
    atoms = []
    for atom in query.atoms:
        extended = closure(atom.variables, fds) & query_vars
        extra = tuple(sorted(extended - set(atom.variables)))
        atoms.append(Atom(atom.relation, atom.variables + extra, atom.static))
    head_closure = closure(query.head, fds) & query_vars
    extra_head = tuple(sorted(head_closure - set(query.head)))
    return Query(
        f"{query.name}_reduct",
        query.head + extra_head,
        tuple(atoms),
        query.input_variables,
    )


def q_hierarchical_under_fds(
    query: Query, fds: Iterable[FunctionalDependency]
) -> bool:
    """Does the Sigma-reduct become q-hierarchical (Theorem 4.11's premise)?"""
    return is_q_hierarchical(sigma_reduct(query, fds))


def fd_guided_order(
    query: Query, fds: Iterable[FunctionalDependency]
) -> VariableOrder:
    """A variable order for ``query`` built from its q-hierarchical reduct.

    The reduct's canonical order is reproduced node-for-node and the
    original atoms are re-anchored at their deepest variables (their
    variables lie on a reduct path because each atom's reduct schema
    does).
    """
    reduct = sigma_reduct(query, fds)
    if not is_q_hierarchical(reduct):
        raise ValueError(
            f"the Sigma-reduct of {query.name} is not q-hierarchical; "
            "Theorem 4.11 does not apply"
        )
    reduct_order = canonical_order(reduct)

    depth: dict[str, int] = {}
    clones: dict[str, VarOrderNode] = {}

    def clone(node: VarOrderNode, level: int) -> VarOrderNode:
        copy = VarOrderNode(node.variable)
        depth[node.variable] = level
        clones[node.variable] = copy
        for child in node.children:
            copy.children.append(clone(child, level + 1))
        return copy

    roots = [clone(root, 0) for root in reduct_order.roots]
    for atom in query.atoms:
        deepest = max(atom.variables, key=lambda v: depth[v])
        clones[deepest].atoms.append(atom)
    extended_head = _extended_head_query(query, fds)
    return validate_order(extended_head, roots)


def _extended_head_query(
    query: Query, fds: Iterable[FunctionalDependency]
) -> Query:
    """The original atoms with the head extended to its closure.

    Enumerating this query and projecting away the closure-added head
    variables yields the original query's output: on FD-satisfying data
    the added variables are determined by the original head.
    """
    query_vars = query.variables()
    head_closure = closure(query.head, list(fds)) & query_vars
    extra_head = tuple(sorted(head_closure - set(query.head)))
    return Query(
        f"{query.name}_ext",
        query.head + extra_head,
        query.atoms,
        query.input_variables,
    )
