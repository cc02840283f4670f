"""Query ASTs: natural joins with group-by aggregates (Section 2).

A query has the shape::

    Q(X_1, ..., X_f) = SUM_{X_{f+1}} ... SUM_{X_m}  R_1(S_1) * ... * R_n(S_n)

where ``X_1..X_f`` are the free (group-by) variables and the remaining
variables are bound (marginalized).  Conjunctive queries are the special
case where aggregates are projections (COUNT lifting).

The same AST also carries the paper's orthogonal annotations:

* **access patterns** (Section 4.3): a subset of the free variables may be
  declared *input* variables, turning the query into a CQAP;
* **static relations** (Section 4.5): atom-level adornment marking
  relations that never receive updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Iterator, Sequence

from ..data.schema import Schema


@dataclass(frozen=True)
class Atom:
    """One occurrence ``R(S)`` of a relation symbol in a query body."""

    relation: str
    variables: tuple[str, ...]
    #: Section 4.5 adornment: static relations never receive updates.
    static: bool = False

    @property
    def schema(self) -> Schema:
        return Schema(self.variables)

    def variable_set(self) -> frozenset[str]:
        return frozenset(self.variables)

    def __str__(self) -> str:
        marker = "@s" if self.static else ""
        return f"{self.relation}{marker}({', '.join(self.variables)})"


@dataclass(frozen=True)
class Query:
    """A join + group-by-aggregate query over ring relations."""

    name: str
    head: tuple[str, ...]
    atoms: tuple[Atom, ...]
    #: CQAP input variables (Section 4.3); must be a subset of ``head``.
    input_variables: tuple[str, ...] = ()

    def __post_init__(self):
        body_vars = self.variables()
        for var in self.head:
            if var not in body_vars:
                raise ValueError(f"head variable {var!r} not in query body")
        if len(set(self.head)) != len(self.head):
            raise ValueError(f"duplicate head variable in {self.head!r}")
        head_set = set(self.head)
        for var in self.input_variables:
            if var not in head_set:
                raise ValueError(f"input variable {var!r} must be free")

    # ------------------------------------------------------------------
    # Variable classification
    # ------------------------------------------------------------------

    def variables(self) -> frozenset[str]:
        """All variables appearing in the body."""
        result: set[str] = set()
        for atom in self.atoms:
            result.update(atom.variables)
        return frozenset(result)

    @property
    def free_variables(self) -> frozenset[str]:
        return frozenset(self.head)

    @property
    def bound_variables(self) -> frozenset[str]:
        return self.variables() - self.free_variables

    @property
    def output_variables(self) -> tuple[str, ...]:
        """Free variables that are not input variables (CQAP view)."""
        inputs = set(self.input_variables)
        return tuple(v for v in self.head if v not in inputs)

    def is_free(self, variable: str) -> bool:
        return variable in self.free_variables

    def is_boolean(self) -> bool:
        """True for queries with an empty head (a single aggregate value)."""
        return not self.head

    # ------------------------------------------------------------------
    # Atom structure
    # ------------------------------------------------------------------

    def atoms_of(self, variable: str) -> frozenset[Atom]:
        """``atoms(X)``: the set of atoms containing ``variable``."""
        return frozenset(a for a in self.atoms if variable in a.variables)

    def relation_names(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for atom in self.atoms:
            seen.setdefault(atom.relation, None)
        return tuple(seen)

    def is_self_join_free(self) -> bool:
        """True when no relation symbol repeats (required by Theorem 4.1)."""
        names = [a.relation for a in self.atoms]
        return len(names) == len(set(names))

    def atom_for_relation(self, relation: str) -> Atom:
        """The unique atom over ``relation`` (self-join-free queries)."""
        matches = [a for a in self.atoms if a.relation == relation]
        if not matches:
            raise KeyError(f"no atom over relation {relation!r} in {self.name}")
        if len(matches) > 1:
            raise ValueError(
                f"relation {relation!r} occurs {len(matches)} times in {self.name}"
            )
        return matches[0]

    @property
    def dynamic_atoms(self) -> tuple[Atom, ...]:
        return tuple(a for a in self.atoms if not a.static)

    @property
    def static_atoms(self) -> tuple[Atom, ...]:
        return tuple(a for a in self.atoms if a.static)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def with_head(self, head: Sequence[str], name: str | None = None) -> "Query":
        return Query(name or self.name, tuple(head), self.atoms, self.input_variables)

    def boolean_version(self, name: str | None = None) -> "Query":
        """The Boolean (empty-head) version of this query."""
        return Query(name or f"{self.name}_bool", (), self.atoms)

    def full_version(self, name: str | None = None) -> "Query":
        """The full join (all variables free), in atom order."""
        seen: dict[str, None] = {}
        for atom in self.atoms:
            for var in atom.variables:
                seen.setdefault(var, None)
        return Query(name or f"{self.name}_full", tuple(seen), self.atoms)

    def connected_components(self) -> list["Query"]:
        """Split the body into connected components (shared-variable graph).

        The head and input annotations are restricted component-wise.
        """
        components = []
        parts = atom_components(self.atoms, self.variables())
        for index, (atoms, variables) in enumerate(parts):
            head = tuple(v for v in self.head if v in variables)
            inputs = tuple(v for v in self.input_variables if v in variables)
            components.append(
                Query(f"{self.name}_c{index}", head, tuple(atoms), inputs)
            )
        return components

    def __str__(self) -> str:
        inputs = set(self.input_variables)
        if inputs:
            outs = ", ".join(self.output_variables) or "."
            ins = ", ".join(self.input_variables)
            head = f"{outs} | {ins}"
        else:
            head = ", ".join(self.head)
        body = " * ".join(str(a) for a in self.atoms)
        return f"{self.name}({head}) = {body}"


def atom_components(
    atoms: Iterable[Atom], variables: AbstractSet[str]
) -> Iterator[tuple[list[Atom], set[str]]]:
    """Connected components of ``atoms``, two atoms linked when they
    share a variable of ``variables``: each component's atoms in the
    order they join it, with the linking variables they hold."""
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


def query(name: str, head: Iterable[str], *atoms: tuple | Atom, inputs: Iterable[str] = ()) -> Query:
    """Terse constructor: ``query('Q', ['A'], ('R', 'A', 'B'), ('S', 'B'))``.

    Each atom is either an :class:`Atom` or a tuple
    ``(relation, var, var, ...)``; suffix the relation name with ``@s`` to
    mark it static, e.g. ``('T@s', 'B', 'C')``.
    """
    built = []
    for spec in atoms:
        if isinstance(spec, Atom):
            built.append(spec)
            continue
        relation, *variables = spec
        static = relation.endswith("@s")
        if static:
            relation = relation[:-2]
        built.append(Atom(relation, tuple(variables), static))
    return Query(name, tuple(head), tuple(built), tuple(inputs))
