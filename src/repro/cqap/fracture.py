"""Fractures of queries with free access patterns (Definition 4.7).

The fracture rewires a CQAP so that each connected component gets its own
copy of every input variable:

1. replace every *occurrence* of an input variable by a fresh variable;
2. compute the connected components of the modified query;
3. within each component, merge the fresh variables that originate from
   the same input variable into one fresh input variable.

The CQAP is *tractable* iff its fracture is hierarchical, free-dominant,
and input-dominant (Theorem 4.8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..query.ast import Atom, Query
from ..query.properties import (
    is_free_dominant,
    is_hierarchical,
    is_input_dominant,
)


@dataclass(frozen=True)
class Fracture:
    """A fractured CQAP: one component query per connected component.

    ``input_origin`` maps each fresh input variable (e.g. ``A__2``) back
    to the original input variable it copies (``A``); output variables
    keep their names.
    """

    original: Query
    components: tuple[Query, ...]
    input_origin: dict[str, str]

    def combined(self) -> Query:
        """All components as one (disconnected) query.

        This is what a ``cqap`` plan maintains: its canonical order has
        one root per component with the input variables on top, so an
        access request is one enumeration with the inputs prebound.
        """
        atoms: list[Atom] = []
        head: list[str] = []
        inputs: list[str] = []
        for component in self.components:
            atoms.extend(component.atoms)
            head.extend(component.head)
            inputs.extend(component.input_variables)
        return Query(
            f"{self.original.name}_fracture",
            tuple(head),
            tuple(atoms),
            tuple(inputs),
        )

    def is_tractable(self) -> bool:
        """Theorem 4.8's syntactic criterion on the fractured query."""
        fractured = self.combined()
        return (
            is_hierarchical(fractured)
            and is_free_dominant(fractured)
            and is_input_dominant(fractured)
        )


def fracture(query: Query) -> Fracture:
    """Compute the fracture of a CQAP (Definition 4.7)."""
    inputs = set(query.input_variables)
    # Step 1: a fresh variable per occurrence of each input variable.
    fresh_atoms: list[Atom] = []
    occurrence_origin: dict[str, str] = {}
    counter = 0
    for atom in query.atoms:
        new_vars = []
        for var in atom.variables:
            if var in inputs:
                counter += 1
                fresh = f"{var}__o{counter}"
                occurrence_origin[fresh] = var
                new_vars.append(fresh)
            else:
                new_vars.append(var)
        fresh_atoms.append(Atom(atom.relation, tuple(new_vars), atom.static))

    # Step 2: connected components of the modified query.
    modified = Query(query.name, (), tuple(fresh_atoms))
    component_queries = modified.connected_components()

    # Step 3: within each component, merge occurrences of the same input
    # variable into a single fresh input variable.
    components: list[Query] = []
    input_origin: dict[str, str] = {}
    for index, component in enumerate(component_queries):
        renaming: dict[str, str] = {}
        merged_inputs: list[str] = []
        for var in sorted(component.variables()):
            origin = occurrence_origin.get(var)
            if origin is None:
                continue
            merged = f"{origin}__c{index}"
            renaming[var] = merged
            if merged not in input_origin:
                input_origin[merged] = origin
                merged_inputs.append(merged)
        atoms = tuple(
            Atom(
                a.relation,
                tuple(renaming.get(v, v) for v in a.variables),
                a.static,
            )
            for a in component.atoms
        )
        component_vars = {v for a in atoms for v in a.variables}
        outputs = tuple(
            v for v in query.output_variables if v in component_vars
        )
        head = outputs + tuple(merged_inputs)
        components.append(
            Query(
                f"{query.name}_f{index}",
                head,
                atoms,
                tuple(merged_inputs),
            )
        )
    return Fracture(query, tuple(components), input_origin)


def is_tractable_cqap(query: Query) -> bool:
    """Is the CQAP tractable (its fracture passes Theorem 4.8)?"""
    return fracture(query).is_tractable()


def bind_inputs(
    names: Sequence[str],
    input_origin: Mapping[str, str],
    inputs: Mapping[str, Any] | Sequence[Any],
) -> dict[str, Any]:
    """An access request as prebound variables of the combined fracture.

    ``inputs`` binds the original query's input variables ``names`` (a
    mapping, or a sequence in that order); every component's copy of an
    input variable gets that variable's value.
    """
    if not isinstance(inputs, Mapping):
        values = tuple(inputs)
        if len(values) != len(names):
            raise ValueError(
                f"expected {len(names)} input values, got {len(values)}"
            )
        inputs = dict(zip(names, values))
    missing = set(names) - set(inputs)
    if missing:
        raise ValueError(f"missing input values for {sorted(missing)}")
    return {fresh: inputs[name] for fresh, name in input_origin.items()}
