"""Full-recompute query evaluation: a generic (worst-case-optimal style)
join with ring aggregation.

This is the baseline every IVM strategy is compared against (Section 3.1
opens with it): on each update, recompute the query output from scratch.
It also serves as the ground truth oracle in tests and as the build step
of the lazy strategies.

The evaluator is a backtracking multi-way join over a global variable
order.  At each variable it picks the atom with the smallest matching
group as the candidate source and verifies candidates against the other
atoms' group indexes — the standard generic-join recipe, adapted to ring
payloads and lifted aggregation.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from ..data.database import Database
from ..data.relation import Relation
from ..data.schema import Schema
from ..query.ast import Query
from ..rings.lifting import LiftingMap


def evaluate(
    query: Query,
    database: Database,
    lifting: LiftingMap | None = None,
    overrides: Mapping[str, Relation] | None = None,
    name: str | None = None,
    variable_order: Sequence[str] | None = None,
) -> Relation:
    """Compute the query output as a relation over the head schema.

    ``overrides`` substitutes relations by name — the delta-query engine
    uses this to evaluate a rule body with one atom replaced by a delta
    relation.  ``variable_order`` optionally fixes the global elimination
    order.  The default binds the non-head variables first, then the
    head: a join through a bound variable is then walked once per
    joining pair instead of once per pair of head values.
    """
    ring = database.ring
    if lifting is None:
        lifting = LiftingMap(ring)
    overrides = overrides or {}

    def resolve(atom) -> Relation:
        if atom.relation in overrides:
            relation = overrides[atom.relation]
        else:
            relation = database[atom.relation]
        if len(atom.variables) != len(relation.schema):
            raise ValueError(
                f"atom {atom} arity {len(atom.variables)} does not match "
                f"relation schema {relation.schema.variables!r}"
            )
        if relation.schema.variables != atom.variables:
            # Positional rename: share the data dict so the alias stays a
            # live view of the relation (indexes are rebuilt per call).
            alias = Relation(relation.name, Schema(atom.variables), relation.ring)
            alias.data = relation.data
            relation = alias
        return relation

    atoms = [(atom, resolve(atom)) for atom in query.atoms]

    head = list(query.head)
    if variable_order is None:
        order = sorted(query.variables() - set(head)) + head
    else:
        order = list(variable_order)
        if set(order) != set(query.variables()):
            raise ValueError("variable_order must cover exactly the query variables")

    out = Relation(name or query.name, Schema(head), ring)
    if not atoms:
        return out

    # Precompute, per variable, which atoms contain it and the tuple of
    # already-bound variables (per atom) at that point in the order.
    bound_so_far: list[set[str]] = []
    running: set[str] = set()
    for var in order:
        bound_so_far.append(set(running))
        running.add(var)

    plans = []
    for position, var in enumerate(order):
        var_plan = []
        for atom_index, (atom, relation) in enumerate(atoms):
            if var not in atom.variables:
                continue
            bound_vars = tuple(
                v for v in atom.variables if v in bound_so_far[position]
            )
            var_plan.append((atom_index, atom, relation, bound_vars))
        plans.append(var_plan)

    n_vars = len(order)
    head_positions = [order.index(v) for v in head]
    binding: dict[str, Any] = {}

    def payload_of_binding() -> Any:
        payload = ring.one
        for atom, relation in atoms:
            key = tuple(binding[v] for v in atom.variables)
            value = relation.get(key)
            if ring.is_zero(value):
                return ring.zero
            payload = ring.mul(payload, value)
        for var in order:
            if var not in query.free_variables:
                payload = ring.mul(payload, lifting.for_variable(var)(binding[var]))
        return payload

    def recurse(position: int) -> None:
        if position == n_vars:
            payload = payload_of_binding()
            if not ring.is_zero(payload):
                key = tuple(binding[order[i]] for i in head_positions)
                out.add(key, payload)
            return
        var = order[position]
        var_plan = plans[position]
        if not var_plan:
            raise ValueError(f"variable {var!r} occurs in no atom")
        # Pick the atom with the smallest matching group as candidate source.
        best = None
        best_size = None
        for entry in var_plan:
            _, atom, relation, bound_vars = entry
            group_key = tuple(binding[v] for v in bound_vars)
            size = relation.group_size(bound_vars, group_key)
            if best_size is None or size < best_size:
                best, best_size = entry, size
        if best_size == 0:
            return
        _, atom, relation, bound_vars = best
        group_key = tuple(binding[v] for v in bound_vars)
        var_pos = atom.variables.index(var)
        seen: set = set()
        for key in relation.group(bound_vars, group_key):
            value = key[var_pos]
            if value in seen:
                continue
            seen.add(value)
            binding[var] = value
            # Semi-join check against the other atoms containing var.
            ok = True
            for entry in var_plan:
                if entry is best:
                    continue
                _, other_atom, other_relation, other_bound = entry
                check_vars = other_bound + (var,)
                check_key = tuple(binding[v] for v in check_vars)
                if other_relation.group_size(check_vars, check_key) == 0:
                    ok = False
                    break
            if ok:
                recurse(position + 1)
        binding.pop(var, None)

    recurse(0)
    return out


def evaluate_scalar(
    query: Query,
    database: Database,
    lifting: LiftingMap | None = None,
    overrides: Mapping[str, Relation] | None = None,
) -> Any:
    """Evaluate a Boolean (empty-head) query to a single ring value."""
    if query.head:
        raise ValueError(f"query {query.name} has a non-empty head")
    result = evaluate(query, database, lifting, overrides)
    return result.get(())
