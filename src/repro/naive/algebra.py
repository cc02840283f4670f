"""Relational algebra over ring relations: joins, marginalization, union.

Shared by the view-tree builder/maintainer and the delta machinery.  All
operators follow Section 2's definitions: join multiplies payloads of
agreeing tuples, aggregation sums lifted payloads, union adds payloads.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from ..data.relation import Relation
from ..data.schema import Schema
from ..rings.base import Semiring


def join_pair(
    left: Relation,
    right: Relation,
    ring: Semiring,
    name: str = "join",
) -> Relation:
    """Natural join of two relations: payloads multiply.

    The smaller side drives the probe; the other side is accessed through
    a group index on the shared variables, so the cost is proportional to
    the number of (probe tuple, matching tuple) pairs.
    """
    out_schema = left.schema.union(right.schema)
    out = Relation(name, out_schema, ring)
    probe, build = (left, right) if len(left) <= len(right) else (right, left)
    shared = tuple(v for v in build.schema if v in probe.schema)
    probe_project = probe.schema.projector(shared)

    probe_vars = probe.schema.variables
    build_vars = build.schema.variables
    out_vars = out_schema.variables
    # Precompute how to assemble the output key from probe and build keys.
    plan: list[tuple[int, int]] = []
    for var in out_vars:
        if var in probe.schema:
            plan.append((0, probe.schema.position(var)))
        else:
            plan.append((1, build.schema.position(var)))

    if not shared:
        for probe_key, probe_payload in probe.items():
            for build_key, build_payload in build.items():
                payload = ring.mul(probe_payload, build_payload)
                if ring.is_zero(payload):
                    continue
                sides = (probe_key, build_key)
                out.add(tuple(sides[s][i] for s, i in plan), payload)
        return out

    for probe_key, probe_payload in probe.items():
        group_key = probe_project(probe_key)
        # group_items reads the payload straight off the build side's
        # data dict: the key came out of the group index, so a second
        # build.get() per matching pair would only double-count a hash
        # probe (and skew COUNTER-based complexity assertions).
        for build_key, build_payload in build.group_items(shared, group_key):
            payload = ring.mul(probe_payload, build_payload)
            if ring.is_zero(payload):
                continue
            sides = (probe_key, build_key)
            out.add(tuple(sides[s][i] for s, i in plan), payload)
    return out


def join_all(
    sources: Sequence[Relation], ring: Semiring, name: str = "join"
) -> Relation:
    """Natural join of several relations (left-deep, smallest first)."""
    if not sources:
        raise ValueError("join_all needs at least one relation")
    ordered = sorted(sources, key=len)
    result = ordered[0]
    for source in ordered[1:]:
        result = join_pair(result, source, ring, name)
    if result is ordered[0] and len(ordered) == 1:
        result = ordered[0].copy(name)
    return result


def marginalize(
    relation: Relation,
    variable: str,
    ring: Semiring,
    lift: Callable[[Any], Any] | None = None,
    name: str | None = None,
) -> Relation:
    """``SUM_variable relation``: drop a column, summing lifted payloads."""
    out_vars = tuple(v for v in relation.schema.variables if v != variable)
    out = Relation(name or f"sum_{variable}", Schema(out_vars), ring)
    position = relation.schema.position(variable)
    project = relation.schema.projector(out_vars)
    if lift is None:
        for key, payload in relation.items():
            out.add(project(key), payload)
    else:
        for key, payload in relation.items():
            out.add(project(key), ring.mul(payload, lift(key[position])))
    return out


def union_into(target: Relation, source: Relation) -> None:
    """``target := target (+) source`` (schemas must match as sets)."""
    if target.schema.as_set() != source.schema.as_set():
        raise ValueError(
            f"union of incompatible schemas {target.schema.variables!r} "
            f"and {source.schema.variables!r}"
        )
    project = source.schema.projector(target.schema.variables)
    for key, payload in source.items():
        target.add(project(key), payload)

