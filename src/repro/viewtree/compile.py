"""Delta-propagation plans: the write-path IR of the view-tree kernels.

The generic maintenance path (:meth:`ViewTreeEngine._propagate`) is
already asymptotically optimal — for q-hierarchical queries under their
canonical order, a single-tuple update is a constant number of hash
operations (Theorem 4.1) — but it pays a large *constant* for that bound:
every update allocates a fresh delta :class:`~repro.data.relation.Relation`,
and every propagation step re-derives output schemas, projector closures,
join-key assembly plans, and sibling orders inside ``join_pair`` and
``marginalize``, all of which depend only on the *query*, never on the
update.

This module moves all of that work to engine construction.  For every
(base relation, anchor) pair, :func:`compile_delta_plans` walks the
leaf-to-root path once and records, per node:

* the sibling relations joined at the node (resolved object references,
  in the exact order the generic path would join them),
* for each sibling join, the probe mode and the precomputed position
  tuples — where the shared variables sit in the flowing delta key, how
  to assemble the output key from the delta key and a matching sibling
  key, and (when the sibling is probed through a group index) the
  resolved :class:`~repro.data.relation.GroupIndex` itself,
* the position plans projecting the joined delta onto the node's guard
  and view schemas,
* the resolved lifting callable (or ``None`` for trivial COUNT lifting)
  and the position of the marginalized variable.

A :class:`DeltaPlan` is data only — it executes nothing.  Its one
consumer is :mod:`repro.viewtree.codegen`, which emits each plan as a
specialized ``push`` / ``push_batch`` function pair; the differential
oracle for those kernels is the generic walk itself (an engine built
with ``generated=False``), which shares no planning code with them.

Why a plan preserves Theorem 4.1's O(1) bound: it describes the *same*
probe sequence as the generic path — for a q-hierarchical query under
the canonical order, each sibling join is a constant number of hash
probes (the sibling's schema is contained in the delta's, so the join is
one ``dict.get``), and each marginalization shrinks the delta key by one
position.  For non-q-hierarchical queries it degrades exactly as the
generic path does: group-index probes enumerate the same matching sets,
so update cost stays proportional to the number of affected view
entries.

Everything stored here is positions, relation references, named
callables, and ring singletons, so plans pickle — a generated kernel
pickles as "regenerate from my plan", and the pickle memo preserves the
identity between a plan's relation references and the view tree's own
when an engine is pickled whole.
"""

from __future__ import annotations

from typing import Optional

from ..data.relation import GroupIndex, Relation
from ..rings.base import Semiring

#: Sibling probe modes.
DIRECT = 0  #: sibling schema is contained in the delta schema: one dict.get
INDEXED = 1  #: probe the sibling's group index on the shared variables
CROSS = 2  #: no shared variables: cross product with every sibling entry


class SiblingJoin:
    """One precompiled sibling join: probe plan + output-key assembly."""

    __slots__ = ("relation", "mode", "probe_positions", "extend_positions", "index")

    def __init__(
        self,
        relation: Relation,
        mode: int,
        probe_positions: tuple[int, ...],
        extend_positions: tuple[int, ...],
        index: Optional[GroupIndex],
    ):
        self.relation = relation
        self.mode = mode
        #: Positions in the flowing delta key holding the shared variables
        #: (in the sibling's schema order — the group index key order).
        self.probe_positions = probe_positions
        #: Positions in the sibling key holding its new variables, which
        #: extend the delta key on a match.
        self.extend_positions = extend_positions
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = ("direct", "indexed", "cross")[self.mode]
        return f"SiblingJoin({self.relation.name!r}, {mode})"


class PlanStep:
    """One node of the leaf-to-root path, fully resolved."""

    __slots__ = (
        "variable",
        "view_label",
        "siblings",
        "guard",
        "guard_positions",
        "view",
        "out_positions",
        "lift",
        "lift_position",
    )

    def __init__(
        self,
        variable: str,
        siblings: tuple[SiblingJoin, ...],
        guard: Optional[Relation],
        guard_positions: tuple[int, ...],
        view: Relation,
        out_positions: tuple[int, ...],
        lift,
        lift_position: int,
    ):
        self.variable = variable
        self.view_label = f"V_{variable}"
        self.siblings = siblings
        self.guard = guard
        self.guard_positions = guard_positions
        self.view = view
        #: Positions in the joined delta key for the view's schema order.
        self.out_positions = out_positions
        self.lift = lift
        self.lift_position = lift_position

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlanStep({self.variable!r}, siblings={len(self.siblings)}, "
            f"guard={self.guard is not None})"
        )


class DeltaPlan:
    """The compiled leaf-to-root propagation path for one anchor."""

    __slots__ = ("relation_name", "leaf", "steps", "ring")

    def __init__(
        self,
        relation_name: str,
        leaf: Relation,
        steps: tuple[PlanStep, ...],
        ring: Semiring,
    ):
        self.relation_name = relation_name
        self.leaf = leaf
        self.steps = steps
        self.ring = ring

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaPlan({self.relation_name!r}, steps={len(self.steps)})"
        )


def _compile_sibling(
    in_vars: tuple[str, ...], sibling: Relation
) -> tuple[SiblingJoin, tuple[str, ...]]:
    """Compile one sibling join against a delta over ``in_vars``.

    Returns the join plus the delta's variable tuple after the join —
    ``in_vars`` followed by the sibling's new variables in its schema
    order, matching ``join_pair``'s ``left.union(right)`` output schema.
    """
    sibling_vars = sibling.schema.variables
    in_positions = {v: i for i, v in enumerate(in_vars)}
    shared = tuple(v for v in sibling_vars if v in in_positions)
    new_vars = tuple(v for v in sibling_vars if v not in in_positions)
    out_vars = in_vars + new_vars
    if not shared:
        extend = tuple(range(len(sibling_vars)))
        return SiblingJoin(sibling, CROSS, (), extend, None), out_vars
    probe_positions = tuple(in_positions[v] for v in shared)
    if not new_vars:
        return SiblingJoin(sibling, DIRECT, probe_positions, (), None), in_vars
    index = sibling.index_on(shared)
    extend = sibling.schema.positions(new_vars)
    return (
        SiblingJoin(sibling, INDEXED, probe_positions, extend, index),
        out_vars,
    )


def compile_anchor_plan(engine, atom, node, leaf) -> DeltaPlan:
    """Compile the full leaf-to-root path for one anchored atom."""
    ring = engine.ring
    lifting = engine.lifting
    steps: list[PlanStep] = []
    delta_vars: tuple[str, ...] = atom.variables
    exclude: Relation = leaf
    current = node
    while current is not None:
        siblings = []
        for source in current.sources():
            if source is exclude:
                continue
            join, delta_vars = _compile_sibling(delta_vars, source)
            siblings.append(join)
        delta_positions = {v: i for i, v in enumerate(delta_vars)}
        guard = current.guard
        guard_positions = (
            tuple(delta_positions[v] for v in guard.schema.variables)
            if guard is not None
            else ()
        )
        view = current.view
        out_positions = tuple(
            delta_positions[v] for v in view.schema.variables
        )
        lift = None
        if not current.is_free and not lifting.is_trivial(current.variable):
            lift = lifting.for_variable(current.variable)
        steps.append(
            PlanStep(
                current.variable,
                tuple(siblings),
                guard,
                guard_positions,
                view,
                out_positions,
                lift,
                delta_positions[current.variable],
            )
        )
        delta_vars = view.schema.variables
        exclude = view
        current = current.parent
    return DeltaPlan(atom.relation, leaf, tuple(steps), ring)


def compile_delta_plans(engine) -> dict[str, list[DeltaPlan]]:
    """Compile one :class:`DeltaPlan` per (base relation, anchor) pair.

    The result maps a base relation name to the plans of its anchors, in
    the same order as ``engine._anchors[name]`` — the engine generates
    one kernel per plan and ``apply()`` zips anchors with kernels, so an
    update's leaf insert and its propagation stay in lock-step with the
    generic path's anchor loop.
    """
    plans: dict[str, list[DeltaPlan]] = {}
    for name, anchors in engine._anchors.items():
        plans[name] = [
            compile_anchor_plan(engine, atom, node, leaf)
            for atom, node, leaf in anchors
        ]
    return plans
