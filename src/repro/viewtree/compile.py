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
  and view schemas (a derived sibling's keys come from its base's index),
* the resolved lifting callable (or ``None`` for trivial COUNT lifting)
  and the position of the marginalized variable.

**Supports, not sums, in the free part.**  Under a free-top order with
a non-empty head, enumeration multiplies only leaf and bound-view
payloads (Theorem 4.1; F-IVM likewise keeps free variables as group-by
keys and aggregates only the bound ones), so above the leaves it needs
*supports* only.  :func:`derive_views` derives every free view no read
multiplies (no probe of the enumeration or lookup plan, and a derived
parent) whose keys a kept group index holds (its enumeration step's):
a :class:`DerivedView`, and a plan step whose view is derived is a
*support step* (:attr:`PlanStep.support`) that writes no view and
re-tests its guard, ``one`` per member, only for the keys whose source
changed.  A parent's only source is derived too, the parent's
candidates then a members-only guard: on ``Q(A, C) = R(A, B) * S(B,
C)`` no kernel writes ``V_C(A)``, read from ``V_B``'s ``(A,)`` index.
Left open: such a source whose keys are a guard's stays written, with
everything below it.  On a valid state (§2: positive multiplicities) a
key is in a view's support exactly when its sum is non-zero, so every
output, lookup, guard and derived value equals the summed walk's.

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

from typing import Any, Optional

from ..data.opcounter import COUNTER
from ..data.relation import GroupIndex, Relation
from ..rings.base import Semiring
from .enumplan import EnumPlan, compile_enum_plan

#: Sibling probe modes.
DIRECT = 0  #: sibling schema is contained in the delta schema: one dict.get
INDEXED = 1  #: probe the sibling's group index on the shared variables
CROSS = 2  #: no shared variables: cross product with every sibling entry


class DerivedView(Relation):
    """A free view no read multiplies, derived on read instead of written.

    ``index`` is the group index on ``dep(X)`` that the enumeration
    plan keeps for step ``X`` over ``base``, the node's guard relation
    (its guard, or its one source): a bucket is non-empty exactly when
    the view's key is in the support.  A value is the sum, over the
    bucket, of the product of ``factors`` — ``(relation, projector)``
    pairs taking a ``base`` key to each source's key (one identity pair
    when ``base`` is the one source).  So ``get``, ``items``, ``data`` and
    ``to_dict`` answer what a maintained view would hold on valid states
    (§2), ``len`` is the bucket count in O(1), and nothing writes it.
    """

    __slots__ = ("base", "index", "factors")

    def __init__(self, view: Relation, base: Relation, index: GroupIndex, factors):
        self.name, self.schema, self.ring = view.name, view.schema, view.ring
        self._indexes: dict = {}
        self._maps: list = []
        self._writer = None
        self.base = base
        self.index = index
        self.factors = factors

    def __getstate__(self):
        return self.name, self.schema, self.ring, self.base, self.index, self.factors

    def __setstate__(self, state) -> None:
        self.name, self.schema, self.ring, self.base, self.index, self.factors = state
        self._indexes, self._maps, self._writer = {}, [], None

    def value(self, key: tuple) -> Any:
        """The payload at ``key`` (``None``: zero or absent)."""
        bucket = self.index.groups.get(key)
        if not bucket:
            return None
        ring = self.ring
        total = None
        for base_key in bucket:
            product = None
            for relation, project in self.factors:
                part = (
                    relation.value(project(base_key))
                    if isinstance(relation, DerivedView)
                    else relation.data.get(project(base_key))
                )
                if part is None:
                    break
                product = part if product is None else ring.mul(product, part)
            else:
                total = product if total is None else ring.add(total, product)
        return None if total is None or ring.is_zero(total) else total

    @property
    def data(self) -> dict:
        values = ((key, self.value(key)) for key in self.index.groups)
        return {key: value for key, value in values if value is not None}

    def get(self, key: tuple) -> Any:
        COUNTER.bump("lookup")
        found = self.value(key)
        return self.ring.zero if found is None else found

    def __len__(self) -> int:
        return len(self.index.groups)

    def support(self) -> Relation:
        """A plain relation holding ``one`` per supported key (what a
        guard above joins)."""
        out = Relation(self.name, self.schema, self.ring)
        out.data = dict.fromkeys(self.index.groups, self.ring.one)
        return out

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"{self.name} is derived on read; nothing writes it")

    add = add_delta = set = apply = clear = index_on = _read_only


def derive_views(engine) -> tuple[dict, Optional[EnumPlan]]:
    """Install a :class:`DerivedView` for every free view no read
    multiplies whose keys a kept index holds; return ``({node:
    materialized view}, enumeration plan)``.

    A node's keys are its guard's, or its one source's.  A free child
    view that is its node's one source is derived too, and the node
    gets a members-only guard, unless the child has a guard (the open
    case) or the node is such a source itself (``pinned``).  Nothing
    below a written view, whose sums read it, is derived.  Children are
    installed first: a guard's factors are their derived views.
    """
    plan = compile_enum_plan(engine)
    if plan is None:
        return {}, None
    # The read set: the relations a probe of either plan multiplies.
    probes = [*plan.prefix_probes, *(p for f in plan.lookup or () for p in f)]
    probes += [p for step in plan.steps for p in step.leaf_probes + step.post_probes]
    multiplied = {id(relation) for relation, _ in probes}
    derived = []

    def visit(node, derive: bool, pinned: bool) -> None:
        if derive:
            derived.append(node)
        for child in node.children:
            free = derive and child.is_free and id(child.view) not in multiplied
            own = node.guard is None and free and child.guard is None and not pinned
            visit(child, free and (own or node.guard is not None), own)

    for root in engine.roots:
        visit(root, root.is_free and id(root.view) not in multiplied, False)
    members = [n for n in derived if n.guard is None and n.children and n.children[0] in derived]
    for node in members:
        node.guard = Relation(f"G_{node.variable}", node.children[0].view.schema, engine.ring)
    plan = compile_enum_plan(engine) if members else plan
    steps = {step.variable: step for step in plan.steps}
    replaced = {}
    for node in reversed(derived):
        # The index groups on the guard relation's variables but X, in
        # its order: the view's schema, marginalized from the same join.
        # Without a guard, that relation is the node's one source.
        step = steps[node.variable]
        base = step.guard
        factors = tuple(
            (source, base.schema.projector(source.schema.variables))
            for source in node.sources()
        )
        replaced[node] = node.view
        node.view = DerivedView(node.view, base, step.index, factors)
    return replaced, plan


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
        "support",
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
        #: A support step: the view is derived (nothing writes it) and
        #: the guard, if any, is re-tested for membership.
        self.support = isinstance(view, DerivedView)

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
    # A derived view has no entries to index: its base relation's keys
    # project onto the view's support, so their index on the shared
    # variables enumerates it (a support once per base key).
    owner = sibling.base if isinstance(sibling, DerivedView) else sibling
    index = owner.index_on(shared)
    extend = owner.schema.positions(new_vars)
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
