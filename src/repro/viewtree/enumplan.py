"""Enumeration plans: the read-path IR of the view-tree kernels.

This is the read-side twin of :mod:`repro.viewtree.compile`.  The generic
factorized enumeration (:meth:`ViewTreeEngine._enumerate_generic`) already
achieves the constant-delay bound of Theorem 4.1 / Example 4.4 for
q-hierarchical queries under a free-top order, but — exactly like the
generic write path — it pays a large *constant* for it: every surviving
candidate goes through a name-keyed binding dict, every key assembly
re-reads the schedule's variable tuples, and every output tuple is
yielded through a chain of nested generator frames proportional to the
variable-order depth.

All of that depends only on the *query*, never on the data.
:func:`compile_enum_plan` therefore flattens the enumeration walk once,
at engine construction:

* the recursive ``children + rest`` scheduling collapses into a fixed
  pre-order sequence of *steps*, one per free variable, each carrying the
  deterministic bound-view probes that follow it (bound subtrees
  contribute a single view factor and are never descended into);
* the name-keyed binding dict becomes a flat *slot array*; every probe —
  guard group keys, prebound guard checks, anchored-leaf lookups, bound
  view lookups, head projection — is a precomputed tuple of slot
  positions;
* the guard of every free step resolves to its
  :class:`~repro.data.relation.GroupIndex` (created at compile time and
  incrementally maintained by every subsequent update, exactly as the
  generic path's lazy ``index_on`` would).

An :class:`EnumPlan` is data only — it executes nothing.
:mod:`repro.viewtree.codegen` emits it as one generator of nested
literal loops over named slot locals, and its ``lookup`` probes as one
straight-line ``lookup(key)`` beside it, which answers a point lookup
without the walk.  Access-pattern
requests (``enumerate(prebound=...)``, the CQAP engine of Section 4.3)
run through the same plan: a prebound variable's step swaps its
candidate iteration for one O(1) guard probe.

The plan describes the *same* probe sequence as the generic walk — same
guard buckets in the same insertion order, same leaf/view lookups — so
the generated kernel's output is bit-identical to an engine built with
``generated=False`` (the differential suites in
``tests/test_enum_kernel.py`` and ``benchmarks/bench_enum_kernel.py``
pin this) and the constant-delay asymptotics are untouched.

**Replayed suffixes.**  Once a node's ancestors are bound, the subtrees
under its children are independent (§4.1): on ``Q(Y,X,Z) = R(Y,X) *
S(Y,Z)`` the ``Z`` candidates and their ``S`` payloads are the same for
every ``X`` of one ``Y``.  :func:`compile_enum_plan` marks step *d*
(:attr:`EnumStep.replay`) when no step from *d* on reads the slot step
*d−1* binds — a function of the plan's positions alone.  The kernel then
walks the suffix from *d* once per binding of the steps before *d−1*,
recording each row it reaches, and replays the rows for every later
candidate of step *d−1* (:mod:`repro.viewtree.codegen`).  Op counts: a
replayed row is one ``enum`` and no ``lookup``, since it probes
nothing; the walked pass counts as the generic walk does.

**Drained buckets.**  On ``Q(A, C) = R(A, B) * S(B, C)`` the last step's
candidates are the keys of one ``V_B(A, ·)`` bucket, and ``V_B`` is the
only factor that carries a value: each output tuple is a bucket key
with its ``V_B`` payload.  :func:`compile_enum_plan` marks the last step
(:attr:`EnumStep.drain`) when its guard is its one post probe, no other
probe (prefix, leaf or post) multiplies, and the guard's keys are output
tuples in head order.  An unbound enumeration then hands each bucket to
the consumer whole, as one C-level iterator over its keys and payloads,
instead of resuming a generator per tuple (:mod:`repro.viewtree.codegen`);
prebound requests and epoch reads keep the walk.  Same tuples, same
order, same op counts, summed per bucket.

Everything stored on a plan is positions, relation references, group
indexes, and the ring singleton, so plans pickle — a generated kernel
pickles as "regenerate from my plan", and the pickle memo keeps plan
references identical to the view tree's own relations when an engine is
shipped whole.
"""

from __future__ import annotations

from typing import Any, Optional

from ..data.relation import GroupIndex, Relation
from ..rings.base import Semiring


class EnumStep:
    """One free variable of the flattened enumeration walk."""

    __slots__ = (
        "variable",
        "var_slot",
        "var_pos",
        "guard",
        "index",
        "group_positions",
        "probe_positions",
        "leaf_probes",
        "post_probes",
        "replay",
        "drain",
    )

    def __init__(
        self,
        variable: str,
        var_slot: int,
        var_pos: int,
        guard: Relation,
        index: GroupIndex,
        group_positions: tuple[int, ...],
        probe_positions: tuple[int, ...],
        leaf_probes: tuple[tuple[Relation, tuple[int, ...]], ...],
        post_probes: tuple[tuple[Relation, tuple[int, ...]], ...],
    ):
        self.variable = variable
        #: Slot receiving the candidate value bound at this step.
        self.var_slot = var_slot
        #: Position of the variable inside the guard's key tuples.
        self.var_pos = var_pos
        self.guard = guard
        #: Guard group index on the step's ancestor variables.
        self.index = index
        #: Slot positions assembling the group key (guard schema order).
        self.group_positions = group_positions
        #: Slot positions assembling a full guard key (prebound checks).
        self.probe_positions = probe_positions
        #: Anchored leaves probed per candidate: (relation, slot positions).
        self.leaf_probes = leaf_probes
        #: Bound-subtree views probed after this step, before the next one.
        self.post_probes = post_probes
        #: Whether the walk from this step on replays per candidate of the
        #: step before (set by :func:`compile_enum_plan`).
        self.replay = False
        #: Whether an unbound walk hands this step's candidate buckets
        #: over whole (last step only; set by :func:`compile_enum_plan`).
        self.drain = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EnumStep({self.variable!r}, leaves={len(self.leaf_probes)}, "
            f"post={len(self.post_probes)})"
        )


class EnumPlan:
    """The compiled enumeration walk for one engine's free-top order."""

    __slots__ = ("ring", "nslots", "head_positions", "prefix_probes", "steps", "lookup")

    def __init__(
        self,
        ring: Semiring,
        nslots: int,
        head_positions: tuple[int, ...],
        prefix_probes: tuple[tuple[Relation, tuple[int, ...]], ...],
        steps: tuple[EnumStep, ...],
        lookup: Optional[tuple] = None,
    ):
        self.ring = ring
        self.nslots = nslots
        #: Slot positions projecting the slot array onto the output head
        #: (``engine.head``: the maintained head, or a rewrite's subset).
        self.head_positions = head_positions
        #: Bound-root views probed once, before any free step runs
        #: (connected components with no free variable).
        self.prefix_probes = prefix_probes
        self.steps = steps
        #: Point-lookup plan when a key binds the whole maintained head:
        #: the walk's probes minus guards, as factors of ``(relation, key
        #: positions)`` pairs — a step's leaves are one factor, any other
        #: probe its own — so the product associates as the walk's (§4.1).
        self.lookup = lookup

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EnumPlan(steps={len(self.steps)}, slots={self.nslots})"


def _flatten(roots) -> list[tuple[bool, Any]]:
    """The fixed visit sequence of the factorized walk.

    The generic recursion's continuation — ``children + rest`` at a free
    node, ``rest`` at a bound one — depends only on the tree, so the
    whole walk flattens to one pre-order sequence in which bound nodes
    are leaves (their view summarizes the subtree).
    """
    sequence: list[tuple[bool, Any]] = []
    worklist = list(roots)
    while worklist:
        node = worklist.pop(0)
        if node.is_free:
            sequence.append((True, node))
            worklist = list(node.children) + worklist
        else:
            sequence.append((False, node))
    return sequence


def compile_enum_plan(engine) -> Optional[EnumPlan]:
    """Compile the engine's enumeration walk into an :class:`EnumPlan`.

    Requires a free-top order and a non-empty head (callers gate on
    both; empty-head queries go through ``scalar()``).  Returns ``None``
    when there is nothing to compile.
    """
    query = engine.query
    if not query.head or not engine.order.is_free_top():
        return None
    sequence = _flatten(engine.roots)
    slot_of: dict[str, int] = {}
    prefix_probes: list[tuple[Relation, tuple[int, ...]]] = []
    steps: list[EnumStep] = []
    pending_posts: list[tuple[Relation, tuple[int, ...]]] = []

    def slots_for(variables) -> tuple[int, ...]:
        return tuple(slot_of[v] for v in variables)

    for is_free, node in sequence:
        if not is_free:
            probe = (node.view, slots_for(node.view.schema.variables))
            if steps:
                pending_posts.append(probe)
            else:
                prefix_probes.append(probe)
            continue
        if steps:
            previous = steps[-1]
            previous.post_probes = tuple(pending_posts)
        pending_posts.clear()
        slot = slot_of.setdefault(node.variable, len(slot_of))
        guard = node.guard_relation()
        guard_vars = guard.schema.variables
        group_vars = tuple(v for v in guard_vars if v != node.variable)
        steps.append(
            EnumStep(
                node.variable,
                slot,
                guard.schema.position(node.variable),
                guard,
                guard.index_on(group_vars),
                slots_for(group_vars),
                slots_for(guard_vars),
                tuple(
                    (leaf, slots_for(atom.variables))
                    for atom, leaf in node.leaves
                ),
                (),
            )
        )
    if not steps:
        return None
    steps[-1].post_probes = tuple(pending_posts)
    for d in range(1, len(steps)):
        bound = steps[d - 1].var_slot
        steps[d].replay = all(bound not in _reads(step) for step in steps[d:])
    head_positions = tuple(slot_of[v] for v in engine.head)
    last = steps[-1]
    last.drain = (
        not prefix_probes
        and not any(step.leaf_probes or step.post_probes for step in steps[:-1])
        and not last.leaf_probes
        and len(last.post_probes) == 1
        and last.post_probes[0][0] is last.guard
        and last.probe_positions == head_positions
    )
    lookup = None
    if set(engine.head) == set(query.head):
        at = {slot_of[v]: i for i, v in enumerate(engine.head)}

        def factor(probes) -> tuple:
            return tuple((r, tuple(at[s] for s in slots)) for r, slots in probes)

        lookup = [factor([p]) for p in prefix_probes]
        for step in steps:
            lookup += [factor(step.leaf_probes)] if step.leaf_probes else []
            lookup += [factor([p]) for p in step.post_probes]
        lookup = tuple(lookup)
    return EnumPlan(
        engine.ring,
        len(slot_of),
        head_positions,
        tuple(prefix_probes),
        tuple(steps),
        lookup,
    )


def _reads(step: EnumStep) -> set[int]:
    """The slots a step's probes read (its own slot included)."""
    probes = step.leaf_probes + step.post_probes
    return {*step.probe_positions, *(s for _, slots in probes for s in slots)}
