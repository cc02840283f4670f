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
literal loops over named slot locals; its ``lookup`` probes answer
point lookups without the walk.  Access-pattern
requests (``enumerate(prebound=...)``, the CQAP engine of Section 4.3)
run through the same plan: a prebound variable's step swaps its
candidate iteration for one O(1) guard probe.

The plan describes the *same* probe sequence as the generic walk — same
guard buckets in the same insertion order, same leaf/view lookups — so
the generated kernel's output is bit-identical to an engine built with
``generated=False`` (the differential suites in
``tests/test_enum_kernel.py`` and ``benchmarks/bench_enum_kernel.py``
pin this) and the constant-delay asymptotics are untouched.

Everything stored on a plan is positions, relation references, group
indexes, and the ring singleton, so plans pickle — a generated kernel
pickles as "regenerate from my plan", and the pickle memo keeps plan
references identical to the view tree's own relations when an engine is
shipped whole.
"""

from __future__ import annotations

from operator import itemgetter
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
        #: projector)`` pairs — a step's leaves are one factor, any other
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
    lookup = None
    if set(engine.head) == set(query.head):
        at = {slot_of[v]: i for i, v in enumerate(engine.head)}

        def factor(probes) -> tuple:
            return tuple((r, key_projector(tuple(at[s] for s in slots))) for r, slots in probes)

        lookup = [factor([p]) for p in prefix_probes]
        for step in steps:
            lookup += [factor(step.leaf_probes)] if step.leaf_probes else []
            lookup += [factor([p]) for p in step.post_probes]
        lookup = tuple(lookup)
    return EnumPlan(
        engine.ring,
        len(slot_of),
        tuple(slot_of[v] for v in engine.head),
        tuple(prefix_probes),
        tuple(steps),
        lookup,
    )


def key_projector(positions: tuple[int, ...]) -> itemgetter:
    """``key -> tuple(key[p] for p in positions)``, picklable; a run is a slice."""
    start = positions[0] if positions else 0
    if positions == tuple(range(start, start + len(positions))):
        return itemgetter(slice(start, start + len(positions)))
    return itemgetter(*positions)
