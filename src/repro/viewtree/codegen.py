"""Source-generated kernels: the one executor of the view-tree plans.

:mod:`repro.viewtree.compile` and :mod:`repro.viewtree.enumplan` resolve
everything about maintenance and enumeration that depends only on the
query into plan objects — step lists, probe modes, position tuples.
Walking those lists at run time would still pay, per update, a
``for step in steps`` / ``for join in step.siblings`` dispatch, a mode
test per sibling, a ``tuple(dkey[i] for i in positions)`` genexpr per
projection, and a ring method call per multiplication.  All of that is
constant per *plan* — so this module emits it away (the classic
ORM/serializer trick, cf. stepping's profiling notes in SNIPPETS.md and
OpenIVM's compile-to-code design in PAPERS.md):

* for each :class:`~repro.viewtree.compile.DeltaPlan` it generates
  Python source with the step loop fully unrolled — one straight-line
  block per sibling join and per marginalization, projections as literal
  index tuples (``(dkey[0], dkey[2])``), ring operations inlined to
  ``a * b`` / ``a + b`` when the ring declares
  :attr:`~repro.rings.base.Semiring.mul_operator`, and
  :attr:`~repro.rings.base.Semiring.exact_zero` tests inlined to one
  comparison — and ``exec``\\ s it into specialized ``push`` /
  ``push_batch`` functions;
* for each :class:`~repro.viewtree.enumplan.EnumPlan` it generates the
  enumeration walk as *nested literal loops* over named slot locals
  (``s0``, ``s1``, …), one block per depth with its guard probe, leaf
  probes, and bound-view probes unrolled in place.

The generated functions execute the **same probe sequence and the same
ring-operation order** as the generic walk
(:meth:`ViewTreeEngine._propagate` / ``_enumerate_generic``), which
shares no code with them but :class:`~repro.data.relation.Relation` and
is the differential-testing oracle: an engine built with
``generated=False`` must agree bit for bit (``tests/test_codegen.py``).

Shape cache
-----------
Generated source depends only on the plan's *shape* — step/sibling
structure, position tuples, and the **ring identity** (type plus
instance state such as a :class:`~repro.rings.standard.FloatRing`
tolerance, recursively for :class:`~repro.rings.standard.ProductRing`
factors) — never on relation or anchor *names*.  Identical shapes across
anchors, engines, and shards therefore compile once per process: the
module-level cache maps a structural shape key to the exec'd factory,
and instantiating a kernel for a concrete plan just calls the factory
with that plan's environment (relation/index objects, bound
``add``/``add_delta`` methods, ring callables, labels).  Keying on the
ring identity and schema positions — not names — is what keeps two views
over same-named relations with *different* rings from ever sharing a
kernel.

Copy-on-write safety: environments bind :class:`Relation` /
:class:`GroupIndex` **objects** (and bound methods), never their
``data``/``groups`` dicts — the generated code re-reads ``.data`` and
``.groups`` at call time, so epoch publication (which swaps those dicts
on the next write) keeps working.

Pickling: a kernel's functions are closures over live objects and cannot
pickle, so :class:`DeltaKernel`/:class:`EnumKernel` implement
``__reduce__`` as "regenerate from the plan" — the plan itself pickles
with the engine (the pickle memo keeps its relation references identical
to the view tree's own), and unpickling hits the shape cache.
"""

from __future__ import annotations

import threading
from operator import itemgetter
from time import perf_counter
from typing import Any, Optional

from ..data.opcounter import COUNTER
from ..rings.base import Semiring
from .compile import CROSS, DIRECT, INDEXED, DeltaPlan
from .enumplan import EnumPlan

#: Sentinel the generated code tests with ``is``: a probe-cache miss in
#: ``push_batch`` (``None`` is a legitimate cached result — an absent
#: sibling entry/bucket) and "no prebound value" in ``iterate``.
_MISS = object()

__all__ = [
    "DeltaKernel",
    "EnumKernel",
    "compile_delta_kernel",
    "compile_enum_kernel",
    "new_codegen_info",
    "ring_identity",
]


def new_codegen_info() -> dict[str, Any]:
    """A fresh mutable counter bag for one engine's kernel generation."""
    return {"kernels": 0, "cache_hits": 0, "time_ms": 0.0, "fallbacks": 0}


# ----------------------------------------------------------------------
# Ring identity and shape keys
# ----------------------------------------------------------------------


def ring_identity(ring: Semiring) -> tuple:
    """A hashable structural identity for a ring instance.

    Two rings share generated code only when this key matches: same
    type, same ``exact_zero``/operator declarations, and same instance
    state (e.g. ``FloatRing.tolerance``; ``ProductRing.factors``
    recurse).  Unhashable state degrades to its ``repr``.
    """
    state = []
    attrs = getattr(ring, "__dict__", None)
    if attrs:
        for name in sorted(attrs):
            value = attrs[name]
            if isinstance(value, Semiring):
                value = ring_identity(value)
            elif isinstance(value, tuple):
                value = tuple(
                    ring_identity(v) if isinstance(v, Semiring) else v
                    for v in value
                )
            try:
                hash(value)
            except TypeError:
                value = repr(value)
            state.append((name, value))
    return (
        type(ring).__module__,
        type(ring).__qualname__,
        ring.exact_zero,
        ring.add_operator,
        ring.mul_operator,
        tuple(state),
    )


def _delta_shape(plan: DeltaPlan) -> tuple:
    return (
        "delta",
        ring_identity(plan.ring),
        len(plan.leaf.schema.variables),
        tuple(
            (
                tuple(
                    (join.mode, join.probe_positions, join.extend_positions)
                    for join in step.siblings
                ),
                step.guard is not None,
                step.guard_positions,
                step.out_positions,
                step.lift is not None,
                step.lift_position,
            )
            for step in plan.steps
        ),
    )


def _enum_shape(plan: EnumPlan) -> tuple:
    return (
        "enum",
        ring_identity(plan.ring),
        plan.nslots,
        plan.head_positions,
        tuple(positions for _, positions in plan.prefix_probes),
        tuple(
            (
                step.var_slot,
                step.var_pos,
                step.group_positions,
                step.probe_positions,
                tuple(positions for _, positions in step.leaf_probes),
                tuple(positions for _, positions in step.post_probes),
            )
            for step in plan.steps
        ),
    )


# ----------------------------------------------------------------------
# Source-emission helpers
# ----------------------------------------------------------------------


class _Writer:
    """Tiny indented-source builder."""

    def __init__(self, indent: int = 0):
        self.lines: list[str] = []
        self.indent = indent

    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self.indent + line if line else "")

    def block(self) -> "_Block":
        return _Block(self)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _Block:
    def __init__(self, writer: _Writer):
        self.writer = writer

    def __enter__(self):
        self.writer.indent += 1

    def __exit__(self, *exc):
        self.writer.indent -= 1


class _Ops:
    """Ring-operation expression templates for one ring."""

    def __init__(self, ring: Semiring):
        self.exact = ring.exact_zero
        self.add_op = ring.add_operator
        self.mul_op = ring.mul_operator

    def mul(self, a: str, b: str) -> str:
        if self.mul_op:
            return f"({a} {self.mul_op} {b})"
        return f"MUL({a}, {b})"

    def add(self, a: str, b: str) -> str:
        if self.add_op:
            return f"({a} {self.add_op} {b})"
        return f"ADD({a}, {b})"

    def is_zero(self, x: str) -> str:
        # ``add_operator = "+"`` asserts numeric payloads (see the sum()
        # fold), where truthiness coincides exactly with ``== 0`` — one
        # bytecode instead of a global load plus a rich comparison.  Only
        # ever emitted as a bare ``if`` condition.
        if self.exact:
            return f"not {x}" if self.add_op == "+" else f"{x} == ZERO"
        return f"IS_ZERO({x})"

    def nonzero(self, x: str) -> str:
        if self.exact:
            return x if self.add_op == "+" else f"{x} != ZERO"
        return f"not IS_ZERO({x})"


def _proj(var: str, positions: tuple[int, ...], arity: int | None = None) -> str:
    """A literal tuple expression projecting ``var`` onto ``positions``."""
    if arity is not None and positions == tuple(range(arity)):
        return var
    if not positions:
        return "()"
    inner = ", ".join(f"{var}[{i}]" for i in positions)
    if len(positions) == 1:
        return f"({inner},)"
    return f"({inner})"


def _wrap_factory(body: _Writer, env_names: list[str], returns: str) -> str:
    """Wrap generated function bodies in the shared ``_make(env)`` factory.

    The factory is exec'd once per *shape*; calling it with a concrete
    plan's environment binds every name as a closure local (fast
    ``LOAD_DEREF``, no globals lookups in the hot path).
    """
    w = _Writer()
    w.emit("def _make(env):")
    with w.block():
        for name in env_names:
            w.emit(f"{name} = env[{name!r}]")
        w.emit()
    w.lines.extend(body.lines)
    with w.block():
        w.emit(f"return {returns}")
    return w.source()


# ----------------------------------------------------------------------
# Delta-kernel source
# ----------------------------------------------------------------------


def _delta_getters(plan: DeltaPlan) -> dict[str, tuple[int, ...]]:
    """Positions for the ``itemgetter`` closures the batch body maps.

    ``map(itemgetter(...), keys)`` runs a projection at C speed; the
    batch emitter uses one per non-trivial probe (``PG_{s}_{j}``) and per
    non-identity marginalization (``OG_{s}``, lift-free only — lifting
    needs the full key in the loop).  Computed once here so the env
    builder and the emitter agree exactly on which getters exist.
    """
    getters: dict[str, tuple[int, ...]] = {}
    arity = len(plan.leaf.schema.variables)
    for s, step in enumerate(plan.steps):
        for j, join in enumerate(step.siblings):
            full_key = len(join.probe_positions) == arity
            if join.mode != CROSS and join.probe_positions and not full_key:
                getters[f"PG_{s}_{j}"] = join.probe_positions
            arity += len(join.extend_positions)
        identity = step.out_positions == tuple(range(arity))
        if step.out_positions and not identity and step.lift is None:
            getters[f"OG_{s}"] = step.out_positions
        arity = len(step.out_positions)
    return getters


def _delta_env_names(plan: DeltaPlan) -> list[str]:
    names = ["MUL", "ADD", "IS_ZERO", "ZERO", "COUNTER", "MISS"]
    for s, step in enumerate(plan.steps):
        names.append(f"LBL_{s}")
        names.append(f"VADD_{s}")
        names.append(f"VREL_{s}")
        if step.guard is not None:
            names.append(f"GADD_{s}")
            names.append(f"GREL_{s}")
        if step.lift is not None:
            names.append(f"LIFT_{s}")
        for j, join in enumerate(step.siblings):
            names.append(f"REL_{s}_{j}")
            if join.index is not None:
                names.append(f"IDX_{s}_{j}")
    names.extend(_delta_getters(plan))
    return names


def _delta_env(plan: DeltaPlan) -> dict[str, Any]:
    ring = plan.ring
    env: dict[str, Any] = {
        "MUL": ring.mul,
        "ADD": ring.add,
        "IS_ZERO": ring.is_zero,
        "ZERO": ring.zero,
        "COUNTER": COUNTER,
        "MISS": _MISS,
    }
    for s, step in enumerate(plan.steps):
        env[f"LBL_{s}"] = step.view_label
        env[f"VADD_{s}"] = step.view.add
        env[f"VREL_{s}"] = step.view
        if step.guard is not None:
            env[f"GADD_{s}"] = step.guard.add
            env[f"GREL_{s}"] = step.guard
        if step.lift is not None:
            env[f"LIFT_{s}"] = step.lift
        for j, join in enumerate(step.siblings):
            env[f"REL_{s}_{j}"] = join.relation
            if join.index is not None:
                env[f"IDX_{s}_{j}"] = join.index
    for name, positions in _delta_getters(plan).items():
        env[name] = itemgetter(*positions)
    return env


def _emit_push(w: _Writer, plan: DeltaPlan, ops: _Ops) -> None:
    """The single-tuple ``push(key, payload, stats)`` body.

    The flowing delta starts as one ``(dk, dp)`` pair and stays scalar
    straight-line code through DIRECT joins and marginalizations; the
    first INDEXED/CROSS join fans it out into parallel-iteration list
    code.  Sibling order, early exits, per-view ``stats.record_delta``
    calls, and ring-operation order follow the generic
    :meth:`ViewTreeEngine._propagate`; probes and per-match enumeration
    steps are counted in bulk — one ``COUNTER.bump(kind, n)`` per push
    instead of one call per operation — so COUNTER-based complexity
    assertions see the same asymptotic shape at a fraction of the
    bookkeeping cost.
    """
    w.emit("def push(key, payload, stats=None):")
    with w.block():
        w.emit(f"if {ops.is_zero('payload')}:")
        with w.block():
            w.emit("return")
        w.emit("lookups = 0")
        w.emit("matches = 0")
        w.emit("try:")
        with w.block():
            w.emit("dk = key")
            w.emit("dp = payload")
            single = True
            arity = len(plan.leaf.schema.variables)
            for s, step in enumerate(plan.steps):
                w.emit(f"# step {s} ({step.variable})")
                for j, join in enumerate(step.siblings):
                    probe = _proj("dk", join.probe_positions, arity)
                    if join.mode == DIRECT:
                        if single:
                            w.emit("lookups += 1")
                            w.emit(f"val = REL_{s}_{j}.data.get({probe})")
                            w.emit("if val is None:")
                            with w.block():
                                w.emit("return")
                            w.emit(f"dp = {ops.mul('dp', 'val')}")
                            w.emit(f"if {ops.is_zero('dp')}:")
                            with w.block():
                                w.emit("return")
                        else:
                            w.emit("lookups += len(items)")
                            w.emit(f"data = REL_{s}_{j}.data")
                            w.emit("out = []")
                            w.emit("for dk, dp in items:")
                            with w.block():
                                w.emit(f"val = data.get({probe})")
                                w.emit("if val is None:")
                                with w.block():
                                    w.emit("continue")
                                w.emit(f"prod = {ops.mul('dp', 'val')}")
                                w.emit(f"if {ops.nonzero('prod')}:")
                                with w.block():
                                    w.emit("out.append((dk, prod))")
                            w.emit("items = out")
                            w.emit("if not items:")
                            with w.block():
                                w.emit("return")
                    elif join.mode == INDEXED:
                        extend = _proj("sk", join.extend_positions)
                        if single:
                            w.emit("lookups += 1")
                            w.emit(f"bucket = IDX_{s}_{j}.groups.get({probe})")
                            w.emit("if not bucket:")
                            with w.block():
                                w.emit("return")
                            w.emit("matches += len(bucket)")
                            w.emit(f"data = REL_{s}_{j}.data")
                            w.emit("items = []")
                            w.emit("for sk in bucket:")
                            with w.block():
                                w.emit(f"prod = {ops.mul('dp', 'data[sk]')}")
                                w.emit(f"if {ops.is_zero('prod')}:")
                                with w.block():
                                    w.emit("continue")
                                w.emit(f"items.append((dk + {extend}, prod))")
                            w.emit("if not items:")
                            with w.block():
                                w.emit("return")
                            single = False
                        else:
                            w.emit("lookups += len(items)")
                            w.emit(f"groups = IDX_{s}_{j}.groups")
                            w.emit(f"data = REL_{s}_{j}.data")
                            w.emit("out = []")
                            w.emit("for dk, dp in items:")
                            with w.block():
                                w.emit(f"bucket = groups.get({probe})")
                                w.emit("if not bucket:")
                                with w.block():
                                    w.emit("continue")
                                w.emit("matches += len(bucket)")
                                w.emit("for sk in bucket:")
                                with w.block():
                                    w.emit(f"prod = {ops.mul('dp', 'data[sk]')}")
                                    w.emit(f"if {ops.is_zero('prod')}:")
                                    with w.block():
                                        w.emit("continue")
                                    w.emit(f"out.append((dk + {extend}, prod))")
                            w.emit("items = out")
                            w.emit("if not items:")
                            with w.block():
                                w.emit("return")
                    else:  # CROSS
                        extend = _proj("sk", join.extend_positions)
                        w.emit(f"data = REL_{s}_{j}.data")
                        if single:
                            w.emit("matches += len(data)")
                            w.emit("items = []")
                            w.emit("for sk, sp in data.items():")
                            with w.block():
                                w.emit(f"prod = {ops.mul('dp', 'sp')}")
                                w.emit(f"if {ops.is_zero('prod')}:")
                                with w.block():
                                    w.emit("continue")
                                w.emit(f"items.append((dk + {extend}, prod))")
                            w.emit("if not items:")
                            with w.block():
                                w.emit("return")
                            single = False
                        else:
                            w.emit("matches += len(data) * len(items)")
                            w.emit("out = []")
                            w.emit("for dk, dp in items:")
                            with w.block():
                                w.emit("for sk, sp in data.items():")
                                with w.block():
                                    w.emit(f"prod = {ops.mul('dp', 'sp')}")
                                    w.emit(f"if {ops.is_zero('prod')}:")
                                    with w.block():
                                        w.emit("continue")
                                    w.emit(f"out.append((dk + {extend}, prod))")
                            w.emit("items = out")
                            w.emit("if not items:")
                            with w.block():
                                w.emit("return")
                    arity += len(join.extend_positions)

                if step.guard is not None:
                    gproj = _proj("dk", step.guard_positions, arity)
                    if single:
                        w.emit(f"GADD_{s}({gproj}, dp)")
                    else:
                        w.emit("for dk, dp in items:")
                        with w.block():
                            w.emit(f"GADD_{s}({gproj}, dp)")

                # Marginalize the node variable onto the view schema.
                oproj = _proj("dk", step.out_positions, arity)
                if single:
                    if step.lift is not None:
                        lifted = ops.mul("dp", f"LIFT_{s}(dk[{step.lift_position}])")
                        w.emit(f"dp = {lifted}")
                    if oproj != "dk":
                        w.emit(f"dk = {oproj}")
                    w.emit(f"if {ops.is_zero('dp')}:")
                    with w.block():
                        w.emit("if stats is not None:")
                        with w.block():
                            w.emit(f"stats.record_delta(LBL_{s}, 0)")
                        w.emit("return")
                    w.emit(f"VADD_{s}(dk, dp)")
                    w.emit("if stats is not None:")
                    with w.block():
                        w.emit(f"stats.record_delta(LBL_{s}, 1)")
                else:
                    w.emit("agg = {}")
                    w.emit("for dk, dp in items:")
                    with w.block():
                        w.emit(f"okey = {oproj}")
                        if step.lift is not None:
                            lifted = ops.mul(
                                "dp", f"LIFT_{s}(dk[{step.lift_position}])"
                            )
                            w.emit(f"dp = {lifted}")
                        w.emit("prev = agg.get(okey)")
                        w.emit(
                            "agg[okey] = dp if prev is None else "
                            + ops.add("prev", "dp")
                        )
                    w.emit("items = []")
                    w.emit("for okey, dp in agg.items():")
                    with w.block():
                        w.emit(f"if {ops.is_zero('dp')}:")
                        with w.block():
                            w.emit("continue")
                        w.emit(f"VADD_{s}(okey, dp)")
                        w.emit("items.append((okey, dp))")
                    w.emit("if stats is not None:")
                    with w.block():
                        w.emit(f"stats.record_delta(LBL_{s}, len(items))")
                    if s + 1 < len(plan.steps):
                        w.emit("if not items:")
                        with w.block():
                            w.emit("return")
                arity = len(step.out_positions)
        w.emit("finally:")
        with w.block():
            w.emit("if COUNTER.enabled:")
            with w.block():
                w.emit("if lookups:")
                with w.block():
                    w.emit('COUNTER.bump("lookup", lookups)')
                w.emit("if matches:")
                with w.block():
                    w.emit('COUNTER.bump("enum", matches)')


def _emit_sink(w: _Writer, ops: _Ops, rel: str, key_expr: str) -> None:
    """Inline one fused view/guard write pass over ``zip(dks, dps)``.

    This is :meth:`Relation.add_delta` unrolled in place — same
    copy-on-write unshare, same ``old -> ring_add -> cancel-or-write``
    sequence, same index postings, same one-bulk-``write`` accounting —
    minus the per-entry zero test (every payload reaching a sink is
    already non-zero) and the per-entry ring/method calls.  Group
    indexes (guards of enum-compiled trees carry one) take the indexed
    loop; bare views take the tight one.
    """
    w.emit(f"vrel = {rel}")
    w.emit("if vrel._cow:")
    with w.block():
        w.emit("vrel._unshare()")
    w.emit("vdata = vrel.data")
    w.emit("vget = vdata.get")
    w.emit("if vrel._indexes:")

    def body(indexed: bool) -> None:
        w.emit("for dk, dp in zip(dks, dps):")
        with w.block():
            if key_expr != "dk":
                w.emit(f"vk = {key_expr}")
            vk = "vk" if key_expr != "dk" else "dk"
            w.emit(f"old = vget({vk})")
            w.emit("if old is None:")
            with w.block():
                w.emit(f"vdata[{vk}] = dp")
                if indexed:
                    w.emit("for ix in ixs:")
                    with w.block():
                        w.emit(f"ix.add({vk})")
                w.emit("continue")
            w.emit(f"new = {ops.add('old', 'dp')}")
            w.emit(f"if {ops.is_zero('new')}:")
            with w.block():
                w.emit(f"del vdata[{vk}]")
                if indexed:
                    w.emit("for ix in ixs:")
                    with w.block():
                        w.emit(f"ix.remove({vk})")
            w.emit("else:")
            with w.block():
                w.emit(f"vdata[{vk}] = new")

    with w.block():
        w.emit("ixs = list(vrel._indexes.values())")
        body(indexed=True)
    w.emit("else:")
    with w.block():
        body(indexed=False)
    # Dirty-key set (Relation.track_dirty): re-read per call so
    # enabling change tracking after kernel generation still takes, and
    # recompute the projection only on the tracked path.
    w.emit("vdirty = vrel._dirty")
    w.emit("if vdirty is not None:")
    with w.block():
        if key_expr == "dk":
            w.emit("vdirty.update(dks)")
        else:
            w.emit(f"vdirty.update(({key_expr}) for dk in dks)")
    w.emit('COUNTER.bump("write", len(dks))')


def _emit_agg_sink(w: _Writer, ops: _Ops, rel: str, wrap: bool = False) -> None:
    """Fused filter + view write over a marginalization's ``agg`` dict.

    One pass per aggregated key replaces a filtered-dict copy plus bulk
    :meth:`Relation.add_delta`: survivors land on the view and in the
    ``dks``/``dps`` lists (the step's outgoing delta) in ``agg``
    insertion order — the order ``marginalize`` accumulates in on the
    generic path — so payload-combination order, and therefore every
    non-commutative-rounding ring, matches it.  With ``wrap``, ``agg`` is keyed by bare values (a
    single-position projection aggregated via ``itemgetter``) and each
    surviving key is boxed back into the view's 1-tuple here, once per
    distinct key instead of once per delta entry.
    """
    w.emit(f"vrel = {rel}")
    w.emit("if vrel._cow:")
    with w.block():
        w.emit("vrel._unshare()")
    w.emit("vdata = vrel.data")
    w.emit("vget = vdata.get")
    w.emit("dks = []")
    w.emit("dps = []")
    w.emit("ka = dks.append")
    w.emit("pa = dps.append")
    w.emit("if vrel._indexes:")
    vk = "vk" if wrap else "okey"

    def body(indexed: bool) -> None:
        w.emit("for okey, dp in agg.items():")
        with w.block():
            w.emit(f"if {ops.is_zero('dp')}:")
            with w.block():
                w.emit("continue")
            if wrap:
                w.emit("vk = (okey,)")
            w.emit(f"ka({vk})")
            w.emit("pa(dp)")
            w.emit(f"old = vget({vk})")
            w.emit("if old is None:")
            with w.block():
                w.emit(f"vdata[{vk}] = dp")
                if indexed:
                    w.emit("for ix in ixs:")
                    with w.block():
                        w.emit(f"ix.add({vk})")
                w.emit("continue")
            w.emit(f"new = {ops.add('old', 'dp')}")
            w.emit(f"if {ops.is_zero('new')}:")
            with w.block():
                w.emit(f"del vdata[{vk}]")
                if indexed:
                    w.emit("for ix in ixs:")
                    with w.block():
                        w.emit(f"ix.remove({vk})")
            w.emit("else:")
            with w.block():
                w.emit(f"vdata[{vk}] = new")

    with w.block():
        w.emit("ixs = list(vrel._indexes.values())")
        body(indexed=True)
    w.emit("else:")
    with w.block():
        body(indexed=False)
    w.emit("if dks:")
    with w.block():
        # ``dks`` is exactly the set of view keys written above, so
        # dirty tracking costs one bulk update only when it is on.
        w.emit("vdirty = vrel._dirty")
        w.emit("if vdirty is not None:")
        with w.block():
            w.emit("vdirty.update(dks)")
        w.emit('COUNTER.bump("write", len(dks))')


def _emit_push_batch(w: _Writer, plan: DeltaPlan, ops: _Ops) -> None:
    """The columnar ``push_batch(keys, pays, stats)`` body.

    ``push`` lifted to one *coalesced* per-relation delta, flowing as
    parallel key/payload lists (the columnar batch representation from
    :func:`repro.data.columnar.coalesce_columnar`) instead of a delta
    dict — legal because a coalesced delta's keys are distinct and
    sibling joins never collide output keys (every delta key has the
    step's full schema, so distinct keys extend to distinct joined
    keys); only the marginalization, which drops a position,
    aggregates through a dict.  So the batch lands exactly the
    telescoped sum of its per-tuple pushes, with two fusions on top:

    * **shared sibling probes** — each sibling is probed once per
      *distinct* join key across the whole delta: a per-join probe cache
      memoizes the payload (DIRECT) or the index bucket (INDEXED), and
      repeated join keys — the common case under skew — hit the cache
      instead of the relation.  Cache hits are *not* counted as
      elementary lookups (``COUNTER`` sees only the probes actually
      issued; the saved ones are reported to
      ``stats.record_probe_sharing``).  When the probe covers the *full*
      delta key the cache is dropped: coalesced keys are distinct, so
      every probe would miss, and one bulk ``lookups += len(...)``
      counts them.
    * **fused view writes** — each step's delta lands on its guard/view
      inline (:meth:`Relation.add_delta` unrolled in place, see
      :func:`_emit_sink`) instead of one ``Relation.add`` per entry.
    """
    w.emit("def push_batch(keys, pays, stats=None):")
    with w.block():
        w.emit("if not keys:")
        with w.block():
            w.emit("return")
        w.emit("lookups = 0")
        w.emit("matches = 0")
        w.emit("shared = 0")
        w.emit("try:")
        with w.block():
            w.emit("dks = keys")
            w.emit("dps = pays")
            arity = len(plan.leaf.schema.variables)
            for s, step in enumerate(plan.steps):
                w.emit(f"# step {s} ({step.variable})")
                final_arity = arity + sum(
                    len(jn.extend_positions) for jn in step.siblings
                )
                oproj = _proj("dk", step.out_positions, final_arity)
                if oproj == "dk" and step.lift is None:
                    kind = "identity"
                elif not step.out_positions:
                    kind = "scalar"
                else:
                    kind = "agg"
                # When the step joins siblings, its *last* stage loop can
                # absorb the guard write and the marginalization
                # accumulate: each survivor is written/aggregated on the
                # spot instead of appended to out_k/out_p, re-zipped for
                # the guard sink, and traversed again to aggregate.  The
                # guard and the probed sibling views are distinct
                # relations (one per view-tree node), so interleaving the
                # writes with the probes observes nothing a
                # stage-then-sink order wouldn't; write order and
                # accumulation order per relation are unchanged.  CROSS
                # stages (rare, unbounded fan-out) keep the simple path.
                fuse = bool(step.siblings) and step.siblings[-1].mode in (
                    DIRECT,
                    INDEXED,
                )

                def emit_entry_write(
                    data: str, ixs: str, key: str, get: str, dirty: str
                ) -> None:
                    # One Relation.add_delta entry inline; COW unshare,
                    # the bound ``.get``, the index list, and the dirty
                    # set are hoisted by the prologue.  ``ixs`` is
                    # usually empty, so the posting loops cost one
                    # iterator setup on the new/cancel paths only.
                    w.emit(f"if {dirty} is not None:")
                    with w.block():
                        w.emit(f"{dirty}.add({key})")
                    w.emit(f"old = {get}({key})")
                    w.emit("if old is None:")
                    with w.block():
                        w.emit(f"{data}[{key}] = prod")
                        w.emit(f"for ix in {ixs}:")
                        with w.block():
                            w.emit(f"ix.add({key})")
                    w.emit("else:")
                    with w.block():
                        w.emit(f"new = {ops.add('old', 'prod')}")
                        w.emit(f"if {ops.is_zero('new')}:")
                        with w.block():
                            w.emit(f"del {data}[{key}]")
                            w.emit(f"for ix in {ixs}:")
                            with w.block():
                                w.emit(f"ix.remove({key})")
                        w.emit("else:")
                        with w.block():
                            w.emit(f"{data}[{key}] = new")

                def emit_fused_prologue() -> None:
                    w.emit("n = 0")
                    if step.guard is not None:
                        w.emit(f"grel = GREL_{s}")
                        w.emit("if grel._cow:")
                        with w.block():
                            w.emit("grel._unshare()")
                        w.emit("gdata = grel.data")
                        w.emit("gget = gdata.get")
                        w.emit("gixs = list(grel._indexes.values())")
                        w.emit("gdirty = grel._dirty")
                    if kind == "identity":
                        w.emit(f"vrel = VREL_{s}")
                        w.emit("if vrel._cow:")
                        with w.block():
                            w.emit("vrel._unshare()")
                        w.emit("vdata = vrel.data")
                        w.emit("vget = vdata.get")
                        w.emit("vixs = list(vrel._indexes.values())")
                        w.emit("vdirty = vrel._dirty")
                        w.emit("out_k = []")
                        w.emit("out_p = []")
                        w.emit("ka = out_k.append")
                        w.emit("pa = out_p.append")
                    elif kind == "scalar":
                        if ops.add_op == "+":
                            # The ZERO seed is additively inert under
                            # Python ``+`` (the sum() argument below).
                            w.emit("tot = ZERO")
                        else:
                            w.emit("tot = None")
                    else:
                        w.emit("agg = {}")
                        w.emit("aget = agg.get")

                def emit_survivor(key: str) -> None:
                    # Fused survivor body: replaces ka/pa with the guard
                    # write and the marginalization accumulate for this
                    # stage-output key/``prod`` payload.
                    w.emit("n += 1")
                    if step.guard is not None:
                        gexpr = _proj(key, step.guard_positions, final_arity)
                        gk = key
                        if gexpr != key:
                            w.emit(f"gk = {gexpr}")
                            gk = "gk"
                        emit_entry_write("gdata", "gixs", gk, "gget", "gdirty")
                    if kind == "identity":
                        w.emit(f"ka({key})")
                        w.emit("pa(prod)")
                        emit_entry_write("vdata", "vixs", key, "vget", "vdirty")
                    elif kind == "scalar":
                        if step.lift is not None:
                            w.emit(
                                "prod = "
                                + ops.mul(
                                    "prod",
                                    f"LIFT_{s}({key}[{step.lift_position}])",
                                )
                            )
                        if ops.add_op == "+":
                            w.emit("tot = tot + prod")
                        else:
                            w.emit(
                                "tot = prod if tot is None else "
                                + ops.add("tot", "prod")
                            )
                    else:
                        if step.lift is not None:
                            w.emit(
                                "prod = "
                                + ops.mul(
                                    "prod",
                                    f"LIFT_{s}({key}[{step.lift_position}])",
                                )
                            )
                        if len(step.out_positions) == 1:
                            w.emit(f"okey = {key}[{step.out_positions[0]}]")
                        else:
                            w.emit(
                                "okey = "
                                + _proj(key, step.out_positions, final_arity)
                            )
                        if ops.add_op == "+":
                            w.emit("agg[okey] = aget(okey, ZERO) + prod")
                        else:
                            w.emit("prev = aget(okey)")
                            w.emit(
                                "agg[okey] = prod if prev is None else "
                                + ops.add("prev", "prod")
                            )

                def emit_fused_epilogue() -> None:
                    # The stage-level "no survivors" early return, then
                    # the deferred write accounting and marginalization
                    # finalization the unfused path does in later passes.
                    w.emit("if not n:")
                    with w.block():
                        w.emit("return")
                    if step.guard is not None:
                        w.emit('COUNTER.bump("write", n)')
                    if kind == "identity":
                        w.emit('COUNTER.bump("write", n)')
                        w.emit("dks = out_k")
                        w.emit("dps = out_p")
                        w.emit("if stats is not None:")
                        with w.block():
                            w.emit(f"stats.record_delta(LBL_{s}, n)")
                    elif kind == "scalar":
                        w.emit(f"if {ops.nonzero('tot')}:")
                        with w.block():
                            w.emit("dks = [()]")
                            w.emit("dps = [tot]")
                            _emit_sink(w, ops, f"VREL_{s}", "dk")
                        w.emit("else:")
                        with w.block():
                            w.emit("dks = []")
                            w.emit("dps = []")
                        w.emit("if stats is not None:")
                        with w.block():
                            w.emit(f"stats.record_delta(LBL_{s}, len(dks))")
                        if s + 1 < len(plan.steps):
                            w.emit("if not dks:")
                            with w.block():
                                w.emit("return")
                    else:
                        _emit_agg_sink(
                            w,
                            ops,
                            f"VREL_{s}",
                            wrap=len(step.out_positions) == 1,
                        )
                        w.emit("if stats is not None:")
                        with w.block():
                            w.emit(f"stats.record_delta(LBL_{s}, len(dks))")
                        if s + 1 < len(plan.steps):
                            w.emit("if not dks:")
                            with w.block():
                                w.emit("return")

                for j, join in enumerate(step.siblings):
                    fused_stage = fuse and j == len(step.siblings) - 1
                    probe = _proj("dk", join.probe_positions, arity)
                    full_key = len(join.probe_positions) == arity
                    # Non-trivial probe keys come out of a C-level
                    # ``map(itemgetter, ...)``; a single-position getter
                    # yields the bare value, so the probe cache is keyed
                    # by value and the probe tuple is built only on a
                    # cache miss.
                    mapped = join.probe_positions and not full_key
                    scalar = len(join.probe_positions) == 1
                    miss_key = "(pk,)" if scalar else "pk"
                    if join.mode == DIRECT:
                        if fused_stage:
                            emit_fused_prologue()
                        w.emit(f"data = REL_{s}_{j}.data")
                        if not fused_stage:
                            w.emit("out_k = []")
                            w.emit("out_p = []")
                            w.emit("ka = out_k.append")
                            w.emit("pa = out_p.append")
                        if full_key:
                            w.emit("lookups += len(dks)")
                        else:
                            w.emit("cache = {}")
                            w.emit("cget = cache.get")
                        if full_key and probe == "dk":
                            # Identity probe: the dict lookups run inside
                            # ``map`` at C speed, consumed by the zip.
                            w.emit(
                                "for dk, dp, val in "
                                "zip(dks, dps, map(data.get, dks)):"
                            )
                        elif mapped:
                            w.emit(
                                "for dk, dp, pk in "
                                f"zip(dks, dps, map(PG_{s}_{j}, dks)):"
                            )
                        else:
                            w.emit("for dk, dp in zip(dks, dps):")
                        with w.block():
                            if full_key and probe == "dk":
                                pass
                            elif full_key:
                                w.emit(f"val = data.get({probe})")
                            else:
                                if not mapped:
                                    w.emit(f"pk = {probe}")
                                w.emit("val = cget(pk, MISS)")
                                w.emit("if val is MISS:")
                                with w.block():
                                    w.emit("lookups += 1")
                                    w.emit(
                                        "val = data.get("
                                        + (miss_key if mapped else "pk")
                                        + ")"
                                    )
                                    w.emit("cache[pk] = val")
                                w.emit("else:")
                                with w.block():
                                    w.emit("shared += 1")
                            w.emit("if val is None:")
                            with w.block():
                                w.emit("continue")
                            w.emit(f"prod = {ops.mul('dp', 'val')}")
                            w.emit(f"if {ops.nonzero('prod')}:")
                            with w.block():
                                if fused_stage:
                                    emit_survivor("dk")
                                else:
                                    w.emit("ka(dk)")
                                    w.emit("pa(prod)")
                    elif join.mode == INDEXED:
                        extend = _proj("sk", join.extend_positions)
                        if fused_stage:
                            emit_fused_prologue()
                        w.emit(f"groups = IDX_{s}_{j}.groups")
                        w.emit(f"data = REL_{s}_{j}.data")
                        if not fused_stage:
                            w.emit("out_k = []")
                            w.emit("out_p = []")
                            w.emit("ka = out_k.append")
                            w.emit("pa = out_p.append")
                        if full_key:
                            w.emit("lookups += len(dks)")
                        else:
                            w.emit("cache = {}")
                            w.emit("cget = cache.get")
                        if mapped:
                            w.emit(
                                "for dk, dp, pk in "
                                f"zip(dks, dps, map(PG_{s}_{j}, dks)):"
                            )
                        else:
                            w.emit("for dk, dp in zip(dks, dps):")
                        with w.block():
                            if full_key:
                                w.emit(f"bucket = groups.get({probe})")
                            else:
                                if not mapped:
                                    w.emit(f"pk = {probe}")
                                w.emit("bucket = cget(pk, MISS)")
                                w.emit("if bucket is MISS:")
                                with w.block():
                                    w.emit("lookups += 1")
                                    w.emit(
                                        "bucket = groups.get("
                                        + (miss_key if mapped else "pk")
                                        + ")"
                                    )
                                    w.emit("cache[pk] = bucket")
                                w.emit("else:")
                                with w.block():
                                    w.emit("shared += 1")
                            w.emit("if not bucket:")
                            with w.block():
                                w.emit("continue")
                            w.emit("matches += len(bucket)")
                            w.emit("for sk in bucket:")
                            with w.block():
                                w.emit(f"prod = {ops.mul('dp', 'data[sk]')}")
                                w.emit(f"if {ops.is_zero('prod')}:")
                                with w.block():
                                    w.emit("continue")
                                if fused_stage:
                                    w.emit(f"nk = dk + {extend}")
                                    emit_survivor("nk")
                                else:
                                    w.emit(f"ka(dk + {extend})")
                                    w.emit("pa(prod)")
                    else:  # CROSS
                        extend = _proj("sk", join.extend_positions)
                        w.emit(f"data = REL_{s}_{j}.data")
                        w.emit("matches += len(data) * len(dks)")
                        w.emit("entries = list(data.items())")
                        w.emit("out_k = []")
                        w.emit("out_p = []")
                        w.emit("ka = out_k.append")
                        w.emit("pa = out_p.append")
                        w.emit("for dk, dp in zip(dks, dps):")
                        with w.block():
                            w.emit("for sk, sp in entries:")
                            with w.block():
                                w.emit(f"prod = {ops.mul('dp', 'sp')}")
                                w.emit(f"if {ops.is_zero('prod')}:")
                                with w.block():
                                    w.emit("continue")
                                w.emit(f"ka(dk + {extend})")
                                w.emit("pa(prod)")
                    if fused_stage:
                        emit_fused_epilogue()
                    else:
                        w.emit("dks = out_k")
                        w.emit("dps = out_p")
                        w.emit("if not dks:")
                        with w.block():
                            w.emit("return")
                    arity += len(join.extend_positions)

                if fuse:
                    arity = len(step.out_positions)
                    continue

                if step.guard is not None:
                    gproj = _proj("dk", step.guard_positions, arity)
                    _emit_sink(w, ops, f"GREL_{s}", gproj)

                if oproj == "dk" and step.lift is None:
                    # Identity marginalization: distinct keys, nothing to
                    # aggregate, payloads already non-zero (the incoming
                    # delta is coalesced and every stage filters zeros) —
                    # the view write is the only remaining effect.
                    _emit_sink(w, ops, f"VREL_{s}", "dk")
                    w.emit("if stats is not None:")
                    with w.block():
                        w.emit(f"stats.record_delta(LBL_{s}, len(dks))")
                elif not step.out_positions:
                    # Scalar marginalization (aggregation tail): every key
                    # projects to ``()``, so the whole "aggregate by key"
                    # dict degenerates to one left-fold over the payload
                    # column — in delta order, exactly the order a
                    # single-key aggregation dict would accumulate in.
                    if step.lift is not None:
                        lifted = ops.mul(
                            "dp", f"LIFT_{s}(dk[{step.lift_position}])"
                        )
                        w.emit("tot = None")
                        w.emit("for dk, dp in zip(dks, dps):")
                        with w.block():
                            w.emit(f"dp = {lifted}")
                            w.emit(
                                "tot = dp if tot is None else "
                                + ops.add("tot", "dp")
                            )
                    elif ops.add_op == "+":
                        # Declaring ``add_operator = "+"`` asserts ring
                        # addition is the Python operator on numeric
                        # payloads, so sum()'s C-level fold applies.  The
                        # leading int 0 is additively inert (a -0.0 total
                        # degrades to 0.0, which the zero filter below
                        # drops either way).
                        w.emit("tot = sum(dps)")
                    else:
                        w.emit("tot = None")
                        w.emit("for dp in dps:")
                        with w.block():
                            w.emit(
                                "tot = dp if tot is None else "
                                + ops.add("tot", "dp")
                            )
                    w.emit(f"if tot is not None and {ops.nonzero('tot')}:")
                    with w.block():
                        w.emit("dks = [()]")
                        w.emit("dps = [tot]")
                        _emit_sink(w, ops, f"VREL_{s}", "dk")
                    w.emit("else:")
                    with w.block():
                        w.emit("dks = []")
                        w.emit("dps = []")
                    w.emit("if stats is not None:")
                    with w.block():
                        w.emit(f"stats.record_delta(LBL_{s}, len(dks))")
                    if s + 1 < len(plan.steps):
                        w.emit("if not dks:")
                        with w.block():
                            w.emit("return")
                else:
                    use_og = step.lift is None and oproj != "dk"
                    # ``add_operator = "+"`` rings accumulate with a
                    # branch-free ``get(okey, ZERO) + dp`` — the ZERO
                    # seed is additively inert under Python ``+`` (the
                    # sum() argument above), saving the None test per
                    # delta entry.
                    if ops.add_op == "+":
                        accumulate = "agg[okey] = aget(okey, ZERO) + dp"
                    else:
                        accumulate = None
                    w.emit("agg = {}")
                    w.emit("aget = agg.get")
                    if use_og:
                        # Projection via a mapped itemgetter; a single
                        # position yields bare values, so the agg dict is
                        # value-keyed and the sink boxes survivors.
                        w.emit(
                            f"for okey, dp in zip(map(OG_{s}, dks), dps):"
                        )
                        with w.block():
                            if accumulate is not None:
                                w.emit(accumulate)
                            else:
                                w.emit("prev = aget(okey)")
                                w.emit(
                                    "agg[okey] = dp if prev is None else "
                                    + ops.add("prev", "dp")
                                )
                    else:
                        w.emit("for dk, dp in zip(dks, dps):")
                        with w.block():
                            w.emit(f"okey = {oproj}")
                            if step.lift is not None:
                                lifted = ops.mul(
                                    "dp", f"LIFT_{s}(dk[{step.lift_position}])"
                                )
                                w.emit(f"dp = {lifted}")
                            if accumulate is not None:
                                w.emit(accumulate)
                            else:
                                w.emit("prev = agg.get(okey)")
                                w.emit(
                                    "agg[okey] = dp if prev is None else "
                                    + ops.add("prev", "dp")
                                )
                    _emit_agg_sink(
                        w,
                        ops,
                        f"VREL_{s}",
                        wrap=use_og and len(step.out_positions) == 1,
                    )
                    w.emit("if stats is not None:")
                    with w.block():
                        w.emit(f"stats.record_delta(LBL_{s}, len(dks))")
                    if s + 1 < len(plan.steps):
                        w.emit("if not dks:")
                        with w.block():
                            w.emit("return")
                arity = len(step.out_positions)
        w.emit("finally:")
        with w.block():
            w.emit("if COUNTER.enabled:")
            with w.block():
                w.emit("if lookups:")
                with w.block():
                    w.emit('COUNTER.bump("lookup", lookups)')
                w.emit("if matches:")
                with w.block():
                    w.emit('COUNTER.bump("enum", matches)')
            w.emit("if stats is not None and (lookups or shared):")
            with w.block():
                w.emit("stats.record_probe_sharing(lookups, shared)")


def _delta_source(plan: DeltaPlan) -> str:
    ops = _Ops(plan.ring)
    body = _Writer(indent=1)
    _emit_push(body, plan, ops)
    body.emit()
    _emit_push_batch(body, plan, ops)
    return _wrap_factory(body, _delta_env_names(plan), "push, push_batch")


# ----------------------------------------------------------------------
# Enum-kernel source
# ----------------------------------------------------------------------


def _enum_env_names(plan: EnumPlan) -> list[str]:
    names = ["MUL", "IS_ZERO", "ZERO", "ONE", "COUNTER", "MISS"]
    for i in range(len(plan.prefix_probes)):
        names.append(f"PRE_{i}")
    for d, step in enumerate(plan.steps):
        names.append(f"GUARD_{d}")
        names.append(f"IDX_{d}")
        names.append(f"GVARS_{d}")
        names.append(f"NAME_{d}")
        for k in range(len(step.leaf_probes)):
            names.append(f"LEAF_{d}_{k}")
        for k in range(len(step.post_probes)):
            names.append(f"POST_{d}_{k}")
    return names


def _enum_env(plan: EnumPlan) -> dict[str, Any]:
    ring = plan.ring
    env: dict[str, Any] = {
        "MUL": ring.mul,
        "IS_ZERO": ring.is_zero,
        "ZERO": ring.zero,
        "ONE": ring.one,
        "COUNTER": COUNTER,
        "MISS": _MISS,
    }
    for i, (view, _) in enumerate(plan.prefix_probes):
        env[f"PRE_{i}"] = view
    for d, step in enumerate(plan.steps):
        env[f"GUARD_{d}"] = step.guard
        env[f"IDX_{d}"] = step.index
        env[f"GVARS_{d}"] = step.index.group_vars
        env[f"NAME_{d}"] = step.variable
        for k, (leaf, _) in enumerate(step.leaf_probes):
            env[f"LEAF_{d}_{k}"] = leaf
        for k, (view, _) in enumerate(step.post_probes):
            env[f"POST_{d}_{k}"] = view
    return env


def _slot_tuple(positions: tuple[int, ...]) -> str:
    if not positions:
        return "()"
    inner = ", ".join(f"s{i}" for i in positions)
    if len(positions) == 1:
        return f"({inner},)"
    return f"({inner})"


def _emit_iterate(w: _Writer, plan: EnumPlan, ops: _Ops) -> None:
    """The generated ``iterate(prebound, stats, epoch)`` enumeration walk.

    Literal nested loops, one block per free variable: entering a depth
    issues the generic walk's guard probe (bucket iteration, or a single
    full-key membership probe for a prebound value), each surviving
    candidate binds its named slot local and runs the unrolled
    leaf/bound-view probes, and the innermost depth flushes the op
    counters and yields the literal head tuple.  Candidate order, zero
    tests, and ring-operation order (including the ``p = mul(p,
    factor)`` step with ``factor`` starting at ``one``) follow
    :meth:`ViewTreeEngine._enumerate_generic`, so payloads — floats
    included — are bit-identical to it.  Elementary operations are
    counted with the generic walk's shape (one ``lookup`` per probe, one
    ``enum`` per candidate consumed) and flushed to the global
    :data:`~repro.data.opcounter.COUNTER` at every yield, so
    delay-profile assertions over the counter see the same flat gaps.

    ``epoch`` (an :class:`~repro.viewtree.epoch.EpochSnapshot`)
    redirects every dict binding — guard data, group buckets, leaf and
    view payloads — to the published snapshot's frozen dicts, so the
    walk is identical but reads a consistent committed state while
    maintenance mutates the live relations from another thread.
    """
    steps = plan.steps
    last = len(steps) - 1
    w.emit("def iterate(prebound=None, stats=None, epoch=None):")
    with w.block():
        w.emit("lookups = 0")
        w.emit("enums = 0")
        w.emit("guard_probes = 0")
        w.emit("if stats is not None:")
        with w.block():
            w.emit("stats.record_compiled_enumeration()")
        w.emit("try:")
        with w.block():
            w.emit("if epoch is None:")
            with w.block():
                w.emit("data_of = None")
            w.emit("else:")
            with w.block():
                w.emit("data_of = epoch.data_of")
            w.emit("payload = ONE")
            for i in range(len(plan.prefix_probes)):
                # Prefix probes precede every free step, so no slot is
                # bound yet and the probe key is always the empty tuple.
                w.emit("lookups += 1")
                w.emit(
                    f"vdata = PRE_{i}.data if data_of is None "
                    f"else data_of(PRE_{i})"
                )
                w.emit("factor = vdata.get(())")
                w.emit("if factor is None:")
                with w.block():
                    w.emit("return")
                w.emit(f"payload = {ops.mul('payload', 'factor')}")
                w.emit(f"if {ops.is_zero('payload')}:")
                with w.block():
                    w.emit("return")
            # Dict bindings: live relation attributes, or the epoch's
            # frozen dicts, resolved once up front so a publish racing
            # with this generator cannot mix epochs.
            w.emit("if data_of is None:")
            with w.block():
                for d in range(len(steps)):
                    w.emit(f"gd_{d} = GUARD_{d}.data")
                for d in range(len(steps)):
                    w.emit(f"gr_{d} = IDX_{d}.groups")
                for d, step in enumerate(steps):
                    for k in range(len(step.leaf_probes)):
                        w.emit(f"ld_{d}_{k} = LEAF_{d}_{k}.data")
                for d, step in enumerate(steps):
                    for k in range(len(step.post_probes)):
                        w.emit(f"pd_{d}_{k} = POST_{d}_{k}.data")
            w.emit("else:")
            with w.block():
                for d in range(len(steps)):
                    w.emit(f"gd_{d} = data_of(GUARD_{d})")
                for d in range(len(steps)):
                    w.emit(f"gr_{d} = epoch.groups_of(GUARD_{d}, GVARS_{d})")
                for d, step in enumerate(steps):
                    for k in range(len(step.leaf_probes)):
                        w.emit(f"ld_{d}_{k} = data_of(LEAF_{d}_{k})")
                for d, step in enumerate(steps):
                    for k in range(len(step.post_probes)):
                        w.emit(f"pd_{d}_{k} = data_of(POST_{d}_{k})")
            w.emit("if prebound:")
            with w.block():
                for d in range(len(steps)):
                    w.emit(f"pv_{d} = prebound.get(NAME_{d}, MISS)")
            w.emit("else:")
            with w.block():
                for d in range(len(steps)):
                    w.emit(f"pv_{d} = MISS")

            def emit_depth(d: int) -> None:
                step = steps[d]
                slot = step.var_slot
                backtrack = "return" if d == 0 else "continue"
                w.emit(f"# depth {d} ({step.variable})")
                w.emit("guard_probes += 1")
                w.emit("lookups += 1")
                w.emit(f"if pv_{d} is MISS:")
                with w.block():
                    group_key = _slot_tuple(step.group_positions)
                    w.emit(f"cands_{d} = gr_{d}.get({group_key})")
                    w.emit(f"if not cands_{d}:")
                    with w.block():
                        w.emit(backtrack)
                    w.emit(f"checked_{d} = False")
                w.emit("else:")
                with w.block():
                    w.emit(f"s{slot} = pv_{d}")
                    w.emit(f"probe = {_slot_tuple(step.probe_positions)}")
                    w.emit(f"if probe not in gd_{d}:")
                    with w.block():
                        w.emit(backtrack)
                    w.emit(f"cands_{d} = (probe,)")
                    w.emit(f"checked_{d} = True")
                w.emit(f"for key_{d} in cands_{d}:")
                with w.block():
                    w.emit(f"if not checked_{d}:")
                    with w.block():
                        w.emit("enums += 1")
                    w.emit(f"s{slot} = key_{d}[{step.var_pos}]")
                    p_in = "payload" if d == 0 else f"p_{d - 1}"
                    factor = "ONE"
                    for k in range(len(step.leaf_probes)):
                        w.emit("lookups += 1")
                        key_expr = _slot_tuple(step.leaf_probes[k][1])
                        w.emit(f"val = ld_{d}_{k}.get({key_expr})")
                        w.emit("if val is None:")
                        with w.block():
                            w.emit("continue")
                        w.emit(f"factor = {ops.mul(factor, 'val')}")
                        factor = "factor"
                    w.emit(f"p_{d} = {ops.mul(p_in, factor)}")
                    w.emit(f"if {ops.is_zero(f'p_{d}')}:")
                    with w.block():
                        w.emit("continue")
                    for k in range(len(step.post_probes)):
                        w.emit("lookups += 1")
                        key_expr = _slot_tuple(step.post_probes[k][1])
                        w.emit(f"val = pd_{d}_{k}.get({key_expr})")
                        w.emit("if val is None:")
                        with w.block():
                            w.emit("continue")
                        w.emit(f"p_{d} = {ops.mul(f'p_{d}', 'val')}")
                        w.emit(f"if {ops.is_zero(f'p_{d}')}:")
                        with w.block():
                            w.emit("continue")
                    if d == last:
                        w.emit("if COUNTER.enabled:")
                        with w.block():
                            w.emit("if lookups:")
                            with w.block():
                                w.emit('COUNTER.bump("lookup", lookups)')
                                w.emit("lookups = 0")
                            w.emit("if enums:")
                            with w.block():
                                w.emit('COUNTER.bump("enum", enums)')
                                w.emit("enums = 0")
                        head = _slot_tuple(plan.head_positions)
                        w.emit(f"yield {head}, p_{d}")
                    else:
                        emit_depth(d + 1)

            emit_depth(0)
        w.emit("finally:")
        with w.block():
            w.emit("if COUNTER.enabled:")
            with w.block():
                w.emit("if lookups:")
                with w.block():
                    w.emit('COUNTER.bump("lookup", lookups)')
                w.emit("if enums:")
                with w.block():
                    w.emit('COUNTER.bump("enum", enums)')
            w.emit("if stats is not None and guard_probes:")
            with w.block():
                w.emit("stats.record_enum_probes(guard_probes)")


def _enum_source(plan: EnumPlan) -> str:
    ops = _Ops(plan.ring)
    body = _Writer(indent=1)
    _emit_iterate(body, plan, ops)
    return _wrap_factory(body, _enum_env_names(plan), "iterate")


# ----------------------------------------------------------------------
# Shape cache and kernel objects
# ----------------------------------------------------------------------

#: shape key -> (source, exec'd ``_make`` factory).  Process-global so
#: identical shapes across engines and shards compile exactly once.
_FACTORY_CACHE: dict[tuple, tuple[str, Any]] = {}
_CACHE_LOCK = threading.Lock()


def _factory_for(shape: tuple, build_source) -> tuple[tuple[str, Any], bool]:
    """``((source, factory), cache_hit)`` for a plan shape."""
    with _CACHE_LOCK:
        entry = _FACTORY_CACHE.get(shape)
    if entry is not None:
        return entry, True
    source = build_source()
    namespace: dict[str, Any] = {}
    exec(compile(source, f"<repro-codegen:{shape[0]}>", "exec"), namespace)
    entry = (source, namespace["_make"])
    with _CACHE_LOCK:
        existing = _FACTORY_CACHE.get(shape)
        if existing is not None:
            return existing, True
        _FACTORY_CACHE[shape] = entry
    return entry, False


def shape_cache_size() -> int:
    """Number of distinct plan shapes compiled in this process."""
    with _CACHE_LOCK:
        return len(_FACTORY_CACHE)


def clear_shape_cache() -> None:
    """Drop all cached factories (tests only)."""
    with _CACHE_LOCK:
        _FACTORY_CACHE.clear()


class DeltaKernel:
    """A source-generated write-path kernel for one :class:`DeltaPlan`.

    ``push(key, payload, stats)`` and ``push_batch(keys, pays, stats)``
    are the exec-compiled functions; ``source`` is the generated factory
    source (shared across every plan of the same shape; dumped by
    ``python -m repro explain --kernel-source``).
    """

    __slots__ = ("plan", "source", "push", "push_batch")

    def __init__(self, plan: DeltaPlan, source: str, push, push_batch):
        self.plan = plan
        self.source = source
        self.push = push
        self.push_batch = push_batch

    def __reduce__(self):
        return (_rebuild_delta_kernel, (self.plan,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaKernel({self.plan.relation_name!r}, "
            f"steps={len(self.plan.steps)})"
        )


class EnumKernel:
    """A source-generated read-path kernel for one :class:`EnumPlan`."""

    __slots__ = ("plan", "source", "iterate")

    def __init__(self, plan: EnumPlan, source: str, iterate):
        self.plan = plan
        self.source = source
        self.iterate = iterate

    def __reduce__(self):
        return (_rebuild_enum_kernel, (self.plan,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EnumKernel(steps={len(self.plan.steps)})"


def compile_delta_kernel(
    plan: DeltaPlan, info: Optional[dict] = None
) -> DeltaKernel:
    """Generate (or fetch from the shape cache) the kernel for ``plan``."""
    start = perf_counter()
    shape = _delta_shape(plan)
    (source, make), hit = _factory_for(shape, lambda: _delta_source(plan))
    push, push_batch = make(_delta_env(plan))
    kernel = DeltaKernel(plan, source, push, push_batch)
    if info is not None:
        info["kernels"] += 1
        if hit:
            info["cache_hits"] += 1
        info["time_ms"] += (perf_counter() - start) * 1000.0
    return kernel


def compile_enum_kernel(
    plan: EnumPlan, info: Optional[dict] = None
) -> EnumKernel:
    """Generate (or fetch from the shape cache) the kernel for ``plan``."""
    start = perf_counter()
    shape = _enum_shape(plan)
    (source, make), hit = _factory_for(shape, lambda: _enum_source(plan))
    iterate = make(_enum_env(plan))
    kernel = EnumKernel(plan, source, iterate)
    if info is not None:
        info["kernels"] += 1
        if hit:
            info["cache_hits"] += 1
        info["time_ms"] += (perf_counter() - start) * 1000.0
    return kernel


def _rebuild_delta_kernel(plan: DeltaPlan) -> DeltaKernel:
    return compile_delta_kernel(plan)


def _rebuild_enum_kernel(plan: EnumPlan) -> EnumKernel:
    return compile_enum_kernel(plan)
