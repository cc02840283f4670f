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
  block per sibling join, per marginalization and per support step,
  projections as literal
  index tuples (``(dkey[0], dkey[2])``), ring operations inlined to
  ``a * b`` / ``a + b`` when the ring declares
  :attr:`~repro.rings.base.Semiring.mul_operator`, and
  :attr:`~repro.rings.base.Semiring.exact_zero` tests inlined to one
  comparison — and ``exec``\\ s it into specialized ``push`` /
  ``push_batch`` functions;
* for each :class:`~repro.viewtree.enumplan.EnumPlan` it generates the
  enumeration walk as *nested literal loops* over named slot locals
  (``s0``, ``s1``, …), one block per depth with its guard probe, leaf
  probes, and bound-view probes unrolled in place; a step marked
  ``replay`` gets a second, probe-free loop over the rows its first
  pass recorded (see :func:`_emit_iterate`); a last step marked
  ``drain`` makes ``iterate`` hand an unbound request each candidate
  bucket whole — ``chain.from_iterable`` over one ``zip(bucket,
  payloads)`` per bucket — while prebound requests walk
  (:func:`_emit_drain`); beside the walk, the plan's lookup probes
  become straight-line ``lookup`` / ``lookup_epoch`` functions, one
  literal keyed read per probe (:func:`_emit_lookup`).

The generated functions execute the **same probe sequence and the same
ring-operation order** as the generic walk
(:meth:`ViewTreeEngine._propagate` / ``_enumerate_generic``), less the
probes a replayed suffix makes redundant and the products with ``ONE``;
the walk shares no code with them but
:class:`~repro.data.relation.Relation` and is the differential-testing
oracle: an engine built with ``generated=False`` must agree bit for bit
(``tests/test_codegen.py``).

One delta emitter
-----------------
A single tuple is a one-entry delta, so ``push`` and ``push_batch``
come from one emitter (:func:`_emit_body`).  A plan whose sibling joins
are all DIRECT keeps one ``(key, payload)`` pair from leaf to root: its
``push`` is straight-line code.  A plan that fans out (an INDEXED or
CROSS sibling) gets a ``push`` that writes each view entry as it joins
it, shaped by where each position of the delta key comes from — the
input key, or a fan-out.  Three rules, each exact:

1. **No aggregation dict when output keys are distinct.**  A step whose
   view keeps every position that varies over its delta writes each
   survivor to the view at once, in bucket order.  The delta's keys are
   distinct and agree on every other position, so their projections are
   distinct: each ``agg`` entry would hold one payload, in that order.
2. **Keys the input binds are hoisted.**  A group-index key, or a step's
   output key, whose positions all come from the input key is computed
   once per push: one bucket probe and one preserve check, and a running
   sum with one view write instead of a dict.  Every entry has that one
   key, and the sum folds in the order the dict would.
3. **Writes inline.**  Every write a kernel makes — the leaf write
   ``push`` and ``push_batch`` open with, each view entry and each guard
   flip — is :meth:`Relation.add` written out (:func:`_emit_write`): the
   pre-image kept, the relation's group indexes posted through one
   emitter, :meth:`GroupIndex.add` / ``remove`` with bucket preservation
   included.  No kernel calls a write method of a relation.

A guard holds supports, not sums: each joined key is a member (payload
``ONE``) while the changed source holds its part, and is written only
when that flips (:func:`_emit_flip`).

Support steps
-------------
A plan step whose view is derived (:attr:`PlanStep.support`, see
:mod:`repro.viewtree.compile`) writes no view; the steps above the last
written one are emitted by :func:`_emit_support`.  Its input is the
changed keys — the input keys, or the keys the last payload step wrote —
and each step passes on only the keys whose support may have moved: a
step without a guard projects them onto its view (its support is a
bucket of its enumeration index), and a step with a guard joins each
with its siblings' supports, re-tests the joined keys' membership and
passes on the view keys of the members that flipped.  Each test is O(1)
per key, so Theorem 4.1's bound holds.  The first guard rides the loop
that writes its changed source, where that loop posts inline: the leaf
write ``push_batch`` opens with (:func:`_emit_leaf_write`), or a written
view's.  It re-tests only a key that appeared or a bucket created or
emptied, so on ``Q(Y, X, Z) = R(Y, X) * S(Y, Z)`` a batch key landing in
an existing ``R(Y)`` bucket costs its leaf write and nothing else, and
on ``Q(A, C) = R(A, B) * S(B, C)`` a ``V_B`` entry costs no ``G_A`` test.

A next step without siblings rides the same loop: an entry one view
takes is at once the next step's survivor.  Postings are specialised to
the group indexes the written relations carry at generation (part of the
emitted code); a relation that gains one re-emits every kernel that
writes it (:meth:`Relation.watch`, :meth:`DeltaKernel.regenerate`), so
no call pays a staleness test.

Shared code
-----------
Code is shared when the emitted code is equal.  Every kernel emits its
function bodies, which name steps by index and read everything else —
relations, indexes, labels, ring callables and constants — through
environment names, so the bodies depend only on the plan's shape and on
the ring's operator declarations.  The process-wide cache maps the
bodies to their exec'd ``_make(env)`` factory: a hit calls it with the
plan's environment, and a miss first wraps the bodies in a factory that
binds exactly the names they read (:func:`_factory_for`).  Plans across
anchors, engines and shards thus compile once per distinct code, and
ring state such as a :class:`~repro.rings.standard.FloatRing` tolerance
lives in the environment (``IS_ZERO``), not in the code.

Snapshot safety: environments bind :class:`Relation` /
:class:`GroupIndex` **objects** (and bound methods), never their
``data``/``groups`` dicts — the generated code re-reads ``.data`` and
``.groups`` at call time, never a dict captured at generation.  Writes
under a live snapshot must record pre-images
(:mod:`repro.viewtree.epoch`): a generated sink binds each written
relation's newest map once and tests it per key (a ``None`` test when
no snapshot is live), a one-key write included.

Pickling: a kernel's functions are closures over live objects and cannot
pickle, so :class:`DeltaKernel`/:class:`EnumKernel` implement
``__reduce__`` as "regenerate from the plan" — the plan itself pickles
with the engine (the pickle memo keeps its relation references identical
to the view tree's own), and unpickling hits the factory cache.
"""

from __future__ import annotations

import re
import threading
from contextlib import ExitStack, nullcontext
from functools import partial
from itertools import chain, repeat
from operator import itemgetter
from time import perf_counter
from typing import Any, Optional

from ..data.opcounter import COUNTER
from ..rings.base import Semiring
from .compile import CROSS, DIRECT, INDEXED, DeltaPlan, DerivedView
from .enumplan import EnumPlan

#: Sentinel the generated code tests with ``is``: a probe-cache miss in
#: ``push_batch`` (``None`` is a legitimate cached result — an absent
#: sibling entry/bucket) and "no prebound value" in ``iterate``.
_MISS = object()

_WORD = re.compile(r"[A-Za-z_]\w*")

__all__ = [
    "DeltaKernel",
    "EnumKernel",
    "LookupKernel",
    "compile_delta_kernel",
    "compile_enum_kernel",
    "new_codegen_info",
]


def new_codegen_info() -> dict[str, Any]:
    """A fresh mutable counter bag for one engine's kernel generation."""
    return {"kernels": 0, "cache_hits": 0, "time_ms": 0.0, "fallbacks": 0}


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


def _tuple(items: list[str]) -> str:
    """A literal tuple expression of the ``items`` expressions."""
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _items(var: str, positions) -> list[str]:
    """The item expressions ``var[i]`` for ``i`` in ``positions`` (an
    ``int``: the first that many)."""
    if isinstance(positions, int):
        positions = range(positions)
    return [f"{var}[{i}]" for i in positions]


def _proj(var: str, positions: tuple[int, ...], arity: int | None = None) -> str:
    """A literal tuple expression projecting ``var`` onto ``positions``."""
    if arity is not None and positions == tuple(range(arity)):
        return var
    return _tuple(_items(var, positions))


def _reads(body: str) -> list[str]:
    """The env names the generated functions in ``body`` read, sorted:
    what ``_make`` binds.  Env names are upper case (``MUL``,
    ``LREL_0``), bar the enumeration's ``chain`` and ``repeat``; every
    name the emitters bind locally is lower case.  An upper-case word
    the env lacks fails the factory call, and with it generation."""
    words = set(_WORD.findall(body))
    return sorted(name for name in words if name.isupper() or name in ("chain", "repeat"))


def _wrap_factory(body: str) -> str:
    """Wrap generated function bodies (their ``return`` included) in the
    ``_make(env)`` factory: a kernel calls it with its plan's environment,
    which binds each name the bodies read as a closure local (fast
    ``LOAD_DEREF``, no globals lookups in the hot path)."""
    header = "".join(f"    {name} = env[{name!r}]\n" for name in _reads(body))
    return f"def _make(env):\n{header}\n{body}"


# ----------------------------------------------------------------------
# Delta-kernel source
# ----------------------------------------------------------------------


def _changed(plan: DeltaPlan, s: int):
    """The source of step ``s`` whose change the delta describes: the
    leaf, or the step below's view."""
    return plan.leaf if s == 0 else plan.steps[s - 1].view


def key_projector(positions: tuple[int, ...]) -> itemgetter:
    """``key -> tuple(key[p] for p in positions)``, picklable; a run is a slice."""
    start = positions[0] if positions else 0
    if positions == tuple(range(start, start + len(positions))):
        return itemgetter(slice(start, start + len(positions)))
    return itemgetter(*positions)


def _delta_env(plan: DeltaPlan) -> dict[str, Any]:
    """The names a kernel may read; its factory binds those its bodies
    do.  ``map(itemgetter(...), keys)`` runs a projection at C speed: a
    batch maps one per cached probe (``PG_s_j``), per support step
    passing keys on (``PJ_s``, tuple-valued) and per plain aggregation
    pass (``OG_s``, :attr:`_Marginalize.og`).  A support step offers no
    view: its view is derived, and its guard, sibling supports and
    changed source (``CHG_s``: a relation, or a derived view's index)
    are all it reads or writes."""
    ring = plan.ring
    env: dict[str, Any] = {
        "MUL": ring.mul,
        "ADD": ring.add,
        "IS_ZERO": ring.is_zero,
        "ZERO": ring.zero,
        "ONE": ring.one,
        "COUNTER": COUNTER,
        "MISS": _MISS,
        "LREL_0": plan.leaf,
    }
    for i, index in enumerate(plan.leaf._indexes.values()):
        env[f"LIX_0_{i}"] = index
    for s, step in enumerate(plan.steps):
        if not step.support:
            env[f"LBL_{s}"] = step.view_label
            env[f"VREL_{s}"] = step.view
            for i, index in enumerate(step.view._indexes.values()):
                env[f"VIX_{s}_{i}"] = index
        if step.guard is not None:
            changed = _changed(plan, s)
            derived = isinstance(changed, DerivedView)
            env[f"CHG_{s}"] = changed.index if derived else changed
            env[f"GREL_{s}"] = step.guard
            if step.support:
                env[f"GLBL_{s}"] = step.guard.name
            for i, index in enumerate(step.guard._indexes.values()):
                env[f"GIX_{s}_{i}"] = index
        if step.lift is not None:
            env[f"LIFT_{s}"] = step.lift
        if step.support:
            # A support pass keeps tuples: its keys are probed, not summed.
            env[f"PJ_{s}"] = key_projector(step.out_positions)
        elif step.out_positions:
            env[f"OG_{s}"] = itemgetter(*step.out_positions)
        for j, join in enumerate(step.siblings):
            if isinstance(join.relation, DerivedView):
                env[f"SUP_{s}_{j}"] = join.relation.index
            else:
                env[f"REL_{s}_{j}"] = join.relation
            if join.index is not None:
                env[f"IDX_{s}_{j}"] = join.index
            if join.probe_positions:
                env[f"PG_{s}_{j}"] = itemgetter(*join.probe_positions)
    return env


def _emit_direct_probe(
    w: _Writer, s: int, j: int, join, ops: _Ops, arity: int
) -> None:
    """One DIRECT sibling probe of the one-key delta ``(dk, dp)``: a miss
    or a zero product ends the push."""
    w.emit("lookups += 1")
    probe = _proj("dk", join.probe_positions, arity)
    w.emit(f"val = REL_{s}_{j}.data.get({probe})")
    w.emit("if val is None:")
    with w.block():
        w.emit("return")
    w.emit(f"dp = {ops.mul('dp', 'val')}")
    w.emit(f"if {ops.is_zero('dp')}:")
    with w.block():
        w.emit("return")


def _guard_binder(w: _Writer, s: int, guard) -> partial:
    """Step ``s``'s guard bound where a single push flips a member
    (:func:`_emit_member`): only a flip pays for the binding."""
    return partial(_emit_binding, w, "g", s, guard, [None] * len(guard.schema))


def _emit_one_step(w: _Writer, s: int, step, ops: _Ops, arity: int) -> None:
    """Step ``s`` on a one-key delta whose sibling joins are all DIRECT:
    straight-line probes, the guard's membership re-tested, then the
    view's one write."""
    w.emit(f"# step {s}")
    for j, join in enumerate(step.siblings):
        _emit_direct_probe(w, s, j, join, ops, arity)
    if step.guard is not None:
        w.emit(f"gdata = GREL_{s}.data")
        w.emit("lookups += 1")
        w.emit(f"gk = {_proj('dk', step.guard_positions, arity)}")
        _emit_flip(w, "gk", f"dk in CHG_{s}.data", _guard_binder(w, s, step.guard), "writes += 1")
    # Marginalize the node variable onto the view schema.
    if step.lift is not None:
        lifted = ops.mul("dp", f"LIFT_{s}(dk[{step.lift_position}])")
        w.emit(f"dp = {lifted}")
    oproj = _proj("dk", step.out_positions, arity)
    if oproj != "dk":
        w.emit(f"dk = {oproj}")
    posts = _emit_binding(w, "v", s, step.view, [None] * len(step.out_positions))
    _emit_write(w, ops, "v", "dk", "dp", posts, step=s)


def _emit_lists(w: _Writer) -> None:
    """Start a stage's outgoing list delta ``out_k`` / ``out_p``."""
    w.emit("out_k = []")
    w.emit("out_p = []")
    w.emit("ka = out_k.append")
    w.emit("pa = out_p.append")


def _emit_binding(w: _Writer, p: str, s: int, relation, origin: list, event=None) -> list:
    """Bind writes to step ``s``'s guard (``p`` = ``"g"``) or view
    (``"v"``): ``{p}rel`` / ``{p}data`` / ``{p}get`` (not for a guard,
    whose writes are flips), the newest pre-image map ``{p}new``
    (``None`` for a relation no snapshot covers), the ``{p}rec``
    recorder and, per group index ``i``, its bucket dict ``{p}g{i}``
    and newest bucket map ``{p}f{i}``.

    ``origin[q]`` is the input-key position that position ``q`` of every
    written key equals, or ``None`` where the keys vary.  An index whose
    group positions all have one gets its group key here, once, as
    ``{p}k{i}`` (rule 2), and its bucket ``{p}b{i}`` at the first
    posting.  Returns the postings each write makes (:func:`_emit_post`),
    an ``event``'s index last: the code it runs may end the iteration.
    """
    rel = f"{p[0].upper()}REL_{s}"
    w.emit(f"{p}rel = {rel}")
    w.emit(f"{p}data = {p}rel.data")
    if p != "g":
        w.emit(f"{p}get = {p}data.get")
    w.emit(f"{p}new = {p}rel._maps[-1] if {p}rel._maps else None")
    w.emit(f"{p}rec = {p}rel._record")
    posts = []
    for i, group_vars in enumerate(relation._indexes):
        positions = relation.schema.positions(group_vars)
        index = f"{p[0].upper()}IX_{s}_{i}"
        w.emit(f"{p}g{i} = {index}.groups")
        w.emit(f"{p}f{i} = {index}._maps[-1] if {index}._maps else None")
        bound = tuple(origin[q] for q in positions)
        hoisted = None not in bound
        if hoisted:
            w.emit(f"{p}k{i} = {_proj('key', bound)}")
            w.emit(f"{p}b{i} = MISS")
        posts.append((index, i, positions, hoisted))
    if event is not None and event[0] is not None:
        posts.append(posts.pop(event[0]))
    return posts


def _emit_record(w: _Writer, p: str, key: str) -> None:
    """Keep ``old`` as ``key``'s pre-image before the write (see
    :meth:`Relation._record`); one ``None`` test without a snapshot."""
    w.emit(f"if {p}new is not None and {key} not in {p}new:")
    with w.block():
        w.emit(f"{p}rec({key}, old)")


def _emit_post(w: _Writer, p: str, post: tuple, key: str, add: bool, event=None) -> None:
    """Post ``key`` into (``add``) or out of one group index of relation
    ``p``, :meth:`GroupIndex.add` / ``remove`` written out (rule 3): a
    bucket a live snapshot shares is copied by
    :meth:`GroupIndex._preserve` before its first write, and an emptied
    bucket leaves the index.  A hoisted group key probes its bucket at
    the first posting only and keeps it in ``{p}b{i}``: nothing else
    writes that index during the pass.  An ``event`` ``(i, body)`` runs
    ``body(True)`` on the group key ``ck`` of a bucket it creates."""
    index, i, positions, hoisted = post
    on = event is not None and event[0] == i
    groups, fresh = f"{p}g{i}", f"{p}f{i}"
    if hoisted:
        gk, bucket = f"{p}k{i}", f"{p}b{i}"
        w.emit(f"if {bucket} is MISS:")
        probe = w.block()
    else:
        gk, bucket = "ik", "ib"
        w.emit(f"ik = {_proj(key, positions)}")
        probe = nullcontext()
    with probe:
        w.emit(f"{bucket} = {groups}.get({gk})")
        w.emit(f"if {fresh} is not None and {gk} not in {fresh}:")
        with w.block():
            w.emit(f"{bucket} = {index}._preserve({gk}, {bucket})")
    if add:
        w.emit(f"if {bucket} is None:")
        with w.block():
            target = f"{bucket} = {groups}[{gk}]" if hoisted else f"{groups}[{gk}]"
            w.emit(f"{target} = {{{key}: None}}")
            if on:
                w.emit(f"ck = {gk}")
                w.emit("gone.pop(ck, None)")
                event[1](True)
        w.emit("else:")
        with w.block():
            w.emit(f"{bucket}[{key}] = None")
    else:
        w.emit(f"del {bucket}[{key}]")
        w.emit(f"if not {bucket}:")
        with w.block():
            w.emit(f"del {groups}[{gk}]")
            if hoisted:
                w.emit(f"{bucket} = None")
            if on:
                w.emit(f"gone[{gk}] = None")


def _emit_write(
    w: _Writer, ops: _Ops, p: str, key: str, pay: str, posts: list,
    cont: bool = False, event=None, step: int | None = None,
) -> None:
    """``Relation.add(key, pay)`` inline on relation ``p``, for a non-zero
    ``pay``: keep the pre-image, then insert, update or cancel, with the
    postings of an insert or a cancel written out (:func:`_emit_post`).
    ``cont`` ends the insert branch with ``continue`` (a sink loop)
    instead of an ``else``.  An ``event`` ``(None, body)`` runs
    ``body(True)`` on a key ``ck`` that appears (:func:`_emit_leaf_write`).
    With ``step``, the write is a single push's one pair for that step's
    view: a ``pay`` that cancelled to zero ends the push, and each write
    counts in ``writes`` and is reported to ``stats``."""
    if step is not None:
        w.emit(f"if {ops.is_zero(pay)}:")
        with w.block():
            w.emit("if stats is not None:")
            with w.block():
                w.emit(f"stats.record_delta(LBL_{step}, 0)")
            w.emit("return")
    on = event is not None and event[0] is None
    w.emit(f"old = {p}get({key})")
    _emit_record(w, p, key)
    w.emit("if old is None:")
    with w.block():
        w.emit(f"{p}data[{key}] = {pay}")
        for post in posts:
            _emit_post(w, p, post, key, True, event)
        if on:
            w.emit(f"ck = {key}")
            event[1](True)
        if cont:
            w.emit("continue")
    if not cont:
        w.emit("else:")
    with nullcontext() if cont else w.block():
        w.emit(f"new = {ops.add('old', pay)}")
        w.emit(f"if {ops.is_zero('new')}:")
        with w.block():
            w.emit(f"del {p}data[{key}]")
            for post in posts:
                _emit_post(w, p, post, key, False, event)
            if on:
                w.emit(f"gone[{key}] = None")
        w.emit("else:")
        with w.block():
            w.emit(f"{p}data[{key}] = new")
    if step is not None:
        w.emit("writes += 1")
        w.emit("if stats is not None:")
        with w.block():
            w.emit(f"stats.record_delta(LBL_{step}, 1)")


def _emit_flip(
    w: _Writer, key: str, now, posts, count: str = "", skip: str | None = None
) -> None:
    """Make ``key`` a member of guard ``g`` (payload ``ONE``) exactly when
    ``now`` holds: an insert or a delete when its membership flips.  The
    write keeps its pre-image and posts its indexes inline (``posts``, or
    the postings a :func:`_guard_binder` binds at the flip), then
    ``count`` runs.  With ``skip``, a key whose
    membership stands runs ``skip``, so the code after this block runs
    on flips only.  A ``now`` of ``True`` or ``False`` (a write that just
    decided it) emits that half alone."""
    fixed = isinstance(now, bool)
    for test, stands, add in ((now, "in", True), ("", "not in", False)):
        if now is (not add):
            continue
        if not fixed:
            w.emit(f"if {test}:" if test else "else:")
        with nullcontext() if fixed else w.block():
            if skip:
                w.emit(f"if {key} {stands} gdata:")
                with w.block():
                    w.emit(skip)
                _emit_member(w, key, posts, count, add)
                continue
            w.emit(f"if {key} {'not in' if add else 'in'} gdata:")
            with w.block():
                _emit_member(w, key, posts, count, add)


def _emit_member(w: _Writer, key: str, posts, count: str, add: bool) -> None:
    """Insert ``key`` into guard ``g`` (``add``) or delete it."""
    if callable(posts):
        posts = posts()
    w.emit(f"if gnew is not None and {key} not in gnew:")
    with w.block():
        w.emit(f"grec({key}, {'None' if add else 'ONE'})")
    w.emit(f"gdata[{key}] = ONE" if add else f"del gdata[{key}]")
    for post in posts:
        _emit_post(w, "g", post, key, add=add)
    w.emit(count)


def _emit_agg_sink(
    w: _Writer, ops: _Ops, s: int, relation, origin: list, wrap: bool = False, event=None,
    lists: bool = True,
) -> str:
    """Fused filter + view write over a marginalization's ``agg`` dict;
    returns the expression that counts the entries written.

    One pass per aggregated key replaces a filtered-dict copy plus bulk
    :meth:`Relation.add_delta`: survivors land on the view and, with
    ``lists`` (a later step reads them), in the ``dks``/``dps`` lists
    (the step's outgoing delta) in ``agg`` insertion order — the order
    ``marginalize`` accumulates in on the generic path — so
    payload-combination order, and therefore every
    non-commutative-rounding ring, matches it.  With ``wrap``, ``agg`` is
    keyed by bare values (a single-position projection aggregated via
    ``itemgetter``) and each surviving key is boxed back into the view's
    1-tuple here, once per distinct key instead of once per delta entry.
    The postings run ``event`` (:func:`_emit_support`).
    """
    posts = _emit_binding(w, "v", s, relation, origin, event)
    if lists:
        w.emit("dks = []")
        w.emit("dps = []")
        w.emit("ka = dks.append")
        w.emit("pa = dps.append")
    else:
        w.emit("nw = 0")
    vk = "vk" if wrap else "okey"
    w.emit("for okey, dp in agg.items():")
    with w.block():
        w.emit(f"if {ops.is_zero('dp')}:")
        with w.block():
            w.emit("continue")
        if wrap:
            w.emit("vk = (okey,)")
        if lists:
            w.emit(f"ka({vk})")
            w.emit("pa(dp)")
        else:
            w.emit("nw += 1")
        _emit_write(w, ops, "v", vk, "dp", posts, cont=True, event=event)
    count = "len(dks)" if lists else "nw"
    w.emit(f"writes += {count}")
    return count


class _Marginalize:
    """One step's guard write and marginalization around a survivor loop:
    :meth:`prologue` before it, :meth:`survivor` per joined entry (its
    payload in ``prod``), :meth:`epilogue` after — or all three over a
    list delta, :meth:`list_pass`.

    ``kind`` is how the step's delta leaves it: one running sum
    (``const``, rule 2; a batch's scalar marginalization), one view
    write per entry (``distinct``, rule 1) or an ``agg`` dict.
    ``origin`` maps the output key's positions to the input key's, as in
    :func:`_emit_body`.  In ``push``, a following step without siblings
    rides the same loop (``then``): each entry this step writes is that
    step's survivor at once, instead of a list entry walked again.
    """

    def __init__(
        self, w, ops, plan, s, origin, arity, single, shared=None, head=True
    ):
        step = plan.steps[s]
        self.w, self.ops, self.plan, self.s, self.step = w, ops, plan, s, step
        self.single = single
        self.arity_in = arity
        self.arity = arity + sum(len(j.extend_positions) for j in step.siblings)
        self.joined = origin + [None] * (self.arity - arity)
        out = step.out_positions
        self.origin = [self.joined[q] for q in out]
        if None not in self.origin:
            self.kind = "const"
        elif all(q in out for q, o in enumerate(self.joined) if o is None):
            self.kind = "distinct"
        else:
            self.kind = "agg"
        # The step's last sibling stage absorbs the guard write and the
        # marginalization accumulate: each survivor is written or
        # aggregated on the spot instead of appended to a list, re-zipped
        # for the guard and traversed again to aggregate.  The guard and
        # the probed sibling views are distinct relations (one per
        # view-tree node), so interleaving the writes with the probes
        # observes nothing a stage-then-sink order wouldn't; write order
        # and accumulation order per relation are unchanged.  A CROSS
        # stage (rare, unbounded fan-out) leaves a list (:meth:`list_pass`).
        self.fused = bool(step.siblings) and step.siblings[-1].mode != CROSS
        # A plain aggregation pass over the list counts nothing: the list
        # is non-empty and the agg sink counts what lands.  Lift-free, it
        # projects through ``OG_s`` (lifting needs the full key).
        plain = head and not self.fused and self.kind == "agg" and step.guard is None
        self.og = plain and step.lift is None
        # A step riding a lift-free one counts its entries with it.
        self.p = "v" if head else f"v{s}"
        self.n = shared or ("n" if head else f"n{s}")
        self.counts = shared is None and not plain
        self.posts: dict[str, list] = {}
        #: A support step riding the postings; whether a later step reads
        #: this step's delta.
        self.event, self.lists = None, True
        self.then = None
        nxt = plan.steps[s + 1] if s + 1 < len(plan.steps) else None
        if (
            single
            and self.kind == "distinct"
            and nxt is not None
            and not nxt.siblings
            and nxt.guard is None
            and not nxt.support
        ):
            self.then = _Marginalize(
                w, ops, plan, s + 1, self.origin, len(out), single,
                self.n if step.lift is None else None, head=False,
            )

    def last(self) -> "_Marginalize":
        return self if self.then is None else self.then.last()

    @property
    def listed(self) -> bool:
        """Whether each entry written goes to ``out_k`` / ``out_p``: a
        later step reads them, or counts what a lifted payload landed."""
        return self.then is None and (self.lists or self.step.lift is not None)

    def prologue(self) -> None:
        w, step, s = self.w, self.step, self.s
        if self.p != "v":
            w.emit(f"# step {s} rides the loop below")
        if self.counts:
            w.emit(f"{self.n} = 0")
        if step.guard is not None:
            self.posts["g"] = _emit_binding(
                w, "g", s, step.guard, [self.joined[q] for q in step.guard_positions]
            )
            w.emit(f"chg = CHG_{s}.data")
        if self.kind == "distinct":
            self.posts["v"] = _emit_binding(w, self.p, s, step.view, self.origin, self.event)
            if self.listed:
                _emit_lists(w)
        elif self.kind == "const":
            # The ZERO seed is additively inert under Python ``+``.
            w.emit("tot = ZERO" if self.ops.add_op == "+" else "tot = None")
        else:
            w.emit("agg = {}")
            w.emit("aget = agg.get")
        if self.then is not None:
            self.then.prologue()

    def list_pass(self) -> None:
        """The whole marginalization as one pass over the list delta
        ``dks`` / ``dps``, for a step no sibling stage fused.  A plain
        aggregation (:attr:`og`) maps ``OG_s`` over the keys — the batch's
        step-0 hot loop — and a single-position getter yields bare values,
        boxed by the agg sink."""
        w = self.w
        self.prologue()
        if self.og:
            w.emit(f"for okey, prod in zip(map(OG_{self.s}, dks), dps):")
            with w.block():
                self.accumulate()
        else:
            w.emit("for dk, prod in zip(dks, dps):")
            with w.block():
                self.survivor("dk", _items("dk", self.arity))
        self.epilogue()

    def survivor(self, full: Optional[str], items: list[str]) -> None:
        """The loop body for one joined entry: ``items`` are its key's
        item expressions, ``full`` a variable holding the whole key (or
        ``None``: keys are built from ``items``, never joined first)."""
        w, ops, step, s = self.w, self.ops, self.step, self.s

        def key(positions, name):
            if positions == tuple(range(self.arity)) and full is not None:
                return full
            w.emit(f"{name} = {_tuple([items[q] for q in positions])}")
            return name

        if self.counts:
            w.emit(f"{self.n} += 1")
        if step.guard is not None:
            # The guard key is a member while its changed-source key is:
            # every other source holds the entry it was joined with.
            gk = key(step.guard_positions, "gk")
            ck = key(tuple(range(self.arity_in)), "ck")
            w.emit("lookups += 1")
            _emit_flip(w, gk, f"{ck} in chg", self.posts["g"], "writes += 1")
        if step.lift is not None:
            lift = f"LIFT_{s}({items[step.lift_position]})"
            w.emit(f"prod = {ops.mul('prod', lift)}")
        out = step.out_positions
        if self.kind == "distinct":
            if step.lift is not None:
                w.emit(f"if {ops.is_zero('prod')}:")
                with w.block():
                    w.emit("continue")
            vk = key(out, f"{self.p}k")
            if self.listed:
                w.emit(f"ka({vk})")
                w.emit("pa(prod)")
            _emit_write(w, ops, self.p, vk, "prod", self.posts["v"], event=self.event)
            if self.then is not None:
                self.then.survivor(vk, [f"{vk}[{i}]" for i in range(len(out))])
        elif self.kind == "const":
            if ops.add_op == "+":
                w.emit("tot = tot + prod")
            else:
                w.emit("tot = prod if tot is None else " + ops.add("tot", "prod"))
        else:
            okey = items[out[0]] if len(out) == 1 else _tuple([items[q] for q in out])
            w.emit(f"okey = {okey}")
            self.accumulate()

    def accumulate(self) -> None:
        """``prod`` into ``agg[okey]``.  ``add_operator = "+"`` asserts
        ring addition is Python ``+`` on numeric payloads: a branch-free
        ``aget(okey, ZERO) + prod`` (the ZERO seed is additively inert)
        saves a None test per entry."""
        if self.ops.add_op == "+":
            self.w.emit("agg[okey] = aget(okey, ZERO) + prod")
        else:
            self.w.emit("prev = aget(okey)")
            self.w.emit(
                "agg[okey] = prod if prev is None else " + self.ops.add("prev", "prod")
            )

    def epilogue(self) -> None:
        # The "no survivors" early return, then the deferred write
        # accounting and the marginalization's finalization.
        w, step, s = self.w, self.step, self.s
        if self.counts:
            w.emit(f"if not {self.n}:")
            with w.block():
                w.emit("return")
        if self.kind == "distinct":
            # What landed: a lifted payload may have cancelled.
            if self.then is not None:
                count = self.then.n
            else:
                count = self.n if step.lift is None else "len(out_k)"
            w.emit(f"writes += {count}")
            if self.then is None and self.lists:
                w.emit("dks = out_k")
                w.emit("dps = out_p")
            w.emit("if stats is not None:")
            with w.block():
                w.emit(f"stats.record_delta(LBL_{s}, {count})")
            if self.then is not None:
                self.then.epilogue()
            elif self.lists and step.lift is not None:
                w.emit("if not dks:")
                with w.block():
                    w.emit("return")
        elif self.kind == "const":
            self.const_tail()
        else:
            self.delta_tail(_emit_agg_sink(
                w, self.ops, s, step.view, self.origin, len(step.out_positions) == 1,
                self.event, self.lists,
            ))

    def delta_tail(self, count: str = "len(dks)") -> None:
        w = self.w
        w.emit("if stats is not None:")
        with w.block():
            w.emit(f"stats.record_delta(LBL_{self.s}, {count})")
        if self.s + 1 < len(self.plan.steps):
            w.emit(f"if not {count}:")
            with w.block():
                w.emit("return")

    def const_tail(self) -> None:
        # The running sum ``tot`` of a non-empty delta lands at the one
        # output key: a pair again in ``push``, a one-entry list (the
        # root's ``()``) in a batch.
        w, ops, s = self.w, self.ops, self.s
        if self.single:
            w.emit(f"dk = {_proj('key', tuple(self.origin))}")
            w.emit("dp = tot")
            posts = _emit_binding(w, self.p, s, self.step.view, [None] * len(self.origin))
            _emit_write(w, ops, self.p, "dk", "dp", posts, step=s)
            return
        lists = self.lists
        w.emit(f"if {ops.nonzero('tot')}:")
        with w.block():
            w.emit("dks = [()]" if lists else "nw = 1")
            if lists:
                w.emit("dps = [tot]")
            posts = _emit_binding(w, "v", s, self.step.view, self.origin)
            _emit_write(w, ops, "v", "()", "tot", posts)
            w.emit("writes += 1")
        w.emit("else:")
        with w.block():
            w.emit("dks = []" if lists else "nw = 0")
            if lists:
                w.emit("dps = []")
        self.delta_tail("len(dks)" if lists else "nw")


def _emit_probe_stage(
    w: _Writer, s: int, j: int, join, ops: _Ops, arity: int, one: bool,
    m: Optional[_Marginalize], single: bool,
) -> None:
    """One DIRECT or INDEXED sibling stage: each delta entry probes the
    sibling's table (``val``) or group index (``bucket``), and each
    joined entry goes to the step's marginalization ``m`` (the fused last
    stage) or to ``out_k`` / ``out_p``.

    The probe is cached per distinct probe key.  A probe that covers the
    full delta key is not: coalesced keys are distinct, so every probe
    would miss, and one bulk ``lookups += len(dks)`` counts them.
    Other probe keys (a non-CROSS probe always has positions) come out
    of a C-level ``map(PG_s_j, ...)``; a single-position getter yields
    the bare value, so the cache is keyed by value and the probe tuple
    is built only on a miss.  With ``one`` the stage is the INDEXED
    fan-out of the one pair ``(dk, dp)``: one bucket probe.  Only a
    batch (not ``single``) counts the probes its cache shared.
    """
    indexed = join.mode == INDEXED
    hit, table = ("bucket", "groups") if indexed else ("val", "data")
    probe = _proj("dk", join.probe_positions, arity)
    full_key = len(join.probe_positions) == arity
    # An identity DIRECT probe runs its dict lookups inside ``map`` at C
    # speed, consumed by the zip.
    in_map = full_key and probe == "dk" and not indexed

    def land(items: list[str], joined: str) -> None:
        if m is not None:
            m.survivor(None if indexed else "dk", items)
        else:
            w.emit(f"ka({joined})")
            w.emit("pa(prod)")

    if m is not None:
        m.prologue()
    if one:
        w.emit("lookups += 1")
        w.emit(f"bucket = IDX_{s}_{j}.groups.get({probe})")
        w.emit("if not bucket:")
        with w.block():
            w.emit("return")
    elif indexed:
        w.emit(f"groups = IDX_{s}_{j}.groups")
    w.emit(f"data = REL_{s}_{j}.data")
    if m is None:
        _emit_lists(w)
    loop = nullcontext()
    if not one:
        if full_key:
            w.emit("lookups += len(dks)")
        else:
            w.emit("cache = {}")
            w.emit("cget = cache.get")
        if in_map:
            w.emit("for dk, dp, val in zip(dks, dps, map(data.get, dks)):")
        elif not full_key:
            w.emit(f"for dk, dp, pk in zip(dks, dps, map(PG_{s}_{j}, dks)):")
        else:
            w.emit("for dk, dp in zip(dks, dps):")
        loop = w.block()
    with loop:
        if one or in_map:
            pass
        elif full_key:
            w.emit(f"{hit} = {table}.get({probe})")
        else:
            w.emit(f"{hit} = cget(pk, MISS)")
            w.emit(f"if {hit} is MISS:")
            with w.block():
                w.emit("lookups += 1")
                scalar = len(join.probe_positions) == 1
                w.emit(f"{hit} = {table}.get({'(pk,)' if scalar else 'pk'})")
                w.emit(f"cache[pk] = {hit}")
            if not single:  # only a batch reports its shared probes
                w.emit("else:")
                with w.block():
                    w.emit("shared += 1")
        if not indexed:
            w.emit("if val is None:")
            with w.block():
                w.emit("continue")
            w.emit(f"prod = {ops.mul('dp', 'val')}")
            w.emit(f"if {ops.nonzero('prod')}:")
            with w.block():
                land(_items("dk", arity), "dk")
        else:
            if not one:
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
                land(
                    _items("dk", arity) + _items("sk", join.extend_positions),
                    f"dk + {_proj('sk', join.extend_positions)}",
                )


def _emit_cross_stage(w: _Writer, s: int, j: int, join, ops: _Ops, one: bool) -> None:
    """One CROSS sibling stage: every delta entry (with ``one``, the pair
    ``(dk, dp)``) times every sibling entry, into ``out_k`` / ``out_p``."""
    w.emit(f"data = REL_{s}_{j}.data")
    w.emit("matches += len(data)" if one else "matches += len(data) * len(dks)")
    w.emit("entries = list(data.items())")
    _emit_lists(w)
    if not one:
        w.emit("for dk, dp in zip(dks, dps):")
    with nullcontext() if one else w.block():
        w.emit("for sk, sp in entries:")
        with w.block():
            w.emit(f"prod = {ops.mul('dp', 'sp')}")
            w.emit(f"if {ops.is_zero('prod')}:")
            with w.block():
                w.emit("continue")
            w.emit(f"ka(dk + {_proj('sk', join.extend_positions)})")
            w.emit("pa(prod)")


def _support_table(s: int, j: int, join) -> str:
    """The dict a support step probes for sibling ``j``: entries of a
    relation, a derived view's index buckets (its support), or the group
    index an INDEXED probe reads (over a derived view's base)."""
    if join.mode == INDEXED:
        return f"IDX_{s}_{j}.groups"
    if isinstance(join.relation, DerivedView):
        return f"SUP_{s}_{j}.groups"
    return f"REL_{s}_{j}.data"


def _emit_support(w: _Writer, plan: DeltaPlan, start: int, one: bool, host=None) -> None:
    """Steps ``start`` on, whose views are derived: supports, not sums.

    The changed keys of step ``start``'s changed source are ``ck`` (with
    ``one``) or the keys of ``cks``.  A step without a guard passes them
    on, projected onto its view.  A step with a guard joins each with
    its siblings' supports (a relation's keys, a derived view's index
    buckets) and re-tests the joined keys: a member while the changed
    source holds its key (:func:`_emit_flip`).  Only the view keys of
    flipped members go on.  With ``one`` and DIRECT siblings the step is
    straight-line and a standing membership ends the push.

    With ``host``, the first guard step rides the loop ``host(event)``
    emits, which writes step ``start``'s changed source (a batch's leaf,
    or the view below): it re-tests a key that appears, or the group key
    of a bucket created in the index step ``start``'s view reads.  A
    cancelled key or emptied bucket goes to ``gone``, whose members leave
    the guard after the loop unless a later key creates the bucket anew.
    A key landing in a bucket that stays costs no probe at all.
    """
    steps = plan.steps
    arity = len(_changed(plan, start).schema.variables)
    size = "len(cks)"
    for s in range(start, len(steps)):
        step = steps[s]
        top = s == len(steps) - 1
        if step.guard is None:
            if top:
                if host is not None:
                    host(None)
                return  # nothing reads the root's support but its index
            w.emit(f"# step {s}: its view's support")
            if one:
                w.emit(f"ck = {_proj('ck', step.out_positions, arity)}")
            elif host is None:
                # Not deduplicated: a repeated key re-tests to no flip.
                w.emit("nc = len(cks)")
                w.emit(f"cks = map(PJ_{s}, cks)")
                size = "nc"
            arity = len(step.out_positions)
            continue
        w.emit(f"# step {s}: guard membership")
        looped = not one or any(join.mode != DIRECT for join in step.siblings)
        if looped:
            posts = _emit_binding(w, "g", s, step.guard, [None] * len(step.guard_positions))
        else:
            posts = _guard_binder(w, s, step.guard)
            w.emit(f"gdata = GREL_{s}.data")
        if host is None:
            derived = isinstance(_changed(plan, s), DerivedView)
            w.emit(f"chg = CHG_{s}.{'groups' if derived else 'data'}")
        for j, join in enumerate(step.siblings):
            w.emit(f"sup_{j} = {_support_table(s, j, join)}")
        if looped:
            w.emit("flips = 0")
            if not top:
                w.emit("nks = {}")
        held = _items("ck", arity)

        def probe(join) -> str:
            whole = join.probe_positions == tuple(range(arity))
            return "ck" if whole else _tuple([held[p] for p in join.probe_positions])

        fans = any(join.mode != DIRECT for join in step.siblings)
        tests = [f"{probe(join)} in sup_{j}" for j, join in enumerate(step.siblings)]

        def body(now) -> None:
            """Re-test the guard keys ``ck`` joins; ``now``: the changed
            source holds ``ck`` (a test, or a bool the leaf write decided)."""
            items = held
            with ExitStack() as loops:
                if not fans and now is True:
                    if tests:  # a members-only guard has none
                        w.emit(f"lookups += {len(tests)}")
                        w.emit(f"if {' and '.join(tests)}:")
                        loops.enter_context(w.block())
                elif not fans and now is not False:
                    # One membership test per changed key: its source and
                    # every sibling hold the key's projections.
                    now = " and ".join([now] + tests)
                elif fans:
                    # The joined keys are members while the changed source
                    # holds ``ck``: every sibling holds what it was joined on.
                    if not isinstance(now, bool):
                        w.emit("lookups += 1")
                        w.emit(f"now = {now}")
                        now = "now"
                    inloop = not one
                    for j, join in enumerate(step.siblings):
                        if join.mode != CROSS:
                            w.emit("lookups += 1")
                        if join.mode == DIRECT:
                            w.emit(f"if {probe(join)} not in sup_{j}:")
                            with w.block():
                                w.emit("continue" if inloop else "return")
                            continue
                        table = f"sup_{j}"
                        if join.mode == INDEXED:
                            w.emit(f"bucket = sup_{j}.get({probe(join)})")
                            w.emit("if not bucket:")
                            with w.block():
                                w.emit("continue" if inloop else "return")
                            table = "bucket"
                        w.emit(f"matches += len({table})")
                        w.emit(f"for sk{j} in {table}:")
                        loops.enter_context(w.block())
                        inloop = True
                        items = items + _items(f"sk{j}", join.extend_positions)
                gk = "ck" if step.guard_positions == tuple(range(arity)) and len(items) == arity else "gk"
                if gk == "gk":
                    w.emit(f"gk = {_tuple([items[q] for q in step.guard_positions])}")
                count = "flips += 1" if looped else "writes += 1"
                _emit_flip(w, gk, now, posts, count, "continue" if looped else "return")
                if not looped:
                    w.emit("if stats is not None:")
                    with w.block():
                        w.emit(f"stats.record_delta(GLBL_{s}, 1)")
                if not top:
                    vk = _tuple([items[q] for q in step.out_positions])
                    w.emit(f"nks[{vk}] = None" if looped else f"ck = {vk}")

        changed, now = "cks", "ck in chg"
        if host is not None:
            w.emit("gone = {}")
            written = list(_changed(plan, start)._indexes.values())
            host((written.index(steps[start].view.index) if s > start else None, body))
            host, changed, now = None, "gone", False
        elif not fans:
            count = 1 + len(step.siblings)
            w.emit(f"lookups += {count}" if one else f"lookups += {count} * {size}")
        if one:
            body(now)
        else:
            w.emit(f"for ck in {changed}:")
            with w.block():
                body(now)
        if looped:
            w.emit("writes += flips")
            w.emit("if stats is not None:")
            with w.block():
                w.emit(f"stats.record_delta(GLBL_{s}, flips)")
            if not top:
                w.emit("cks = nks")
                size = "len(cks)"
            one = False
        arity = len(step.out_positions)


def _emit_leaf_write(
    w: _Writer, plan: DeltaPlan, ops: _Ops, event=None, single: bool = False
) -> None:
    """The batch onto the kernel's leaf: :meth:`Relation.add_delta` inline
    (:func:`_emit_write`), hosting ``event`` (:func:`_emit_support`); with
    ``single``, :meth:`Relation.add` of the one pair, counted by the
    caller."""
    posts = _emit_binding(w, "l", 0, plan.leaf, [None] * len(plan.leaf.schema), event)
    if single:
        _emit_write(w, ops, "l", "key", "payload", posts)
        return
    w.emit("for key, pay in zip(keys, pays):")
    with w.block():
        _emit_write(w, ops, "l", "key", "pay", posts, cont=True, event=event)
    w.emit("writes += len(keys)")


def _emit_body(w: _Writer, plan: DeltaPlan, ops: _Ops, name: str) -> None:
    """The single-tuple ``push(key, payload, stats)`` body, or the columnar
    ``push_batch(keys, pays, stats)`` (each writes the leaf first,
    :func:`_emit_leaf_write`), or their twins for a leaf the caller has
    written, ``push_written_one`` and ``push_written``: one emitter,
    since a tuple is a one-entry delta.

    ``push`` writes its leaf first, like ``push_batch``, so one call is
    the whole single-tuple update.  Its body tracks the input key
    position by position (``origin``).  The delta stays the pair
    ``(dk, dp)`` through straight-line DIRECT probes (one ``dict.get``
    each), guard flips and one inline write per view (:func:`_emit_write`,
    which binds the written relation only where a flip writes a guard);
    from the first support step on, :func:`_emit_support` takes the
    changed keys.  Sibling order, early exits, per-view
    ``stats.record_delta`` calls and ring-operation order follow the
    generic :meth:`ViewTreeEngine._propagate`, and probes and the
    straight-line writes count in bulk (``writes``), as
    :meth:`Relation.add` would.  A fan-out probe writes its survivors as
    they are joined, and a step whose output key the input binds folds
    its delta into one running sum, after which the delta is one pair
    again (module docstring, rules 1-3).  Only a batch, or a push that
    fans out, counts ``matches``; only a batch ``shared``.

    ``push_batch`` is ``push`` lifted to one *coalesced* per-relation
    delta, flowing as parallel key/payload lists (the columnar batch
    representation from :func:`repro.data.columnar.coalesce_columnar`)
    instead of a delta dict — legal because a coalesced delta's keys are
    distinct and sibling joins never collide output keys (every delta
    key has the step's full schema, so distinct keys extend to distinct
    joined keys); only a marginalization that drops a varying position
    aggregates through a dict.  So the batch lands exactly the
    telescoped sum of its per-tuple pushes, with two fusions on top:

    * **shared sibling probes** — each sibling is probed once per
      *distinct* join key across the whole delta
      (:func:`_emit_probe_stage`).  Cache hits are *not* counted as
      elementary lookups (``COUNTER`` sees only the probes actually
      issued; the saved ones are reported to
      ``stats.record_probe_sharing``; one key shares nothing).
    * **fused view writes** — each step's delta lands on its view, and
      its guard's flips, inline (:func:`_emit_write`, :func:`_emit_flip`)
      instead of one ``Relation.add`` per entry.
    """
    single = name in ("push", "push_written_one")
    write = name in ("push", "push_batch")
    one_loop = write and not single and plan.steps[0].support
    inline = not single or any(
        join.mode != DIRECT for step in plan.steps for join in step.siblings
    )
    args = "key, payload" if single else "keys, pays"

    def guarded(s: int) -> bool:  # a support step from s on reads keys
        return any(st.guard is not None for st in plan.steps[s:])

    w.emit(f"def {name}({args}, stats=None):")
    with w.block():
        derived = plan.steps[0].support and not guarded(0) and not one_loop
        if derived and not (single and write):
            w.emit("pass  # every view above the leaf is derived")
            return
        w.emit(f"if {ops.is_zero('payload')}:" if single else "if not keys:")
        with w.block():
            w.emit("return")
        if derived:  # a push that writes its leaf and nothing else
            _emit_leaf_write(w, plan, ops, single=True)
            w.emit('if COUNTER.enabled: COUNTER.bump("write")')
            return
        w.emit("lookups = 0")
        w.emit("writes = 1  # the leaf's" if single and write else "writes = 0")
        if inline:
            w.emit("matches = 0")
        if not single:
            w.emit("shared = 0")
        w.emit("try:")
        with w.block():
            arity = len(plan.leaf.schema.variables)
            # A support step first takes the input keys as they are.
            delta = not plan.steps[0].support
            if single and write:
                _emit_leaf_write(w, plan, ops, single=True)
            if single and delta:
                w.emit("dk = key")
                w.emit("dp = payload")
            elif one_loop:
                _emit_support(w, plan, 0, False, lambda e: _emit_leaf_write(w, plan, ops, e))
            elif not single:
                if write:
                    _emit_leaf_write(w, plan, ops)
                if delta:
                    w.emit("dks = keys")
                    w.emit("dps = pays")
            # origin[q]: the input-key position that position q of every
            # delta key equals (None: it varies); one: the delta is the
            # single pair (dk, dp).
            origin = list(range(arity)) if single else [None] * arity
            one = single
            resume = len(plan.steps) if one_loop else 0
            for s, step in enumerate(plan.steps):
                if s < resume:
                    continue  # it rode an earlier step's loop
                if step.support:
                    if guarded(s):
                        keys = ("dk" if one else "dks") if s else ("key" if one else "keys")
                        w.emit(f"ck = {keys}" if one else f"cks = {keys}")
                        _emit_support(w, plan, s, one)
                    break
                if one and all(jn.mode == DIRECT for jn in step.siblings):
                    _emit_one_step(w, s, step, ops, arity)
                    origin = [origin[q] for q in step.out_positions]
                    arity = len(origin)
                    continue
                m = _Marginalize(w, ops, plan, s, origin, arity, single)
                last = m.last()
                after = plan.steps[last.s + 1:]
                # Support steps above a step that writes each entry inline
                # ride its postings; otherwise they re-test its list.
                reads = bool(after) and (not after[0].support or guarded(last.s + 1))
                ride = reads and after[0].support and last.kind != "const" and (
                    last.step.lift is None and last.step.guard is None)
                last.lists = reads and not ride

                def run(event=None, arity=arity, one=one) -> None:
                    last.event = event
                    w.emit(f"# step {s}")
                    for j, join in enumerate(step.siblings):
                        if one and join.mode == DIRECT:
                            # Before the fan-out: still one pair.
                            _emit_direct_probe(w, s, j, join, ops, arity)
                            continue
                        fused = m.fused and j == len(step.siblings) - 1
                        if join.mode == CROSS:
                            _emit_cross_stage(w, s, j, join, ops, one)
                        else:
                            _emit_probe_stage(
                                w, s, j, join, ops, arity, one, m if fused else None, single
                            )
                        if fused:
                            m.epilogue()
                        else:
                            w.emit("dks = out_k")
                            w.emit("dps = out_p")
                            w.emit("if not dks:")
                            with w.block():
                                w.emit("return")
                        arity += len(join.extend_positions)
                        one = False
                    if not m.fused:
                        m.list_pass()
                if ride:
                    _emit_support(w, plan, last.s + 1, False, run)
                    break
                run()
                resume = last.s + 1
                origin = last.origin
                arity = len(origin)
                one = single and last.kind == "const"
        w.emit("finally:")
        with w.block():
            w.emit("if COUNTER.enabled:")
            with w.block():
                w.emit("if writes:")
                with w.block():
                    w.emit('COUNTER.bump("write", writes)')
                w.emit("if lookups:")
                with w.block():
                    w.emit('COUNTER.bump("lookup", lookups)')
                if inline:
                    w.emit("if matches:")
                    with w.block():
                        w.emit('COUNTER.bump("enum", matches)')
            if not single:
                w.emit("if stats is not None and (lookups or shared):")
                with w.block():
                    w.emit("stats.record_probe_sharing(lookups, shared)")


def _delta_body(plan: DeltaPlan) -> str:
    ops = _Ops(plan.ring)
    body = _Writer(indent=1)
    names = ("push", "push_batch", "push_written", "push_written_one")
    for name in names:
        _emit_body(body, plan, ops, name)
        body.emit()
    body.emit(f"return {', '.join(names)}")
    return body.source()


# ----------------------------------------------------------------------
# Enum-kernel source
# ----------------------------------------------------------------------


def _enum_env(plan: EnumPlan) -> dict[str, Any]:
    ring = plan.ring
    env: dict[str, Any] = {
        "MUL": ring.mul,
        "IS_ZERO": ring.is_zero,
        "ZERO": ring.zero,
        "ONE": ring.one,
        "COUNTER": COUNTER,
        "MISS": _MISS,
        "chain": chain,
        "repeat": repeat,
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
    names = {step.var_slot: step.variable for step in plan.steps}
    head = tuple(names[p] for p in plan.head_positions)
    return env if plan.lookup is None else env | _lookup_env(plan.lookup, head)


def _lookup_env(factors, head: tuple[str, ...]) -> dict[str, Any]:
    """``LK_i_j``: factor ``i``'s probe ``j``'s relation; ``HEAD``: the key's variables."""
    env = {f"LK_{i}_{j}": r for i, factor in enumerate(factors) for j, (r, _) in enumerate(factor)}
    return env | {"HEAD": head}


def _slot_tuple(positions: tuple[int, ...]) -> str:
    if not positions:
        return "()"
    inner = ", ".join(f"s{i}" for i in positions)
    if len(positions) == 1:
        return f"({inner},)"
    return f"({inner})"


def _emit_iterate(
    w: _Writer, plan: EnumPlan, ops: _Ops, snapshot: bool = False, drain: bool = False
) -> None:
    """One generated enumeration walk: ``iterate(prebound, stats)`` over
    the live relations, or, with ``snapshot``, ``iterate_epoch(prebound,
    stats, epoch)`` over a published
    :class:`~repro.viewtree.epoch.EpochSnapshot`, or, with ``drain``,
    ``buckets(stats)`` (see :func:`_emit_drain`).

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
    A probe keyed like the step's guard passes the candidate ``key_d``.

    A step marked ``replay`` resets ``rows_d`` whenever step *d−2*
    advances.  The first pass of step *d−1* walks the suffix while it
    yields, appending one row per reached tuple (each slot, then each
    depth's leaf product and bound-view values) before the last product;
    later passes loop over the rows, multiplying and zero-testing as
    the walk did, for one ``enum`` and no ``lookup`` a row.  A zero test
    that prunes inside the suffix earlier leaves the rows incomplete
    (``rows_d = None``): the next pass walks and records afresh.

    Both walks come from this one emitter and differ only in how a
    probe reads a dict: the live walk reads ``d.get(k)``; the epoch walk
    binds each relation's ``(live, pre-image map)`` pair from the
    :class:`~repro.viewtree.epoch.EpochSnapshot` and reads
    ``u.get(k, d.get(k))`` — live first, map second — so it sees the
    published state while maintenance writes the live relations from
    another thread.

    A plan whose last step is marked
    :attr:`~repro.viewtree.enumplan.EnumStep.drain` gets a third
    function, ``buckets(stats)``: the live walk with no prebound value,
    whose last depth yields each candidate bucket as one ``zip(bucket,
    payloads)`` instead of looping over it.  The bucket's ``enum`` and
    ``lookup`` counts (one each per key) are added and flushed before
    it is yielded.  The walk's last product is ``p * v`` with ``p`` a
    product of ``ONE`` factors, so ``payloads`` maps that product over
    the bucket's ``V`` values; for an integer ring, where ``p`` is ``1``,
    it is the values bare, and ``payload`` is not bound.  Its zero test
    is not emitted: a stored ``v`` is non-zero, and so is ``ONE`` times
    it.
    """
    steps = plan.steps
    last = len(steps) - 1
    # ``1 * x`` and ``1.0 * x`` are exact: a product with ``ONE`` is not emitted.
    identity = ops.mul_op == "*"
    # An integer ring's payloads are ints (or floats), for which ``1 * v``
    # is ``v``, type included: a drained bucket's payloads are read bare.
    bare = identity and type(plan.ring.one) is int

    def probe(target: str, table: str, key: str) -> None:
        # ``target = table.get(key)`` as of the walk's epoch: the live
        # dict first, then the pre-image map, which overrides it.  An
        # entry never leaves a live snapshot's map, so the membership
        # test and the read that follows it agree.
        if not snapshot:
            w.emit(f"{target} = {table}.get({key})")
            return
        if not key.isidentifier():
            w.emit(f"pk = {key}")
            key = "pk"
        w.emit(f"{target} = {table}.get({key})")
        w.emit(f"if {key} in {table}u:")
        with w.block():
            w.emit(f"{target} = {table}u[{key}]")

    if snapshot:
        w.emit("def iterate_epoch(prebound, stats, epoch):")
    elif drain:
        w.emit("def buckets(stats):")
    elif steps[-1].drain:
        w.emit("def walk(prebound, stats):")
    else:
        w.emit("def iterate(prebound=None, stats=None):")
    with w.block():
        w.emit("lookups = 0")
        w.emit("enums = 0")
        w.emit("guard_probes = 0")
        w.emit("if stats is not None:")
        with w.block():
            w.emit("stats.record_compiled_enumeration()")
        w.emit("try:")
        with w.block():
            # Dict bindings — the live relation attributes, or the
            # epoch's pairs — resolved once up front so a publish racing
            # with this generator cannot mix epochs.
            if snapshot:
                w.emit("data_of = epoch.data_of")
                for i in range(len(plan.prefix_probes)):
                    w.emit(f"pre_{i}, pre_{i}u = data_of(PRE_{i})")
                for d in range(len(steps)):
                    w.emit(f"gd_{d}, gd_{d}u = data_of(GUARD_{d})")
                    w.emit(
                        f"gr_{d}, gr_{d}u = epoch.groups_of(GUARD_{d}, GVARS_{d})"
                    )
                for d, step in enumerate(steps):
                    for k in range(len(step.leaf_probes)):
                        w.emit(f"ld_{d}_{k}, ld_{d}_{k}u = data_of(LEAF_{d}_{k})")
                    for k in range(len(step.post_probes)):
                        w.emit(f"pd_{d}_{k}, pd_{d}_{k}u = data_of(POST_{d}_{k})")
            if not (drain and bare):  # a bare drain multiplies nothing
                w.emit("payload = ONE")
            for i in range(len(plan.prefix_probes)):
                # Prefix probes precede every free step, so no slot is
                # bound yet and the probe key is always the empty tuple.
                w.emit("lookups += 1")
                table = f"pre_{i}" if snapshot else f"PRE_{i}.data"
                probe("factor", table, "()")
                w.emit("if factor is None:")
                with w.block():
                    w.emit("return")
                w.emit(f"payload = {ops.mul('payload', 'factor')}")
                w.emit(f"if {ops.is_zero('payload')}:")
                with w.block():
                    w.emit("return")
            if not snapshot:
                if not drain:  # guard data serves prebound checks only
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
            if not drain:
                w.emit("if prebound:")
                with w.block():
                    for d in range(len(steps)):
                        w.emit(f"pv_{d} = prebound.get(NAME_{d}, MISS)")
                w.emit("else:")
                with w.block():
                    for d in range(len(steps)):
                        w.emit(f"pv_{d} = MISS")

            def key_for(d: int, positions: tuple[int, ...]) -> str:
                # A probe keyed like the guard of a step it runs under
                # reuses that step's candidate key.
                for j in range(d, -1, -1):
                    if positions == steps[j].probe_positions:
                        return f"key_{j}"
                return _slot_tuple(positions)

            # ``buckets`` yields no head tuple and probes nothing but
            # groups, so it binds a slot only for a group key it spells.
            drained_slots = set()
            for d in range(1, len(steps)):
                positions = steps[d].group_positions
                if key_for(d - 1, positions) == _slot_tuple(positions):
                    drained_slots.update(positions)

            def row(d: int) -> str:
                # What a replay needs of depths d..last: each slot value,
                # then the depth's factors in the order they multiply.
                names = []
                for j in range(d, last + 1):
                    names.append(f"s{steps[j].var_slot}")
                    names += [f"f_{j}"] if steps[j].leaf_probes else []
                    names += [f"v_{j}_{k}" for k in range(len(steps[j].post_probes))]
                return _tuple(names)

            def emit_products(d: int, p: str, live: bool, recording: list) -> str:
                # Depth d's products and zero tests; the live walk probes
                # each bound view just before it multiplies.  Recorded
                # rows are appended before the walk's last product, so a
                # last zero test drops no row; an earlier one leaves a
                # hole, and the next pass records afresh.
                step = steps[d]
                factors = [
                    (f"v_{d}_{k}", f"pd_{d}_{k}", key_for(d, positions))
                    for k, (_, positions) in enumerate(step.post_probes)
                ]
                if step.leaf_probes:
                    factors.insert(0, (f"f_{d}", None, None))
                elif not identity:
                    factors.insert(0, ("ONE", None, None))
                for i, (factor, table, key) in enumerate(factors):
                    if live and table:
                        w.emit("lookups += 1")
                        probe(factor, table, key)
                        w.emit(f"if {factor} is None:")
                        with w.block():
                            w.emit("continue")
                    final = d == last and i == len(factors) - 1
                    if final:
                        for m in recording:
                            w.emit(f"rec_{m}.append({row(m)})")
                    w.emit(f"p_{d} = {ops.mul(p, factor)}")
                    p = f"p_{d}"
                    w.emit(f"if {ops.is_zero(p)}:")
                    with w.block():
                        for m in [] if final else recording:
                            w.emit(f"rows_{m} = None")
                        w.emit("continue")
                if d == last and not factors:
                    for m in recording:
                        w.emit(f"rec_{m}.append({row(m)})")
                return p

            def emit_flush() -> None:
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

            def emit_yield(p: str) -> None:
                emit_flush()
                w.emit(f"yield {_slot_tuple(plan.head_positions)}, {p}")

            def emit_bucket(d: int, p: str, backtrack: str) -> None:
                # The last depth of ``buckets``: its one post probe is its
                # guard, keyed like the candidate (EnumStep.drain).
                w.emit(f"n = len(cands_{d})")
                w.emit("enums += n")
                if not identity:
                    w.emit(f"p_{d} = {ops.mul(p, 'ONE')}")
                    p = f"p_{d}"
                    w.emit(f"if {ops.is_zero(p)}:")
                    with w.block():
                        w.emit(backtrack)
                w.emit("lookups += n")
                emit_flush()
                values = f"map(pd_{d}_0.__getitem__, cands_{d})"
                if not bare:
                    values = f"map(MUL, repeat({p}), {values})"
                w.emit(f"yield zip(cands_{d}, {values})")

            def emit_depth(d: int, p: str, recording: list) -> None:
                step = steps[d]
                if d < last and steps[d + 1].replay:
                    w.emit(f"rows_{d + 1} = None")
                if step.replay:
                    w.emit(f"if rows_{d} is not None:")
                    with w.block():
                        w.emit(f"for {row(d)} in rows_{d}:")
                        with w.block():
                            w.emit("enums += 1")
                            q = p
                            for j in range(d, last + 1):
                                q = emit_products(j, q, False, recording)
                            emit_yield(q)
                        w.emit("continue")
                    w.emit(f"rows_{d} = rec_{d} = []")
                    recording = recording + [d]
                slot = step.var_slot
                backtrack = "return" if d == 0 else "continue"
                w.emit(f"# depth {d}")
                w.emit("guard_probes += 1")
                w.emit("lookups += 1")
                if drain:
                    probe(f"cands_{d}", f"gr_{d}", key_for(d - 1, step.group_positions))
                    w.emit(f"if not cands_{d}:")
                    with w.block():
                        w.emit(backtrack)
                    if d == last:
                        emit_bucket(d, p, backtrack)
                        return
                    w.emit(f"for key_{d} in cands_{d}:")
                    with w.block():
                        w.emit("enums += 1")
                        if slot in drained_slots:
                            w.emit(f"s{slot} = key_{d}[{step.var_pos}]")
                        emit_depth(d + 1, emit_products(d, p, True, recording), recording)
                    return
                w.emit(f"if pv_{d} is MISS:")
                with w.block():
                    probe(f"cands_{d}", f"gr_{d}", key_for(d - 1, step.group_positions))
                    w.emit(f"if not cands_{d}:")
                    with w.block():
                        w.emit(backtrack)
                    w.emit(f"checked_{d} = False")
                w.emit("else:")
                with w.block():
                    w.emit(f"s{slot} = pv_{d}")
                    w.emit(f"probe = {_slot_tuple(step.probe_positions)}")
                    if snapshot:
                        probe("found", f"gd_{d}", "probe")
                        w.emit("if found is None:")
                    else:
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
                    for k, (_, positions) in enumerate(step.leaf_probes):
                        w.emit("lookups += 1")
                        target = "val" if k else f"f_{d}"
                        probe(target, f"ld_{d}_{k}", key_for(d, positions))
                        w.emit(f"if {target} is None:")
                        with w.block():
                            w.emit("continue")
                        if k or not identity:
                            w.emit(f"f_{d} = {ops.mul(f'f_{d}' if k else 'ONE', target)}")
                    p = emit_products(d, p, True, recording)
                    if d == last:
                        emit_yield(p)
                    else:
                        emit_depth(d + 1, p, recording)

            emit_depth(0, "payload", [])
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


def _emit_drain(w: _Writer) -> None:
    """``iterate`` of a plan whose last step drains: an unbound request
    chains the buckets ``buckets`` yields, a prebound one walks."""
    w.emit("def iterate(prebound=None, stats=None):")
    with w.block():
        w.emit("if prebound:")
        with w.block():
            w.emit("return walk(prebound, stats)")
        w.emit("return chain.from_iterable(buckets(stats))")


def _emit_lookup(w: _Writer, factors, ops: _Ops, arity: int, snapshot=False) -> _Writer:
    """``lookup(key)`` over a lookup plan's ``factors`` or, with
    ``snapshot``, ``lookup_epoch(key, epoch)``: the key's arity check
    (a key some probe reads whole is made a tuple), then reads such as
    ``LK_0_0.data.get((key[0], key[1]))`` (an epoch read takes the
    pre-image map over the live dict), ``ZERO`` at the first miss, the
    product folded left to right as the walk multiplies, and one
    ``lookup`` op per probe issued."""
    w.emit("def lookup_epoch(key, epoch):" if snapshot else "def lookup(key):")
    with w.block():
        w.emit(f"if len(key) != {arity}: raise ValueError("
               'f"lookup key {tuple(key)!r} does not match head {HEAD!r}")')
        if any(p == tuple(range(arity)) for factor in factors for _, p in factor):
            w.emit("if key.__class__ is not tuple: key = tuple(key)")
        bump = 'if COUNTER.enabled: COUNTER.bump("lookup", {})'.format
        probes, product = 0, None
        for i, factor in enumerate(factors):
            value = None
            for j, (_, positions) in enumerate(factor):
                probes += 1
                found, key = f"v{probes}", _proj("key", positions, arity)
                if snapshot:
                    w.emit(f"d, u = epoch.data_of(LK_{i}_{j})")
                    w.emit(f"k = {key}")
                    w.emit(f"{found} = u.get(k, d.get(k))")
                else:
                    w.emit(f"{found} = LK_{i}_{j}.data.get({key})")
                w.emit(f"if {found} is None:")
                with w.block():
                    w.emit(bump(probes))
                    w.emit("return ZERO")
                value = found if value is None else ops.mul(value, found)
            product = value if product is None else ops.mul(product, value)
        w.emit(bump(probes))
        w.emit(f"p = {product}")
        w.emit(f"return ZERO if {ops.is_zero('p')} else p")
    return w


def _enum_body(plan: EnumPlan) -> str:
    ops = _Ops(plan.ring)
    body = _Writer(indent=1)
    _emit_iterate(body, plan, ops)
    if plan.steps[-1].drain:
        body.emit()
        _emit_iterate(body, plan, ops, drain=True)
        body.emit()
        _emit_drain(body)
    body.emit()
    _emit_iterate(body, plan, ops, snapshot=True)
    returns = "iterate, iterate_epoch, None, None"
    if plan.lookup is not None:
        for snapshot in (False, True):
            body.emit()
            _emit_lookup(body, plan.lookup, ops, len(plan.head_positions), snapshot)
        returns = "iterate, iterate_epoch, lookup, lookup_epoch"
    body.emit(f"return {returns}")
    return body.source()


# ----------------------------------------------------------------------
# Factory cache and kernel objects
# ----------------------------------------------------------------------

#: function bodies -> (source, exec'd ``_make`` factory).  Process-global
#: so equal bodies across plans, engines and shards compile exactly once.
_FACTORY_CACHE: dict[str, tuple[str, Any]] = {}
_CACHE_LOCK = threading.Lock()


def _factory_for(kind: str, body: str) -> tuple[tuple[str, Any], bool]:
    """``((source, factory), cache_hit)`` for generated function bodies:
    a miss wraps them (:func:`_wrap_factory`) and compiles."""
    with _CACHE_LOCK:
        entry = _FACTORY_CACHE.get(body)
    if entry is not None:
        return entry, True
    source = _wrap_factory(body)
    namespace: dict[str, Any] = {}
    exec(compile(source, f"<repro-codegen:{kind}>", "exec"), namespace)
    entry = (source, namespace["_make"])
    with _CACHE_LOCK:
        existing = _FACTORY_CACHE.setdefault(body, entry)
    return existing, existing is not entry


def shape_cache_size() -> int:
    """Number of distinct factories compiled in this process."""
    with _CACHE_LOCK:
        return len(_FACTORY_CACHE)


def clear_shape_cache() -> None:
    """Drop all cached factories (tests, and ``benchmarks/e2e/stacks.py``
    before every set-up, so it pays generation as a fresh process does)."""
    with _CACHE_LOCK:
        _FACTORY_CACHE.clear()


class DeltaKernel:
    """A source-generated write-path kernel for one :class:`DeltaPlan`.

    ``push(key, payload, stats)`` and ``push_batch(keys, pays, stats)``
    (each writes the leaf too), and ``push_written_one`` /
    ``push_written``, their twins for a written leaf, are the
    exec-compiled functions; ``source`` is the generated factory source
    (shared by every plan that emits the same code; dumped by
    ``python -m repro explain --kernel-source``).  The code posts the
    group indexes its written relations carry at generation; each of
    them re-emits it when it gains one (:meth:`regenerate`).
    """

    __slots__ = (
        "plan", "source", "push", "push_batch", "push_written", "push_written_one",
        "__weakref__",
    )

    def __init__(self, plan: DeltaPlan):
        self.plan = plan
        written = [plan.leaf] + [step.view for step in plan.steps if not step.support]
        for relation in written + [step.guard for step in plan.steps if step.guard is not None]:
            relation.watch(self.regenerate)

    def generate(self) -> bool:
        """Bind the four pushes for the plan's current index sets;
        returns whether an equal body was compiled before."""
        (self.source, make), hit = _factory_for("delta", _delta_body(self.plan))
        (self.push, self.push_batch, self.push_written, self.push_written_one) = make(
            _delta_env(self.plan)
        )
        return hit

    def regenerate(self) -> None:
        """Re-emit for the indexes there are now: a relation the kernel
        writes calls it when it gains one (:meth:`Relation.watch`)."""
        self.generate()

    def __reduce__(self):
        return (compile_delta_kernel, (self.plan,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaKernel({self.plan.relation_name!r}, "
            f"steps={len(self.plan.steps)})"
        )


class EnumKernel:
    """A source-generated read-path kernel for one :class:`EnumPlan`:
    ``iterate`` walks the live relations, ``iterate_epoch`` a published
    epoch; ``lookup`` / ``lookup_epoch`` multiply the plan's lookup
    probes (``None`` when the plan has none)."""

    __slots__ = ("plan", "source", "iterate", "iterate_epoch", "lookup", "lookup_epoch")

    def __init__(self, plan: EnumPlan, source: str, *functions):
        self.plan = plan
        self.source = source
        self.iterate, self.iterate_epoch, self.lookup, self.lookup_epoch = functions

    def __reduce__(self):
        return (compile_enum_kernel, (self.plan,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EnumKernel(steps={len(self.plan.steps)})"


class LookupKernel:
    """``lookup(key)`` over ``head`` generated from lookup ``factors``
    alone (a sharded coordinator's base probes); pickles as its arguments."""

    __slots__ = ("args", "source", "lookup")

    def __init__(self, factors: tuple, ring: Semiring, head: tuple[str, ...]):
        self.args = (factors, ring, head)
        env = {"MUL": ring.mul, "IS_ZERO": ring.is_zero, "ZERO": ring.zero, "COUNTER": COUNTER}
        body = _emit_lookup(_Writer(indent=1), factors, _Ops(ring), len(head))
        body.emit("return lookup")
        (self.source, make), _ = _factory_for("lookup", body.source())
        self.lookup = make(env | _lookup_env(factors, head))

    def __reduce__(self):
        return (LookupKernel, self.args)


def _count(info: Optional[dict], start: float, hit: bool) -> None:
    """Book one kernel built since ``start`` into an engine's
    :func:`new_codegen_info` counters (``None``: none kept)."""
    if info is not None:
        info["kernels"] += 1
        info["cache_hits"] += hit
        info["time_ms"] += (perf_counter() - start) * 1000.0


def compile_delta_kernel(
    plan: DeltaPlan, info: Optional[dict] = None
) -> DeltaKernel:
    """Generate the kernel for ``plan``, reusing the factory of an equal
    body (:func:`_factory_for`)."""
    start = perf_counter()
    kernel = DeltaKernel(plan)
    _count(info, start, kernel.generate())
    return kernel


def compile_enum_kernel(
    plan: EnumPlan, info: Optional[dict] = None
) -> EnumKernel:
    """Generate the kernel for ``plan``, reusing the factory of an equal
    body (:func:`_factory_for`)."""
    start = perf_counter()
    (source, make), hit = _factory_for("enum", _enum_body(plan))
    kernel = EnumKernel(plan, source, *make(_enum_env(plan)))
    _count(info, start, hit)
    return kernel
