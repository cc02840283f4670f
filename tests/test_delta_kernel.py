"""Generated single-tuple delta kernels (repro.viewtree.compile + codegen).

The kernels must be *semantically invisible*: for any valid update
stream, any ring, and any supported query shape, the generated engine's
views, scalars, and enumerations are bit-identical to the generic walk's
(``generated=False``, the oracle) — which in turn is differential-tested
against naive recomputation.  Plus: generated engines must survive
pickling (the process-pool shard executor ships them whole), and the
memory accounting satellite.  Wall-clock speed-ups are asserted by
``benchmarks/bench_delta_kernel.py`` as same-run ratios, not here.
"""

from __future__ import annotations

import bisect
import itertools
import pickle
import random

import pytest

from repro.data import Database, Update, counting
from repro.naive import evaluate, evaluate_scalar
from repro.query import parse_query, search_order
from repro.query.variable_order import VarOrderNode, validate_order
from repro.rings import (
    B,
    MIN_PLUS,
    PROVENANCE,
    CovarianceRing,
    LiftingMap,
    ProductRing,
    R,
    Z,
    identity_lifting,
    moment_lifting,
)
from repro.rings.standard import FloatRing, IntegerRing
from repro.shard import ShardedEngine
from repro.viewtree import DeltaPlan, ViewTreeEngine, compile_delta_plans
from repro.viewtree import engine as engine_module
from repro.viewtree.compile import DIRECT, DerivedView

from tests.conftest import (
    assert_failed_to_oracle,
    assert_twins_agree,
    assert_views_agree,
    seeded_db,
    twin_engines,
    valid_stream,
)


def tree_nodes(engine):
    return [node for root in engine.roots for node in root.walk()]


def plans_of(engine, name):
    """The DeltaPlans a relation's generated kernels were built from."""
    return [kernel.plan for kernel in engine._kernels[name]]


class TestCompiledGenericEquivalence:
    QUERIES = [
        # q-hierarchical (Fig. 3): the Theorem 4.1 fast case.
        ("Q(Y, X, Z) = R(Y, X) * S(Y, Z)",
         [("R", ("Y", "X")), ("S", ("Y", "Z"))], False),
        # hierarchical but not q-hierarchical: searched free-top order.
        ("Q(A, C) = R(A, B) * S(B, C)",
         [("R", ("A", "B")), ("S", ("B", "C"))], True),
        # three-atom chain with a single free variable.
        ("Q(A) = R(A, B) * S(B, C) * T(C, D)",
         [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))], True),
    ]

    @pytest.mark.parametrize("text,schemas,searched", QUERIES)
    def test_inserts_and_deletes(self, text, schemas, searched):
        query = parse_query(text)
        order = search_order(query, require_free_top=True) if searched else None
        compiled, generic = twin_engines(query, schemas, seed=17, order=order)
        arities = {name: len(schema) for name, schema in schemas}
        for step, update in enumerate(
            valid_stream(random.Random(23), arities, 400)
        ):
            compiled.apply(update)
            generic.apply(update)
            if step % 50 == 49:
                assert (
                    compiled.output_relation().to_dict()
                    == generic.output_relation().to_dict()
                )
        # Bit-identical enumeration, and both agree with naive recompute.
        assert sorted(compiled.enumerate()) == sorted(generic.enumerate())
        assert compiled.output_relation() == evaluate(
            query, compiled.database
        )

    def test_every_intermediate_view_identical(self):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        compiled, generic = twin_engines(query, schemas, seed=5)
        for update in valid_stream(random.Random(9), {"R": 2, "S": 2}, 300):
            compiled.apply(update)
            generic.apply(update)
        for node_c, node_g in zip(tree_nodes(compiled), tree_nodes(generic)):
            assert node_c.variable == node_g.variable
            assert node_c.view.to_dict() == node_g.view.to_dict()
            if node_c.guard is not None:
                assert node_c.guard.to_dict() == node_g.guard.to_dict()

    def test_self_join(self):
        query = parse_query("Q(A, B, C) = E(A, B) * E(B, C)")
        order = search_order(query, require_free_top=True)
        schemas = [("E", ("A", "B"))]
        compiled, generic = twin_engines(query, schemas, seed=3, order=order)
        for update in valid_stream(random.Random(31), {"E": 2}, 300, domain=6):
            compiled.apply(update)
            generic.apply(update)
        assert sorted(compiled.enumerate()) == sorted(generic.enumerate())
        assert compiled.output_relation() == evaluate(query, compiled.database)

    def test_zipf_skew(self):
        """Hot keys drive large deltas through the INDEXED probe mode."""
        query = parse_query("Q(B, A) = R(B, A) * S(B)")
        schemas = [("R", ("B", "A")), ("S", ("B",))]
        compiled, generic = twin_engines(query, schemas, seed=41)
        rng = random.Random(77)
        domain, s = 40, 1.2
        weights = list(
            itertools.accumulate(1.0 / (k + 1) ** s for k in range(domain))
        )

        def value():
            return min(
                bisect.bisect_left(weights, rng.random() * weights[-1]),
                domain - 1,
            )

        live = {"R": [], "S": []}
        arity = {"R": 2, "S": 1}
        for _ in range(400):
            name = rng.choice(("R", "S"))
            keys = live[name]
            if keys and rng.random() < 0.3:
                update = Update(name, keys.pop(rng.randrange(len(keys))), -1)
            else:
                key = tuple(value() for _ in range(arity[name]))
                keys.append(key)
                update = Update(name, key, 1)
            compiled.apply(update)
            generic.apply(update)
        assert (
            compiled.output_relation().to_dict()
            == generic.output_relation().to_dict()
        )
        assert compiled.output_relation() == evaluate(query, compiled.database)

    def test_boolean_scalar_query(self):
        """Boolean (cyclic triangle) query under a searched order."""
        query = parse_query("Q() = R(A,B) * S(B,C) * T(C,A)")
        schemas = [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "A"))]
        order = search_order(query, prefer_free_top=False)
        compiled, generic = twin_engines(query, schemas, seed=19, order=order)
        arities = {"R": 2, "S": 2, "T": 2}
        for update in valid_stream(random.Random(13), arities, 250):
            compiled.apply(update)
            generic.apply(update)
        assert compiled.scalar() == generic.scalar()
        assert compiled.scalar() == evaluate_scalar(query, compiled.database)

    def test_boolean_semiring_insert_only(self):
        """B has no additive inverse, so drive an insert-only stream."""
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        compiled, generic = twin_engines(
            query, schemas, seed=29, ring=B
        )
        rng = random.Random(37)
        for _ in range(200):
            name = rng.choice(("R", "S"))
            key = (rng.randrange(6), rng.randrange(6))
            compiled.apply(Update(name, key, True))
            generic.apply(Update(name, key, True))
        assert (
            compiled.output_relation().to_dict()
            == generic.output_relation().to_dict()
        )
        assert sorted(compiled.enumerate()) == sorted(generic.enumerate())

    def test_analytics_ring_with_lifting(self):
        """Covariance-ring aggregation with a non-trivial lifting.

        Values are small integers so the float arithmetic inside
        :class:`Moments` stays exact and bit-identity is well-defined.
        """
        ring = CovarianceRing()
        query = parse_query("Q(A) = R(A, V) * S(A)")
        lifting = LiftingMap(ring, {"V": moment_lifting("V")})
        db_c = Database(ring=ring)
        db_g = Database(ring=ring)
        for db in (db_c, db_g):
            db.create("R", ("A", "V"))
            db.create("S", ("A",))
        compiled = ViewTreeEngine(query, db_c, lifting=lifting)
        generic = ViewTreeEngine(
            query, db_g, lifting=lifting, generated=False
        )
        rng = random.Random(59)
        live = []
        for _ in range(250):
            if rng.random() < 0.6:
                if live and rng.random() < 0.3:
                    key = live.pop(rng.randrange(len(live)))
                    update = Update("R", key, ring.neg(ring.one))
                else:
                    key = (rng.randrange(5), rng.randrange(1, 9))
                    live.append(key)
                    update = Update("R", key, ring.one)
            else:
                update = Update(
                    "S",
                    (rng.randrange(5),),
                    ring.one if rng.random() < 0.75 else ring.neg(ring.one),
                )
            compiled.apply(update)
            generic.apply(update)
        assert (
            compiled.output_relation().to_dict()
            == generic.output_relation().to_dict()
        )
        assert compiled.output_relation() == evaluate(query, db_c, lifting)

    def test_lifted_integer_aggregate(self):
        query = parse_query("Q(A) = R(A, V) * S(A)")
        lifting = LiftingMap(Z, {"V": identity_lifting(Z)})
        schemas = [("R", ("A", "V")), ("S", ("A",))]
        compiled, generic = twin_engines(
            query, schemas, seed=2, lifting=lifting
        )
        for update in valid_stream(
            random.Random(71), {"R": 2, "S": 1}, 300, domain=6
        ):
            compiled.apply(update)
            generic.apply(update)
        assert (
            compiled.output_relation().to_dict()
            == generic.output_relation().to_dict()
        )


def _views_in_order(engine):
    """Every node view's entries, in dict (insertion) order."""
    return {
        node.variable: list(node.view.data.items()) for node in tree_nodes(engine)
    }


def _lift_b(ring):
    """A non-trivial lifting of ``B`` in any ring: zero, one or one + one."""
    two = ring.add(ring.one, ring.one)
    return LiftingMap(
        ring, {"B": lambda b: (ring.zero, ring.one, two)[b % 3]}
    )


def _hier_db(ring, r_rows, s_rows, seed=61):
    """Q(A, C)'s database with ``r_rows`` R and ``s_rows`` S tuples.  The
    view tree joins a node's sources smallest first, so V_B's schema is
    (A, C) when R is the smaller and (C, A) when S is."""
    rng = random.Random(seed)
    db = Database(ring=ring)
    for name, schema, rows in (("R", ("A", "B"), r_rows), ("S", ("B", "C"), s_rows)):
        relation = db.create(name, schema)
        for _ in range(rows):
            relation.add(tuple(rng.randrange(6) for _ in schema), ring.one)
    return db


def _push_source(kernel):
    """The generated single-tuple ``push`` of a kernel."""
    source = kernel.source
    return source[source.index("def push("):source.index("def push_batch(")]


HIER = ("Q(A, C) = R(A, B) * S(B, C)", [("R", ("A", "B")), ("S", ("B", "C"))])
STAR = (
    "Q(A, C, D) = R(A, B) * S(B, C) * T(B, D)",
    [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("B", "D"))],
)
CHAIN = (
    "Q(A) = R(A, B) * S(B, C) * T(C, D)",
    [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))],
)
LIST = ("Q(Y, X, Z) = R(Y, X) * S(Y, Z)", [("R", ("Y", "X")), ("S", ("Y", "Z"))])


class TestSingleTupleFanOut:
    """A single-tuple ``push`` on a plan with an INDEXED/CROSS sibling
    joins and writes in one pass (codegen's rules 1-3); it must stay
    bit-identical to the generic walk, order included, record what
    ``Relation.add`` records, and write no guard at a bound node."""

    @pytest.mark.parametrize(
        "ring,deletes",
        [(Z, True), (R, True), (B, False), (MIN_PLUS, False),
         (PROVENANCE, False), (ProductRing(IntegerRing(), FloatRing()), True)],
        ids=["int", "float", "boolean", "min-plus", "provenance", "product"],
    )
    @pytest.mark.parametrize(
        "text,schemas,reordered,lifted",
        # Both anchors of Q(A, C): rule 1 at V_B, rule 2 at V_C's key and
        # (R) V_B's (A,) bucket; "reordered" gives V_B the schema (C, A),
        # unlike the head.  The star joins two INDEXED siblings in one
        # step; the chain and the star drop a fanned-out position (an agg
        # dict stays); "lifted" scales, and zeroes, entries at the bound
        # node.
        [(*HIER, False, False),
         ("Q(A, C) = E(A, B) * E(B, C)", [("E", ("A", "B"))], False, False),
         (*STAR, False, False), (*CHAIN, False, False), (*HIER, False, True),
         (*HIER, True, False)],
        ids=["hier", "self-join", "star", "chain", "lifted", "reordered"],
    )
    def test_bit_identical_to_the_generic_walk(
        self, text, schemas, reordered, lifted, ring, deletes
    ):
        query = parse_query(text)
        order = search_order(query, require_free_top=True)
        compiled, generic = twin_engines(
            query, schemas, seed=61, order=order, ring=ring, rows=40,
            lifting=_lift_b(ring) if lifted else None,
            make_db=(lambda: _hier_db(ring, 40, 10)) if reordered else None,
        )
        assert any(
            join.mode != DIRECT
            for kernels in compiled._kernels.values()
            for kernel in kernels
            for step in kernel.plan.steps
            for join in step.siblings
        )
        arities = {name: len(schema) for name, schema in schemas}
        for update in valid_stream(
            random.Random(67), arities, 300, domain=6,
            delete_prob=0.25 if deletes else 0.0,
        ):
            payload = ring.one if update.payload > 0 else ring.neg(ring.one)
            update = Update(update.relation, update.key, payload)
            compiled.apply(update)
            generic.apply(update)
        assert _views_in_order(compiled) == _views_in_order(generic)
        assert list(compiled.enumerate()) == list(generic.enumerate())
        if ring is Z:
            lifting = _lift_b(Z) if lifted else None
            assert compiled.output_relation() == evaluate(
                query, compiled.database, lifting
            )

    def test_rules_shape_the_push(self):
        """Q(A, C), with V_B over (A, C) or (C, A): no push forwards to
        ``push_batch`` or aggregates through a dict, and the R anchor
        hoists V_B's (A,) bucket key from its input key.  The chain keeps
        an agg dict where a step drops a fanned-out position.  Q(Y, X, Z)
        never fans out: its straight-line push writes its leaf and no
        view (V_X, V_Z and V_Y are derived), flips G_Y's membership
        inline, and has no stale-index check and no enumeration or
        sharing count."""
        query = parse_query(HIER[0])
        for rows, schema in (((10, 40), ("A", "C")), ((40, 10), ("C", "A"))):
            engine, _ = twin_engines(
                query, HIER[1], seed=1,
                order=search_order(query, require_free_top=True),
                make_db=lambda: _hier_db(Z, *rows),  # noqa: B023
            )
            by_var = {node.variable: node for node in tree_nodes(engine)}
            assert by_var["B"].view.schema.variables == schema
            for name in ("R", "S"):
                source = _push_source(engine._kernels[name][0])
                assert "push_batch(" not in source and "agg = {}" not in source
            assert "vk0 = (key[0],)" in _push_source(engine._kernels["R"][0])
        query = parse_query(CHAIN[0])
        engine, _ = twin_engines(
            query, CHAIN[1], seed=1, order=search_order(query, require_free_top=True)
        )
        assert "agg = {}" in _push_source(engine._kernels["T"][0])
        engine, _ = twin_engines(parse_query(LIST[0]), LIST[1], seed=1)
        for name in ("R", "S"):
            source = _push_source(engine._kernels[name][0])
            assert "KERNEL" not in source and "VADD_" not in source
            assert "ldata[key] = payload" in source
            assert ".set(" not in source and "gdata[ck] = ONE" in source
            assert "matches" not in source and "shared" not in source

    @pytest.mark.parametrize(
        "text,schemas,lifted",
        [(*HIER, False), (*STAR, False), (*CHAIN, False), (*HIER, True)],
        ids=["hier", "star", "chain", "lifted"],
    )
    def test_op_counts_equal_a_one_key_batch(self, text, schemas, lifted):
        """``push`` counts the writes, lookups and enums ``push_batch``
        counts over the same one key, and lands the same views."""
        query = parse_query(text)
        order = search_order(query, require_free_top=True)
        lifting = _lift_b(Z) if lifted else None
        single, _ = twin_engines(query, schemas, 13, order, lifting, rows=40)
        batched, _ = twin_engines(query, schemas, 13, order, lifting, rows=40)
        batched.batch_compile_threshold = 1
        arities = {name: len(schema) for name, schema in schemas}
        for update in valid_stream(random.Random(19), arities, 200, domain=6):
            with counting() as one:
                single.apply(update)
            with counting() as batch:
                batched.apply_batch([update])
            for kind in ("write", "lookup", "enum"):
                assert one[kind] == batch[kind], (kind, update)
        assert _views_in_order(single) == _views_in_order(batched)

    def test_a_hoisted_bucket_emptied_and_refilled_in_one_push(self):
        """R(1, 7) cancels V_B(1, 1), the last key of its (A,) bucket, then
        inserts V_B(1, 2): the bucket leaves the index and comes back."""
        query = parse_query(HIER[0])
        db = Database()
        db.create("R", ("A", "B"))
        db.create("S", ("B", "C"))
        engine = ViewTreeEngine(query, db, search_order(query, require_free_top=True))
        for update in (Update("R", (1, 8), 1), Update("S", (8, 1), 1),
                       Update("S", (7, 1), -1), Update("S", (7, 2), 1)):
            engine.apply(update)
        engine.apply(Update("R", (1, 7), 1))
        assert dict(engine.enumerate()) == evaluate(query, db).to_dict() == {(1, 2): 1}

    @pytest.mark.parametrize("text,schemas", [HIER, STAR], ids=["hier", "star"])
    def test_pre_images_equal_what_relation_add_records(self, text, schemas):
        """Under a live snapshot, every written view's and index's
        pre-image map after single-tuple pushes equals the generic walk's,
        which writes through ``Relation``; a derived view keeps none."""
        query = parse_query(text)
        compiled, generic = twin_engines(
            query, schemas, seed=5, order=search_order(query, require_free_top=True),
            rows=40,
        )
        compiled.publish_epoch()
        generic.publish_epoch()
        arities = {name: len(schema) for name, schema in schemas}
        for update in valid_stream(random.Random(3), arities, 120, domain=6):
            compiled.apply(update)
            generic.apply(update)

        derived = {
            node.variable
            for node in tree_nodes(compiled)
            if isinstance(node.view, DerivedView)
        }
        assert derived and all(not n.view._maps for n in tree_nodes(compiled)
                               if n.variable in derived)

        def maps(engine):
            out = {}
            for node in tree_nodes(engine):
                view = node.view
                if node.variable in derived:
                    continue
                out[node.variable] = dict(view._maps[-1])
                for group_vars, index in view._indexes.items():
                    out[node.variable, group_vars] = {
                        gk: None if bucket is None else list(bucket)
                        for gk, bucket in index._maps[-1].items()
                    }
            return out

        assert maps(compiled) == maps(generic)
        assert any(maps(compiled).values())

    def test_an_index_added_later_regenerates_the_kernel(self):
        """Postings are specialised to the indexes a view had at
        generation; a push that finds one more re-emits the kernel and
        posts it too."""
        query = parse_query(HIER[0])
        compiled, generic = twin_engines(
            query, HIER[1], seed=9, order=search_order(query, require_free_top=True),
            rows=30,
        )
        view_b = next(n.view for n in tree_nodes(compiled) if n.variable == "B")
        kernel = compiled._kernels["R"][0]
        before = kernel.source
        late = view_b.index_on(("C",))
        for update in valid_stream(random.Random(4), {"R": 2, "S": 2}, 150):
            compiled.apply(update)
            generic.apply(update)
        assert kernel.source != before
        expected = {}
        for key in view_b.data:
            expected.setdefault((key[view_b.schema.position("C")],), []).append(key)
        assert {gk: list(b) for gk, b in late.groups.items()} == expected
        assert _views_in_order(compiled) == _views_in_order(generic)

    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_fan_out_k_writes_no_guard(self, k):
        query = parse_query("Q(A, C) = R(A, B) * S(B, C)")
        db = Database()
        db.create("R", ("A", "B"))
        db.create("S", ("B", "C"))
        for c in range(k):
            db["S"].insert(7, c)
        engine = ViewTreeEngine(
            query, db, search_order(query, require_free_top=True)
        )
        with counting() as ops:
            engine.apply(Update("R", (1, 7), 1))
        # One base write, k entries of V_B(A, C) and one flip of G_A, as
        # V_B's (A,) bucket appears: no write of an R ⋈ S guard, and none
        # of V_C(A) or V_A(), which are derived.
        assert ops["write"] == 1 + k + 1
        assert ops["enum"] == k
        # One probe: S's B bucket.
        assert ops["lookup"] == 1
        assert dict(engine.enumerate()) == {(1, c): 1 for c in range(k)}


#: ``Q(A, B, C)`` under ``A · B · C``: guards at B and A, views V_C and
#: V_B derived, so a new ``R`` bucket ``(a, b)`` flips ``G_B(a, b)`` and,
#: through V_B's support, ``G_A(a)``.
TWO_GUARDS = (
    "Q(A, B, C) = R(A, B, C) * S(A, B) * T(A)",
    [("R", ("A", "B", "C")), ("S", ("A", "B")), ("T", ("A",))],
    False,
)
#: The generated-vs-generic shapes: the equivalence suite's, the
#: self-join (searched order), the two-guard chain, and two explicit
#: orders — ``(variable, anchored relations, children)`` — under which a
#: support step joins a derived sibling through its base's index
#: (INDEXED on N) or crosses it (CROSS at B).
SUPPORT_SHAPES = [
    *TestCompiledGenericEquivalence.QUERIES,
    ("Q(A, B, C) = E(A, B) * E(B, C)", [("E", ("A", "B"))], True),
    TWO_GUARDS,
    (
        "Q(A, B, N, C, D) = U(A) * T(A, B) * R(A, N, C) * S(B, N, D)",
        [("U", ("A",)), ("T", ("A", "B")), ("R", ("A", "N", "C")),
         ("S", ("B", "N", "D"))],
        ("A", ["U"], [("B", ["T"], [("N", [], [("C", ["R"], []), ("D", ["S"], [])])])]),
    ),
    (
        "Q(A, B, C, D) = U(A) * R(A, C) * S(B, D)",
        [("U", ("A",)), ("R", ("A", "C")), ("S", ("B", "D"))],
        ("A", ["U"], [("B", [], [("C", ["R"], []), ("D", ["S"], [])])]),
    ),
]
SUPPORT_SHAPE_IDS = [
    "list", "hier", "chain", "self-join", "two-guards", "derived-indexed",
    "derived-cross",
]
#: Rings with negation get deletes; the others insert only.
SUPPORT_RINGS = [(Z, True), (R, True), (PROVENANCE, False), (MIN_PLUS, False)]
SUPPORT_RING_IDS = ["int", "float", "provenance", "min-plus"]


def ring_stream(ring, deletes, schemas, count, seed):
    """A valid stream of ``ring.one`` inserts and (with ``deletes``) its
    negated retractions."""
    arities = {name: len(schema) for name, schema in schemas}
    stream = valid_stream(
        random.Random(seed), arities, count, domain=5,
        delete_prob=0.3 if deletes else 0.0,
    )
    return [
        Update(u.relation, u.key, ring.one if u.payload > 0 else ring.neg(ring.one))
        for u in stream
    ]


def _order_node(query, spec) -> VarOrderNode:
    variable, relations, children = spec
    node = VarOrderNode(variable, atoms=[query.atom_for_relation(r) for r in relations])
    node.children.extend(_order_node(query, child) for child in children)
    return node


def support_twins(text, schemas, order, ring, seed=29):
    """Twins under ``order``: an explicit spec, searched (``True``) or
    canonical (``False``)."""
    query = parse_query(text)
    if isinstance(order, tuple):
        order = validate_order(query, [_order_node(query, order)])
    else:
        order = search_order(query, require_free_top=True) if order else None
    twins = twin_engines(query, schemas, seed, order=order, ring=ring, rows=25)
    assert any(isinstance(n.view, DerivedView) for n in tree_nodes(twins[0]))
    assert not any(isinstance(n.view, DerivedView) for n in tree_nodes(twins[1]))
    return twins


def publish_and_diff(twins) -> None:
    """Publish both twins and compare the epoch's output deltas."""
    deltas = []
    for engine in twins:
        engine.publish_epoch()
        delta = engine.changes_since(engine.epoch - 1)
        deltas.append({key: (old, new) for key, old, new in delta})
    assert deltas[0] == deltas[1]


class TestSupportDifferential:
    """Supports, not sums: on valid streams the generated engine (guards
    of members, derived free views) and the oracle agree exactly on
    outputs, lookups, change-feed deltas, guard memberships and every
    node's view value."""

    @pytest.mark.parametrize("ring,deletes", SUPPORT_RINGS, ids=SUPPORT_RING_IDS)
    @pytest.mark.parametrize(
        "text,schemas,order", SUPPORT_SHAPES, ids=SUPPORT_SHAPE_IDS
    )
    def test_single_tuples_and_change_feed(self, text, schemas, order, ring, deletes):
        twins = support_twins(text, schemas, order, ring)
        for engine in twins:
            engine.track_changes()
        miss = (99,) * len(twins[0].head)
        for step, update in enumerate(ring_stream(ring, deletes, schemas, 240, 31)):
            for engine in twins:
                engine.apply(update)
            if step % 40 == 39:
                publish_and_diff(twins)
                assert_twins_agree(*twins, probes=[miss])
        assert_twins_agree(*twins, probes=[miss])

    def test_a_failed_kernel_keeps_every_view_written(self, monkeypatch):
        """One relation's kernel failing to generate makes the whole
        engine the oracle: the views ``derive_views`` replaced are
        written again, guards refilled, and no kernel is left."""
        compile_kernel = engine_module.compile_delta_kernel

        def compile_or_fail(plan, info=None):
            if plan.relation_name == "S":
                raise RuntimeError("injected")
            return compile_kernel(plan, info)

        query, schemas = parse_query(LIST[0]), LIST[1]
        monkeypatch.setattr(engine_module, "compile_delta_kernel", compile_or_fail)
        with pytest.warns(RuntimeWarning, match="injected") as caught:
            failed = ViewTreeEngine(query, seeded_db(schemas, random.Random(3)))
        assert len(caught) == 1
        assert_failed_to_oracle(failed)
        generic = ViewTreeEngine(
            query, seeded_db(schemas, random.Random(3)), generated=False
        )
        assert_twins_agree(failed, generic)
        stream = ring_stream(Z, True, schemas, 240, 47)
        for engine in (failed, generic):
            engine.apply_batch(stream[:120])
            for update in stream[120:]:
                engine.apply(update)
        assert_twins_agree(failed, generic)

    def test_one_bucket_flip_crosses_two_guards(self):
        text, schemas, _ = TWO_GUARDS
        query = parse_query(text)

        def make_db():
            db = Database()
            for name, schema in schemas:
                db.create(name, schema)
            db["T"].insert(1)
            db["S"].insert(1, 2)
            db["R"].insert(4, 4, 4)
            return db

        compiled = ViewTreeEngine(query, make_db())
        generic = ViewTreeEngine(query, make_db(), generated=False)
        nodes = {node.variable: node for node in tree_nodes(compiled)}
        assert isinstance(nodes["B"].view, DerivedView)
        assert isinstance(nodes["C"].view, DerivedView)
        guards = (nodes["A"].guard.data, nodes["B"].guard.data)
        assert guards == ({}, {})
        # R(1, 2, ·) appears, stays, stays, vanishes: both guards follow.
        for payload, members in ((1, True), (1, True), (-1, True), (-1, False)):
            for engine in (compiled, generic):
                engine.apply(Update("R", (1, 2, 3), payload))
            expected = ({(1,)}, {(1, 2)}) if members else (set(), set())
            assert tuple(set(guard) for guard in guards) == expected
            assert_twins_agree(compiled, generic)
        assert dict(compiled.enumerate()) == {}


#: Written steps no other suite reaches, under explicit orders: ``Q()``
#: under A → B crosses the independent subtree ``V_B()`` (a CROSS stage,
#: in U's kernel and, one level up, in S's), and under A → B{R, S} →
#: C{T} an R or S push probes its DIRECT sibling with the one pair
#: before it fans out over ``V_C``'s index.
RARE_PATHS = [
    (
        "Q() = U(A) * S(B)",
        [("U", ("A",)), ("S", ("B",))],
        ("A", ["U"], [("B", ["S"], [])]),
        ("U", "entries = list(data.items())"),
    ),
    (
        "Q(A) = U(A) * R(B) * S(B) * T(A, B, C)",
        [("U", ("A",)), ("R", ("B",)), ("S", ("B",)), ("T", ("A", "B", "C"))],
        ("A", ["U"], [("B", ["R", "S"], [("C", ["T"], [])])]),
        ("R", "val = REL_0_0.data.get(dk)\n            if val is None:\n                return"),
    ),
]


class TestRareEmitterPaths:
    """The generated engine, the oracle and ``repro.naive`` agree on the
    shapes of :data:`RARE_PATHS`, over single applies and batches."""

    @pytest.mark.parametrize("ring,deletes", SUPPORT_RINGS, ids=SUPPORT_RING_IDS)
    @pytest.mark.parametrize(
        "text,schemas,spec,emitted", RARE_PATHS, ids=["cross", "direct-then-fan-out"]
    )
    def test_generated_oracle_and_naive_agree(self, text, schemas, spec, emitted, ring, deletes):
        query = parse_query(text)
        order = validate_order(query, [_order_node(query, spec)])
        twins = twin_engines(query, schemas, 53, order=order, ring=ring, rows=25)
        relation, line = emitted
        assert line in twins[0]._kernels[relation][0].source
        stream = ring_stream(ring, deletes, schemas, 240, 59)
        for start in range(0, len(stream), 60):
            chunk = stream[start:start + 60]
            for engine in twins:
                if start % 120:  # every other chunk is one batch
                    engine.apply_batch(chunk)
                else:
                    for update in chunk:
                        engine.apply(update)
            assert_twins_agree(*twins)
            naive = evaluate(query, twins[0].database).to_dict()
            assert dict(twins[0].enumerate()) == naive


class TestCompiledPlans:
    def test_plans_cover_all_anchors(self):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        engine, _ = twin_engines(query, schemas, seed=1)
        for name, anchors in engine._anchors.items():
            plans = plans_of(engine, name)
            assert len(plans) == len(anchors)
            for (atom, node, leaf), plan in zip(anchors, plans):
                assert isinstance(plan, DeltaPlan)
                assert plan.leaf is leaf
                assert plan.steps[0].view is node.view

    def test_recompile_matches(self):
        query = parse_query("Q(A) = R(A, B) * S(B, C) * T(C, D)")
        schemas = [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))]
        engine, _ = twin_engines(query, schemas, seed=8)
        again = compile_delta_plans(engine)
        assert set(again) == set(engine._kernels)
        for name in again:
            assert [p.relation_name for p in again[name]] == [
                p.relation_name for p in plans_of(engine, name)
            ]

    def test_zero_payload_is_a_noop(self):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        engine, _ = twin_engines(query, schemas, seed=4)
        before = engine.output_relation().to_dict()
        engine._kernels["R"][0].push((0, 0), 0)
        assert engine.output_relation().to_dict() == before


class TestCompiledPickling:
    def test_compiled_engine_pickles_and_keeps_working(self):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        engine, generic = twin_engines(query, schemas, seed=6)
        stream = valid_stream(random.Random(15), {"R": 2, "S": 2}, 150)
        for update in stream[:75]:
            engine.apply(update)
            generic.apply(update)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.generated and set(clone._kernels) == {"R", "S"}
        for update in stream[75:]:
            clone.apply(update)
            generic.apply(update)
        assert (
            clone.output_relation().to_dict()
            == generic.output_relation().to_dict()
        )

    def test_unpickled_plans_alias_the_tree(self):
        """The pickle memo must keep plan references aimed at the same
        Relation objects the view tree holds — otherwise the clone's
        kernels would propagate into orphaned copies."""
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        engine, _ = twin_engines(query, schemas, seed=7)
        clone = pickle.loads(pickle.dumps(engine))
        for name, anchors in clone._anchors.items():
            for (atom, node, leaf), plan in zip(anchors, plans_of(clone, name)):
                assert plan.leaf is leaf
                assert plan.steps[0].view is node.view
                root_step = plan.steps[-1]
                views = {id(n.view) for n in tree_nodes(clone)}
                assert id(root_step.view) in views

    def test_process_pool_shards_run_compiled(self):
        query = parse_query("Q(B, A) = R(B, A) * S(B)")
        schemas = [("R", ("B", "A")), ("S", ("B",))]
        db = seeded_db(schemas, random.Random(21), rows=15)
        batch = valid_stream(random.Random(5), {"R": 2, "S": 1}, 60)
        with ShardedEngine(query, db, shards=2, executor="process") as engine:
            assert all(shard._kernels for shard in engine.engines)
            engine.apply_batch(batch)
            assert engine.output_relation() == evaluate(query, db)
            engine.merged_stats()  # pulls the worker's counters
            for recorder in engine.shard_stats:
                assert recorder.kernels_generated + recorder.shape_cache_hits


class TestShardInvarianceWithCompilation:
    def test_sharded_compiled_matches_plain_generic(self):
        query = parse_query("Q(B, A) = R(B, A) * S(B)")
        schemas = [("R", ("B", "A")), ("S", ("B",))]
        plain = ViewTreeEngine(
            query,
            seeded_db(schemas, random.Random(47), rows=25),
            generated=False,
        )
        db = seeded_db(schemas, random.Random(47), rows=25)
        with ShardedEngine(query, db, shards=3, executor="serial") as sharded:
            for update in valid_stream(random.Random(53), {"R": 2, "S": 1}, 200):
                plain.apply(update)
                sharded.apply(update)
            assert dict(sharded.enumerate()) == dict(plain.enumerate())
            assert (
                sharded.output_relation().to_dict()
                == plain.output_relation().to_dict()
            )


class TestMemoryAccounting:
    def _run(self, interval=8, updates=100):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        engine = ViewTreeEngine(
            query, seeded_db(schemas, random.Random(11), rows=30)
        )
        engine.view_sample_interval = interval
        stats = engine.attach_stats()
        for update in valid_stream(random.Random(43), {"R": 2, "S": 2}, updates):
            engine.apply(update)
        return engine, stats

    def test_periodic_sampling(self):
        engine, stats = self._run(interval=8, updates=100)
        assert stats.view_size.count == 100 // 8
        assert stats.view_size.maximum >= stats.view_size.mean > 0

    def test_per_view_breakdown(self):
        engine, stats = self._run()
        assert any(label.startswith("V_") for label in stats.view_sizes)
        before = stats.view_size.count
        engine.sample_view_sizes()
        assert stats.view_size.count == before + 1

    def test_json_export_carries_memory(self):
        _, stats = self._run()
        payload = stats.to_dict()
        memory = payload["memory"]
        assert memory["total_view_size"]["count"] == stats.view_size.count
        assert memory["total_view_size"]["max"] == stats.view_size.maximum
        assert set(memory["view_sizes"]) == set(stats.view_sizes)

    def test_render_mentions_view_size(self):
        _, stats = self._run()
        assert "view size" in stats.render()
