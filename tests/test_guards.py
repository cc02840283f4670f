"""Guards exist only where enumeration reads them.

A node's guard is the pre-marginalization join that the free-top walk
iterates for the node's variable.  A bound node is summarized by its
view (the walk never descends into it), so it keeps no guard: on
``Q(A,C) = R(A,B) * S(B,C)`` that is the whole ``R ⋈ S`` no longer
written per fan-out tuple.  Under test: the contract on plain,
empty-head, FD and static/dynamic plans; ``total_view_size`` of a tree
without guards counting exactly views and leaves; and trees without bound-node guards
agreeing with ``repro.naive`` and with the generic walk over Z, Float
and Provenance — through single tuples, batches, batch rebuilds,
snapshots plus change feeds, and serial and process shards.
"""

from __future__ import annotations

import random

import pytest

from repro import IVMEngine, plan_maintenance
from repro.constraints import parse_fds
from repro.data import Database, Update
from repro.naive import evaluate
from repro.query import parse_query, search_order
from repro.rings import PROVENANCE, R, Z
from repro.shard import ShardedEngine
from repro.viewtree import ViewTreeEngine
from repro.viewtree.compile import DerivedView

from tests.conftest import assert_matches_rebuild, seeded_db, twin_engines, valid_stream

HIER = "Q(A, C) = R(A, B) * S(B, C)"
HIER_SCHEMAS = [("R", ("A", "B")), ("S", ("B", "C"))]
#: Static/dynamic: bound ``D`` joins a dynamic and a static leaf.
STATIC = "Q(A, B) = R(A, B, D) * S@s(B, D) * T(A, E)"
STATIC_SCHEMAS = [("R", ("A", "B", "D")), ("S", ("B", "D")), ("T", ("A", "E"))]
#: FD plan (X -> Y): bound ``W`` joins two leaves.
FD = "Q(X) = R(X, W) * S(X, Y) * T(Y, Z) * U(X, W)"


def nodes(engine):
    return {node.variable: node for root in engine.roots for node in root.walk()}


def assert_guard_contract(engine):
    """A guard at exactly the free nodes with more than one source, or
    with one derived source (a members-only guard)."""
    for node in nodes(engine).values():
        sources = node.sources()
        expected = node.is_free and (
            len(sources) > 1 or isinstance(sources[0], DerivedView)
        )
        assert (node.guard is not None) == expected, node


def ring_stream(rng, arities, ring, count, deletes, domain=6):
    """A valid stream with ring-one payloads (negated for deletes)."""
    return [
        Update(u.relation, u.key, ring.one if u.payload > 0 else ring.neg(ring.one))
        for u in valid_stream(
            rng, arities, count, domain=domain,
            delete_prob=0.25 if deletes else 0.0,
        )
    ]


def fd_db(seed=0):
    """Data satisfying X -> Y (S maps each X to one Y)."""
    rng = random.Random(seed)
    db = Database()
    for name, schema in (
        ("R", ("X", "W")), ("S", ("X", "Y")), ("T", ("Y", "Z")), ("U", ("X", "W"))
    ):
        db.create(name, schema)
    for x in range(8):
        db["S"].insert(x, rng.randrange(4))
    for _ in range(30):
        db["R"].insert(rng.randrange(8), rng.randrange(5))
        db["U"].insert(rng.randrange(8), rng.randrange(5))
        db["T"].insert(rng.randrange(4), rng.randrange(5))
    return db


class TestGuardContract:
    def test_bound_join_node_has_no_guard(self):
        engine = IVMEngine(parse_query(HIER), seeded_db(HIER_SCHEMAS, random.Random(1)))
        tree = engine.backend
        assert engine.plan.order.is_free_top()
        by_var = nodes(tree)
        assert not by_var["B"].is_free and len(by_var["B"].sources()) == 2
        assert by_var["B"].guard is None
        assert_guard_contract(tree)
        line = next(l for l in tree.describe().splitlines() if "V_B(" in l)
        assert "guard=" not in line

    def test_free_node_with_two_sources_keeps_its_guard(self):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        tree = ViewTreeEngine(query, seeded_db(schemas, random.Random(2)))
        assert nodes(tree)["Y"].guard is not None
        assert_guard_contract(tree)
        assert "guard=" in tree.describe().splitlines()[0]

    @pytest.mark.parametrize(
        "text,schemas",
        [
            ("Q() = R(A, B) * S(B)", [("R", ("A", "B")), ("S", ("B",))]),
            ("Q() = R(A,B) * S(B,C) * T(C,A)",
             [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "A"))]),
        ],
    )
    def test_empty_head_tree_has_no_guard(self, text, schemas):
        query = parse_query(text)
        order = search_order(query, prefer_free_top=False)
        tree = ViewTreeEngine(query, seeded_db(schemas, random.Random(3)), order)
        assert all(node.guard is None for node in nodes(tree).values())
        assert_guard_contract(tree)

    def test_static_dynamic_plan(self):
        engine = IVMEngine(
            parse_query(STATIC), seeded_db(STATIC_SCHEMAS, random.Random(4))
        )
        assert engine.plan.strategy == "static-dynamic"
        by_var = nodes(engine.backend)
        assert len(by_var["D"].sources()) == 2 and by_var["D"].guard is None
        assert by_var["A"].guard is not None
        assert_guard_contract(engine.backend)

    def test_fd_plan(self):
        query = parse_query(FD)
        db = fd_db()
        engine = IVMEngine(query, db, fds=parse_fds("X -> Y"))
        assert engine.plan.strategy == "fd-viewtree"
        by_var = nodes(engine.backend)
        assert len(by_var["W"].sources()) == 2 and by_var["W"].guard is None
        assert_guard_contract(engine.backend)
        engine.apply(Update("R", (1, 7), 1))
        engine.apply(Update("U", (1, 7), 1))
        engine.apply_batch([Update("R", (2, 7), 1), Update("U", (2, 7), 1)])
        assert dict(engine.enumerate()) == evaluate(query, db).to_dict()

    def test_total_view_size_without_guards_is_views_plus_leaves(self):
        engine = IVMEngine(parse_query(HIER), seeded_db(HIER_SCHEMAS, random.Random(5)))
        tree = engine.backend
        views = sum(len(node.view) for node in nodes(tree).values())
        leaves = len(engine.database["R"]) + len(engine.database["S"])
        assert views and leaves
        # No guard joins R and S; the root's members-only guard holds
        # one entry per key of V_C, its one (derived) source.
        members = len(nodes(tree)["A"].guard)
        assert members == len(nodes(tree)["C"].view)
        assert tree.total_view_size() == views + members + leaves


def hier_twins(ring, seed):
    query = parse_query(HIER)
    order = search_order(query, require_free_top=True)
    return query, twin_engines(query, HIER_SCHEMAS, seed, order=order, ring=ring)


def static_twins(ring, seed):
    query = parse_query(STATIC)
    plan = plan_maintenance(query)
    return query, twin_engines(query, STATIC_SCHEMAS, seed, plan=plan, ring=ring)


RINGS = [(Z, True), (R, True), (PROVENANCE, False)]
RING_IDS = ["Z", "float", "provenance"]


class TestDifferentials:
    @pytest.mark.parametrize("ring,deletes", RINGS, ids=RING_IDS)
    @pytest.mark.parametrize("twins", [hier_twins, static_twins], ids=["hier", "static"])
    def test_generated_oracle_and_naive_agree(self, twins, ring, deletes):
        query, (generated, oracle) = twins(ring, seed=11)
        arities = {
            a.relation: len(a.variables) for a in query.dynamic_atoms
        }
        stream = ring_stream(random.Random(13), arities, ring, 360, deletes)
        for update in stream[:120]:
            generated.apply(update)
            oracle.apply(update)
        for start in range(120, 360, 60):
            generated.apply_batch(stream[start:start + 60])
            oracle.apply_batch(stream[start:start + 60])
        for engine in (generated, oracle):
            assert_guard_contract(engine)
        # Bit-identical, enumeration order included.
        assert list(generated.enumerate()) == list(oracle.enumerate())
        assert generated.output_relation() == evaluate(query, generated.database)

    @pytest.mark.parametrize("ring,deletes", RINGS, ids=RING_IDS)
    def test_batch_rebuild(self, ring, deletes):
        """Guards written only on membership flips, over database-sized
        batches, hold what a rebuild fills them with from scratch."""
        query, (generated, oracle) = hier_twins(ring, seed=17)
        stream = ring_stream(random.Random(19), {"R": 2, "S": 2}, ring, 200, deletes)
        for engine in (generated, oracle):
            engine.apply_batch(stream[:100])
            engine.apply_batch(stream[100:])
            assert_guard_contract(engine)
            assert_matches_rebuild(engine)
            assert engine.output_relation() == evaluate(query, engine.database)
        assert list(generated.enumerate()) == list(oracle.enumerate())

    def test_snapshots_and_change_feeds(self):
        query, twins = hier_twins(Z, seed=23)
        stream = ring_stream(random.Random(29), {"R": 2, "S": 2}, Z, 300, True)
        for engine in twins:
            view = engine.subscribe(ratio_threshold=100.0)
            for start in range(0, 300, 30):
                for update in stream[start:start + 20]:
                    engine.apply(update)
                engine.apply_batch(stream[start + 20:start + 30])
                snap = engine.publish_epoch()
                expected = evaluate(query, engine.database).to_dict()
                view.refresh()
                assert dict(view.items()) == expected
                assert dict(engine.enumerate_snapshot(snap=snap)) == expected
            assert view.full_refreshes == 0
        generated, oracle = twins
        assert list(generated.enumerate_snapshot()) == list(oracle.enumerate_snapshot())

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_shards(self, executor):
        query = parse_query(HIER)
        order = search_order(query, require_free_top=True)
        db = seeded_db(HIER_SCHEMAS, random.Random(31), rows=30)
        stream = valid_stream(random.Random(37), {"R": 2, "S": 2}, 160, domain=6)
        with ShardedEngine(
            query, db, shards=2, order=order, executor=executor
        ) as sharded:
            sharded.apply_batch(stream[:100])
            for update in stream[100:]:
                sharded.apply(update)
            assert dict(sharded.enumerate()) == evaluate(query, db).to_dict()
            merged = sharded.merged_views()
            assert "V_B" in merged and "G_B" not in merged
            # The one guard is the root's members-only G_A.
            assert [name for name in merged if name.startswith("G_")] == ["G_A"]
            for engine in sharded.engines:
                assert_guard_contract(engine)
