"""The batch kernel writes its own leaf.

``push_batch`` writes the batch to its anchor's leaf in one loop, with
the pre-image recording and bucket preservation ``Relation.add_delta``
makes; when the plan's first step is a support step, the first guard
re-test rides that loop and runs only where the write moved what it
reads — a leaf key that appeared, or a bucket created — while cancelled
keys and emptied buckets are re-tested after the loop.  Under test: the
generated engine, the generic walk and ``repro.naive`` agree on every
shape and ring; the fused kernel leaves exactly the state, insertion
order and ``COUNTER`` writes of a leaf ``add_delta`` followed by the
state-based push (``push_written``); live snapshots read their publish
state; a fault inside the loop rolls back; shard workers and
``update_base=False`` callers agree; a leaf index added after
generation re-emits the kernel.
"""

from __future__ import annotations

import random

import pytest

from repro.cascade import MultiQueryEngine
from repro.data import Database, Update, counting
from repro.data.columnar import coalesce_columnar
from repro.naive import evaluate
from repro.query import parse_query, search_order
from repro.rings import MIN_PLUS, PROVENANCE, R, Z
from repro.shard import ShardedEngine
from repro.viewtree import ViewTreeEngine

from tests.conftest import assert_twins_agree, assert_views_agree, seeded_db, twin_engines
from tests.test_delta_kernel import TWO_GUARDS, ring_stream

LIST = (
    "Q(Y, X, Z) = R(Y, X) * S(Y, Z)",
    [("R", ("Y", "X")), ("S", ("Y", "Z"))],
    False,
)
#: Two anchors of one relation, each over a private leaf.
SELF_JOIN = ("Q(Y, X, Z) = R(Y, X) * R(Y, Z)", [("R", ("Y", "X"))], False)
#: A payload plan: ``V_B`` is summed, the kernel's first loop is the
#: leaf write and its stages follow.
HIER = (
    "Q(A, C) = R(A, B) * S(B, C)",
    [("R", ("A", "B")), ("S", ("B", "C"))],
    True,
)
#: ``S`` and ``T`` anchor at a guarded node: their first guard reads the
#: leaf's keys; ``R``'s reads the buckets of ``V_C``'s index.
SHAPES = [LIST, SELF_JOIN, TWO_GUARDS, HIER]
SHAPE_IDS = ["list", "self-join", "leaf-guard", "hier"]
RINGS = [(Z, True), (R, True), (PROVENANCE, False), (MIN_PLUS, False)]
RING_IDS = ["int", "float", "provenance", "min-plus"]
#: Batch slices of a 240-update stream: small and large, one of one.
SLICES = ((0, 60), (60, 67), (67, 68), (68, 140), (140, 240))


def _twins(text, schemas, order, ring, rows=3):
    """``(generated, oracle)`` over a few seeded rows: the stream's
    deletes empty buckets (and ``G`` memberships) as often as its
    inserts create them."""
    query = parse_query(text)
    order = search_order(query, require_free_top=True) if order else None
    return twin_engines(query, schemas, 31, order=order, ring=ring, rows=rows)


def _relations(engine):
    """Every relation a batch writes, by role: leaves, guards, bases."""
    out = {}
    for root in engine.roots:
        for node in root.walk():
            if node.guard is not None:
                out[f"G_{node.variable}"] = node.guard
            for atom, leaf in node.leaves:
                out[f"leaf {atom}"] = leaf
    for rel in engine.database:
        out[f"base {rel.name}"] = rel
    return out


def _ordered(engine):
    """Payloads and index buckets of every written relation, in order."""
    return {
        role: (
            list(rel.data.items()),
            {gv: {gk: list(b) for gk, b in ix.groups.items()} for gv, ix in rel._indexes.items()},
        )
        for role, rel in _relations(engine).items()
    }


def _unordered(engine):
    """:func:`_ordered` up to insertion order, which a rollback need not
    restore."""
    return {
        role: (
            dict(rel.data),
            {gv: {gk: set(b) for gk, b in ix.groups.items()} for gv, ix in rel._indexes.items()},
        )
        for role, rel in _relations(engine).items()
    }


def _state_based(engine, batch):
    """A batch as a leaf ``add_delta`` then the state-based push: what a
    generated engine did before its kernel wrote its own leaf."""
    for name, (keys, pays) in coalesce_columnar(batch, engine.ring).items():
        write_base, write_leaves = engine._writes(name, True)
        if write_base:
            engine.database[name].add_delta(zip(keys, pays))
        for (_atom, _node, leaf), kernel in zip(engine._anchors[name], engine._kernels[name]):
            if write_leaves:
                leaf.add_delta(zip(keys, pays))
            kernel.push_written(keys, pays)


class TestFusedWrite:
    @pytest.mark.parametrize("ring,deletes", RINGS, ids=RING_IDS)
    @pytest.mark.parametrize("text,schemas,order", SHAPES, ids=SHAPE_IDS)
    def test_twins_and_naive(self, text, schemas, order, ring, deletes):
        twins = _twins(text, schemas, order, ring)
        query = twins[0].query
        miss = (99,) * len(twins[0].head)
        stream = ring_stream(ring, deletes, schemas, 240, 53)
        for start, stop in SLICES:
            for engine in twins:
                engine.apply_batch(stream[start:stop])
            assert_twins_agree(*twins, probes=[miss])
            naive = evaluate(query, twins[0].database)
            assert dict(twins[0].enumerate()) == naive.to_dict()

    @pytest.mark.parametrize("ring,deletes", RINGS, ids=RING_IDS)
    @pytest.mark.parametrize("text,schemas,order", SHAPES, ids=SHAPE_IDS)
    def test_same_state_order_and_writes_as_the_state_based_push(
        self, text, schemas, order, ring, deletes
    ):
        fused, _ = _twins(text, schemas, order, ring)
        parent, _ = _twins(text, schemas, order, ring)
        stream = ring_stream(ring, deletes, schemas, 240, 59)
        for start, stop in SLICES:
            batch = stream[start:stop]
            with counting() as mine:
                fused.apply_batch(batch)
            with counting() as theirs:
                _state_based(parent, batch)
            assert mine["write"] == theirs["write"]
            assert mine["lookup"] <= theirs["lookup"]
            assert _ordered(fused) == _ordered(parent)
            assert_views_agree(fused, parent)

    def test_inserts_into_existing_buckets_probe_nothing(self):
        query = parse_query(LIST[0])
        db = Database()
        db.create("R", ("Y", "X"))
        db.create("S", ("Y", "Z"))
        engine = ViewTreeEngine(query, db)
        engine.apply_batch(
            [Update("R", (y, 0), 1) for y in range(4)]
            + [Update("S", (y, 0), 1) for y in range(0, 8, 2)]
        )
        guard = next(n.guard for root in engine.roots for n in root.walk() if n.guard is not None)
        assert set(guard.data) == {(0,), (2,)}
        batch = [Update("R", (y, x), 1) for y in range(4) for x in range(1, 4)]
        batch += [Update("S", (y, z), 1) for y in range(0, 8, 2) for z in range(1, 3)]
        with counting() as ops:
            engine.apply_batch(batch)
        assert ops["lookup"] == 0
        assert ops["write"] == len(batch)
        # A new R(4) bucket probes S once and flips G_Y once.
        with counting() as ops:
            engine.apply_batch([Update("R", (4, 1), 1), Update("R", (5, 1), 1)])
        assert ops["lookup"] == 2
        assert ops["write"] == 2 + 1
        assert set(guard.data) == {(0,), (2,), (4,)}

    def test_bucket_emptied_and_created_in_one_batch_flips_nothing(self):
        query = parse_query(LIST[0])
        db = Database()
        db.create("R", ("Y", "X")).add((1, 1), 1)
        db.create("S", ("Y", "Z")).add((1, 1), 1)
        engine = ViewTreeEngine(query, db)
        guard = next(n.guard for root in engine.roots for n in root.walk() if n.guard is not None)
        before = list(guard.data)
        with counting() as ops:
            engine.apply_batch([Update("R", (1, 1), -1), Update("R", (1, 2), 1)])
        # The R(1) bucket vanished and came back: its re-test after the
        # loop finds G_Y(1) standing, and writes nothing.
        assert ops["write"] == 2
        assert list(guard.data) == before
        assert dict(engine.enumerate()) == {(1, 2, 1): 1}


class TestSnapshots:
    @pytest.mark.parametrize("text,schemas,order", [LIST, TWO_GUARDS], ids=["list", "leaf-guard"])
    def test_live_snapshot_reads_publish_state(self, text, schemas, order):
        engine, _ = _twins(text, schemas, order, Z)
        stream = ring_stream(Z, True, schemas, 240, 61)
        engine.apply_batch(stream[:120])
        snap = engine.publish_epoch()
        frozen = _ordered(engine)
        output = sorted(engine.enumerate())
        relations = _relations(engine)
        for start in range(120, 240, 30):
            engine.apply_batch(stream[start : start + 30])
        assert _ordered(engine) != frozen
        for role, rel in relations.items():
            data, buckets = frozen[role]
            view = snap.view(rel)
            keys = {key for key, _ in data} | set(rel.data)
            assert {key: view.get(key) for key in keys if key in view} == dict(data)
            for group_vars, groups in buckets.items():
                live = snap.view(rel, group_vars)
                names = set(groups) | set(rel._indexes[group_vars].groups)
                got = {gk: list(live.get(gk)) for gk in names if gk in live}
                # G_Y's root () bucket included, in publish order.
                assert got == groups, (role, group_vars)
        assert sorted(engine.enumerate_snapshot(snap=snap)) == output


class _Boom:
    """A key component whose hash raises once armed."""

    armed = False

    def __hash__(self):
        if _Boom.armed:
            raise RuntimeError("injected fault")
        return 7

    def __eq__(self, other):
        return self is other


class TestRollback:
    @pytest.mark.parametrize("where", ["after-first-loop", "inside-second-loop"])
    def test_fault_mid_batch_restores_leaf_buckets_and_guard(self, where, monkeypatch):
        text, schemas, order = LIST
        engine, oracle = _twins(text, schemas, order, Z)
        stream = ring_stream(Z, True, schemas, 240, 67)
        for twin in (engine, oracle):
            twin.apply_batch(stream[:150])
        engine.publish_epoch()
        before = _unordered(engine)
        columns = coalesce_columnar(stream[150:220], Z)
        assert set(columns) == {"R", "S"}
        second = list(columns)[1]
        kernel = engine._kernels[second][0]
        leaf = engine._anchors[second][0][2]
        leaf_before = dict(leaf.data)
        push = kernel.push_batch
        landed = []

        def push_batch(keys, pays, stats=None):
            # The first relation's fused loop has landed its writes.
            landed.append(_unordered(engine) != before)
            if where == "after-first-loop":
                raise RuntimeError("injected fault")
            try:
                return push(keys, pays, stats)
            finally:
                # ... and the second one's some of its own, then raised.
                landed.append(dict(leaf.data) != leaf_before)

        monkeypatch.setattr(kernel, "push_batch", push_batch)
        if where == "inside-second-loop":
            keys, pays = columns[second]
            middle = len(keys) // 2
            columns[second] = (
                keys[:middle] + [(0, _Boom())] + keys[middle:],
                pays[:middle] + [1] + pays[middle:],
            )
            monkeypatch.setattr(_Boom, "armed", True)
        with pytest.raises(RuntimeError, match="injected"):
            engine.apply_coalesced_batch(columns)
        monkeypatch.undo()
        assert landed == [True] * (1 if where == "after-first-loop" else 2)
        assert _unordered(engine) == before
        assert dict(engine.enumerate()) == dict(oracle.enumerate())
        # The next commit lands on the restored state.
        for twin in (engine, oracle):
            twin.apply_batch(stream[150:])
        assert_twins_agree(engine, oracle)


class TestCallers:
    @pytest.mark.parametrize("text,schemas,order", [LIST, TWO_GUARDS], ids=["list", "leaf-guard"])
    def test_process_shard_workers(self, text, schemas, order):
        query = parse_query(text)
        generic = ViewTreeEngine(
            query, seeded_db(schemas, random.Random(5), rows=25), generated=False
        )
        db = seeded_db(schemas, random.Random(5), rows=25)
        stream = ring_stream(Z, True, schemas, 160, 71)
        with ShardedEngine(query, db, shards=2, executor="process") as sharded:
            for start in range(0, 160, 40):
                batch = stream[start : start + 40]
                sharded.apply_batch(batch)
                generic.apply_batch(batch)
                assert dict(sharded.enumerate()) == dict(generic.enumerate())
                merged = sharded.merged_views()
                for node in (n for root in generic.roots for n in root.walk()):
                    if node.guard is not None:
                        assert merged[f"G_{node.variable}"].to_dict() == node.guard.to_dict()

    def test_update_base_false_pushes_the_written_leaf(self, monkeypatch):
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z")), ("T", ("Y",))]
        queries = [parse_query(LIST[0]), parse_query("P(Y, X) = R(Y, X) * T(Y)")]
        engine = MultiQueryEngine(queries, seeded_db(schemas, random.Random(7), rows=20))
        generics = {
            query.name: ViewTreeEngine(
                query, seeded_db(schemas, random.Random(7), rows=20), generated=False
            )
            for query in queries
        }
        trees = {tree.query.name: tree for trees in engine._trees.values() for tree in trees}
        calls = []
        for tree in trees.values():
            for kernels in tree._kernels.values():
                for kernel in kernels:
                    monkeypatch.setattr(kernel, "push_batch", None)
                    written = kernel.push_written

                    def spy(keys, pays, stats=None, _written=written):
                        calls.append(len(keys))
                        return _written(keys, pays, stats)

                    monkeypatch.setattr(kernel, "push_written", spy)
        stream = ring_stream(Z, True, schemas, 240, 73)
        for start in range(0, 240, 30):
            batch = stream[start : start + 30]
            engine.apply_batch(batch)
            for generic in generics.values():
                reads = {atom.relation for atom in generic.query.atoms}
                generic.apply_batch([u for u in batch if u.relation in reads])
            for name, generic in generics.items():
                assert dict(engine.enumerate(name)) == dict(generic.enumerate())
                assert_views_agree(trees[name], generic)
        assert calls


class TestStaleLeafIndex:
    def test_index_added_to_the_leaf_regenerates(self):
        text, schemas, order = LIST
        engine, oracle = _twins(text, schemas, order, Z)
        kernel = engine._kernels["R"][0]
        before = kernel.source
        leaf = engine._anchors["R"][0][2]
        late = leaf.index_on(("X",))
        stream = ring_stream(Z, True, schemas, 200, 79)
        for start in range(0, 200, 25):
            for twin in (engine, oracle):
                twin.apply_batch(stream[start : start + 25])
        assert kernel.source != before
        expected = {}
        for key in leaf.data:
            expected.setdefault((key[1],), []).append(key)
        assert {gk: list(b) for gk, b in late.groups.items()} == expected
        assert_twins_agree(engine, oracle)
