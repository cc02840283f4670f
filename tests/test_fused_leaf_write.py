"""Every kernel writes its own leaf.

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

``push`` writes its one key the same way, and every view write inline,
so once a relation is claimed an update with no snapshot and no
recorder is ``IVMEngine.apply`` → ``ViewTreeEngine.apply`` → ``push``.
Under test: single-tuple streams over every planned shape and three
rings agree with the oracle and ``repro.naive`` bit for bit, at the op
counts of the kernels that left the leaf to ``Relation.add``; the
self-join and the ``update_base=False`` callers agree; the dispatch
makes no other Python frame.
"""

from __future__ import annotations

import itertools
import random
import sys

import pytest

from repro import IVMEngine
from repro.cascade import MultiQueryEngine
from repro.constraints import parse_fds
from repro.data import Database, Update, counting
from repro.data.columnar import coalesce_columnar
from repro.naive import evaluate
from repro.query import parse_query, search_order
from repro.rings import MIN_PLUS, PROVENANCE, R, Z
from repro.shard import ShardedEngine
from repro.viewtree import ViewTreeEngine

from tests.conftest import assert_twins_agree, assert_views_agree, seeded_db, twin_engines
from tests.test_codegen import EVERY_SHAPE, EVERY_SHAPE_IDS, shape_engine, shape_stream
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


# ----------------------------------------------------------------------
# The single push
# ----------------------------------------------------------------------

#: Payloads whose sums and products stay exact in binary: a float result
#: does not depend on the order ``repro.naive`` adds in.
PAYLOADS = {Z: (1, 2, 3), R: (0.5, 1.25, 2.0), MIN_PLUS: (1.0, 2.5, 4.0)}
#: ``(ring, deletes)``: a ring twice, and a semiring under inserts only.
SINGLE_RINGS = [(Z, True), (R, True), (MIN_PLUS, False)]
SINGLE_RING_IDS = ["int", "float", "min-plus"]


def single_stream(query, fds, ring, deletes, seed, count=120):
    """Single-tuple updates over ``query``'s dynamic relations, keys
    keeping ``fds``: inserts (a live key inserted again changes its
    payload) and, with ``deletes``, retractions of one key's whole
    payload, then of every live key, so every group ends empty."""
    rng = random.Random(seed)
    live, stream = {}, []
    for insert in shape_stream(query, fds, True, rng, count):
        if deletes and live and rng.random() < 0.25:
            gone = rng.choice(list(live))
            stream.append(Update(*gone, ring.neg(live.pop(gone))))
        held, payload = (insert.relation, insert.key), rng.choice(PAYLOADS[ring])
        live[held] = ring.add(live[held], payload) if held in live else payload
        stream.append(Update(*held, payload))
    if deletes:
        stream += [Update(*held, ring.neg(total)) for held, total in live.items()]
    return stream


def _bits(payload):
    return payload.hex() if isinstance(payload, float) else payload


def _output(query, pairs_of):
    """``{request: {key: payload bits}}``: every access request's answers
    for a CQAP (``pairs_of(request)``), the whole output (request
    ``None``) otherwise."""
    inputs = query.input_variables
    requests = [
        dict(zip(inputs, values))
        for values in itertools.product(range(4), repeat=len(inputs))
    ] if inputs else [None]
    return {
        None if request is None else tuple(request.values()): {
            key: _bits(payload) for key, payload in pairs_of(request)
        }
        for request in requests
    }


def _naive(query, database):
    """:func:`_output` of ``repro.naive`` over ``database``."""
    full = evaluate(query, database).to_dict()
    head = query.head

    def answers(request):
        if request is None:
            return full.items()
        return [
            (tuple(k for v, k in zip(head, key) if v not in request), payload)
            for key, payload in full.items()
            if all(key[head.index(v)] == request[v] for v in request)
        ]

    return _output(query, answers)


def _engine_output(query, engine):
    return _output(query, lambda r: engine.enumerate() if r is None else engine.answer(r))


def _bases(engine):
    return {rel.name: {k: _bits(p) for k, p in rel.data.items()} for rel in engine.database}


#: The planner's ``ivm-eps-triangle`` rung counts in ``Z`` whatever the
#: database's ring, with or without generated kernels.
TRIANGLE_IN_Z = pytest.mark.xfail(
    strict=True, reason="TriangleCounter counts in Z under a min-plus database"
)
SHAPE_RINGS = [
    pytest.param(
        *shape, ring, deletes, id=f"{shape_id}-{ring_id}",
        marks=TRIANGLE_IN_Z if ring is MIN_PLUS and shape[0].startswith("Q() = R(A, B) * S(B, C) * T") else (),
    )
    for shape, shape_id in zip(EVERY_SHAPE, EVERY_SHAPE_IDS)
    for (ring, deletes), ring_id in zip(SINGLE_RINGS, SINGLE_RING_IDS)
]


class TestSinglePush:
    @pytest.mark.parametrize("text,fd_texts,insert_only,ring,deletes", SHAPE_RINGS)
    def test_every_shape_agrees_with_the_oracle_and_naive(
        self, text, fd_texts, insert_only, ring, deletes
    ):
        query, fds = parse_query(text), parse_fds(*fd_texts)
        engines = [
            shape_engine(query, fds, insert_only, generated, ring) for generated in (True, False)
        ]
        stream = single_stream(query, fds, ring, deletes and not insert_only, 43)
        third = len(stream) // 3
        for chunk in (stream[:third], stream[third : 2 * third], stream[2 * third :]):
            for engine in engines:
                for update in chunk:
                    engine.apply(update)
            outputs = [_engine_output(query, engine) for engine in engines]
            assert outputs[0] == outputs[1] == _naive(query, engines[0].database)
            assert _bases(engines[0]) == _bases(engines[1])
        if deletes and not insert_only:
            assert not any(rel.data for rel in engines[0].database if rel.name in {
                atom.relation for atom in query.dynamic_atoms
            })

    @pytest.mark.parametrize("ring,deletes", SINGLE_RINGS, ids=SINGLE_RING_IDS)
    def test_self_join_writes_each_anchor_leaf_once(self, ring, deletes):
        text, schemas, order = SELF_JOIN
        twins = _twins(text, schemas, order, ring)
        assert len(twins[0]._anchors["R"]) == 2
        query = twins[0].query
        for start, stop in SLICES:
            for update in ring_stream(ring, deletes, schemas, 240, 89)[start:stop]:
                for engine in twins:
                    engine.apply(update)
            assert_twins_agree(*twins)
            assert dict(twins[0].enumerate()) == evaluate(query, twins[0].database).to_dict()
            base = twins[0].database["R"].data
            for _atom, _node, leaf in twins[0]._anchors["R"]:
                assert leaf is not twins[0].database["R"] and leaf.data == base

    def test_op_counts_stay_those_of_the_leaf_add(self):
        """Writes, lookups and enums over :meth:`test_every_shape_...`'s
        integer streams, as counted when the engine wrote the leaf
        through ``Relation.add`` before each push."""
        counts = {}
        for (text, fd_texts, insert_only), name in zip(EVERY_SHAPE, EVERY_SHAPE_IDS):
            query, fds = parse_query(text), parse_fds(*fd_texts)
            engine = shape_engine(query, fds, insert_only)
            stream = single_stream(query, fds, Z, not insert_only, 43)
            with counting() as ops:
                for update in stream:
                    engine.apply(update)
            counts[name] = (ops["write"], ops["lookup"], ops["enum"])
        assert counts == LEAF_ADD_COUNTS


#: :meth:`TestSinglePush.test_op_counts_stay_those_of_the_leaf_add`'s
#: ``(write, lookup, enum)`` per shape.
LEAF_ADD_COUNTS = {
    'Q(A) = R(A)': (148, 0, 0),
    'Q(B) = T(B)': (148, 0, 0),
    'Q(A, B) = R(A) * S(B)': (152, 0, 0),
    'Q(A, B, C) = R(A, C) * S(B)': (177, 95, 0),
    'Q(B, C) = R(B, A) * S(B) * T(C)': (238, 208, 0),
    'Qab(A | B) = S(A, B) * T(B)': (344, 95, 0),
    'Q(Y, X, Z) = R(Y, X) * S(Y, Z)': (178, 336, 0),
    'Q(A, C) = R(A, B) * S(B, C)': (558, 168, 380),
    'Q(A) = R(A, B) * S(B)': (389, 165, 153),
    'Q(A) = R(A, B) * S(B, C) * T(C, D)': (1792, 5930, 2748),
    'Q(A, B) = R(A, B) * S(B, C) * T(B)': (271, 525, 0),
    'Q(A, C, D) = R(A, B) * S(B, C) * T(B, D)': (1442, 328, 1137),
    'Q() = R(A, B) * S(B, C) * T(C, A)': (496, 1412, 435),
    'Q(A, B, C) = R(A, B) * S(B, C) * T(C, A)': (984, 3742, 1585),
    'Q(A, C) = E(A, B) * E(B, C)': (1414, 318, 927),
    'Q(A, B, C) = E(A, B) * E(B, C)': (489, 636, 0),
    'Q(A, B) = R(A, B)': (169, 159, 0),
    'Q(A) = R(A, B)': (318, 0, 0),
    'Q() = R(A, B) * S(B)': (392, 165, 0),
    'Q(Z, Y, X, W) = R(X, W) * S(X, Y) * T(Y, Z) fd X -> Y fd Y -> Z': (443, 398, 98),
    'Q(A, C) = R(A, B) * S(B, C) fd A -> B': (178, 316, 0),
    'Q(A, C) = R(A, B) * S(B, C) * T(C, D) insert-only': (1765, 8087, 3950),
    'Q(A, B) = R(A, B) * S@s(B)': (169, 318, 0),
    'Q(A, C) = R(A, B) * S@s(B, C)': (520, 159, 351),
    'Q(B, A) = R(B, A) * S(B)': (191, 330, 0),
}


class TestUnwrittenBase:
    """``update_base=False``: the caller wrote the base, and a kernel
    whose leaf is that base pushes without writing it again."""

    def test_shard_workers_apply_single_tuples(self):
        text, schemas, _ = LIST
        query = parse_query(text)
        generic = ViewTreeEngine(
            query, seeded_db(schemas, random.Random(5), rows=25), generated=False
        )
        stream = ring_stream(Z, True, schemas, 200, 83)
        with ShardedEngine(query, seeded_db(schemas, random.Random(5), rows=25), shards=2) as sharded:
            for start in range(0, 200, 40):
                for update in stream[start : start + 40]:
                    sharded.apply(update)
                    generic.apply(update)
                output = dict(generic.enumerate())
                assert dict(sharded.enumerate()) == output
                assert output == evaluate(query, generic.database).to_dict()
                merged = sharded.merged_views()
                for node in (n for root in generic.roots for n in root.walk()):
                    if node.guard is not None:
                        assert merged[f"G_{node.variable}"].to_dict() == node.guard.to_dict()

    def test_a_cascade_rider_pushes_its_written_host_view(self, monkeypatch):
        schemas = [(name, ("X", "Y")) for name in "RST"]
        queries = [
            parse_query("Q1(A,B,C,D) = R(A,B) * S(B,C) * T(C,D)"),
            parse_query("Q2(A,B,C) = R(A,B) * S(B,C)"),
        ]
        engine = MultiQueryEngine(queries, seeded_db(schemas, random.Random(9), rows=15))
        assert engine.assignments["Q1"].mode == "cascade-rider"
        oracles = {
            query.name: ViewTreeEngine(
                query, seeded_db(schemas, random.Random(9), rows=15), generated=False
            )
            for query in queries
        }
        pushed = []
        for rider in engine._hosts["Q2"].riders:
            for kernel in rider._kernels["Q2"]:
                written = kernel.push_written_one

                def spy(key, payload, stats=None, _written=written):
                    pushed.append(key)
                    return _written(key, payload, stats)

                monkeypatch.setattr(kernel, "push_written_one", spy)
                monkeypatch.setattr(kernel, "push_written", None)
        stream = ring_stream(Z, True, schemas, 240, 97)
        for start in range(0, 240, 40):
            for update in stream[start : start + 40]:
                engine.apply(update)
                for oracle in oracles.values():
                    if update.relation in {atom.relation for atom in oracle.query.atoms}:
                        oracle.apply(update)
            for query in queries:
                output = dict(engine.enumerate(query.name))
                assert output == dict(oracles[query.name].enumerate())
                assert output == evaluate(query, engine.database).to_dict()
        assert pushed


def _called_code(call) -> list:
    """The code objects of the Python frames ``call()`` enters, in order."""
    codes = []

    def profile(frame, event, arg):
        if event == "call":
            codes.append(frame.f_code)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return codes[1:]  # the first is ``call`` itself


class TestDispatch:
    """After a relation's first write, on a generated engine with no
    snapshot and no recorder, an update enters ``IVMEngine.apply``,
    ``ViewTreeEngine.apply`` and the generated ``push``, and no other
    Python frame; a snapshot or a recorder keeps the checked path."""

    @pytest.mark.parametrize("text", [HIER[0], LIST[0]], ids=["hier", "list"])
    def test_three_frames(self, text):
        query = parse_query(text)
        db = Database()
        for atom in query.atoms:
            db.create(atom.relation, atom.variables)
        engine = IVMEngine(query, db)
        # Claims, then buckets created, joined, flipped and emptied.
        updates = [Update("R", (1, 2), 1), Update("S", (2, 3), 1)]
        updates += [Update("R", (4, 2), 1), Update("S", (2, 5), 2), Update("R", (4, 2), -1)]
        updates += [Update("S", (2, 5), -2), Update("R", (1, 2), -1), Update("S", (2, 3), -1)]
        engine.apply(Update("R", (0, 0), 1))
        engine.apply(Update("S", (0, 0), 1))
        expected = [
            IVMEngine.apply.__code__,
            ViewTreeEngine.apply.__code__,
        ]
        for update in updates:
            push = engine.backend._kernels[update.relation][0].push
            codes = _called_code(lambda: engine.apply(update))  # noqa: B023
            assert codes == expected + [push.__code__], [c.co_name for c in codes]
        assert dict(engine.enumerate()) == {(0, 0) if len(query.head) == 2 else (0, 0, 0): 1}

    @pytest.mark.parametrize("attach", ["snapshot", "recorder"])
    def test_a_snapshot_or_a_recorder_takes_the_checked_path(self, attach):
        query = parse_query(HIER[0])
        db = Database()
        for atom in query.atoms:
            db.create(atom.relation, atom.variables)
        engine = IVMEngine(query, db)
        engine.apply(Update("R", (1, 2), 1))
        if attach == "snapshot":
            engine.publish_epoch()
        else:
            engine.attach_stats()
        names = [c.co_name for c in _called_code(lambda: engine.apply(Update("R", (3, 2), 1)))]
        assert {"_apply", "_atomically", "_apply_one", "push"} <= set(names)
        assert "add" not in names  # the kernel writes the leaf
