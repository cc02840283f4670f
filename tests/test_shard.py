"""Sharded parallel view-tree maintenance: router, splitter, engine."""

import multiprocessing
import pickle
import random
from unittest import mock

import pytest

from repro.data import Database, Update
from repro.data.columnar import coalesce_columnar
from repro.data.relation import SharedBaseError
from repro.naive import evaluate, evaluate_scalar
from repro.query import parse_query
from repro.query.variable_order import search_order
from repro.rings import B, MIN_PLUS, PROVENANCE, R, Z, CovarianceRing, LiftingMap, moment_lifting
from repro.shard import (
    ShardLeafFilter,
    ShardRouter,
    ShardedEngine,
    choose_shard_variable,
    stable_hash,
)
from repro.viewtree import ViewTreeEngine
from repro.viewtree import engine as engine_module
from repro.viewtree.engine import StaticRelationUpdateError
from tests.conftest import assert_failed_to_oracle, valid_stream

QUERY = parse_query("Q(B, A) = R(B, A) * S(B)")


def fresh_db(rng=None, rows=0, domain=8):
    db = Database()
    db.create("R", ("B", "A"))
    db.create("S", ("B",))
    if rng is not None:
        for _ in range(rows):
            db["R"].insert(rng.randrange(domain), rng.randrange(domain))
            db["S"].insert(rng.randrange(domain))
    return db


class TestStableHash:
    #: One value per hashing path: int mix, str crc32, repr + blake2b.
    VALUES = [12345, -7, 2 ** 70, "hot-key", "sn\u00f6", 2.5, (1, "x"), None, True]

    def test_deterministic_across_calls(self):
        assert stable_hash((1, "x")) == stable_hash((1, "x"))
        assert stable_hash("a") != stable_hash("b")
        assert stable_hash(1) != stable_hash(2)

    def test_matches_subprocess(self):
        # The whole point: routing must agree across processes, which
        # Python's seeded hash() does not guarantee.
        import subprocess
        import sys

        script = (
            "import sys; sys.path.insert(0, 'src'); "
            "from repro.shard import stable_hash; "
            f"print([stable_hash(value) for value in {self.VALUES!r}])"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=__file__.rsplit("/tests/", 1)[0],
            env={"PYTHONHASHSEED": "12345"},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == str(
            [stable_hash(value) for value in self.VALUES]
        )

    def test_equal_values_of_other_types_hash_on_their_own(self):
        # 1 == 1.0 == True is one dict key, so a memo keyed by value
        # would answer all three with whichever came first — and a fresh
        # worker's leaf filter, asked in another order, would disagree.
        # The fast paths are stateless and exact-type: every order of
        # asking gives each value its own, repeatable hash.
        values = [1, 1.0, True]
        forward = [stable_hash(value) for value in values]
        backward = [stable_hash(value) for value in reversed(values)][::-1]
        assert forward == backward
        assert len(set(forward)) == 3
        router = ShardRouter(QUERY, "B", 64)
        for value in values:
            owner = router.shard_of_key("S", (value,))
            assert all(
                ShardLeafFilter(router, shard)("S", (value,)) == (shard == owner)
                for shard in range(64)
            )

    def test_small_shard_counts_are_balanced(self):
        # The int mix keeps the product's high half: reduced modulo a
        # small shard count, consecutive keys must not all land together.
        for shards in (2, 3, 4, 8):
            owners = [stable_hash(value) % shards for value in range(4000)]
            smallest = min(owners.count(shard) for shard in range(shards))
            assert smallest > 0.8 * 4000 / shards


class TestChooseShardVariable:
    def test_most_covering_wins(self):
        assert choose_shard_variable(QUERY) == "B"

    def test_tie_breaks_lexicographically(self):
        query = parse_query("Q(A, B) = R(A) * S(B)")
        assert choose_shard_variable(query) == "A"

    def test_no_variables_rejected(self):
        query = parse_query("Q() = R()")
        with pytest.raises(ValueError):
            choose_shard_variable(query)


class TestShardRouter:
    def test_positions_and_partitioning(self):
        router = ShardRouter(QUERY, "B", 4)
        assert router.positions == {"R": 0, "S": 0}
        assert router.is_partitioned("R") and router.is_partitioned("S")
        assert set(router.partitioned_relations()) == {"R", "S"}

    def test_relation_without_variable_broadcasts(self):
        query = parse_query("Q(A) = R(A, B) * T(C)")
        router = ShardRouter(query, "B", 2)
        assert router.positions == {"R": 1, "T": None}
        assert router.shard_of(Update("T", (7,), 1)) is None

    def test_inconsistent_self_join_broadcasts(self):
        query = parse_query("Q() = R(A, B) * R(B, C)")
        router = ShardRouter(query, "B", 2)
        assert router.positions == {"R": None}

    def test_consistent_self_join_partitions(self):
        query = parse_query("Q() = R(B, A) * R(B, C)")
        router = ShardRouter(query, "B", 2)
        assert router.positions == {"R": 0}

    def test_routing_is_stable_and_in_range(self):
        router = ShardRouter(QUERY, "B", 3)
        for value in range(50):
            owner = router.shard_of(Update("R", (value, 0), 1))
            assert owner == router.shard_of_key("S", (value,))
            assert 0 <= owner < 3

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            ShardRouter(QUERY, "Z", 2)
        with pytest.raises(ValueError):
            ShardRouter(QUERY, "B", 0)

    def test_leaf_filter_selects_one_slice(self):
        router = ShardRouter(QUERY, "B", 2)
        filters = [ShardLeafFilter(router, i) for i in range(2)]
        for value in range(20):
            kept = [f("R", (value, 0)) for f in filters]
            assert kept.count(True) == 1  # exactly one owner


class TestSplitBatch:
    """``ShardRouter.split`` over coalesced columns ≡ per-update ``shard_of``."""

    QUERY = parse_query("Q(B, C) = R(B, A) * S(B) * T(C)")

    def test_partitions_and_broadcasts(self):
        router = ShardRouter(self.QUERY, "B", 3)
        batch = valid_stream(random.Random(2), {"R": 2, "S": 1, "T": 1}, 200)
        columns = coalesce_columnar(batch, Z)
        parts = router.split(columns)
        assert len(parts) == 3
        for index, part in enumerate(parts):
            for relation in ("R", "S"):
                keys, payloads = part.columns.get(relation, ([], []))
                # exactly the tuples shard_of assigns here, in batch order
                expected = [
                    (key, payload)
                    for key, payload in zip(*columns[relation])
                    if router.shard_of(Update(relation, key, payload)) == index
                ]
                assert list(zip(keys, payloads)) == expected
            # the broadcast relation reaches every shard: the same lists
            assert part.columns["T"][0] is columns["T"][0]
            assert part.columns["T"][1] is columns["T"][1]
            assert len(part) == sum(len(keys) for keys, _ in part.columns.values())
        for relation in ("R", "S"):
            assert sum(
                len(part.columns.get(relation, ([], []))[0]) for part in parts
            ) == len(columns[relation][0])

    def test_preserves_order_within_shard(self):
        router = ShardRouter(QUERY, "B", 2)
        owner = router.shard_of_key("R", (0, 0))
        columns = {"R": ([(0, i) for i in range(5)], [1, 2, 3, 4, 5])}
        parts = router.split(columns)
        assert parts[owner].columns == columns
        # a shard owning nothing gets an empty slice, not a missing one
        assert parts[1 - owner].columns == {} and len(parts[1 - owner]) == 0
        assert [len(part) for part in router.split({})] == [0, 0]

    def test_single_shard_takes_everything(self):
        router = ShardRouter(QUERY, "B", 1)
        columns = coalesce_columnar(
            valid_stream(random.Random(4), {"R": 2, "S": 1}, 40), Z
        )
        (only,) = router.split(columns)
        assert only.columns == columns


#: The ring matrix: (ring, whether its stream may carry deletes).
RINGS = [(Z, True), (R, True), (B, False), (MIN_PLUS, False), (PROVENANCE, False)]
RING_IDS = ["int", "float", "boolean", "min-plus", "provenance"]
STAR_QUERY = parse_query("Q(A, B) = R(A, B) * S(B, C) * T(B)")
STAR_ARITIES = {"R": 2, "S": 2, "T": 1}


def star_db(ring):
    db = Database(ring=ring)
    for name, schema in (("R", "AB"), ("S", "BC"), ("T", "B")):
        db.create(name, tuple(schema))
    return db


def star_stream(ring, deletes, count=160):
    """A valid stream over ``STAR_QUERY`` with ``ring``'s unit payloads."""
    stream = []
    for update in valid_stream(
        random.Random(31), STAR_ARITIES, count, domain=6,
        delete_prob=0.3 if deletes else 0.0,
    ):
        payload = ring.one if update.payload > 0 else ring.neg(ring.one)
        stream.append(Update(update.relation, update.key, payload))
    return stream


class TestCoalescedBatchEntryPoint:
    """``apply_coalesced_batch(coalesce(batch))`` ≡ ``apply_batch(batch)``."""

    def engine(self, ring, drop=None, **kwargs):
        if drop is None:
            return ViewTreeEngine(STAR_QUERY, star_db(ring), **kwargs)
        # A reported generation failure: the engine is the oracle, built
        # through derive-then-restore, so every view is written again.
        compile_kernel = engine_module.compile_delta_kernel

        def compile_or_fail(plan, info=None):
            if plan.relation_name == drop:
                raise RuntimeError("injected")
            return compile_kernel(plan, info)

        with mock.patch.object(engine_module, "compile_delta_kernel", compile_or_fail):
            with pytest.warns(RuntimeWarning, match="injected"):
                engine = ViewTreeEngine(STAR_QUERY, star_db(ring), **kwargs)
        assert_failed_to_oracle(engine)
        return engine

    @pytest.mark.parametrize("ring,deletes", RINGS, ids=RING_IDS)
    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"drop": "S"}, {"generated": False}],
        ids=["generated", "interpreted", "generic"],
    )
    @pytest.mark.parametrize("threshold", [None, 1000])
    def test_matches_apply_batch(self, ring, deletes, kwargs, threshold):
        """On the batch kernels (the default threshold) and per tuple
        (every slice below a threshold of 1000)."""
        stream = star_stream(ring, deletes)
        whole = self.engine(ring, **kwargs)
        columnar = self.engine(ring, **kwargs)
        if threshold is not None:
            whole.batch_compile_threshold = threshold
            columnar.batch_compile_threshold = threshold
        s_whole, s_columnar = whole.attach_stats(), columnar.attach_stats()
        for start, stop in ((0, 100), (100, 130), (130, 160), (160, 160)):
            batch = stream[start:stop]
            whole.apply_batch(batch)
            columnar.apply_coalesced_batch(
                coalesce_columnar(batch, ring), raw=len(batch)
            )
        assert list(columnar.enumerate()) == list(whole.enumerate())
        assert columnar.database["R"] == whole.database["R"]
        for root, twin in zip(columnar.roots, whole.roots):
            for node, other in zip(root.walk(), twin.walk()):
                assert node.view == other.view
        # observed as a batch, with the same coalescing accounting
        assert s_columnar.batches == s_whole.batches == 4
        assert s_columnar.updates == s_whole.updates == 0
        assert s_columnar.batch_updates_raw == s_whole.batch_updates_raw
        assert (
            s_columnar.batch_updates_coalesced == s_whole.batch_updates_coalesced
        )

    def test_update_base_false_leaves_the_database_alone(self):
        # As a shard engine is built: a leaf filter keeps every leaf a
        # private copy, so a multi-relation batch may skip the base.
        engine = self.engine(Z, leaf_filter=lambda name, key: True)
        engine.apply_coalesced_batch(
            coalesce_columnar(star_stream(Z, True), Z), update_base=False
        )
        assert all(len(engine.database[name]) == 0 for name in STAR_ARITIES)
        assert engine.total_view_size() > 0


class TestShardedEngine:
    def run_stream(self, engine, db, rng, n=120):
        arities = {"R": 2, "S": 1}
        for update in valid_stream(rng, arities, n, domain=8):
            db_rel = db[update.relation]
            engine.apply(update)
            assert db_rel.get(update.key) is not None or True
        return engine

    def test_serial_matches_plain(self):
        rng = random.Random(3)
        db = fresh_db(rng, rows=30)
        plain = ViewTreeEngine(QUERY, fresh_db(random.Random(3), rows=30))
        with ShardedEngine(QUERY, db, shards=3, executor="serial") as engine:
            for update in valid_stream(random.Random(7), {"R": 2, "S": 1}, 80):
                engine.apply(update)
                plain.apply(update)
            assert dict(engine.enumerate()) == dict(plain.enumerate())
            assert engine.output_relation() == evaluate(QUERY, db)

    def test_process_executor_batches(self):
        db = fresh_db(random.Random(13), rows=10)
        batch = valid_stream(random.Random(5), {"R": 2, "S": 1}, 60)
        with ShardedEngine(QUERY, db, shards=2, executor="process") as engine:
            engine.apply_batch(batch[:30])
            # interleave a single update between batches: both hosts
            # of a shard must keep accepting inline updates
            engine.apply(Update("R", (1, 1), 1))
            engine.apply_batch(batch[30:])
            engine.apply(Update("R", (1, 1), -1))
            assert engine.output_relation() == evaluate(QUERY, db)

    def test_engines_are_picklable(self):
        db = fresh_db(random.Random(1), rows=15)
        with ShardedEngine(QUERY, db, shards=2, executor="serial") as engine:
            for shard in engine.engines:
                clone = pickle.loads(pickle.dumps(shard))
                assert clone.output_relation() == shard.output_relation()

    def test_boolean_query_scalar(self):
        query = parse_query("Q() = R(B, A) * S(B)")
        db = fresh_db(random.Random(2), rows=25)
        with ShardedEngine(query, db, shards=3, executor="serial") as engine:
            assert engine.scalar() == evaluate_scalar(query, db)
            engine.apply(Update("S", (0,), 2))
            assert engine.scalar() == evaluate_scalar(query, db)
            assert dict(engine.enumerate()).get((), 0) == engine.scalar()

    def test_lookup(self):
        db = fresh_db()
        with ShardedEngine(QUERY, db, shards=2, executor="serial") as engine:
            engine.apply(Update("R", (1, 2), 3))
            engine.apply(Update("S", (1,), 5))
            assert engine.lookup((1, 2)) == 15
            assert engine.lookup((1, 9)) == 0
            with pytest.raises(ValueError):
                engine.lookup((1,))

    def test_merged_views_match_plain_engine(self):
        rng = random.Random(17)
        db = fresh_db(rng, rows=40)
        plain = ViewTreeEngine(QUERY, db.copy())
        with ShardedEngine(QUERY, db, shards=3, executor="serial") as engine:
            merged = engine.merged_views()
            for root in plain.roots:
                for node in root.walk():
                    assert merged[f"V_{node.variable}"] == node.view

    def test_broadcast_only_component(self):
        # T carries no B: its whole subtree replicates across shards and
        # must be merged by taking one copy, not summed N times.
        query = parse_query("Q(B, C) = R(B, A) * S(B) * T(C)")
        db = fresh_db(random.Random(4), rows=15)
        db.create("T", ("C",))
        for value in range(4):
            db["T"].insert(value)
        with ShardedEngine(
            query, db, shards=3, shard_variable="B", executor="serial"
        ) as engine:
            assert engine.output_relation() == evaluate(query, db)
            engine.apply(Update("T", (9,), 2))
            assert engine.output_relation() == evaluate(query, db)

    def test_merged_stats_labels(self):
        db = fresh_db(random.Random(6), rows=10)
        with ShardedEngine(QUERY, db, shards=2, executor="serial") as engine:
            engine.attach_stats()
            engine.apply_batch(valid_stream(random.Random(8), {"R": 2, "S": 1}, 40))
            list(engine.enumerate())
            stats = engine.merged_stats()
        assert set(stats.shard_summaries) == {"shard0", "shard1"}
        payload = stats.to_dict()
        assert set(payload["shards"]) == {"shard0", "shard1"}
        assert any(view.startswith("shard") for view in payload["delta_sizes"])
        # the coordinator counts each logical batch exactly once
        assert stats.batches == 1

    def test_invalid_configuration_rejected(self):
        db = fresh_db()
        with pytest.raises(ValueError):
            ShardedEngine(QUERY, db, shards=0)
        with pytest.raises(ValueError):
            ShardedEngine(QUERY, db, shards=2, executor="fibers")
        with pytest.raises(ValueError):
            ShardedEngine(QUERY, db, shards=2, shard_variable="Z")

    def test_describe_mentions_routing(self):
        db = fresh_db()
        with ShardedEngine(QUERY, db, shards=2, executor="serial") as engine:
            text = engine.describe()
        assert "shard" in text and "B" in text

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize(
        "text,disjoint",
        [
            # B is a head variable and partitions R and S: no output key
            # occurs on two shards, the merge is a plain union.
            ("Q(B, A) = R(B, A) * S(B)", True),
            # B is summed away (under a searched free-top order): every
            # shard may hold a share of Q(a), the merge ring-folds them
            # in shard order.
            ("Q(A) = R(B, A) * S(B)", False),
        ],
    )
    def test_merged_output_unions_or_folds_by_query(
        self, text, disjoint, executor
    ):
        query = parse_query(text)
        stream = valid_stream(random.Random(19), {"R": 2, "S": 1}, 200, domain=6)
        order = search_order(query, require_free_top=True)
        plain = ViewTreeEngine(query, fresh_db(random.Random(23), rows=30), order)
        db = fresh_db(random.Random(23), rows=30)
        with ShardedEngine(
            query, db, shards=3, shard_variable="B", order=order,
            executor=executor,
        ) as engine:
            assert engine._disjoint_outputs is disjoint
            for at in range(0, len(stream), 50):
                engine.apply_batch(stream[at:at + 50])
                plain.apply_batch(stream[at:at + 50])
            expected = evaluate(query, db)
            assert len(expected) > 0
            assert plain.output_relation() == expected
            assert engine.output_relation() == expected
            assert dict(engine.enumerate()) == expected.data
            assert len(list(engine.enumerate())) == len(expected)
            assert dict(engine.enumerate_snapshot()) == expected.data
            some = next(iter(expected.data))
            assert dict(
                engine.enumerate(dict(zip(query.head, some)))
            ) == {some: expected.data[some]}


class TestExecutorMatrix:
    """process ≡ serial ≡ unsharded ≡ ``repro.naive``: every ring, shard
    count and write path, on one stream."""

    WRITE_PATHS = ("apply", "apply_batch")

    def feed(self, engine, stream, path):
        if path == "apply":
            for update in stream:
                engine.apply(update)
            return
        for start, stop in ((0, 80), (80, 100), (100, 120)):
            engine.apply_batch(stream[start:stop])

    @pytest.mark.parametrize("ring,deletes", RINGS, ids=RING_IDS)
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_write_paths_match_the_oracles(self, ring, deletes, shards):
        stream = star_stream(ring, deletes, count=120)
        children = len(multiprocessing.active_children())
        for path in self.WRITE_PATHS:
            plain = ViewTreeEngine(STAR_QUERY, star_db(ring))
            sharded = {
                executor: ShardedEngine(
                    STAR_QUERY, star_db(ring), shards=shards, executor=executor
                )
                for executor in ("serial", "process")
            }
            try:
                self.feed(plain, stream, path)
                expected = evaluate(STAR_QUERY, plain.database)
                assert plain.output_relation() == expected, path
                for executor, engine in sharded.items():
                    self.feed(engine, stream, path)
                    assert engine.output_relation() == expected, (path, executor)
                    assert dict(engine.enumerate()) == expected.data
                    for key in list(expected.data)[:4]:
                        assert engine.lookup(key) == expected.data[key]
                    assert engine.database["R"] == plain.database["R"]
                    assert engine.merged_views()["V_B"] == plain.roots[0].view
                assert (
                    len(multiprocessing.active_children())
                    == children + shards - 1
                )
            finally:
                for engine in sharded.values():
                    engine.close()


class TestCovarianceShards:
    def test_streaming_regression_join_on_process_shards(self):
        """``examples/streaming_regression.py``'s join over the covariance
        ring: its ``moment_lifting`` pickles, so a 2-shard ``process``
        engine maintains it and matches ``repro.naive``."""
        ring = CovarianceRing()
        query = parse_query("Q() = Sales(store, day, p) * Footfall(store, day, v)")
        lifting = LiftingMap(ring, {"p": moment_lifting("p"), "v": moment_lifting("v")})
        db = Database(ring=ring)
        db.create("Sales", ("store", "day", "p"))
        db.create("Footfall", ("store", "day", "v"))
        rng = random.Random(0)
        stream = []
        for day in range(80):
            store = rng.randrange(6)
            stream.append(Update("Footfall", (store, day, rng.randrange(10, 100)), ring.one))
            stream.append(Update("Sales", (store, day, rng.randrange(10, 300)), ring.one))
        stream += [Update(u.relation, u.key, ring.neg(ring.one)) for u in stream[:30]]
        with ShardedEngine(query, db, shards=2, executor="process", lifting=lifting) as engine:
            for start in range(0, len(stream), 40):
                engine.apply_batch(stream[start : start + 40])
            got = engine.scalar()
        want = evaluate_scalar(query, db, lifting)
        assert got.count == want.count == 65
        for var in ("p", "v"):
            assert got.sum_of(var) == pytest.approx(want.sum_of(var))
            assert got.quad_of(var, var) == pytest.approx(want.quad_of(var, var))
        assert got.quad_of("p", "v") == pytest.approx(want.quad_of("p", "v"))


EXECUTORS = ["serial", "process"]
STATIC_QUERY = parse_query("Q(Y, X, Z) = R(Y, X) * S@s(Y, Z)")


def static_db():
    db = Database()
    db.create("R", ("Y", "X"))
    db.create("S", ("Y", "Z"))
    db.create("T", ("Y",))  # in the database, not in the query
    db["S"].insert(1, 4)
    return db


def base_state(db):
    return {rel.name: dict(rel.data) for rel in db}


class TestRejectedWrites:
    """The coordinator rejects what a view tree rejects and claims the
    bases it writes, before any write, on either executor."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize(
        "relation,error",
        [("S", StaticRelationUpdateError), ("T", KeyError)],
        ids=["static", "outside-the-query"],
    )
    def test_rejected_update_writes_nothing(self, executor, relation, error):
        db = static_db()
        before = base_state(db)
        key = (1, 3) if relation == "S" else (1,)
        with ShardedEngine(STATIC_QUERY, db, shards=2, executor=executor) as engine:
            with pytest.raises(error):
                engine.apply(Update(relation, key, 1))
            with pytest.raises(error):
                engine.apply_batch([Update(relation, key, 1), Update("R", (1, 2), 1)])
            assert base_state(db) == before
            engine.apply_batch([Update("R", (1, 2), 1)])
            assert dict(engine.enumerate()) == {(1, 2, 4): 1}
            assert engine.output_relation() == evaluate(STATIC_QUERY, db)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_claims_the_bases_it_writes(self, executor):
        db = fresh_db(random.Random(3), rows=10)
        tree = ViewTreeEngine(QUERY, db)
        assert tree._aliased == {"R", "S"}
        tree.apply_batch([Update("R", (0, 0), 1), Update("S", (0,), 1)])
        before = base_state(db)
        with ShardedEngine(QUERY, db, shards=2, executor=executor) as engine:
            with pytest.raises(SharedBaseError):
                engine.apply(Update("R", (1, 2), 1))
            with pytest.raises(SharedBaseError):
                engine.apply_batch([Update("S", (1,), 1)])
            assert base_state(db) == before
            del tree  # the claim lapses with its engine
            engine.apply_batch([Update("R", (1, 2), 1), Update("S", (1,), 1)])
            with pytest.raises(SharedBaseError):
                ViewTreeEngine(QUERY, db).apply(Update("R", (1, 2), 1))
            assert engine.output_relation() == evaluate(QUERY, db)

    def test_a_restored_engine_claims_again(self):
        db = fresh_db(random.Random(4), rows=10)
        with ShardedEngine(QUERY, db, shards=2) as engine:
            engine.apply(Update("R", (1, 2), 1))
            clone = pickle.loads(pickle.dumps(engine))
        try:
            clone.apply(Update("R", (2, 3), 1))
            with pytest.raises(SharedBaseError):
                ViewTreeEngine(QUERY, clone.database).apply(Update("R", (1, 2), 1))
            assert clone.output_relation() == evaluate(QUERY, clone.database)
        finally:
            clone.close()


LIST_QUERY = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")


class TestClose:
    """``close()`` releases every shard: the worker processes, the
    coordinator-hosted shard engines and the writer claims.  Later calls
    raise instead of rebuilding, and ``merged_stats()`` keeps answering
    from what ``close()`` pulled."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_close_releases_every_shard(self, executor):
        db = Database()
        db.create("R", ("Y", "X"))
        db.create("S", ("Y", "Z"))
        stream = valid_stream(random.Random(4), {"R": 2, "S": 2}, 120, domain=6)
        children = len(multiprocessing.active_children())
        engine = ShardedEngine(LIST_QUERY, db, shards=2, executor=executor)
        engine.attach_stats()
        engine.apply_batch(stream[:100])
        for update in stream[100:]:
            engine.apply(update)
        key = next(iter(dict(engine.enumerate())))
        hosted = engine.engines
        before = engine.merged_stats().to_dict()["shards"]
        bases = base_state(db)

        engine.close()
        engine.close()  # idempotent
        for shard in hosted:
            with pytest.raises(RuntimeError, match="closed"):
                list(shard.enumerate())
        for call in (
            lambda: list(engine.enumerate()),
            lambda: engine.lookup(key),
            lambda: engine.apply(Update("R", (0, 0), 1)),
            lambda: engine.apply_batch([Update("S", (0, 0), 1)]),
            engine.publish_epoch,
            lambda: engine.engines,
        ):
            with pytest.raises(RuntimeError, match="closed"):
                call()
        # No later call respawned a worker.
        assert len(multiprocessing.active_children()) == children
        # The stats survive, worker shards' included.
        after = engine.merged_stats().to_dict()["shards"]
        assert after == before
        assert set(after) == {"shard0", "shard1"}
        assert all(cells["batches"] > 0 for cells in after.values()), after
        # The bases keep their contents and take another writer.
        assert base_state(db) == bases
        fresh = ViewTreeEngine(LIST_QUERY, db)
        fresh.apply(Update("R", (0, 0), 1))
        assert fresh.output_relation() == evaluate(LIST_QUERY, db)
