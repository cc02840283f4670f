"""Generated batch delta kernels (coalesce + the generated push_batch).

The batch path must be *semantically invisible*: for any valid update
stream sliced into batches, the batch-kernel engine's views, scalars and
enumerations are bit-identical to the per-tuple kernel path's — which
is itself differential-tested against the generic walk and naive
recomputation.  On top of equivalence, these tests pin the batch-only
machinery: ring coalescing (cancellation, ordering), fused
``Relation.add_delta`` writes with index maintenance, probe-sharing and
coalescing observability counters, the ``apply_batch`` heuristic tiers,
the Fig. 4 strategy surface, and the sharded executors (the process pool
runs ``push_batch`` inside its worker processes).
"""

from __future__ import annotations

import bisect
import itertools
import random

import pytest

from repro.cascade import MultiQueryEngine
from repro.data import Database, Update
from repro.data.update import coalesce, coalesce_grouped
from repro.naive import evaluate
from repro.query import parse_query, search_order
from repro.rings import B, CovarianceRing, LiftingMap, Z, moment_lifting
from repro.shard import ShardedEngine
from repro.viewtree import ViewTreeEngine
from repro.viewtree.compile import DerivedView
from repro.viewtree.strategies import STRATEGIES, make_strategy

from tests.conftest import (
    assert_matches_rebuild,
    assert_twins_agree,
    assert_views_agree,
    seeded_db,
    valid_stream,
)
from tests.test_delta_kernel import (
    SUPPORT_RING_IDS,
    SUPPORT_RINGS,
    SUPPORT_SHAPE_IDS,
    SUPPORT_SHAPES,
    TWO_GUARDS,
    publish_and_diff,
    ring_stream,
    support_twins,
)


def batched(engine, stream, batch_size, **kwargs):
    for start in range(0, len(stream), batch_size):
        engine.apply_batch(stream[start : start + batch_size], **kwargs)


class TestCoalesce:
    def test_sums_and_drops_cancellations(self):
        batch = [
            Update("R", (1, 2), 1),
            Update("S", (7,), 3),
            Update("R", (1, 2), 2),
            Update("R", (4, 4), 1),
            Update("R", (4, 4), -1),
        ]
        result = coalesce(batch)
        assert result == [Update("R", (1, 2), 3), Update("S", (7,), 3)]

    def test_first_occurrence_order(self):
        batch = [
            Update("S", (1,), 1),
            Update("R", (0, 0), 1),
            Update("S", (2,), 1),
            Update("S", (1,), 1),
        ]
        assert [(u.relation, u.key) for u in coalesce(batch)] == [
            ("S", (1,)),
            ("R", (0, 0)),
            ("S", (2,)),
        ]

    def test_grouped_shape_and_empty_relations_absent(self):
        batch = [
            Update("R", (1,), 1),
            Update("R", (2,), 1),
            Update("S", (5,), 1),
            Update("S", (5,), -1),
        ]
        grouped = coalesce_grouped(batch)
        assert grouped == {"R": {(1,): 1, (2,): 1}}

    def test_boolean_semiring(self):
        """B coalesces with ``or`` — no inverses needed for dedup."""
        batch = [
            Update("R", (1,), True),
            Update("R", (1,), True),
            Update("R", (2,), False),
        ]
        assert coalesce(batch, B) == [Update("R", (1,), True)]

    def test_empty_batch(self):
        assert coalesce([]) == []
        assert coalesce_grouped([]) == {}


class TestAddDelta:
    def test_matches_sequential_add_with_indexes(self, rng):
        fused = Database().create("R", ("A", "B"))
        loop = Database().create("R", ("A", "B"))
        for relation in (fused, loop):
            local = random.Random(101)
            relation.index_on(("B",))
            for _ in range(40):
                relation.insert(local.randrange(5), local.randrange(5))
        entries = []
        for _ in range(60):
            key = (rng.randrange(5), rng.randrange(5))
            entries.append((key, rng.choice((-1, 1, 2))))
        fused.add_delta(list(entries))
        for key, payload in entries:
            loop.add(key, payload)
        assert fused.to_dict() == loop.to_dict()
        assert (
            fused.index_on(("B",)).groups == loop.index_on(("B",)).groups
        )

    def test_zero_payloads_skipped_and_write_count(self):
        relation = Database().create("R", ("A",))
        writes = relation.add_delta([((1,), 1), ((2,), 0), ((3,), 2)])
        assert writes == 2
        assert relation.to_dict() == {(1,): 1, (3,): 2}

    def test_cancellation_removes_index_postings(self):
        relation = Database().create("R", ("A", "B"))
        index = relation.index_on(("A",))
        relation.insert(1, 2)
        relation.add_delta([((1, 2), -1)])
        assert relation.to_dict() == {}
        assert not index.groups.get((1,))


QUERIES = [
    # q-hierarchical (Fig. 3): the Theorem 4.1 fast case.
    ("Q(Y, X, Z) = R(Y, X) * S(Y, Z)",
     [("R", ("Y", "X")), ("S", ("Y", "Z"))], False),
    # hierarchical but not q-hierarchical: searched free-top order.
    ("Q(A, C) = R(A, B) * S(B, C)",
     [("R", ("A", "B")), ("S", ("B", "C"))], True),
    # self-join: two anchors over one base relation.
    ("Q(A, B, C) = E(A, B) * E(B, C)",
     [("E", ("A", "B"))], True),
]


class TestBatchEquivalence:
    @pytest.mark.parametrize("text,schemas,searched", QUERIES)
    @pytest.mark.parametrize("batch_size", [2, 17, 64])
    def test_batch_matches_per_tuple_and_naive(
        self, text, schemas, searched, batch_size
    ):
        query = parse_query(text)
        order = search_order(query, require_free_top=True) if searched else None
        arities = {name: len(schema) for name, schema in schemas}
        stream = valid_stream(random.Random(23), arities, 300, domain=6)

        per_tuple = ViewTreeEngine(
            query, seeded_db(schemas, random.Random(17)), order
        )
        for update in stream:
            per_tuple.apply(update)
        batch_engine = ViewTreeEngine(
            query, seeded_db(schemas, random.Random(17)), order
        )
        batched(batch_engine, stream, batch_size)

        assert (
            batch_engine.output_relation().to_dict()
            == per_tuple.output_relation().to_dict()
        )
        assert sorted(batch_engine.enumerate()) == sorted(per_tuple.enumerate())
        assert batch_engine.output_relation() == evaluate(
            query, batch_engine.database
        )

    def test_permuted_batch_same_result(self):
        """Batches over a ring commute: reordering within a batch is
        invisible, so coalescing (which regroups) is sound."""
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        stream = valid_stream(random.Random(5), {"R": 2, "S": 2}, 200, domain=5)
        outputs = []
        for seed in (None, 1, 2):
            engine = ViewTreeEngine(query, seeded_db(schemas, random.Random(3)))
            shuffled = list(stream)
            if seed is not None:
                random.Random(seed).shuffle(shuffled)
            batched(engine, shuffled, 50)
            outputs.append(engine.output_relation().to_dict())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_zipf_skew_batches(self):
        """Hot join keys: repeated-key batches through the INDEXED probe
        mode, where probe sharing actually fires."""
        query = parse_query("Q(A, C) = R(A, B) * S(B, C)")
        order = search_order(query, require_free_top=True)
        schemas = [("R", ("A", "B")), ("S", ("B", "C"))]
        rng = random.Random(77)
        domain, s = 30, 1.3
        weights = list(
            itertools.accumulate(1.0 / (k + 1) ** s for k in range(domain))
        )

        def value():
            return min(
                bisect.bisect_left(weights, rng.random() * weights[-1]),
                domain - 1,
            )

        stream = []
        live = {"R": [], "S": []}
        for _ in range(400):
            name = rng.choice(("R", "S"))
            keys = live[name]
            if keys and rng.random() < 0.3:
                stream.append(
                    Update(name, keys.pop(rng.randrange(len(keys))), -1)
                )
            else:
                key = (value(), value())
                keys.append(key)
                stream.append(Update(name, key, 1))

        per_tuple = ViewTreeEngine(
            query, seeded_db(schemas, random.Random(41)), order
        )
        for update in stream:
            per_tuple.apply(update)
        batch_engine = ViewTreeEngine(
            query, seeded_db(schemas, random.Random(41)), order
        )
        batched(batch_engine, stream, 64)
        assert (
            batch_engine.output_relation().to_dict()
            == per_tuple.output_relation().to_dict()
        )
        assert batch_engine.output_relation() == evaluate(
            query, batch_engine.database
        )

    def test_boolean_semiring_batches(self):
        """B has no additive inverse, so drive an insert-only stream;
        coalescing must go through ``or``, not integer sums."""
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        rng = random.Random(37)
        stream = [
            Update(rng.choice(("R", "S")),
                   (rng.randrange(6), rng.randrange(6)), True)
            for _ in range(200)
        ]
        per_tuple = ViewTreeEngine(
            query, seeded_db(schemas, random.Random(29), ring=B)
        )
        for update in stream:
            per_tuple.apply(update)
        batch_engine = ViewTreeEngine(
            query, seeded_db(schemas, random.Random(29), ring=B)
        )
        batched(batch_engine, stream, 32)
        assert (
            batch_engine.output_relation().to_dict()
            == per_tuple.output_relation().to_dict()
        )

    def test_covariance_ring_batches(self):
        """Payloads without an exact zero test (``exact_zero=False``):
        the kernels must fall back to ``ring.is_zero``."""
        ring = CovarianceRing()
        assert not ring.exact_zero
        query = parse_query("Q(A) = R(A, V) * S(A)")
        lifting = LiftingMap(ring, {"V": moment_lifting("V")})

        def build():
            db = Database(ring=ring)
            db.create("R", ("A", "V"))
            db.create("S", ("A",))
            return db

        rng = random.Random(59)
        stream = []
        live = []
        for _ in range(250):
            if rng.random() < 0.6:
                if live and rng.random() < 0.3:
                    key = live.pop(rng.randrange(len(live)))
                    stream.append(Update("R", key, ring.neg(ring.one)))
                else:
                    key = (rng.randrange(5), rng.randrange(1, 9))
                    live.append(key)
                    stream.append(Update("R", key, ring.one))
            else:
                payload = ring.one if rng.random() < 0.75 else ring.neg(ring.one)
                stream.append(Update("S", (rng.randrange(5),), payload))

        per_tuple = ViewTreeEngine(query, build(), lifting=lifting)
        for update in stream:
            per_tuple.apply(update)
        batch_engine = ViewTreeEngine(query, build(), lifting=lifting)
        batched(batch_engine, stream, 40)
        assert (
            batch_engine.output_relation().to_dict()
            == per_tuple.output_relation().to_dict()
        )
        assert batch_engine.output_relation() == evaluate(
            query, batch_engine.database, lifting
        )


class TestBatchObservability:
    SCHEMAS = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
    QUERY = "Q(Y, X, Z) = R(Y, X) * S(Y, Z)"

    def test_full_cancellation_is_a_noop(self):
        """A deletes-heavy batch whose updates cancel pairwise coalesces
        to nothing: no pushes, no view writes, base unchanged."""
        engine = ViewTreeEngine(
            parse_query(self.QUERY), seeded_db(self.SCHEMAS, random.Random(3))
        )
        stats = engine.attach_stats()
        before_views = {
            node.variable: dict(node.view.data)
            for root in engine.roots
            for node in root.walk()
        }
        before_base = dict(engine.database["R"].data)
        inserts = [
            Update("R", (100 + i, i), 1) for i in range(20)
        ] + [Update("S", (100 + i, i), 1) for i in range(20)]
        batch = inserts + [u.inverted(Z) for u in inserts]
        engine.apply_batch(list(batch))
        assert stats.batch_updates_raw == len(batch)
        assert stats.batch_updates_coalesced == 0
        assert dict(engine.database["R"].data) == before_base
        after_views = {
            node.variable: dict(node.view.data)
            for root in engine.roots
            for node in root.walk()
        }
        assert after_views == before_views

    def test_coalesce_counters_accumulate(self):
        engine = ViewTreeEngine(
            parse_query(self.QUERY), seeded_db(self.SCHEMAS, random.Random(3))
        )
        stats = engine.attach_stats()
        batch = [Update("R", (1, 1), 1), Update("R", (1, 1), 1),
                 Update("S", (1, 2), 1)]
        engine.apply_batch(list(batch))
        assert stats.batch_updates_raw == 3
        assert stats.batch_updates_coalesced == 2
        payload = stats.to_dict()["batch"]
        assert payload["raw_updates"] == 3
        assert payload["coalesced_updates"] == 2
        assert "coalescing: 3 updates -> 2 deltas (1 cancelled)" in stats.render()

    def test_query_set_counts_its_one_coalescing_pass(self):
        """Two trees over the same relations share one coalescing pass."""
        engine = MultiQueryEngine(
            [parse_query(self.QUERY), parse_query("Q2(Y) = R(Y, X) * S(Y, Z)")],
            seeded_db(self.SCHEMAS, random.Random(3)),
        )
        stats = engine.attach_stats()
        batch = [Update("R", (1, 1), 1), Update("R", (1, 1), 1),
                 Update("S", (1, 2), 1)]
        engine.apply_batch(batch)
        assert stats.batch_updates_raw == 3
        assert stats.batch_updates_coalesced == 2

    def test_probe_sharing_recorded_on_repeated_join_keys(self):
        """Hierarchical query: delta keys are wider than the sibling
        probe key, so a batch hammering one join key shares probes."""
        query = parse_query("Q(A, C) = R(A, B) * S(B, C)")
        order = search_order(query, require_free_top=True)
        schemas = [("R", ("A", "B")), ("S", ("B", "C"))]
        engine = ViewTreeEngine(
            query, seeded_db(schemas, random.Random(11)), order
        )
        stats = engine.attach_stats()
        batch = [Update("R", (a, 0), 1) for a in range(30)]
        engine.apply_batch(list(batch))
        assert stats.sibling_probes > 0
        assert stats.sibling_probes_shared > 0
        payload = stats.to_dict()["batch"]
        assert payload["probes_shared"] == stats.sibling_probes_shared

    def test_single_tuple_pushes_are_not_batch_probes(self):
        """A fan-out ``apply`` runs no batch kernel, with or without
        ``update_base``: the ``batch`` block stays zero until a batch
        runs, which still reports its probes."""
        query = parse_query("Q(A, C) = R(A, B) * S(B, C)")
        schemas = [("R", ("A", "B")), ("S", ("B", "C"))]
        engine = ViewTreeEngine(
            query,
            seeded_db(schemas, random.Random(11)),
            search_order(query, require_free_top=True),
        )
        stats = engine.attach_stats()
        for a in range(8):
            engine.apply(Update("R", (a, a % 3), 1))
        for a in range(8, 16):
            engine.database["R"].add((a, a % 3), 1)
            engine.apply(Update("R", (a, a % 3), 1), update_base=False)
        assert set(stats.to_dict()["batch"].values()) == {0}
        engine.apply_batch([Update("R", (a, 0), 1) for a in range(30)])
        assert stats.to_dict()["batch"]["sibling_probes"] > 0

    def test_small_batches_skip_the_kernel(self):
        """Below ``batch_compile_threshold`` the per-tuple path runs: the
        coalescing pass is counted, and no batch kernel ran."""
        engine = ViewTreeEngine(
            parse_query(self.QUERY), seeded_db(self.SCHEMAS, random.Random(3))
        )
        stats = engine.attach_stats()
        pushed = []
        for kernels in engine._kernels.values():
            for kernel in kernels:
                kernel.push_batch = lambda *args: pushed.append(args)
        engine.apply_batch([Update("R", (1, 1), 1)])
        assert (stats.batch_updates_raw, stats.batch_updates_coalesced) == (1, 1)
        assert pushed == [] and stats.sibling_probes == 0

    def test_uncompiled_engine_still_correct(self):
        query = parse_query(self.QUERY)
        stream = valid_stream(random.Random(9), {"R": 2, "S": 2}, 120, domain=5)
        engine = ViewTreeEngine(
            query,
            seeded_db(self.SCHEMAS, random.Random(3)),
            generated=False,
        )
        batched(engine, stream, 30)
        assert engine.output_relation() == evaluate(query, engine.database)


class TestStrategiesBatch:
    def test_all_four_strategies_agree_under_batches(self):
        """Fig. 4 surface: apply_batch on every strategy, same output."""
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        stream = valid_stream(random.Random(7), {"R": 2, "S": 2}, 200, domain=6)
        outputs = {}
        for name in sorted(STRATEGIES):
            strategy = make_strategy(
                name, query, seeded_db(schemas, random.Random(13))
            )
            batched(strategy, stream, 40)
            outputs[name] = dict(strategy.enumerate())
        reference = outputs.pop("eager-fact")
        assert reference == evaluate(
            query, _replayed_db(schemas, stream)
        ).to_dict()
        for name, output in outputs.items():
            assert output == reference, name

    def test_eager_fact_batch_records_coalescing(self):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        strategy = make_strategy(
            "eager-fact", query, seeded_db(schemas, random.Random(13))
        )
        stats = strategy.attach_stats()
        strategy.apply_batch(
            [Update("R", (1, 1), 1), Update("R", (1, 1), 1)]
        )
        assert stats.batch_updates_raw == 2
        assert stats.batch_updates_coalesced == 1


def _replayed_db(schemas, stream):
    db = seeded_db(schemas, random.Random(13))
    for update in stream:
        db[update.relation].add(update.key, update.payload)
    return db


class TestShardedBatch:
    QUERY = "Q(B, A) = R(B, A) * S(B)"
    SCHEMAS = [("R", ("B", "A")), ("S", ("B",))]

    def _unsharded_output(self, stream):
        query = parse_query(self.QUERY)
        engine = ViewTreeEngine(
            query, seeded_db(self.SCHEMAS, random.Random(47), rows=25)
        )
        for update in stream:
            engine.apply(update)
        return engine.output_relation().to_dict()

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_sharded_batches_match_unsharded(self, executor):
        """The coordinator coalesces before splitting; the process pool
        additionally exercises ``push_batch`` inside worker processes."""
        query = parse_query(self.QUERY)
        stream = valid_stream(random.Random(53), {"R": 2, "S": 1}, 150)
        expected = self._unsharded_output(stream)
        db = seeded_db(self.SCHEMAS, random.Random(47), rows=25)
        with ShardedEngine(query, db, shards=2, executor=executor) as sharded:
            batched(sharded, stream, 50)
            assert sharded.output_relation().to_dict() == expected
            assert sharded.output_relation() == evaluate(query, db)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_coalescing_is_counted_once(self, executor):
        """The coordinator's coalescing pass is the one the recorder
        counts: a shard applying its slice of the columns does not count
        the slice again, so the merged ``batch`` block reads as the
        unsharded engine's."""
        query = parse_query(self.QUERY)
        stream = valid_stream(random.Random(59), {"R": 2, "S": 1}, 800, domain=6)
        batches = [stream[i : i + 100] for i in range(0, len(stream), 100)]
        unsharded = ViewTreeEngine(query, seeded_db(self.SCHEMAS, random.Random(47)))
        expected = unsharded.attach_stats()
        for batch in batches:
            unsharded.apply_batch(batch)
        assert expected.batch_updates_raw == 800
        db = seeded_db(self.SCHEMAS, random.Random(47))
        with ShardedEngine(query, db, shards=4, executor=executor) as sharded:
            sharded.attach_stats()
            for batch in batches:
                sharded.apply_batch(batch)
            merged = sharded.merged_stats()
        assert merged.batch_updates_raw == 800
        assert merged.batch_updates_coalesced == expected.batch_updates_coalesced
        assert merged.batch_updates_coalesced < 800


class TestSupportBatches:
    """Supports, not sums, under batches: ``apply_batch`` and the
    ``update_base=False`` callers — shard workers and a query set over
    one database — agree exactly with the oracle on valid streams:
    outputs, lookups, change-feed deltas, guard memberships and every
    node's view value."""

    @pytest.mark.parametrize("rebuild", [False, True], ids=["kernels", "rebuild"])
    @pytest.mark.parametrize("ring,deletes", SUPPORT_RINGS, ids=SUPPORT_RING_IDS)
    @pytest.mark.parametrize(
        "text,schemas,order", SUPPORT_SHAPES, ids=SUPPORT_SHAPE_IDS
    )
    def test_batches_and_change_feed(
        self, text, schemas, order, ring, deletes, rebuild
    ):
        """With ``rebuild``, a tree built from scratch over each
        post-batch database (the recompute the paper's opening trades
        propagation against) agrees with the maintained twins too."""
        twins = support_twins(text, schemas, order, ring)
        for engine in twins:
            engine.track_changes()
        stream = ring_stream(ring, deletes, schemas, 240, 37)
        miss = (99,) * len(twins[0].head)
        # Slices of 60+ updates against 25 rows per relation, and 7.
        for start, stop in ((0, 60), (60, 67), (67, 140), (140, 147), (147, 240)):
            for engine in twins:
                engine.apply_batch(stream[start:stop])
            publish_and_diff(twins)
            assert_twins_agree(*twins, probes=[miss])
            if rebuild:
                assert_matches_rebuild(twins[0], probes=[miss])

    @pytest.mark.parametrize(
        "text,schemas,order",
        [SUPPORT_SHAPES[0], TWO_GUARDS],
        ids=["list", "two-guards"],
    )
    def test_shard_workers(self, text, schemas, order):
        query = parse_query(text)
        generic = ViewTreeEngine(
            query, seeded_db(schemas, random.Random(5), rows=25), generated=False
        )
        db = seeded_db(schemas, random.Random(5), rows=25)
        stream = ring_stream(Z, True, schemas, 200, 41)
        with ShardedEngine(query, db, shards=2, executor="serial") as sharded:
            assert any(
                isinstance(node.view, DerivedView)
                for shard in sharded.engines
                for root in shard.roots
                for node in root.walk()
            )
            for start in range(0, 200, 40):
                batch = stream[start : start + 40]
                sharded.apply_batch(batch)
                generic.apply_batch(batch)
                assert dict(sharded.enumerate()) == dict(generic.enumerate())
                merged = sharded.merged_views()
                for node in (n for root in generic.roots for n in root.walk()):
                    assert merged[f"V_{node.variable}"].to_dict() == node.view.to_dict()
                    if node.guard is not None:
                        assert merged[f"G_{node.variable}"].to_dict() == node.guard.to_dict()

    def test_query_set_over_one_database(self):
        """``MultiQueryEngine`` writes each base once and pushes it into
        every tree with ``update_base=False``."""
        queries = [parse_query(SUPPORT_SHAPES[0][0]), parse_query("P(Y, X) = R(Y, X) * T(Y)")]
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z")), ("T", ("Y",))]
        engine = MultiQueryEngine(queries, seeded_db(schemas, random.Random(7), rows=20))
        generics = {
            query.name: ViewTreeEngine(
                query, seeded_db(schemas, random.Random(7), rows=20), generated=False
            )
            for query in queries
        }
        trees = {tree.query.name: tree for trees in engine._trees.values() for tree in trees}
        assert set(trees) == set(generics)
        stream = ring_stream(Z, True, schemas, 240, 43)
        for start in range(0, 240, 30):
            batch = stream[start : start + 30]
            engine.apply_batch(batch)
            for generic in generics.values():
                reads = {atom.relation for atom in generic.query.atoms}
                generic.apply_batch([u for u in batch if u.relation in reads])
            for name, generic in generics.items():
                assert dict(engine.enumerate(name)) == dict(generic.enumerate())
                assert_views_agree(trees[name], generic)
