"""Generated enumeration kernels (repro.viewtree.enumplan + codegen).

The generated read path must be *semantically invisible*: for any valid
update stream, any ring, and any supported query shape, the generated
engine's enumerations — full drains and prebound access requests alike —
are bit-identical (contents AND order) to the generic recursive walk's
(``generated=False``, the oracle), which in turn is differential-tested
against naive recomputation.  Plus: enumeration plans must survive
pickling (the process-pool shard executor ships engines whole), two
in-flight iterators on one engine must not interfere, and the read-path
obs counters must record what actually ran.
"""

from __future__ import annotations

import itertools
import json
import pickle
import random
import sys
import threading
import time

import pytest

from repro.core.engine import IVMEngine
from repro.data import Database, Update, counting
from repro.naive import evaluate
from repro.obs import MaintenanceStats
from repro.query import parse_query, search_order
from repro.rings import B, MIN_PLUS, PROVENANCE, Polynomial, R, Ring, Z
from repro.rings.standard import FloatRing
from repro.shard import ShardedEngine
from repro.viewtree import EnumPlan, ViewTreeEngine, make_strategy
from repro.viewtree.strategies import STRATEGIES

from tests.conftest import seeded_db, twin_engines, valid_stream


QUERIES = [
    # q-hierarchical (Fig. 3): the Theorem 4.1 constant-delay case.
    ("Q(Y, X, Z) = R(Y, X) * S(Y, Z)",
     [("R", ("Y", "X")), ("S", ("Y", "Z"))], False),
    # hierarchical but not q-hierarchical: searched free-top order,
    # bound-view probe on the inner step.
    ("Q(A, C) = R(A, B) * S(B, C)",
     [("R", ("A", "B")), ("S", ("B", "C"))], True),
    # three-atom chain with a single free variable (deep bound suffix).
    ("Q(A) = R(A, B) * S(B, C) * T(C, D)",
     [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))], True),
    # self-join-shaped sibling leaves at one node.
    ("Q(A) = R(A, B) * S(A, B) * T(A)",
     [("R", ("A", "B")), ("S", ("A", "B")), ("T", ("A",))], False),
    # single-atom identity query (no guard beyond the leaf itself).
    ("Q(A, B) = R(A, B)", [("R", ("A", "B"))], False),
]


class TestCompiledGenericEquivalence:
    @pytest.mark.parametrize("text,schemas,searched", QUERIES)
    def test_full_enumeration_identical(self, text, schemas, searched):
        query = parse_query(text)
        order = search_order(query, require_free_top=True) if searched else None
        compiled, generic = twin_engines(query, schemas, seed=17, order=order)
        assert isinstance(compiled._enum_kernel.plan, EnumPlan)
        arities = {name: len(schema) for name, schema in schemas}
        for step, update in enumerate(
            valid_stream(random.Random(23), arities, 400)
        ):
            compiled.apply(update)
            generic.apply(update)
            if step % 80 == 79:
                # contents AND order, mid-stream
                assert list(compiled.enumerate()) == list(generic.enumerate())
        assert list(compiled.enumerate()) == list(generic.enumerate())
        assert compiled.output_relation() == evaluate(
            query, compiled.database
        )

    @pytest.mark.parametrize("text,schemas,searched", QUERIES)
    def test_prebound_lookups_identical(self, text, schemas, searched):
        query = parse_query(text)
        order = search_order(query, require_free_top=True) if searched else None
        compiled, generic = twin_engines(query, schemas, seed=31, order=order)
        arities = {name: len(schema) for name, schema in schemas}
        for update in valid_stream(random.Random(5), arities, 300):
            compiled.apply(update)
            generic.apply(update)
        head = query.head
        for value in range(-1, 10):  # -1: guaranteed miss
            one = {head[0]: value}
            assert list(compiled.enumerate(prebound=one)) == list(
                generic.enumerate(prebound=one)
            )
            everything = {v: (value + i) % 10 for i, v in enumerate(head)}
            assert list(compiled.enumerate(prebound=everything)) == list(
                generic.enumerate(prebound=everything)
            )

    @pytest.mark.parametrize(
        "ring,deletes",
        [(Z, True), (R, True), (B, False), (MIN_PLUS, False),
         (PROVENANCE, False)],
        ids=["int", "float", "boolean", "min-plus", "provenance"],
    )
    def test_rings_including_non_exact_zero(self, ring, deletes):
        # R (tolerance), PROVENANCE (structural), and the analytics rings
        # have exact_zero=False: the kernel must take the is_zero() path
        # and still match the generic walk bit for bit (for floats that
        # includes the exact multiplication order).
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        compiled, generic = twin_engines(query, schemas, seed=11, ring=ring)
        arities = {name: len(schema) for name, schema in schemas}
        stream = valid_stream(
            random.Random(7), arities, 300,
            delete_prob=0.25 if deletes else 0.0,
        )
        for update in stream:
            payload = ring.one if update.payload > 0 else ring.neg(ring.one)
            compiled.apply(Update(update.relation, update.key, payload))
            generic.apply(Update(update.relation, update.key, payload))
        assert list(compiled.enumerate()) == list(generic.enumerate())
        for y in range(8):
            assert list(compiled.enumerate(prebound={"Y": y})) == list(
                generic.enumerate(prebound={"Y": y})
            )

    def test_empty_head_scalar_query_stays_generic(self):
        query = parse_query("Q() = R(A, B) * S(B)")
        schemas = [("R", ("A", "B")), ("S", ("B",))]
        compiled, generic = (
            ViewTreeEngine(query, seeded_db(schemas, random.Random(3))),
            ViewTreeEngine(
                query, seeded_db(schemas, random.Random(3)),
                generated=False,
            ),
        )
        # Nothing to compile for an empty head: scalar() serves it.
        assert compiled._enum_kernel is None
        assert list(compiled.enumerate()) == list(generic.enumerate())
        assert compiled.scalar() == generic.scalar()

    def test_non_free_top_order_still_raises(self):
        query = parse_query("Q(A, C) = R(A, B) * S(B, C)")
        schemas = [("R", ("A", "B")), ("S", ("B", "C"))]
        engine = ViewTreeEngine(query, seeded_db(schemas, random.Random(1)))
        # The canonical order for this query is not free-top: no plan is
        # compiled and enumeration reports the structural failure as
        # before.
        assert engine._enum_kernel is None
        with pytest.raises(ValueError, match="free-top"):
            list(engine.enumerate())

    def test_two_interleaved_iterators_on_one_engine(self):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        compiled, generic = twin_engines(query, schemas, seed=41)
        expected = list(generic.enumerate())
        first = compiled.enumerate()
        second = compiled.enumerate()
        merged_first, merged_second = [], []
        # Alternate consumption: each in-flight kernel run keeps its own
        # slot array and stack, so interleaving must not cross wires.
        for left, right in zip(first, second):
            merged_first.append(left)
            merged_second.append(right)
        assert merged_first == expected
        assert merged_second == expected


class TestStrategies:
    def _replay(self, strategy, stream):
        for update in stream:
            strategy.apply(update)
        return sorted(strategy.enumerate())

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_all_four_strategies_agree(self, name):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        stream = list(valid_stream(random.Random(19), {"R": 2, "S": 2}, 250))
        fast = make_strategy(
            name, query, seeded_db(schemas, random.Random(29))
        )
        slow = make_strategy(
            name, query, seeded_db(schemas, random.Random(29)),
            generated=False,
        )
        assert self._replay(fast, stream) == self._replay(slow, stream)

    def test_fact_strategies_carry_the_flag(self):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        eager = make_strategy(
            "eager-fact", query, seeded_db(schemas, random.Random(1))
        )
        assert eager.engine._enum_kernel is not None
        lazy = make_strategy(
            "lazy-fact", query, seeded_db(schemas, random.Random(1))
        )
        lazy.apply(Update("R", (1, 2), 1))
        list(lazy.enumerate())  # triggers the rebuild
        assert lazy._engine._enum_kernel is not None
        lazy_off = make_strategy(
            "lazy-fact", query, seeded_db(schemas, random.Random(1)),
            generated=False,
        )
        lazy_off.apply(Update("R", (1, 2), 1))
        list(lazy_off.enumerate())
        assert not lazy_off._engine.generated
        assert lazy_off._engine._enum_kernel is None


class TestSharded:
    def test_sharded_matches_unsharded(self):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        plain = ViewTreeEngine(
            query, seeded_db(schemas, random.Random(8)), generated=False
        )
        sharded = ShardedEngine(
            query, seeded_db(schemas, random.Random(8)), shards=3,
            executor="serial",
        )
        for engine in sharded.engines:
            assert engine._enum_kernel is not None
        for update in valid_stream(random.Random(12), {"R": 2, "S": 2}, 400):
            plain.apply(update)
            sharded.apply(update)
        assert dict(sharded.enumerate()) == dict(plain.enumerate())
        assert (
            sharded.output_relation().to_dict()
            == plain.output_relation().to_dict()
        )
        reference = plain.output_relation()
        for y in range(8):
            key = (y, 1, 2)
            assert sharded.lookup(key) == reference.get(key)
        sharded.close()

    def test_plans_survive_process_pool(self):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        reference = ViewTreeEngine(
            query, seeded_db(schemas, random.Random(4)), generated=False
        )
        with ShardedEngine(
            query, seeded_db(schemas, random.Random(4)), shards=2,
            executor="process",
        ) as sharded:
            stream = list(
                valid_stream(random.Random(6), {"R": 2, "S": 2}, 200)
            )
            reference.apply_batch(stream)
            sharded.apply_batch(stream)
            # The worker built its engine from a pickled spec and got
            # its kernels there (generated or from the shape cache it
            # was forked with); its pulled codegen counters say so.
            sharded.merged_stats()
            for recorder in sharded.shard_stats:
                assert recorder.kernels_generated + recorder.shape_cache_hits
            for engine in sharded.engines:
                assert engine._enum_kernel is not None
            assert dict(sharded.enumerate()) == dict(reference.enumerate())

    def test_engine_pickle_round_trip(self):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        engine = ViewTreeEngine(query, seeded_db(schemas, random.Random(21)))
        for update in valid_stream(random.Random(22), {"R": 2, "S": 2}, 150):
            engine.apply(update)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone._enum_kernel is not None
        assert list(clone.enumerate()) == list(engine.enumerate())
        # The unpickled plan's guard references are identical objects to
        # the unpickled tree's own relations (pickle memo), so updates
        # applied post-restore stay visible to the kernel.
        clone.apply(Update("R", (1, 1), 1), update_base=True)
        engine.apply(Update("R", (1, 1), 1), update_base=True)
        assert list(clone.enumerate()) == list(engine.enumerate())


class TestCQAP:
    def test_access_requests_identical(self):
        query = parse_query("Q(A | B) = R(A, B) * S(B)")
        schemas = [("R", ("A", "B")), ("S", ("B",))]
        compiled = IVMEngine(query, seeded_db(schemas, random.Random(14)))
        generic = IVMEngine(
            query, seeded_db(schemas, random.Random(14)), generated=False
        )
        assert compiled.plan.strategy == generic.plan.strategy == "cqap"
        assert compiled.backend._enum_kernel is not None
        assert generic.backend._enum_kernel is None
        for update in valid_stream(random.Random(15), {"R": 2, "S": 1}, 300):
            compiled.apply(update)
            generic.apply(update)
        for b in range(10):
            assert list(compiled.answer({"B": b})) == list(
                generic.answer({"B": b})
            )


class TestObservability:
    def _engine_with_stats(self, seed=33):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        engine = ViewTreeEngine(query, seeded_db(schemas, random.Random(seed)))
        return engine, engine.attach_stats()

    def test_kernel_counters_record(self):
        engine, stats = self._engine_with_stats()
        assert stats.enum_compiled == 0
        list(engine.enumerate())
        assert stats.enum_compiled == 1
        assert stats.enum_guard_probes > 0
        list(engine.enumerate(prebound={"Y": 0}))
        assert stats.enum_compiled == 2
        payload = stats.to_dict()
        enumeration = payload["enumeration"]
        assert enumeration["compiled"] == 2
        assert enumeration["guard_probes"] == stats.enum_guard_probes
        assert enumeration["lazy_refreshes"] == 0
        json.dumps(payload)  # stays plain-JSON (repro.obs/1)

    def test_output_relation_records_no_phantom_samples(self):
        engine, stats = self._engine_with_stats()
        engine.output_relation()
        assert stats.enumerations == 0
        assert stats.tuples_enumerated == 0
        assert stats.enum_delay.count == 0
        assert stats.enum_compiled == 0
        # ... while a real enumeration request still samples delay.
        list(engine.enumerate())
        assert stats.enumerations == 1
        assert stats.tuples_enumerated > 0

    def test_sharded_output_relation_no_phantom_shard_samples(self):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        sharded = ShardedEngine(
            query, seeded_db(schemas, random.Random(2)), shards=2,
            executor="serial",
        )
        sharded.output_relation()
        for stats in sharded.shard_stats:
            assert stats.enumerations == 0
            assert stats.tuples_enumerated == 0
        list(sharded.enumerate())
        assert sum(s.enum_compiled for s in sharded.shard_stats) == 2
        sharded.close()

    def test_lazy_refreshes_counted(self):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        for name in ("lazy-list", "lazy-fact"):
            strategy = make_strategy(
                name, query, seeded_db(schemas, random.Random(44))
            )
            stats = strategy.attach_stats()
            list(strategy.enumerate())
            assert stats.lazy_refreshes == 0  # clean: nothing to refresh
            strategy.apply(Update("R", (1, 2), 1))
            list(strategy.enumerate())
            assert stats.lazy_refreshes == 1
            list(strategy.enumerate())
            assert stats.lazy_refreshes == 1  # still clean: no recompute
            strategy.apply(Update("S", (1, 3), 1))
            list(strategy.enumerate())
            assert stats.lazy_refreshes == 2

    def test_merge_carries_kernel_counters(self):
        left = MaintenanceStats()
        left.record_compiled_enumeration()
        left.record_enum_probes(7)
        right = MaintenanceStats()
        right.record_lazy_refresh()
        right.record_enum_probes(5)
        left.merge(right)
        assert left.enum_compiled == 1
        assert left.enum_guard_probes == 12
        assert left.lazy_refreshes == 1
        labelled = MaintenanceStats()
        labelled.merge(left, label="shard0")
        assert labelled.enum_guard_probes == 12
        assert labelled.shard_summaries["shard0"]["enum_guard_probes"] == 12


class TestPlannerAndCLI:
    def test_facade_threads_the_flag(self):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        on = IVMEngine(query, seeded_db(schemas, random.Random(3)))
        assert on.generated and on.backend._enum_kernel is not None
        off = IVMEngine(
            query, seeded_db(schemas, random.Random(3)), generated=False
        )
        assert not off.generated and off.backend._enum_kernel is None
        assert dict(on.enumerate()) == dict(off.enumerate())

    def test_cli_oracle(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "stats.json"
        assert (
            main(
                [
                    "stats", "Q(Y,X,Z) = R(Y,X) * S(Y,Z)",
                    "--updates", "200", "--prefill", "10",
                    "--oracle", "--json", str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["meta"]["generated"] is False
        assert payload["stats"]["enumeration"]["compiled"] == 0
        assert payload["stats"]["codegen"]["kernels_generated"] == 0
        assert (
            main(
                [
                    "stats", "Q(Y,X,Z) = R(Y,X) * S(Y,Z)",
                    "--updates", "200", "--prefill", "10",
                    "--json", str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["meta"]["generated"] is True
        assert payload["stats"]["enumeration"]["compiled"] > 0
        assert payload["stats"]["codegen"]["kernels_generated"] > 0


# ----------------------------------------------------------------------
# Replayed suffixes: a step that reads no slot of the step before it is
# walked once per binding of its parent, then replayed from rows.
# ----------------------------------------------------------------------

LIST = "Q(Y, X, Z) = R(Y, X) * S(Y, Z)"
STAR = "Q(Y, X, Z, W) = R(Y, X) * S(Y, Z) * T(Y, W)"
TWO_DEPTH = "Q(A, B, C, D) = R(A, B) * S(A, C) * T(A, C, D)"

REPLAY_RINGS = {
    "int": (Z, lambda rng, name, key: rng.randint(1, 3)),
    "float": (R, lambda rng, name, key: rng.choice((0.1, 0.3, 1.7, 2.5))),
    "provenance": (
        PROVENANCE, lambda rng, name, key: Polynomial.variable(f"{name}{key}")
    ),
    "min-plus": (MIN_PLUS, lambda rng, name, key: rng.uniform(0.0, 5.0)),
}


def replay_twins(text, ring):
    """``(generated, oracle)`` engines over empty databases of ``ring``."""
    query = parse_query(text)

    def make_db():
        db = Database(ring=ring)
        for atom in query.atoms:
            db.create(atom.relation, atom.variables)
        return db

    return (
        ViewTreeEngine(query, make_db()),
        ViewTreeEngine(query, make_db(), generated=False),
    )


def random_updates(query, ring, make, rng, count, domain=5):
    updates = []
    for _ in range(count):
        atom = rng.choice(query.atoms)
        key = tuple(rng.randrange(domain) for _ in atom.variables)
        updates.append(Update(atom.relation, key, make(rng, atom.relation, key)))
    if isinstance(ring, Ring):
        # Deletes: retract a quarter of what went in, exactly.
        updates += [
            Update(u.relation, u.key, ring.neg(u.payload))
            for u in rng.sample(updates, count // 4)
        ]
    return updates


def apply_both(engines, updates):
    for engine in engines:
        engine.apply_batch(list(updates))


class TestReplay:
    def test_plan_marks_each_step_that_skips_its_predecessor(self):
        for text, marks, route in (
            (LIST, [False, False, True], "Y · X · Z (Z replayed per X)"),
            (STAR, [False, False, True, True],
             "Y · X · Z · W (Z replayed per X, W replayed per Z)"),
            (TWO_DEPTH, [False, False, True, False],
             "A · B · C · D (C replayed per B)"),
        ):
            engine, oracle = replay_twins(text, Z)
            assert [s.replay for s in engine._enum_kernel.plan.steps] == marks
            assert engine.describe().splitlines()[-2] == f"enum: {route}"
            assert oracle.describe().splitlines()[-2] == "enum: walk"
        query = parse_query("Q(A, C) = R(A, B) * S(B, C)")
        schemas = [("R", ("A", "B")), ("S", ("B", "C"))]
        engine = ViewTreeEngine(
            query, seeded_db(schemas, random.Random(1)),
            search_order(query, require_free_top=True),
        )
        assert engine.describe().splitlines()[-2] == "enum: A · C (C drained per A bucket)"

    def test_exact_op_counts_on_a_hand_built_instance(self):
        # Y=1: X in {1,2,3}, Z in {1,2}; Y=2: X in {1}, Z in {1,2,3}.
        engine, oracle = replay_twins(LIST, Z)
        updates = [Update("R", (1, x), 1) for x in (1, 2, 3)]
        updates += [Update("S", (1, z), 1) for z in (1, 2)]
        updates += [Update("R", (2, 1), 1)]
        updates += [Update("S", (2, z), 1) for z in (1, 2, 3)]
        apply_both((engine, oracle), updates)
        # Generic: the Y bucket (1); per Y its X bucket (1), per X its
        # leaf (1) and Z bucket (1), per Z its leaf (1):
        # 1 + (1 + 3 + 3 * 3) + (1 + 1 + 1 * 4) = 20 lookups.
        # Compiled: only the first X of each Y probes the Z side:
        # 1 + (1 + 3 + 3) + (1 + 1 + 4) = 14.  Every candidate, replayed
        # or probed, is one enum: 2 + (3 + 3 * 2) + (1 + 3) = 15.
        with counting() as walked:
            expected = list(oracle.enumerate())
        with counting() as ran:
            assert list(engine.enumerate()) == expected
        assert len(expected) == 9
        assert walked.counts == {"lookup": 20, "enum": 15}
        assert ran.counts == {"lookup": 14, "enum": 15}

    def test_op_counts_of_a_full_drain_at_scale(self):
        from tests.test_enumeration_delay import build_engine

        engine = build_engine(1000)
        oracle = ViewTreeEngine(engine.query, engine.database, generated=False)
        with counting() as ran:
            assert sum(1 for _ in engine.enumerate()) == 7862
        with counting() as walked:
            assert sum(1 for _ in oracle.enumerate()) == 7862
        assert ran.counts == {"lookup": 2245, "enum": 8986}
        assert walked.counts == {"lookup": 9986, "enum": 8986}

    @pytest.mark.parametrize("ring_name", sorted(REPLAY_RINGS))
    @pytest.mark.parametrize("text", [LIST, STAR, TWO_DEPTH])
    def test_live_and_epoch_drains_match_the_walk(self, text, ring_name):
        ring, make = REPLAY_RINGS[ring_name]
        engine, oracle = replay_twins(text, ring)
        rng = random.Random(f"{text}/{ring_name}")
        apply_both((engine, oracle), random_updates(engine.query, ring, make, rng, 240))
        expected = list(oracle.enumerate())
        assert expected and list(engine.enumerate()) == expected
        with counting() as ran:
            list(engine.enumerate())
        with counting() as walked:
            list(oracle.enumerate())
        assert ran["lookup"] < walked["lookup"]
        # The epoch walk reads the published state under later writes.
        engine.publish_epoch()
        oracle.publish_epoch()
        later = random_updates(engine.query, ring, make, rng, 60)
        apply_both((engine, oracle), later)
        assert list(engine.enumerate_snapshot()) == expected
        assert list(oracle.enumerate_snapshot()) == expected
        assert list(engine.enumerate()) == list(oracle.enumerate())

    @pytest.mark.parametrize("text,pins", [
        (LIST, ("Z",)), (LIST, ("Y", "Z")), (STAR, ("Z",)), (STAR, ("Y", "W")),
        (TWO_DEPTH, ("C",)), (TWO_DEPTH, ("A", "C")),
    ])
    def test_prebound_value_at_a_replayed_depth(self, text, pins):
        ring, make = REPLAY_RINGS["float"]
        engine, oracle = replay_twins(text, ring)
        rng = random.Random(9)
        apply_both((engine, oracle), random_updates(engine.query, ring, make, rng, 240))
        engine.publish_epoch()
        oracle.publish_epoch()
        for values in itertools.product(range(-1, 5), repeat=len(pins)):
            prebound = dict(zip(pins, values))
            expected = list(oracle.enumerate(prebound))
            assert list(engine.enumerate(prebound)) == expected
            assert list(engine.enumerate_snapshot(prebound)) == expected

    def test_rows_outlive_a_first_pass_that_underflows(self):
        # X=1's products all underflow to zero; X=2's are 1e-200.
        engine, oracle = replay_twins(LIST, FloatRing(tolerance=0.0))
        updates = [Update("R", (1, 1), 1e-200), Update("R", (1, 2), 1.0)]
        updates += [Update("S", (1, z), 1e-200) for z in range(4)]
        apply_both((engine, oracle), updates)
        expected = [((1, 2, z), 1e-200) for z in range(4)]
        assert list(oracle.enumerate()) == expected
        with counting() as ops:
            assert list(engine.enumerate()) == expected
        # X=2 replays the rows X=1 filled: no second Z-side probe.
        assert ops.counts == {"lookup": 1 + 1 + 2 + (1 + 4), "enum": 1 + 2 + 8}
        engine.publish_epoch()
        assert list(engine.enumerate_snapshot()) == expected

    def test_a_pass_pruned_inside_the_suffix_records_afresh(self):
        # B=1 prunes at C (1e-200 * 1e-200), before D is probed: its rows
        # are incomplete, so B=2 walks the suffix again.
        engine, oracle = replay_twins(TWO_DEPTH, FloatRing(tolerance=0.0))
        updates = [Update("R", (1, 1), 1e-200), Update("R", (1, 2), 1.0)]
        updates += [Update("S", (1, c), 1e-200) for c in range(2)]
        updates += [Update("T", (1, c, d), 1.0) for c in range(2) for d in range(2)]
        apply_both((engine, oracle), updates)
        expected = list(oracle.enumerate())
        assert [key for key, _ in expected] == [
            (1, 2, c, d) for c in range(2) for d in range(2)
        ]
        assert list(engine.enumerate()) == expected
        engine.publish_epoch()
        assert list(engine.enumerate_snapshot()) == expected

    def test_epoch_drain_racing_a_writer_equals_the_published_epoch(self):
        engine, oracle = replay_twins(STAR, Z)
        rng = random.Random(3)
        make = REPLAY_RINGS["int"][1]
        apply_both((engine, oracle), random_updates(engine.query, Z, make, rng, 300, domain=4))
        expected = list(oracle.enumerate())
        engine.publish_epoch()
        writes = [
            random_updates(engine.query, Z, make, random.Random(seed), 8, domain=4)
            for seed in range(400)
        ]
        progress = []

        def write():
            for batch in writes:
                engine.apply_batch(batch)
                progress.append(len(batch))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writer = threading.Thread(target=write, daemon=True)
            drained = []
            iterator = engine.enumerate_snapshot()
            writer.start()
            for item in iterator:
                drained.append(item)
                # Park the walk mid-drain until the writer has committed.
                deadline = time.monotonic() + 10.0
                while not progress and time.monotonic() < deadline:
                    time.sleep(0.001)
            during = len(progress)
            writer.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not writer.is_alive()
        assert drained == expected
        assert during > 0  # the writer really ran under the drain
        assert list(engine.enumerate_snapshot()) == expected

    def test_no_pass_through_frame_without_a_recorder(self):
        engine, _ = replay_twins(LIST, Z)
        assert engine.enumerate().gi_code.co_name == "iterate"
        engine.publish_epoch()
        assert engine.enumerate_snapshot().gi_code.co_name == "iterate_epoch"
        db = Database()
        db.create("R", ("Y", "X"))
        db.create("S", ("Y", "Z"))
        facade = IVMEngine(parse_query(LIST), db)
        assert facade.enumerate().gi_code.co_name == "iterate"
        facade.attach_stats()
        assert facade.enumerate().gi_code.co_name == "_observed"


# ----------------------------------------------------------------------
# Drained buckets: an unbound drain hands each last-step bucket over whole
# ----------------------------------------------------------------------

#: Shapes whose last step drains, and the route ``explain`` prints.
DRAINED = {
    "Q(A, C) = R(A, B) * S(B, C)": "A · C (C drained per A bucket)",
    "Q(A, B, D) = R(A, B, C) * S(C, D)": "A · B · D (D drained per B bucket)",
}
#: Shapes whose last step must walk: a valued leaf at the free node above
#: (``T(A)``), and a head order other than ``V_B``'s schema.
WALKED = {
    "Q(A, C) = T(A) * R(A, B) * S(A, B, C)": "A · C",
    "Q(C, A) = R(A, B) * S(B, C)": "A · C",
}


def drain_twins(text, ring_name, count=240, make=None):
    """``(generated, oracle)`` engines under a searched free-top order,
    both fed the same random updates over ``ring_name`` (payloads from
    ``make``, default the ring's own)."""
    ring, default = REPLAY_RINGS[ring_name]
    make = make or default
    query = parse_query(text)
    order = search_order(query, require_free_top=True)

    def make_db():
        db = Database(ring=ring)
        for atom in query.atoms:
            db.create(atom.relation, atom.variables)
        return db

    engines = (
        ViewTreeEngine(query, make_db(), order),
        ViewTreeEngine(query, make_db(), order, generated=False),
    )
    rng = random.Random(f"{text}/{ring_name}")
    apply_both(engines, random_updates(query, ring, make, rng, count, domain=4))
    return engines


def typed(items):
    return [(key, payload, type(payload)) for key, payload in items]


class TestDrainedBuckets:
    @pytest.mark.parametrize("text", sorted({**DRAINED, **WALKED}))
    def test_plan_marks_the_last_step(self, text):
        engine, oracle = drain_twins(text, "int", count=0)
        steps = engine._enum_kernel.plan.steps
        assert [step.drain for step in steps] == [False] * (len(steps) - 1) + [
            text in DRAINED
        ]
        route = {**DRAINED, **WALKED}[text]
        assert engine.describe().splitlines()[-2] == f"enum: {route}"
        assert oracle.describe().splitlines()[-2] == "enum: walk"

    @pytest.mark.parametrize("ring_name", sorted(REPLAY_RINGS))
    @pytest.mark.parametrize("text", sorted({**DRAINED, **WALKED}))
    def test_full_drain_equals_the_walk_and_naive(self, text, ring_name):
        engine, oracle = drain_twins(text, ring_name)
        expected = list(oracle.enumerate())
        drained = engine.enumerate()
        assert type(drained).__name__ == ("chain" if text in DRAINED else "generator")
        got = list(drained)
        assert expected and typed(got) == typed(expected)
        naive = evaluate(engine.query, engine.database).to_dict()
        assert dict(got).keys() == naive.keys()
        # Float sums and min-plus products associate as each side's own
        # join order does.
        exact = ring_name in ("int", "provenance")
        for key, payload in got:
            assert payload == (naive[key] if exact else pytest.approx(naive[key]))

    @pytest.mark.parametrize("ring_name", ["float", "min-plus"])
    @pytest.mark.parametrize("text", sorted(DRAINED))
    def test_int_payloads_come_back_as_the_walk_types_them(self, text, ring_name):
        # The walk's last product is ``1.0 * v`` or ``0.0 + v``, a float
        # even where a view holds an int: the drain multiplies too.
        engine, oracle = drain_twins(
            text, ring_name, make=lambda rng, name, key: rng.randint(1, 3)
        )
        expected = typed(oracle.enumerate())
        assert expected and {kind for _, _, kind in expected} == {float}
        assert typed(engine.enumerate()) == expected

    @pytest.mark.parametrize("ring_name", sorted(REPLAY_RINGS))
    @pytest.mark.parametrize("text", sorted(DRAINED))
    def test_op_counts_and_probes_equal_the_walk(self, text, ring_name):
        engine, oracle = drain_twins(text, ring_name)
        # A prebound request naming no head variable walks every tuple.
        unbound = {"unused": 0}
        assert engine.enumerate(unbound).gi_code.co_name == "walk"

        def drain(prebound):
            stats = MaintenanceStats()
            with counting() as ops:
                items = list(engine._enumerate(prebound, stats))
            return ops.counts, items, stats.enum_guard_probes

        with counting() as ops:
            expected = list(oracle.enumerate())
        counts, items, probes = drain(None)
        assert (counts, items, probes) == drain(unbound)
        assert counts == ops.counts and counts["enum"] > len(items) > 0
        assert items == expected and probes > 0

    @pytest.mark.parametrize("ring_name", sorted(REPLAY_RINGS))
    @pytest.mark.parametrize("text", sorted(DRAINED))
    def test_prebound_and_epoch_reads_keep_the_walk(self, text, ring_name):
        engine, oracle = drain_twins(text, ring_name)
        head = engine.query.head
        for value in range(-1, 4):
            for prebound in ({head[0]: value}, {head[-1]: value}, dict.fromkeys(head, value)):
                walked = engine.enumerate(prebound)
                assert walked.gi_code.co_name == "walk"
                assert typed(walked) == typed(oracle.enumerate(prebound))
        expected = list(oracle.enumerate())
        engine.publish_epoch()
        later = random_updates(
            engine.query, *REPLAY_RINGS[ring_name], random.Random(5), 40, domain=4
        )
        apply_both((engine,), later)
        snapshot = engine.enumerate_snapshot()
        assert snapshot.gi_code.co_name == "iterate_epoch"
        assert typed(snapshot) == typed(expected)
