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

import json
import pickle
import random

import pytest

from repro.core.engine import IVMEngine
from repro.data import Update
from repro.naive import evaluate
from repro.obs import MaintenanceStats
from repro.query import parse_query, search_order
from repro.rings import B, MIN_PLUS, PROVENANCE, R, Z
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

    def test_rebuild_keeps_plan_valid(self):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        compiled, generic = twin_engines(query, schemas, seed=13)
        for update in valid_stream(random.Random(2), {"R": 2, "S": 2}, 200):
            compiled.apply(update)
            generic.apply(update)
        compiled.rebuild()
        generic.rebuild()
        # The plan references view/guard/leaf objects that rebuild()
        # refills in place, so it stays valid without recompilation.
        assert list(compiled.enumerate()) == list(generic.enumerate())


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
