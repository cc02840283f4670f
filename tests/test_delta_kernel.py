"""Generated single-tuple delta kernels (repro.viewtree.compile + codegen).

The kernels must be *semantically invisible*: for any valid update
stream, any ring, and any supported query shape, the generated engine's
views, scalars, and enumerations are bit-identical to the generic walk's
(``generated=False``, the oracle) — which in turn is differential-tested
against naive recomputation.  Plus: generated engines must survive
pickling (the process-pool shard executor ships them whole), the memory
accounting satellite, and the benchdiff regression gate.
"""

from __future__ import annotations

import bisect
import itertools
import json
import pickle
import random

import pytest

from repro.bench import Table, diff_records
from repro.bench import bench_record as _bench_record
from repro.bench.diff import benchdiff, column_direction, parse_number
from repro.data import Database, Update
from repro.naive import evaluate, evaluate_scalar
from repro.query import parse_query, search_order
from repro.rings import (
    B,
    CovarianceRing,
    LiftingMap,
    Z,
    identity_lifting,
    moment_lifting,
)
from repro.shard import ShardedEngine
from repro.viewtree import DeltaPlan, ViewTreeEngine, compile_delta_plans

from tests.conftest import seeded_db, twin_engines, valid_stream


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


def _record(rows, columns=("configuration", "uniform upd/s"), name="t"):
    table = Table("throughput", list(columns))
    for row in rows:
        table.add(*row)
    return _bench_record(name, table)


class TestBenchdiff:
    def test_identity_has_no_regressions(self):
        record = _record([("plain", "35,156"), ("sharded", "29,628")])
        findings = diff_records(record, record)
        assert len(findings) == 2
        assert not any(f.regressed for f in findings)

    def test_throughput_drop_beyond_band_regresses(self):
        old = _record([("plain", "40,000")])
        new = _record([("plain", "30,000")])
        findings = diff_records(old, new, band=0.2)
        assert [f.regressed for f in findings] == [True]
        # a generous band tolerates the same drop
        assert not diff_records(old, new, band=0.3)[0].regressed

    def test_improvement_never_regresses(self):
        old = _record([("plain", "10,000")])
        new = _record([("plain", "90,000")])
        assert not diff_records(old, new)[0].regressed

    def test_lower_is_better_columns(self):
        columns = ("case", "total ops")
        old = _record([("x", 100)], columns=columns)
        new = _record([("x", 150)], columns=columns)
        assert diff_records(old, new, band=0.2)[0].regressed
        assert not diff_records(new, old, band=0.2)[0].regressed

    def test_row_and_table_matching_is_by_label(self):
        old = _record([("a", "10"), ("b", "20")])
        new = _record([("b", "20"), ("a", "10"), ("c", "5")])
        findings = diff_records(old, new)
        assert {f.row for f in findings} == {"a", "b"}
        assert not any(f.regressed for f in findings)

    def test_compound_row_labels(self):
        """Rows sharing a first cell (query × workload tables) must match
        on the full non-metric label tuple, not just column 0."""
        columns = ("query", "workload", "generic upd/s")
        old = _record(
            [("q-hier", "uniform", "10,000"), ("q-hier", "zipf", "2,000")],
            columns=columns,
        )
        # Same data, rows reordered: nothing regresses.
        new = _record(
            [("q-hier", "zipf", "2,000"), ("q-hier", "uniform", "10,000")],
            columns=columns,
        )
        findings = diff_records(old, new)
        assert len(findings) == 2
        assert not any(f.regressed for f in findings)
        # Only the zipf row drops: exactly one regression, on that row.
        new = _record(
            [("q-hier", "uniform", "10,000"), ("q-hier", "zipf", "1,000")],
            columns=columns,
        )
        regressed = [f for f in diff_records(old, new) if f.regressed]
        assert [f.row for f in regressed] == ["q-hier / zipf"]

    def test_parse_number_formats(self):
        assert parse_number("12,345") == 12345
        assert parse_number("3.2x") == 3.2
        assert parse_number("+15%") == 15
        assert parse_number(7) == 7.0
        assert parse_number("n/a") is None
        assert parse_number(None) is None

    def test_column_directions(self):
        assert column_direction("uniform upd/s") == "higher"
        assert column_direction("speedup") == "higher"
        assert column_direction("total ops") == "lower"
        assert column_direction("seconds") == "lower"
        assert column_direction("configuration") is None

    def test_cli_exit_codes(self, tmp_path, capsys):
        old_path = tmp_path / "old.json"
        new_path = tmp_path / "new.json"
        old_path.write_text(json.dumps(_record([("plain", "40,000")])))
        new_path.write_text(json.dumps(_record([("plain", "10,000")])))
        from repro.cli import main

        assert main(["benchdiff", str(old_path), str(old_path)]) == 0
        assert main(["benchdiff", str(old_path), str(new_path)]) == 1
        assert (
            main(["benchdiff", str(old_path), str(new_path), "--band", "0.9"])
            == 0
        )
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError):
            benchdiff(str(bad), str(bad))
