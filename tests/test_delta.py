"""Delta queries: the symbolic rules (1)-(3) and the first-order engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.data import Database, Relation, Update, permuted
from repro.delta import Aggregate, DeltaQueryEngine, Join, Leaf, Union, from_query
from repro.naive import evaluate, evaluate_scalar
from repro.query import parse_query
from tests.conftest import fig2_database

TRIANGLE = parse_query("Q() = R(A,B) * S(B,C) * T(C,A)")


class TestSymbolicDeltaRules:
    def test_rule_2_join(self):
        expr = Join(Leaf("R", ("A", "B")), Leaf("S", ("B", "C")))
        delta = expr.delta("R")
        assert str(delta) == "(dR(A, B) . S(B, C))"

    def test_rule_2_both_sides(self):
        expr = Join(Leaf("E", ("A", "B")), Leaf("E", ("B", "C")))
        delta = expr.delta("E")
        text = str(delta)
        # All three terms of rule (2): dE.E, E.dE, dE.dE.
        assert text.count("dE") == 4
        assert "(dE(A, B) . dE(B, C))" in text

    def test_rule_1_union(self):
        expr = Union(Leaf("R", ("A",)), Leaf("S", ("A",)))
        assert str(expr.delta("R")) == "dR(A)"
        assert str(expr.delta("S")) == "dS(A)"
        both = Union(Leaf("R", ("A",)), Leaf("R", ("A",)))
        assert "(+)" in str(both.delta("R"))

    def test_rule_3_aggregate(self):
        expr = Aggregate("B", Leaf("R", ("A", "B")))
        assert str(expr.delta("R")) == "SUM_B dR(A, B)"

    def test_empty_delta_pruned(self):
        expr = Join(Leaf("R", ("A", "B")), Leaf("S", ("B", "C")))
        assert expr.delta("T") is None

    def test_example_3_1_derivation(self):
        """The derivation in Example 3.1: the delta of the triangle query
        w.r.t. R is SUM dR(A,B) . S(B,C) . T(C,A) — one join term only."""
        expr = from_query(TRIANGLE)
        delta = expr.delta("R")
        text = str(delta)
        assert "dR(A, B)" in text
        assert "dS" not in text and "dT" not in text
        assert "(+)" not in text  # single term: S and T are unchanged

    def test_symbolic_evaluation_matches_example(self):
        db = fig2_database()
        expr = from_query(TRIANGLE)
        assert expr.evaluate(db).get(()) == 9
        delta_expr = expr.delta("R")
        d_r = Relation("R", ("A", "B"), data={("a2", "b1"): -2})
        delta_value = delta_expr.evaluate(db, deltas={"R": d_r})
        assert delta_value.get(()) == -4

    def test_union_schema_mismatch(self):
        expr = Union(Leaf("R", ("A",)), Leaf("S", ("B",)))
        with pytest.raises(ValueError):
            expr.schema()

    def test_leaf_requires_delta_binding(self):
        leaf = Leaf("R", ("A",), is_delta=True)
        db = Database()
        db.create("R", ("A",))
        with pytest.raises(ValueError):
            leaf.evaluate(db)

    def test_operator_sugar(self):
        expr = Leaf("R", ("A",)) * Leaf("S", ("A",)) + (
            Leaf("R", ("A",)) * Leaf("T", ("A",))
        )
        assert isinstance(expr, Union)


class TestDeltaQueryEngine:
    def test_example_3_1_end_to_end(self):
        db = fig2_database()
        engine = DeltaQueryEngine(TRIANGLE, db)
        assert engine.scalar() == 9
        engine.apply(Update("R", ("a2", "b1"), -2))
        assert engine.scalar() == 5
        assert db["R"].get(("a2", "b1")) == 1  # 3 - 2, as in the paper

    def test_eager_tracks_naive(self, rng):
        db = Database()
        for name, schema in [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "A"))]:
            db.create(name, schema)
        engine = DeltaQueryEngine(TRIANGLE, db)
        for _ in range(150):
            rel = rng.choice(["R", "S", "T"])
            engine.apply(
                Update(rel, (rng.randrange(6), rng.randrange(6)), rng.choice([1, 1, -1]))
            )
        assert engine.scalar() == evaluate_scalar(TRIANGLE, db)

    def test_lazy_buffers_until_enumeration(self, rng):
        db = Database()
        for name, schema in [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "A"))]:
            db.create(name, schema)
        engine = DeltaQueryEngine(TRIANGLE, db, eager=False)
        engine.apply(Update("R", (1, 1), 1))
        assert len(db["R"]) == 0  # not yet applied
        engine.refresh()
        assert db["R"].get((1, 1)) == 1

    def test_lazy_matches_eager(self, rng):
        updates = [
            Update(
                rng.choice(["R", "S", "T"]),
                (rng.randrange(5), rng.randrange(5)),
                rng.choice([1, 1, -1]),
            )
            for _ in range(120)
        ]

        def run(eager):
            db = Database()
            for name, schema in [
                ("R", ("A", "B")),
                ("S", ("B", "C")),
                ("T", ("C", "A")),
            ]:
                db.create(name, schema)
            engine = DeltaQueryEngine(TRIANGLE, db, eager=eager)
            for i, update in enumerate(updates):
                engine.apply(update)
                if i % 40 == 39:
                    engine.refresh()
            return engine.scalar()

        assert run(True) == run(False)

    def test_non_boolean_output(self, rng):
        q = parse_query("Q(A) = R(A, B) * S(B)")
        db = Database()
        db.create("R", ("A", "B"))
        db.create("S", ("B",))
        engine = DeltaQueryEngine(q, db)
        for _ in range(100):
            if rng.random() < 0.5:
                engine.apply(Update("R", (rng.randrange(6), rng.randrange(6)), 1))
            else:
                engine.apply(Update("S", (rng.randrange(6),), rng.choice([1, -1])))
        assert engine.result() == evaluate(q, db)

    def test_self_join_deltas(self, rng):
        q = parse_query("Q(A, C) = E(A, B) * E(B, C)")
        db = Database()
        db.create("E", ("A", "B"))
        engine = DeltaQueryEngine(q, db)
        for _ in range(80):
            engine.apply(
                Update("E", (rng.randrange(5), rng.randrange(5)), rng.choice([1, 1, -1]))
            )
        assert engine.result() == evaluate(q, db)

    def test_self_join_lazy_drains_tuple_by_tuple(self, rng):
        q = parse_query("Q(A, C) = E(A, B) * E(B, C)")
        db = Database()
        db.create("E", ("A", "B"))
        engine = DeltaQueryEngine(q, db, eager=False)
        for _ in range(40):
            engine.apply(Update("E", (rng.randrange(4), rng.randrange(4)), 1))
        assert engine.result() == evaluate(q, db)

    def test_update_to_unknown_relation(self):
        db = fig2_database()
        db.create("Other", ("A",))
        engine = DeltaQueryEngine(TRIANGLE, db)
        engine.apply(Update("Other", (1,), 1))  # no-op for the output
        assert engine.scalar() == 9

    def test_scalar_requires_boolean(self):
        db = fig2_database()
        q = parse_query("Q(A) = R(A, B) * S(B, C) * T(C, A)")
        engine = DeltaQueryEngine(q, db)
        with pytest.raises(ValueError):
            engine.scalar()

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_batch_order_invariance(self, seed):
        """Commutativity (Section 2): permuting a batch leaves the
        maintained output unchanged."""
        import random

        local = random.Random(seed)
        batch = [
            Update(
                local.choice(["R", "S", "T"]),
                (local.randrange(4), local.randrange(4)),
                local.choice([1, -1]),
            )
            for _ in range(30)
        ]

        def run(updates):
            db = fig2_database()
            engine = DeltaQueryEngine(TRIANGLE, db)
            for update in updates:
                engine.apply(update)
            return engine.scalar()

        assert run(batch) == run(permuted(batch, seed))
