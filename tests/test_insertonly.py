"""Insert-only maintenance (Section 4.6): monotone activation engine."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.data import Database, Update, counting
from repro.insertonly import InsertOnlyEngine
from repro.naive import evaluate
from repro.query import parse_query

PATH3 = parse_query("Qp(A,B,C,D) = R(A,B) * S(B,C) * T(C,D)")


def replay(query, schemas, inserts):
    """Run the engine and a naive oracle over the same insert stream."""
    engine = InsertOnlyEngine(query)
    db = Database()
    for name, arity in schemas.items():
        db.create(name, tuple(f"v{i}" for i in range(arity)))
    for name, key in inserts:
        engine.insert(name, key)
        db[name].set(key, 1)
    return engine, db


class TestBasics:
    def test_rejects_cyclic(self):
        with pytest.raises(ValueError):
            InsertOnlyEngine(parse_query("Q() = R(A,B)*S(B,C)*T(C,A)"))

    def test_rejects_self_join(self):
        with pytest.raises(ValueError):
            InsertOnlyEngine(parse_query("Q(A,B,C) = E(A,B) * E(B,C)"))

    def test_rejects_delete(self):
        engine = InsertOnlyEngine(PATH3)
        with pytest.raises(ValueError):
            engine.apply(Update("R", (1, 2), -1))

    def test_unknown_relation(self):
        engine = InsertOnlyEngine(PATH3)
        with pytest.raises(KeyError):
            engine.insert("X", (1,))

    def test_duplicate_insert_ignored(self):
        engine = InsertOnlyEngine(PATH3)
        engine.insert("R", (1, 2))
        engine.insert("R", (1, 2))
        assert engine.alive_count("R") <= 1

    def test_empty_join(self):
        engine = InsertOnlyEngine(PATH3)
        engine.insert("R", (1, 2))
        assert not engine.is_nonempty()
        assert list(engine.enumerate()) == []

    def test_single_path(self):
        engine = InsertOnlyEngine(PATH3)
        engine.insert("R", (1, 2))
        engine.insert("S", (2, 3))
        engine.insert("T", (3, 4))
        assert engine.is_nonempty()
        assert list(engine.enumerate()) == [((1, 2, 3, 4), 1)]

    def test_activation_on_late_leaf(self):
        """Inserting the missing leaf last activates the whole chain."""
        engine = InsertOnlyEngine(PATH3)
        engine.insert("R", (1, 2))
        engine.insert("T", (3, 4))
        assert not engine.is_nonempty()
        engine.insert("S", (2, 3))
        assert engine.is_nonempty()

    def test_disconnected_query(self):
        q = parse_query("Q(A, B) = R(A) * S(B)")
        engine = InsertOnlyEngine(q)
        engine.insert("R", (1,))
        assert not engine.is_nonempty()
        engine.insert("S", (2,))
        assert engine.is_nonempty()
        assert list(engine.enumerate()) == [((1, 2), 1)]


class TestDifferential:
    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_path_join_matches_naive(self, seed):
        local = random.Random(seed)
        inserts = [
            (local.choice(["R", "S", "T"]), (local.randrange(5), local.randrange(5)))
            for _ in range(60)
        ]
        engine, db = replay(PATH3, {"R": 2, "S": 2, "T": 2}, inserts)
        got = sorted(key for key, _ in engine.enumerate())
        expected = sorted(evaluate(PATH3, db).keys())
        assert got == expected

    def test_star_join(self, rng):
        q = parse_query("Q(A,B,C,D) = R(A,B) * S(A,C) * T(A,D)")
        inserts = [
            (rng.choice(["R", "S", "T"]), (rng.randrange(6), rng.randrange(6)))
            for _ in range(150)
        ]
        engine, db = replay(q, {"R": 2, "S": 2, "T": 2}, inserts)
        assert sorted(dict(engine.enumerate())) == sorted(evaluate(q, db).keys())

    def test_interleaving_orders_agree(self, rng):
        inserts = [
            (rng.choice(["R", "S", "T"]), (rng.randrange(4), rng.randrange(4)))
            for _ in range(60)
        ]
        engine_a, _ = replay(PATH3, {"R": 2, "S": 2, "T": 2}, inserts)
        shuffled = list(inserts)
        rng.shuffle(shuffled)
        engine_b, _ = replay(PATH3, {"R": 2, "S": 2, "T": 2}, shuffled)
        assert sorted(engine_a.enumerate()) == sorted(engine_b.enumerate())


    def test_permuted_head_with_repeated_inserts_matches_naive(self, rng):
        """Keys come in head order and payloads multiply the joined
        tuples' summed inserts, as ``repro.naive`` computes them."""
        q = parse_query("Q(D, C, B, A) = R(A, B) * S(B, C) * T(C, D)")
        db = Database()
        for name, schema in (("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))):
            db.create(name, schema)
        engine = InsertOnlyEngine(q)
        for _ in range(120):
            name, key = rng.choice("RST"), (rng.randrange(3), rng.randrange(3))
            engine.apply(Update(name, key, 1))
            db[name].add(key, 1)
        assert dict(engine.enumerate()) == evaluate(q, db).to_dict()
        assert max(dict(engine.enumerate()).values()) > 1
        with pytest.raises(ValueError, match="full join"):
            InsertOnlyEngine(parse_query("Q(A) = R(A, B) * S(B, C)"))


class TestAmortizedConstant:
    def test_total_work_linear_in_inserts(self):
        """Section 4.6: amortized O(1) per insert — total ops stay within
        a constant factor of the number of inserts, even on the path
        query, which under insert-delete could not achieve this."""
        per_insert = []
        for n in (500, 2000):
            engine = InsertOnlyEngine(PATH3)
            local = random.Random(1)
            with counting() as ops:
                for _ in range(n):
                    rel = local.choice(["R", "S", "T"])
                    engine.insert(
                        rel, (local.randrange(n // 10), local.randrange(n // 10))
                    )
            per_insert.append(ops.total() / n)
        # Amortized cost stays flat as N quadruples.
        assert per_insert[1] <= per_insert[0] * 2 + 5

    def test_worst_case_single_insert_can_be_large_but_amortizes(self):
        """One insert can activate many tuples at once; the point of the
        amortization is that this happens at most once per tuple."""
        engine = InsertOnlyEngine(PATH3)
        for i in range(200):
            engine.insert("R", (i, 0))
            engine.insert("T", (1, i))
        assert not engine.is_nonempty()
        with counting() as ops:
            engine.insert("S", (0, 1))  # activates all 200 R tuples
        first = ops.total()
        with counting() as ops:
            engine.insert("S", (0, 1))  # duplicate: free
        assert ops.total() < first
