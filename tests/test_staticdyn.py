"""Static vs dynamic relations: analysis and the plan it yields (Section 4.5)."""

import pytest

from repro import IVMEngine, plan_maintenance
from repro.data import Database, Update, counting
from repro.naive import evaluate
from repro.query import canonical_order, parse_query
from repro.staticdyn import (
    StaticRelationUpdateError,
    constant_update_atoms,
    enumerate_orders,
    find_static_dynamic_order,
    is_static_dynamic_tractable,
)
from tests.conftest import valid_stream

EX414 = parse_query("Q(A,B,C) = R(A,D) * S(A,B) * T@s(B,C)")


class TestAnalysis:
    def test_constant_atoms_for_q_hierarchical(self):
        q = parse_query("Q(Y,X,Z) = R(Y,X) * S(Y,Z)")
        order = canonical_order(q)
        assert constant_update_atoms(order) == set(q.atoms)

    def test_ex414_order_exists(self):
        order = find_static_dynamic_order(EX414)
        assert order is not None
        constant = constant_update_atoms(order)
        assert set(EX414.dynamic_atoms) <= constant

    def test_t_updates_not_constant_in_found_order(self):
        order = find_static_dynamic_order(EX414)
        t_atom = EX414.atom_for_relation("T")
        # The paper: "if we would allow updates to T as well, then one
        # such update would take linear time".
        assert t_atom not in constant_update_atoms(order)

    def test_enumerate_orders_all_valid(self):
        q = parse_query("Q(A,B) = R(A,B) * S(B)")
        orders = list(enumerate_orders(q, limit=100))
        assert orders
        for order in orders:
            assert order.is_free_top()
            assert {n.variable for n in order.walk()} == {"A", "B"}

    def test_tractability_trio(self):
        assert is_static_dynamic_tractable(EX414)
        q2 = parse_query("Q(A,C,D) = R(A,D) * S@s(A,B) * T@s(B,C) * U(D)")
        assert is_static_dynamic_tractable(q2)
        q3 = parse_query("Q(A,B) = R(A) * S@s(A,B) * T(B)")
        assert not is_static_dynamic_tractable(q3)

    def test_all_static_query_tractable(self):
        q = parse_query("Q(A,B,C) = R@s(A,B) * S@s(B,C)")
        assert is_static_dynamic_tractable(q)

    def test_all_dynamic_falls_back_to_q_hierarchy(self):
        q_good = parse_query("Q(Y,X,Z) = R(Y,X) * S(Y,Z)")
        assert is_static_dynamic_tractable(q_good)
        q_bad = parse_query("Q(A,B,C) = R(A,D) * S(A,B) * T(B,C)")
        assert not is_static_dynamic_tractable(q_bad)


class TestEngine:
    def make_db(self, rng):
        db = Database()
        db.create("R", ("A", "D"))
        db.create("S", ("A", "B"))
        t = db.create("T", ("B", "C"))
        for _ in range(120):
            t.insert(rng.randrange(8), rng.randrange(8))
        return db

    def test_static_updates_rejected(self, rng):
        db = self.make_db(rng)
        engine = IVMEngine(EX414, db)
        assert engine.plan.strategy == "static-dynamic"
        before = db["T"].to_dict()
        with pytest.raises(StaticRelationUpdateError):
            engine.apply(Update("T", (0, 0), 1))
        # Rejected before any write, on the batch path too.
        with pytest.raises(StaticRelationUpdateError):
            engine.apply_batch([Update("S", (1, 1), 1), Update("T", (0, 0), 1)])
        assert db["T"].to_dict() == before and len(db["S"]) == 0

    def test_differential(self, rng):
        db = self.make_db(rng)
        engine = IVMEngine(EX414, db)
        for update in valid_stream(rng, {"R": 2, "S": 2}, 250, domain=8):
            engine.apply(update)
        assert dict(engine.enumerate()) == evaluate(EX414, db).to_dict()

    def test_intractable_rejected(self):
        """No order qualifies, so the planner never picks the rewrite."""
        q3 = parse_query("Q(A,B) = R(A) * S@s(A,B) * T(B)")
        assert find_static_dynamic_order(q3) is None
        assert plan_maintenance(q3).strategy != "static-dynamic"

    def test_dynamic_updates_are_constant_time(self, rng):
        """The Section 4.5 upper bound: O(1) per dynamic single-tuple
        update even as the static relation grows."""
        costs = []
        for t_rows in (100, 800):
            db = Database()
            db.create("R", ("A", "D"))
            db.create("S", ("A", "B"))
            t = db.create("T", ("B", "C"))
            for i in range(t_rows):
                t.insert(i % 20, i)
            engine = IVMEngine(EX414, db)
            with counting() as ops:
                for i in range(20):
                    engine.apply(Update("S", (i % 5, i % 20), 1))
                    engine.apply(Update("R", (i % 5, i), 1))
            costs.append(ops.total() / 40)
        assert costs[1] <= costs[0] * 2 + 10

    def test_second_ex414_query_preprocesses_static_join(self, rng):
        q2 = parse_query("Q(A,C,D) = R(A,D) * S@s(A,B) * T@s(B,C) * U(D)")
        db = Database()
        db.create("R", ("A", "D"))
        db.create("U", ("D",))
        s = db.create("S", ("A", "B"))
        t = db.create("T", ("B", "C"))
        for _ in range(60):
            s.insert(rng.randrange(6), rng.randrange(6))
            t.insert(rng.randrange(6), rng.randrange(6))
        engine = IVMEngine(q2, db)
        assert engine.plan.strategy == "static-dynamic"
        for update in valid_stream(rng, {"R": 2, "U": 1}, 150, domain=6):
            engine.apply(update)
        assert dict(engine.enumerate()) == evaluate(q2, db).to_dict()
