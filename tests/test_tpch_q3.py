"""TPC-H Q3 end-to-end: generator invariants and FD-plan correctness."""

import random

import pytest

from repro import IVMEngine
from repro.data import Update
from repro.delta import DeltaQueryEngine
from repro.naive import evaluate
from repro.workloads.tpch import tpch_q3_database, tpch_queries

Q3 = next(q for q in tpch_queries() if q.name == "Q3")


class TestGenerator:
    def test_fds_hold_by_construction(self):
        db = tpch_q3_database(customers=20, seed=1)
        seen: dict[int, tuple] = {}
        for ok, ck, odate in db["O"].keys():
            assert seen.setdefault(ok, (ck, odate)) == (ck, odate)

    def test_referential_integrity(self):
        db = tpch_q3_database(customers=15, seed=2)
        customer_keys = {key[0] for key in db["C"].keys()}
        order_keys = {key[0] for key in db["O"].keys()}
        for _ok, ck, _odate in db["O"].keys():
            assert ck in customer_keys
        for ok, _pk, _sk in db["L"].keys():
            assert ok in order_keys

    def test_sizes_scale(self):
        small = tpch_q3_database(customers=10)
        large = tpch_q3_database(customers=40)
        assert len(large) > 3 * len(small)


class TestQ3Maintenance:
    def test_fd_engine_matches_naive(self):
        db = tpch_q3_database(customers=25, seed=3)
        engine = IVMEngine(Q3.query, db, Q3.fds)
        assert engine.plan.strategy == "fd-viewtree"
        rng = random.Random(4)
        for _ in range(100):
            engine.apply(
                Update("L", (rng.randrange(125), rng.randrange(50), rng.randrange(50)), 1)
            )
        assert engine.backend.output_relation() == evaluate(Q3.query, db)

    def test_customer_updates_match(self):
        db = tpch_q3_database(customers=15, seed=5)
        engine = IVMEngine(Q3.query, db, Q3.fds)
        # Segment change for customer 3: delete then insert.
        engine.apply(Update("C", (3, "seg3"), -1))
        engine.apply(Update("C", (3, "segX"), 1))
        assert engine.backend.output_relation() == evaluate(Q3.query, db)

    def test_agrees_with_delta_engine(self):
        db = tpch_q3_database(customers=12, seed=6)
        fd_engine = IVMEngine(Q3.query, db.copy(), Q3.fds)
        delta_engine = DeltaQueryEngine(Q3.query, db.copy())
        rng = random.Random(7)
        updates = [
            Update("L", (rng.randrange(60), rng.randrange(24), rng.randrange(50)), 1)
            for _ in range(50)
        ]
        for update in updates:
            fd_engine.apply(update)
            delta_engine.apply(update)
        assert fd_engine.backend.output_relation() == delta_engine.result()
