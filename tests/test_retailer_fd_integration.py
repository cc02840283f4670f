"""Example 4.10 end-to-end: the Retailer FD query through the FD rewrite."""

import random

from repro import IVMEngine
from repro.constraints import q_hierarchical_under_fds
from repro.data import Update, counting
from repro.naive import evaluate
from repro.workloads import retailer_fd_database, retailer_fd_query


class TestRetailerFDIntegration:
    def test_theorem_411_applies(self):
        query, fds = retailer_fd_query()
        assert q_hierarchical_under_fds(query, fds)

    def test_initial_build_matches_naive(self):
        query, fds = retailer_fd_query()
        db = retailer_fd_database(seed=1)
        engine = IVMEngine(query, db, fds)
        assert engine.plan.strategy == "fd-viewtree"
        assert engine.backend.output_relation() == evaluate(query, db)

    def test_inventory_stream_maintenance(self):
        query, fds = retailer_fd_query()
        db = retailer_fd_database(seed=2)
        engine = IVMEngine(query, db, fds)
        rng = random.Random(3)
        inserted: list[tuple] = []
        for _ in range(200):
            if inserted and rng.random() < 0.3:
                key = inserted.pop(rng.randrange(len(inserted)))
                engine.apply(Update("Inventory", key, -1))
            else:
                key = (rng.randrange(40), rng.randrange(30), rng.randrange(80))
                engine.apply(Update("Inventory", key, 1))
                inserted.append(key)
        assert engine.backend.output_relation() == evaluate(query, db)

    def test_census_updates_stay_constant(self):
        """Census is keyed by zip with zip -> locn: its updates are O(1)
        because the Location lookup returns at most one location."""
        query, fds = retailer_fd_query()
        costs = []
        for zips in (15, 60):
            db = retailer_fd_database(
                locations=zips * 3, zips=zips, inventory_rows=zips * 100, seed=4
            )
            engine = IVMEngine(query, db, fds)
            rng = random.Random(5)
            with counting() as ops:
                for _ in range(20):
                    z = rng.randrange(zips)
                    engine.apply(Update("Census", (z, 99_000), 1))
            costs.append(ops.total() / 20)
        assert costs[1] <= costs[0] * 2 + 10

    def test_weather_updates_match(self):
        query, fds = retailer_fd_query()
        db = retailer_fd_database(seed=6)
        engine = IVMEngine(query, db, fds)
        rng = random.Random(7)
        for _ in range(100):
            engine.apply(
                Update(
                    "Weather",
                    (rng.randrange(40), rng.randrange(30)),
                    rng.choice([1, -1]),
                )
            )
        assert engine.backend.output_relation() == evaluate(query, db)
