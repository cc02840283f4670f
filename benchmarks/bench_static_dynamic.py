"""Example 4.14 / Section 4.5: static relations unlock O(1) updates.

``Q(A,B,C) = SUM_D R^d(A,D) * S^d(A,B) * T^s(B,C)`` is not
q-hierarchical, so in the all-dynamic setting no engine can give O(1)
updates and delay (Theorem 4.1).  Declaring T static makes the mixed
view tree of Example 4.14 constant-time per dynamic update.  The bench
grows the static relation and shows the dynamic update cost staying
flat, against the first-order delta engine whose S-updates grow.
"""

from __future__ import annotations

import random

from repro import IVMEngine
from repro.bench import Table, growth_exponent
from repro.data import Database, Update, counting
from repro.delta import DeltaQueryEngine
from repro.query import parse_query

from _util import report

QUERY = parse_query("Q(A,B,C) = R(A,D) * S(A,B) * T@s(B,C)")
ALL_DYNAMIC = parse_query("Q(A,B,C) = R(A,D) * S(A,B) * T(B,C)")
SIZES = [500, 2000, 8000]


def _database(t_rows, seed=0):
    rng = random.Random(seed)
    db = Database()
    r = db.create("R", ("A", "D"))
    s = db.create("S", ("A", "B"))
    t = db.create("T", ("B", "C"))
    # Fixed B domain: T's per-B groups grow linearly with |T|, which is
    # what makes naive S-deltas expensive.
    b_domain = 20
    for i in range(t_rows):
        t.insert(rng.randrange(b_domain), i)
    for i in range(200):
        r.insert(i % 40, i)
        s.insert(i % 40, rng.randrange(b_domain))
    return db, b_domain


def bench_static_dynamic_table(benchmark):
    benchmark.pedantic(_static_dynamic_table, rounds=1, iterations=1)


def _static_dynamic_table():
    table = Table(
        "Example 4.14 -- ops per dynamic update vs static |T|",
        ["|T|", "static/dynamic tree", "all-dynamic delta engine"],
    )
    tree_costs, delta_costs = [], []
    for t_rows in SIZES:
        rng = random.Random(t_rows)
        db, b_domain = _database(t_rows)
        engine = IVMEngine(QUERY, db)
        with counting() as ops:
            for i in range(30):
                engine.apply(Update("S", (i % 10, rng.randrange(b_domain)), 1))
                engine.apply(Update("R", (i % 10, i), 1))
        tree_cost = ops.total() / 60

        db2, b_domain2 = _database(t_rows)
        delta_engine = DeltaQueryEngine(ALL_DYNAMIC, db2)
        with counting() as ops:
            for i in range(10):
                delta_engine.apply(Update("S", (i % 10, rng.randrange(b_domain2)), 1))
        delta_cost = ops.total() / 10

        tree_costs.append(tree_cost)
        delta_costs.append(delta_cost)
        table.add(t_rows, tree_cost, delta_cost)

    table.add(
        "growth exp",
        round(growth_exponent(SIZES, tree_costs), 2),
        round(growth_exponent(SIZES, delta_costs), 2),
    )
    report(table, "static_dynamic.txt")
    assert growth_exponent(SIZES, tree_costs) < 0.25
    assert growth_exponent(SIZES, delta_costs) > 0.5


def bench_static_dynamic_update(benchmark):
    db, b_domain = _database(5000)
    engine = IVMEngine(QUERY, db)
    rng = random.Random(4)

    def one_update():
        engine.apply(Update("S", (rng.randrange(50), rng.randrange(b_domain)), 1))

    benchmark(one_update)
