"""Section 4.4 end-to-end: maintaining TPC-H Q3 under its key FDs.

Q3 joins Customer, Orders, Lineitem and is not hierarchical — but its
Sigma-reduct under ``ok -> ck, ok -> odate`` is q-hierarchical, so the
FD-guided view tree (Theorem 4.11) maintains it with O(1) updates.  The
bench streams lineitem inserts and customer-segment changes against the
FD engine and the first-order delta engine; the delta engine's
customer-side updates grow with the customer's order x lineitem fan-out
while the FD engine stays flat.
"""

from __future__ import annotations

import random

from repro import IVMEngine
from repro.bench import Table, growth_exponent
from repro.data import Update, counting
from repro.delta import DeltaQueryEngine
from repro.workloads.tpch import tpch_q3_database, tpch_queries

from _util import report

Q3_ITEM = next(q for q in tpch_queries() if q.name == "Q3")
SCALES = [50, 200, 800]


def _customer_updates(customers, count, seed=1):
    """Segment changes: delete the old tuple, insert the new one."""
    rng = random.Random(seed)
    updates = []
    for _ in range(count):
        ck = rng.randrange(customers)
        old_seg = f"seg{ck % 5}"
        updates.append(Update("C", (ck, old_seg), -1))
        updates.append(Update("C", (ck, old_seg), 1))
    return updates


def bench_tpch_q3_table(benchmark):
    benchmark.pedantic(_q3_table, rounds=1, iterations=1)


def _q3_table():
    table = Table(
        "TPC-H Q3 under FDs -- ops per customer-side update",
        ["customers", "FD view tree (Thm 4.11)", "delta engine"],
    )
    fd_costs, delta_costs = [], []
    for customers in SCALES:
        db = tpch_q3_database(customers=customers, seed=customers)
        probes = _customer_updates(customers, 15, seed=2)

        fd_engine = IVMEngine(Q3_ITEM.query, db.copy(), Q3_ITEM.fds)
        with counting() as ops:
            for probe in probes:
                fd_engine.apply(probe)
        fd_cost = ops.total() / len(probes)

        delta_engine = DeltaQueryEngine(Q3_ITEM.query, db.copy())
        with counting() as ops:
            for probe in probes:
                delta_engine.apply(probe)
        delta_cost = ops.total() / len(probes)

        fd_costs.append(fd_cost)
        delta_costs.append(delta_cost)
        table.add(customers, fd_cost, delta_cost)

    table.add(
        "growth exp",
        round(growth_exponent(SCALES, fd_costs), 2),
        round(growth_exponent(SCALES, delta_costs), 2),
    )
    report(table, "tpch_q3_maintenance.txt")
    assert growth_exponent(SCALES, fd_costs) < 0.2
    assert fd_costs[-1] < delta_costs[-1]


def bench_tpch_q3_lineitem_insert(benchmark):
    """Wall-clock lineitem insert through the FD engine."""
    db = tpch_q3_database(customers=300, seed=5)
    engine = IVMEngine(Q3_ITEM.query, db, Q3_ITEM.fds)
    rng = random.Random(6)

    def one_insert():
        engine.apply(
            Update("L", (rng.randrange(1500), rng.randrange(600), rng.randrange(50)), 1)
        )

    benchmark(one_insert)
