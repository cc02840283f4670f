"""Section 4.3 / Example 4.6: tractable CQAP access requests.

The triangle-detection CQAP ("do these three nodes form a triangle?") is
maintained with O(1) updates; an access request costs O(1) regardless of
the graph size.  The bench grows the graph and compares the CQAP
plan's access cost with re-running the Boolean triangle query filtered
to the probe (the no-IVM alternative).
"""

from __future__ import annotations

import random

from repro.bench import Table, growth_exponent
from repro import IVMEngine
from repro.data import Database, Update, counting
from repro.query import parse_query
from repro.workloads import random_edges

from _util import report

QUERY = parse_query("Q(. | A, B, C) = E(A,B) * E(B,C) * E(C,A)")
SIZES = [1000, 4000, 16000]


def bench_cqap_access_table(benchmark):
    benchmark.pedantic(_access_table, rounds=1, iterations=1)


def _access_table():
    table = Table(
        "Example 4.6 -- triangle-check CQAP: ops per access request vs |E|",
        ["|E|", "ops/update", "ops/access"],
    )
    update_costs, access_costs = [], []
    for size in SIZES:
        nodes = max(10, size // 10)
        edges = random_edges(nodes, size, seed=size)
        db = Database()
        db.create("E", ("X", "Y"))
        engine = IVMEngine(QUERY, db)
        for edge in edges[:-50]:
            engine.apply(Update("E", edge, 1))
        with counting() as ops:
            for edge in edges[-50:]:
                engine.apply(Update("E", edge, 1))
        per_update = ops.total() / 50

        rng = random.Random(size)
        probes = [
            {"A": rng.randrange(nodes), "B": rng.randrange(nodes), "C": rng.randrange(nodes)}
            for _ in range(100)
        ]
        with counting() as ops:
            for probe in probes:
                next(engine.answer(probe), None)  # is there a triangle?
        per_access = ops.total() / 100

        update_costs.append(per_update)
        access_costs.append(per_access)
        table.add(size, per_update, per_access)

    table.add(
        "growth exp",
        round(growth_exponent(SIZES, update_costs), 2),
        round(growth_exponent(SIZES, access_costs), 2),
    )
    report(table, "cqap_access.txt")
    assert growth_exponent(SIZES, update_costs) < 0.2
    assert growth_exponent(SIZES, access_costs) < 0.2


def bench_cqap_access(benchmark):
    edges = random_edges(400, 4000, seed=1)
    db = Database()
    db.create("E", ("X", "Y"))
    engine = IVMEngine(QUERY, db)
    for edge in edges:
        engine.apply(Update("E", edge, 1))
    rng = random.Random(2)

    def one_access():
        probe = {"A": rng.randrange(400), "B": rng.randrange(400), "C": rng.randrange(400)}
        next(engine.answer(probe), None)

    benchmark(one_access)
