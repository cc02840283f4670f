"""Example 4.12 / Fig. 6: FD-guided maintenance of a non-hierarchical
query.

``Q(Z,Y,X,W) = R(X,W) * S(X,Y) * T(Y,Z)`` with ``X -> Y, Y -> Z``: the
FD-guided view tree achieves O(1) single-tuple updates on FD-satisfying
data, while the first-order delta engine pays per matching join tuple.
"""

from __future__ import annotations

import random

from repro.bench import Table, growth_exponent
from repro import IVMEngine
from repro.constraints import parse_fds
from repro.data import Database, Update, counting
from repro.delta import DeltaQueryEngine
from repro.query import parse_query

from _util import report

QUERY = parse_query("Q(Z, Y, X, W) = R(X, W) * S(X, Y) * T(Y, Z)")
FDS = parse_fds("X -> Y", "Y -> Z")
SIZES = [500, 2000, 8000]


def _database(n, seed=0):
    rng = random.Random(seed)
    db = Database()
    r = db.create("R", ("X", "W"))
    s = db.create("S", ("X", "Y"))
    t = db.create("T", ("Y", "Z"))
    x_domain = max(4, n // 8)
    y_domain = max(2, x_domain // 4)
    for x in range(x_domain):
        s.insert(x, x % y_domain)
    for y in range(y_domain):
        t.insert(y, y % max(2, y_domain // 2))
    for _ in range(n):
        r.insert(rng.randrange(x_domain), rng.randrange(n))
    return db, x_domain


def bench_fd_maintenance_table(benchmark):
    benchmark.pedantic(_fd_table, rounds=1, iterations=1)


def _fd_table():
    table = Table(
        "Example 4.12 -- ops per R-update: FD view tree vs delta queries",
        ["N", "FD engine", "delta engine"],
    )
    fd_costs, delta_costs = [], []
    for n in SIZES:
        rng = random.Random(n)
        db, x_domain = _database(n)
        fd_engine = IVMEngine(QUERY, db.copy(), FDS)
        with counting() as ops:
            for _ in range(30):
                fd_engine.apply(
                    Update("R", (rng.randrange(x_domain), rng.randrange(n)), 1)
                )
        fd_cost = ops.total() / 30

        delta_engine = DeltaQueryEngine(QUERY, db.copy())
        with counting() as ops:
            for _ in range(10):
                delta_engine.apply(
                    Update("R", (rng.randrange(x_domain), rng.randrange(n)), 1)
                )
        delta_cost = ops.total() / 10

        fd_costs.append(fd_cost)
        delta_costs.append(delta_cost)
        table.add(n, fd_cost, delta_cost)

    table.add(
        "growth exp",
        round(growth_exponent(SIZES, fd_costs), 2),
        round(growth_exponent(SIZES, delta_costs), 2),
    )
    report(table, "fd_maintenance.txt")
    # O(1) for the FD engine; the delta engine's cost grows.
    assert growth_exponent(SIZES, fd_costs) < 0.2
    assert fd_costs[-1] < delta_costs[-1]


def bench_fd_engine_update(benchmark):
    db, x_domain = _database(4000)
    engine = IVMEngine(QUERY, db, FDS)
    rng = random.Random(9)

    def one_update():
        engine.apply(Update("R", (rng.randrange(x_domain), rng.randrange(4000)), 1))

    benchmark(one_update)
