"""Section 3.1-3.3: single-tuple update cost for the triangle count.

The paper derives three regimes for maintaining
``Q = SUM R(A,B) * S(B,C) * T(C,A)`` under single-tuple updates:

* full recomputation: O(N^(3/2)) per update (worst-case optimal join);
* delta queries (Sec 3.1): O(N) per update;
* IVM^eps (Sec 3.3): amortized O(N^(1/2)) per update, worst-case
  optimal under the OuMv conjecture.

The bench measures elementary operations per update on skewed graphs of
growing size and prints the fitted growth exponents, which should order
as recompute > delta > IVM^eps with IVM^eps near 0.5.
"""

from __future__ import annotations

import random

from repro.bench import Table, growth_exponent
from repro.data import Database, Update, counting
from repro.delta import DeltaQueryEngine
from repro.ivme import TriangleCounter
from repro.naive import evaluate_scalar
from repro.query import parse_query
from repro.workloads import triangle_updates_for_edge, zipf_edges

from _util import report

TRIANGLE = parse_query("Q() = R(A,B) * S(B,C) * T(C,A)")
SIZES = [400, 1600, 6400]


def _graph_updates(edges_count, seed=0):
    nodes = max(8, edges_count // 8)
    updates = []
    for edge in zipf_edges(nodes, edges_count, skew=1.1, seed=seed):
        updates.extend(triangle_updates_for_edge(edge))
    return updates, nodes


def _probe_updates(nodes, count, seed=1):
    rng = random.Random(seed)
    return [
        Update(
            rng.choice(["R", "S", "T"]),
            (min(int(rng.paretovariate(1.1)) - 1, nodes - 1), rng.randrange(nodes)),
            1,
        )
        for _ in range(count)
    ]


def bench_triangle_scaling_table(benchmark):
    benchmark.pedantic(_scaling_table, rounds=1, iterations=1)


def _scaling_table():
    table = Table(
        "Triangle count: elementary ops per single-tuple update vs N",
        ["N (edges x3)", "recompute", "delta (Sec 3.1)", "IVM^eps (Sec 3.3)"],
    )
    recompute_costs, delta_costs, ivme_costs = [], [], []
    ns = []
    for size in SIZES:
        load, nodes = _graph_updates(size)
        probes = _probe_updates(nodes, 30)

        # Full recompute baseline.
        db = Database()
        for name in ("R", "S", "T"):
            db.create(name, ("X", "Y"))
        for update in load:
            db[update.relation].add(update.key, update.payload)
        with counting() as ops:
            for probe in probes[:5]:  # recompute is expensive; sample
                db[probe.relation].add(probe.key, probe.payload)
                evaluate_scalar(TRIANGLE, db)
        recompute = ops.total() / 5

        # First-order delta queries.
        db = Database()
        for name in ("R", "S", "T"):
            db.create(name, ("X", "Y"))
        for update in load:
            db[update.relation].add(update.key, update.payload)
        delta_engine = DeltaQueryEngine(TRIANGLE, db)
        with counting() as ops:
            for probe in probes:
                delta_engine.apply(probe)
        delta = ops.total() / len(probes)

        # IVM^eps.
        counter = TriangleCounter(epsilon=0.5)
        counter.apply_batch(load)
        with counting() as ops:
            for probe in probes:
                counter.apply(probe)
        ivme = ops.total() / len(probes)

        n = len(load)
        ns.append(n)
        recompute_costs.append(recompute)
        delta_costs.append(delta)
        ivme_costs.append(ivme)
        table.add(n, recompute, delta, ivme)

    table.add(
        "growth exp",
        round(growth_exponent(ns, recompute_costs), 2),
        round(growth_exponent(ns, delta_costs), 2),
        round(growth_exponent(ns, ivme_costs), 2),
    )
    report(table, "triangle_update_scaling.txt")

    # Paper shape: IVM^eps grows strictly slower than delta, which grows
    # strictly slower than recomputation.
    assert ivme_costs[-1] < delta_costs[-1] < recompute_costs[-1]
    assert growth_exponent(ns, ivme_costs) < growth_exponent(ns, delta_costs)


def bench_ivme_triangle_update(benchmark):
    """Wall-clock IVM^eps single-tuple update on the largest instance."""
    load, nodes = _graph_updates(SIZES[-1])
    counter = TriangleCounter(epsilon=0.5)
    counter.apply_batch(load)
    probes = iter(_probe_updates(nodes, 100_000, seed=3))

    def one_update():
        counter.apply(next(probes))

    benchmark(one_update)
