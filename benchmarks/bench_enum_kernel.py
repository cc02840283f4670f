"""Compiled enumeration kernels vs the generic factorized walk.

``repro.viewtree.enumplan`` pre-compiles the constant-delay enumeration
of Section 4.1 (Theorem 4.1, Example 4.4) into an :class:`EnumPlan` —
a flat step schedule over slot positions with resolved group indexes,
the read-side twin of the write path's ``DeltaPlan`` — which
``repro.viewtree.codegen`` generates as nested literal loops with
inlined zero tests.  The asymptotics are untouched; the constant factor per
output tuple is the whole point.

This bench populates identical databases and drains full enumerations
through the compiled and the generic (``generated=False``) engine on:

* a q-hierarchical query (``Q(Y,X,Z) = R(Y,X) * S(Y,Z)``) — the
  Theorem 4.1 constant-delay case, guard buckets plus one leaf probe
  per candidate;
* a hierarchical, non-q-hierarchical query
  (``Q(A,C) = R(A,B) * S(B,C)``) under a searched free-top order —
  deeper walk, bound-view probes on the inner step;

each under uniform and Zipf value distributions.  A second table times
prebound point lookups — the CQAP access-request shape of Section 4.3,
where every step is one O(1) guard probe.  Every compiled run is
differential-checked bit-identical against its generic twin (contents
for the full drains, per-request tuple lists for the prebound probes).

Acceptance gate: compiled >= 2x generic enumeration throughput on the
q-hierarchical workload (asserted below).
"""

from __future__ import annotations

import bisect
import itertools
import random
import time

from repro.bench import Table
from repro.data import Database
from repro.query import parse_query
from repro.query.variable_order import search_order
from repro.viewtree import ViewTreeEngine

from _util import report

#: Tuples loaded per relation before the engines are built.
RELATION_SIZE = 6000
DOMAIN = 400
ZIPF_S = 1.2
#: Full-enumeration drains per engine; the best rate is reported.
ROUNDS = 3
#: Prebound point lookups per engine (one per top-variable value).
LOOKUPS = DOMAIN

QUERIES = (
    ("q-hierarchical", "Q(Y, X, Z) = R(Y, X) * S(Y, Z)"),
    ("hierarchical", "Q(A, C) = R(A, B) * S(B, C)"),
)


def _sampler(rng, workload):
    if workload == "uniform":
        return lambda: rng.randrange(DOMAIN)
    weights = list(
        itertools.accumulate(1.0 / (k + 1) ** ZIPF_S for k in range(DOMAIN))
    )
    total = weights[-1]
    return lambda: min(
        bisect.bisect_left(weights, rng.random() * total), DOMAIN - 1
    )


def _fresh_db(query, workload, seed=13):
    rng = random.Random(seed)
    value = _sampler(rng, workload)
    db = Database()
    for atom in query.atoms:
        if atom.relation not in db.relations:
            db.create(atom.relation, atom.variables)
    for relation in db.relations.values():
        arity = len(relation.schema.variables)
        for _ in range(RELATION_SIZE):
            relation.add(tuple(value() for _ in range(arity)), 1)
    return db


def _order_for(query):
    from repro.query.properties import is_q_hierarchical

    if is_q_hierarchical(query):
        return None
    return search_order(query, require_free_top=True)


def _drain_rate(engine):
    """Best full-enumeration throughput (tuples/s) over ROUNDS drains."""
    best = 0.0
    for _ in range(ROUNDS):
        count = 0
        start = time.perf_counter()
        for _ in engine.enumerate():
            count += 1
        seconds = time.perf_counter() - start
        best = max(best, count / seconds if seconds > 0 else 0.0)
    return best


def _lookup_rate(engine, variable):
    """Prebound point-lookup throughput (requests/s) over the domain."""
    start = time.perf_counter()
    for value in range(LOOKUPS):
        for _ in engine.enumerate(prebound={variable: value}):
            pass
    seconds = time.perf_counter() - start
    return LOOKUPS / seconds if seconds > 0 else 0.0


def bench_enum_kernel(benchmark):
    benchmark.pedantic(_kernel_table, rounds=1, iterations=1)


def _kernel_table():
    table = Table(
        "compiled enumeration kernels -- full-drain throughput (tuples/s)",
        ["query", "workload", "tuples", "generic tuples/s",
         "compiled tuples/s", "speedup"],
    )
    lookup_table = Table(
        "compiled prebound point lookups -- access requests (req/s)",
        ["query", "variable", "generic req/s", "compiled req/s", "speedup"],
    )

    speedups = {}
    for label, text in QUERIES:
        query = parse_query(text)
        order = _order_for(query)
        for workload in ("uniform", "zipf"):
            db = _fresh_db(query, workload)
            generic = ViewTreeEngine(query, db, order, generated=False)
            compiled = ViewTreeEngine(query, db, order)
            assert compiled._enum_kernel is not None
            assert generic._enum_kernel is None
            # differential gate: the kernel must be invisible semantically
            # (same contents AND the same enumeration order)
            assert list(compiled.enumerate()) == list(generic.enumerate())
            generic_rate = _drain_rate(generic)
            compiled_rate = _drain_rate(compiled)
            tuples = sum(1 for _ in compiled.enumerate())
            speedup = compiled_rate / generic_rate
            speedups[(label, workload)] = speedup
            table.add(
                label,
                workload,
                f"{tuples:,}",
                f"{generic_rate:,.0f}",
                f"{compiled_rate:,.0f}",
                f"{speedup:.2f}x",
            )

    # Prebound point lookups (the CQAP access-request shape): bind the
    # top free variable and answer one request per domain value.
    lookup_speedups = {}
    for label, text in QUERIES:
        query = parse_query(text)
        order = _order_for(query)
        db = _fresh_db(query, "uniform")
        generic = ViewTreeEngine(query, db, order, generated=False)
        compiled = ViewTreeEngine(query, db, order)
        top = (compiled.order.roots[0].variable
               if order is None else order.roots[0].variable)
        # differential gate, per access request
        for value in range(0, LOOKUPS, 37):
            assert list(compiled.enumerate(prebound={top: value})) == list(
                generic.enumerate(prebound={top: value})
            )
        generic_rate = _lookup_rate(generic, top)
        compiled_rate = _lookup_rate(compiled, top)
        speedup = compiled_rate / generic_rate
        lookup_speedups[label] = speedup
        lookup_table.add(
            label,
            top,
            f"{generic_rate:,.0f}",
            f"{compiled_rate:,.0f}",
            f"{speedup:.2f}x",
        )

    report(
        table,
        "enum_kernel.txt",
        extra_tables=[lookup_table],
        meta={
            "queries": {label: text for label, text in QUERIES},
            "relation_size": RELATION_SIZE,
            "domain": DOMAIN,
            "zipf_s": ZIPF_S,
            "rounds": ROUNDS,
            "lookups": LOOKUPS,
        },
    )

    # Acceptance gate: >=2x on the q-hierarchical read path.
    assert speedups[("q-hierarchical", "uniform")] >= 2.0, speedups
