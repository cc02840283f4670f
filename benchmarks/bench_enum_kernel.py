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

each under uniform and Zipf value distributions; and

* a three-sibling star (``Q(Y,X,Z,W) = R(Y,X) * S(Y,Z) * T(Y,W)``),
  uniform only, ≈ 10 children per ``Y`` in each relation — the case
  where the kernel replays a sibling branch per candidate of the step
  before instead of re-probing it (``Z·W`` per ``X``, ``W`` per ``Z``).

A second table times
prebound point lookups — the CQAP access-request shape of Section 4.3,
where every step is one O(1) guard probe — and full-key ``lookup``
calls, which the compiled engine answers with its generated probe
kernel (one keyed read per leaf and bound view) and the generic twin by
walking with the whole key prebound.  Every compiled run is
differential-checked bit-identical against its generic twin (contents
for the full drains, per-request tuple lists for the prebound probes,
payloads for the full-key lookups).

A third table times the dispatch around that probe kernel: per
full-key row, ``engine.lookup`` against the bare generated
``engine._enum_kernel.lookup`` on the same keys, both timed once per
round in alternating order over ``DISPATCH_ROUNDS`` rounds.  The method
is one frame over the probe (which checks the key's arity itself), so
their ratio is what the method frame costs; the table reports the
median rates and the median of the per-round ratios, so a slow stretch
of the host hits both sides of a ratio alike.

Acceptance gates, same-run ratios (asserted below): compiled >= 2x
generic on every full-drain row and on every point-lookup row, and
``engine.lookup`` >= 0.7x the bare probe kernel's throughput (median
per-round ratio) on every dispatch row.
"""

from __future__ import annotations

import bisect
import itertools
import random
import statistics
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
#: Passes over the full-key lookup keys per timed round, so that one
#: round of the fastest probe lasts about a millisecond.
KEY_PASSES = 10
#: Alternating rounds of the dispatch table (an odd count: its median
#: ratio is one round's).
DISPATCH_ROUNDS = 21

QUERIES = (
    ("q-hierarchical", "Q(Y, X, Z) = R(Y, X) * S(Y, Z)"),
    ("hierarchical", "Q(A, C) = R(A, B) * S(B, C)"),
)
#: The star's rows per relation and domain: ≈ 10 children per ``Y``
#: (≈ 200 · 10³ output tuples).
STAR = ("star", "Q(Y, X, Z, W) = R(Y, X) * S(Y, Z) * T(Y, W)")
STAR_SIZE, STAR_DOMAIN = 2000, 200


def _sampler(rng, workload, domain):
    if workload == "uniform":
        return lambda: rng.randrange(domain)
    weights = list(
        itertools.accumulate(1.0 / (k + 1) ** ZIPF_S for k in range(domain))
    )
    total = weights[-1]
    return lambda: min(
        bisect.bisect_left(weights, rng.random() * total), domain - 1
    )


def _fresh_db(query, workload, seed=13, size=RELATION_SIZE, domain=DOMAIN):
    rng = random.Random(seed)
    value = _sampler(rng, workload, domain)
    db = Database()
    for atom in query.atoms:
        if atom.relation not in db.relations:
            db.create(atom.relation, atom.variables)
    for relation in db.relations.values():
        arity = len(relation.schema.variables)
        for _ in range(size):
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


def _key_lookup_rates(keys, *lookups):
    """Full-key throughput (requests/s) of each ``lookups`` callable,
    best of ROUNDS, the callables timed in turn within each round."""
    best, keys = [0.0] * len(lookups), keys * KEY_PASSES
    for _ in range(ROUNDS):
        for i, lookup in enumerate(lookups):
            best[i] = max(best[i], _pass_rate(lookup, keys))
    return best


def _pass_rate(lookup, keys):
    """Requests/s of one pass of ``lookup`` over ``keys``."""
    start = time.perf_counter()
    for key in keys:
        lookup(key)
    return len(keys) / (time.perf_counter() - start)


def _dispatch_ratio(keys, engine_lookup, kernel_lookup):
    """Median full-key rates (requests/s) of ``kernel_lookup`` and
    ``engine_lookup`` and the median of their per-round ratio, engine
    over kernel; each round times both once, the kernel first in every
    other round."""
    keys, rates = keys * KEY_PASSES, []
    for round_ in range(DISPATCH_ROUNDS):
        if round_ % 2:
            kernel = _pass_rate(kernel_lookup, keys)
            engine = _pass_rate(engine_lookup, keys)
        else:
            engine = _pass_rate(engine_lookup, keys)
            kernel = _pass_rate(kernel_lookup, keys)
        rates.append((kernel, engine))
    return (
        statistics.median(kernel for kernel, _ in rates),
        statistics.median(engine for _, engine in rates),
        statistics.median(engine / kernel for kernel, engine in rates),
    )


def bench_enum_kernel(benchmark):
    benchmark.pedantic(_kernel_table, rounds=1, iterations=1)


def _kernel_table():
    table = Table(
        "compiled enumeration kernels -- full-drain throughput (tuples/s)",
        ["query", "workload", "tuples", "generic tuples/s",
         "compiled tuples/s", "speedup"],
    )
    lookup_table = Table(
        "compiled point lookups -- prebound access requests and full keys (req/s)",
        ["query", "variable", "generic req/s", "compiled req/s", "speedup"],
    )
    dispatch_table = Table(
        "full-key lookup dispatch -- engine.lookup vs its bare probe kernel (req/s)",
        ["query", "kernel req/s", "engine.lookup req/s", "engine / kernel"],
    )

    speedups = {}
    cases = [
        (label, text, workload, {})
        for label, text in QUERIES
        for workload in ("uniform", "zipf")
    ]
    cases.append((*STAR, "uniform", {"size": STAR_SIZE, "domain": STAR_DOMAIN}))
    for label, text, workload, sizing in cases:
        query = parse_query(text)
        order = _order_for(query)
        db = _fresh_db(query, workload, **sizing)
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
    lookup_speedups, dispatch = {}, {}
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
        # Full-key lookups: every output tuple of the first LOOKUPS, and
        # as many misses (the last head value out of the domain).
        hits = list(itertools.islice(dict(compiled.enumerate()), LOOKUPS))
        keys = hits + [key[:-1] + (-1,) for key in hits]
        assert compiled._lookup_plan is not None and generic._lookup_plan is None
        assert [compiled.lookup(k) for k in keys] == [generic.lookup(k) for k in keys]
        generic_rate, compiled_rate = _key_lookup_rates(
            keys, generic.lookup, compiled.lookup
        )
        speedup = compiled_rate / generic_rate
        lookup_speedups[(label, "full key")] = speedup
        lookup_table.add(
            label,
            "full key",
            f"{generic_rate:,.0f}",
            f"{compiled_rate:,.0f}",
            f"{speedup:.2f}x",
        )
        kernel_rate, engine_rate, dispatch[label] = _dispatch_ratio(
            keys, compiled.lookup, compiled._enum_kernel.lookup
        )
        dispatch_table.add(
            label,
            f"{kernel_rate:,.0f}",
            f"{engine_rate:,.0f}",
            f"{dispatch[label]:.2f}x",
        )

    report(
        table,
        "enum_kernel.txt",
        extra_tables=[lookup_table, dispatch_table],
        meta={
            "queries": {label: text for label, text in (*QUERIES, STAR)},
            "relation_size": RELATION_SIZE,
            "domain": DOMAIN,
            "star_relation_size": STAR_SIZE,
            "star_domain": STAR_DOMAIN,
            "zipf_s": ZIPF_S,
            "rounds": ROUNDS,
            "lookups": LOOKUPS,
            "key_passes": KEY_PASSES,
            "dispatch_rounds": DISPATCH_ROUNDS,
        },
    )

    # Acceptance gates: >=2x on every drain and every point-lookup row;
    # a full-key lookup keeps >=0.7x of its bare probe kernel's rate
    # (median of the alternating rounds' ratios).
    assert min(speedups.values()) >= 2.0, speedups
    assert min(lookup_speedups.values()) >= 2.0, lookup_speedups
    assert min(dispatch.values()) >= 0.7, dispatch
