"""Compiled delta kernels vs the generic propagation path.

``repro.viewtree.compile`` pre-compiles, for every (relation, anchor)
pair, the leaf-to-root propagation path into a :class:`DeltaPlan` —
precomputed sibling lists, position tuples, resolved group indexes —
and ``repro.viewtree.codegen`` generates one kernel per plan, so a
single-tuple update runs with zero Relation allocations and zero schema
re-derivation.  The asymptotics are
untouched (Theorem 4.1's O(1) per update for q-hierarchical queries);
the constant factor is the whole point.

This bench replays identical single-tuple update streams through the
compiled and the generic (``generated=False``) engine on:

* a q-hierarchical query (``Q(Y,X,Z) = R(Y,X) * S(Y,Z)``) — the
  Theorem 4.1 fast case, where per-update work is a handful of dict
  probes and the compiled win is largest;
* a hierarchical, non-q-hierarchical query
  (``Q(A,C) = R(A,B) * S(B,C)``) under a searched free-top order —
  per-update deltas grow with data, so fixed-cost savings dilute;

and through the two eager Fig. 4 strategies (``eager-fact`` compiled
and generic, ``eager-list`` for context).  Every compiled run is
differential-checked bit-identical against its generic twin.

A third table covers the batch kernel: the same streams sliced into
batches of 64 and 256 and replayed through ``apply_batch``, which
coalesces same-key deltas and shares sibling probes per group push
(the generated ``push_batch``), against per-tuple compiled ``apply``.

Acceptance gates, all same-run ratios (asserted below): compiled >= 2x
generic on every single-tuple row, and batch-compiled ``apply_batch``
>= 2x per-tuple compiled ``apply`` at batch size >= 64 on the
q-hierarchical kernel.  No compiled engine may fall back to the generic
walk.  The hierarchical batch rows carry no bound.
"""

from __future__ import annotations

import bisect
import itertools
import random
import time

from repro.bench import Table
from repro.data import Database, Update
from repro.query import parse_query
from repro.query.variable_order import search_order
from repro.viewtree import ViewTreeEngine
from repro.viewtree.strategies import make_strategy

from _util import report

UPDATES = 20000
PREFILL = 500
DOMAIN = 400
DELETE_FRACTION = 0.25
ZIPF_S = 1.2
BATCH_SIZES = (64, 256)

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


def _stream(query, workload, seed):
    """A valid mixed insert/delete stream over the query's relations."""
    rng = random.Random(seed)
    value = _sampler(rng, workload)
    names = sorted({a.relation for a in query.atoms})
    arity = {a.relation: len(a.variables) for a in query.atoms}
    live = {name: [] for name in names}
    stream = []
    for _ in range(UPDATES):
        name = names[rng.randrange(len(names))]
        keys = live[name]
        if keys and rng.random() < DELETE_FRACTION:
            key = keys.pop(rng.randrange(len(keys)))
            stream.append(Update(name, key, -1))
        else:
            key = tuple(value() for _ in range(arity[name]))
            keys.append(key)
            stream.append(Update(name, key, 1))
    return stream


def _fresh_db(query, workload, seed=99):
    rng = random.Random(seed)
    value = _sampler(rng, workload)
    db = Database()
    for atom in query.atoms:
        if atom.relation not in db.relations:
            db.create(atom.relation, atom.variables)
    for name, relation in db.relations.items():
        arity = len(relation.schema.variables)
        for _ in range(PREFILL):
            relation.add(tuple(value() for _ in range(arity)), 1)
    return db


def _order_for(query):
    from repro.query.properties import is_q_hierarchical

    if is_q_hierarchical(query):
        return None
    return search_order(query, require_free_top=True)


def _compiled(engine):
    """``engine``, after asserting that no kernel of it fell back to the
    generic walk.  The recorder is detached again before any update, so
    the timed runs record nothing."""
    fallbacks = engine.attach_stats().codegen_fallbacks
    engine.detach_stats()
    assert fallbacks == 0, f"{fallbacks} kernel plan(s) fell back"
    return engine


def _replay(engine, stream):
    """Single-tuple apply throughput (updates/s) plus one final drain."""
    apply = engine.apply
    start = time.perf_counter()
    for update in stream:
        apply(update)
    seconds = time.perf_counter() - start
    for _ in engine.enumerate():
        pass
    return len(stream) / seconds


def _replay_batched(engine, stream, batch_size):
    """``apply_batch`` throughput over ``batch_size`` slices of the stream."""
    apply_batch = engine.apply_batch
    start = time.perf_counter()
    for at in range(0, len(stream), batch_size):
        apply_batch(stream[at : at + batch_size])
    seconds = time.perf_counter() - start
    for _ in engine.enumerate():
        pass
    return len(stream) / seconds


def bench_delta_kernel(benchmark):
    benchmark.pedantic(_kernel_table, rounds=1, iterations=1)


def _kernel_table():
    table = Table(
        "compiled delta kernels -- single-tuple apply throughput (upd/s)",
        ["query", "workload", "generic upd/s", "compiled upd/s", "speedup"],
    )
    strategy_table = Table(
        "eager Fig. 4 strategies -- apply throughput (upd/s)",
        ["strategy", "q-hier upd/s", "vs eager-fact generic"],
    )
    batch_table = Table(
        "batch-compiled delta kernels -- apply_batch throughput (upd/s)",
        ["query", "batch size", "per-tuple upd/s", "batch upd/s",
         "batch speedup"],
    )

    speedups = {}
    for label, text in QUERIES:
        query = parse_query(text)
        order = _order_for(query)
        for workload in ("uniform", "zipf"):
            stream = _stream(query, workload, 7)
            generic = ViewTreeEngine(
                query, _fresh_db(query, workload), order, generated=False
            )
            generic_rate = _replay(generic, stream)
            compiled = _compiled(
                ViewTreeEngine(query, _fresh_db(query, workload), order)
            )
            compiled_rate = _replay(compiled, stream)
            # differential gate: the kernels must be invisible semantically
            assert (
                compiled.output_relation().to_dict()
                == generic.output_relation().to_dict()
            )
            speedup = compiled_rate / generic_rate
            speedups[(label, workload)] = speedup
            table.add(
                label,
                workload,
                f"{generic_rate:,.0f}",
                f"{compiled_rate:,.0f}",
                f"{speedup:.2f}x",
            )

    # The batch kernel against the per-tuple compiled path, on the same
    # uniform streams: the coalesce + group-push win is what's measured.
    batch_speedups = {}
    for label, text in QUERIES:
        query = parse_query(text)
        order = _order_for(query)
        stream = _stream(query, "uniform", 7)
        per_tuple = _compiled(
            ViewTreeEngine(query, _fresh_db(query, "uniform"), order)
        )
        per_tuple_rate = _replay(per_tuple, stream)
        for batch_size in BATCH_SIZES:
            batched = _compiled(
                ViewTreeEngine(query, _fresh_db(query, "uniform"), order)
            )
            start = time.perf_counter()
            for at in range(0, len(stream), batch_size):
                batched.apply_batch(stream[at : at + batch_size])
            seconds = time.perf_counter() - start
            for _ in batched.enumerate():
                pass
            batched_rate = len(stream) / seconds
            # differential gate: batching must be invisible semantically
            assert (
                batched.output_relation().to_dict()
                == per_tuple.output_relation().to_dict()
            )
            speedup = batched_rate / per_tuple_rate
            batch_speedups[(label, batch_size)] = speedup
            batch_table.add(
                label,
                str(batch_size),
                f"{per_tuple_rate:,.0f}",
                f"{batched_rate:,.0f}",
                f"{speedup:.2f}x",
            )

    # The eager strategies from Fig. 4, on the q-hierarchical query.
    query = parse_query(QUERIES[0][1])
    stream = _stream(query, "uniform", 7)
    rates = {}
    for name, kwargs in (
        ("eager-fact (compiled)", {}),
        ("eager-fact (generic)", {"generated": False}),
        ("eager-list", {}),
    ):
        strategy = make_strategy(
            name.split(" ")[0], query, _fresh_db(query, "uniform"), **kwargs
        )
        if name == "eager-fact (compiled)":
            _compiled(strategy.engine)
        rates[name] = _replay(strategy, stream)
    baseline = rates["eager-fact (generic)"]
    for name, rate in rates.items():
        strategy_table.add(name, f"{rate:,.0f}", f"{rate / baseline:.2f}x")

    report(
        table,
        "delta_kernel.txt",
        extra_tables=[strategy_table, batch_table],
        meta={
            "queries": {label: text for label, text in QUERIES},
            "updates": UPDATES,
            "prefill": PREFILL,
            "domain": DOMAIN,
            "delete_fraction": DELETE_FRACTION,
            "zipf_s": ZIPF_S,
            "batch_sizes": list(BATCH_SIZES),
        },
    )

    # Acceptance gates: >=2x on every single-tuple row (bare engine) and
    # on the eager-fact strategy, and >=2x again from batching the
    # q-hierarchical compiled path at batch sizes >= 64.
    assert min(speedups.values()) >= 2.0, speedups
    assert rates["eager-fact (compiled)"] >= 2.0 * baseline, rates
    for batch_size in BATCH_SIZES:
        assert (
            batch_speedups[("q-hierarchical", batch_size)] >= 2.0
        ), batch_speedups
