"""Shard scaling: sharded view-tree maintenance vs shard count.

View-tree maintenance is key-partitioned group work, so hash shards of
the join variable maintain disjoint view slices independently
(``repro.shard``).  This bench replays the same batched update stream
through the plain engine and through ``ShardedEngine`` at increasing
shard counts, under two workload shapes:

* ``uniform`` — join-key values drawn uniformly, so shards balance;
* ``zipf``    — a few hot keys dominate, so one shard soaks up most of
  the stream and the parallel speedup collapses (the skew argument that
  motivates IVM^eps-style heavy/light treatment, seen from the
  partitioning side).

The shards run on the ``process`` executor: the coordinator hosts
shard 0 and N-1 persistent workers (``repro.shard.worker``) host the
rest, so the 1-shard row is the coordination cost with no process at
all and every further shard adds one process.  On a box with fewer
cores than shards the rows past the core count measure oversubscription,
not scaling — the load-balance table is the interesting output there.
A differential check asserts every configuration produced the
bit-identical output.  A state-growth table gates the point of
persistent workers: per-commit time must stay flat as resident view
state grows (IPC ships the batch, never the state).
"""

from __future__ import annotations

import bisect
import itertools
import random
import time

from repro.bench import Table
from repro.data import Database
from repro.query import parse_query
from repro.shard import ShardedEngine
from repro.viewtree import ViewTreeEngine

from _util import report

QUERY = parse_query("Q(B, A) = R(B, A) * S(B)")
UPDATES = 4000
BATCH = 250
PREFILL = 300
DOMAIN = 500
SHARD_COUNTS = (1, 2, 4)
EXECUTOR = "process"
WORKLOADS = ("uniform", "zipf")
ZIPF_S = 1.2
#: State-growth gate: per-commit time at ~5x resident state must stay
#: within this factor of the small-state time (process/delta workers).
GROWTH_FLAT_BOUND = 1.3
GROWTH_BATCH = 250
GROWTH_PROBES = 5


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


def _stream(workload, seed):
    from repro.data import Update

    rng = random.Random(seed)
    value = _sampler(rng, workload)
    stream = []
    for _ in range(UPDATES):
        if rng.random() < 0.5:
            stream.append(Update("R", (value(), value()), 1))
        else:
            stream.append(Update("S", (value(),), 1))
    return stream


def _fresh_db(workload, seed=99):
    rng = random.Random(seed)
    value = _sampler(rng, workload)
    db = Database()
    db.create("R", ("B", "A"))
    db.create("S", ("B",))
    for _ in range(PREFILL):
        db["R"].insert(value(), value())
        db["S"].insert(value())
    return db


def _routed_counts(router, stream):
    """Updates of ``stream`` each shard owns (both relations partition)."""
    counts = [0] * router.shards
    for update in stream:
        counts[router.shard_of(update)] += 1
    return counts


def _replay(engine, stream):
    start = time.perf_counter()
    for offset in range(0, len(stream), BATCH):
        engine.apply_batch(list(stream[offset : offset + BATCH]))
    for _ in engine.enumerate():
        pass
    return len(stream) / (time.perf_counter() - start)


def _state_growth_table():
    """Process-executor throughput vs resident state (the tentpole gate).

    Disjoint-key batches grow the resident views between two probe
    levels; identical fixed-size probe batches are timed at each level
    (min over GROWTH_PROBES, noise-robust).  Under the persistent
    delta-IPC workers the per-commit time stays flat.
    """
    from repro.data import Update

    table = Table(
        "process executor per-commit time vs resident state "
        f"(batch fixed at {GROWTH_BATCH} updates, 4 shards)",
        ["state (rows)", "per-commit ms", "upd/s"],
    )
    next_key = 0

    def batch(rows):
        nonlocal next_key
        start, next_key = next_key, next_key + rows
        out = []
        for i in range(start, start + rows):
            out.append(Update("R", (i, i), 1))
            out.append(Update("S", (i,), 1))
        return out

    def probe_level(engine):
        best = float("inf")
        for _ in range(GROWTH_PROBES):
            probe = batch(GROWTH_BATCH // 2)
            started = time.perf_counter()
            engine.apply_batch(probe)
            best = min(best, time.perf_counter() - started)
        return best

    db = Database()
    db.create("R", ("B", "A"))
    db.create("S", ("B",))
    with ShardedEngine(QUERY, db, shards=4, executor="process") as engine:
        engine.apply_batch(batch(2_000))
        engine.apply_batch(batch(GROWTH_BATCH // 2))  # warmup: pool spawn
        small = probe_level(engine)
        table.add(f"{engine.total_view_size():,}", f"{small * 1e3:,.2f}",
                  f"{GROWTH_BATCH / small:,.0f}")
        engine.apply_batch(batch(8_000))
        grown = probe_level(engine)
        table.add(f"{engine.total_view_size():,}", f"{grown * 1e3:,.2f}",
                  f"{GROWTH_BATCH / grown:,.0f}")
    assert grown <= GROWTH_FLAT_BOUND * small, (
        f"process-executor per-commit time regressed {grown / small:.2f}x "
        f"as view state grew (bound {GROWTH_FLAT_BOUND}x)"
    )
    return table


def bench_shard_scaling(benchmark):
    benchmark.pedantic(_scaling_table, rounds=1, iterations=1)


def _scaling_table():
    table = Table(
        "sharded view-tree maintenance -- throughput (updates/s)",
        ["configuration"] + [f"{w} upd/s" for w in WORKLOADS],
    )
    balance = Table(
        "per-shard load balance (updates routed, incl. broadcasts)",
        ["workload", "shards"]
        + [f"shard{i}" for i in range(max(SHARD_COUNTS))],
    )

    outputs: dict[str, dict] = {}
    merged_stats = None
    plain_row = ["plain viewtree"]
    for workload in WORKLOADS:
        db = _fresh_db(workload)
        engine = ViewTreeEngine(QUERY, db)
        plain_row.append(f"{_replay(engine, _stream(workload, 7)):,.0f}")
        outputs[workload] = engine.output_relation().to_dict()
    table.add(*plain_row)

    for shards in SHARD_COUNTS:
        row = [f"{shards} shard(s), {EXECUTOR}"]
        for workload in WORKLOADS:
            stream = _stream(workload, 7)
            with ShardedEngine(
                QUERY, _fresh_db(workload), shards=shards, executor=EXECUTOR
            ) as engine:
                engine.attach_stats()
                row.append(f"{_replay(engine, stream):,.0f}")
                # every configuration must agree with the plain engine
                assert engine.output_relation().to_dict() == outputs[workload]
                if shards == max(SHARD_COUNTS):
                    merged_stats = engine.merged_stats()
                counts = _routed_counts(engine.router, stream)
            counts += [""] * (max(SHARD_COUNTS) - len(counts))
            balance.add(workload, str(shards), *[str(c) for c in counts])
        table.add(*row)

    growth = _state_growth_table()

    report(
        table,
        "shard_scaling.txt",
        stats=merged_stats,
        extra_tables=[balance, growth],
        meta={
            "query": str(QUERY),
            "updates": UPDATES,
            "batch": BATCH,
            "prefill": PREFILL,
            "domain": DOMAIN,
            "shard_counts": list(SHARD_COUNTS),
            "executor": EXECUTOR,
            "workloads": list(WORKLOADS),
            "zipf_s": ZIPF_S,
            "growth_flat_bound": GROWTH_FLAT_BOUND,
        },
    )

    # Skew shape: under zipf the heaviest shard carries strictly more
    # than a balanced share of the partitioned updates.
    zipf_stream = _stream("zipf", 7)
    with ShardedEngine(
        QUERY, _fresh_db("zipf"), shards=4, executor="serial"
    ) as probe:
        counts = _routed_counts(probe.router, zipf_stream)
    assert max(counts) > len(zipf_stream) / 4
