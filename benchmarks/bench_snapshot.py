"""Epoch snapshot reads vs commit-lock reads under sustained writes.

The tentpole claim of the epoch read model: because ``lookup`` answers
from the last *published* epoch instead of serializing on the commit
lock, read tail latency decouples from commit duration.  Under a
sustained group-commit write load with large batches (each commit holds
the lock for a macroscopic stretch), a lock-serialized reader's p99 is
the commit duration itself, while a snapshot reader's p99 stays at
in-memory probe cost.

Both configurations drive the identical closed loop — writer tasks
split one update stream, reader tasks run point lookups non-stop until
the final drain — differing only in the server's ``snapshot_reads``
flag.  Read latencies are *measured samples* (``perf_counter`` around
each awaited lookup), not histogram buckets, so the p99s below are
exact order statistics.

Differential gate (asserted below): both configurations commit the same
stream, so their final enumerations must be bit-identical — and the
snapshot run's served reads must match a serial replay of the committed
prefix at every probe (enforced tuple-by-tuple in tests/test_snapshot.py).

Acceptance gate (asserted below): snapshot-mode p99 point-lookup
latency is >= 5x lower than commit-lock-mode p99 under the same write
load.
"""

from __future__ import annotations

import asyncio
import random
import time

from repro.bench import Table
from repro.core.engine import IVMEngine
from repro.data import Database
from repro.query import parse_query
from repro.serve import AsyncIVMServer, update_stream, value_sampler

from _util import report

QUERY = "Q(Y, X, Z) = R(Y, X) * S(Y, Z)"
UPDATES = 24000
WRITERS = 2
READERS = 2
PREFILL = 2000
DOMAIN = 64
MAX_BATCH = 512
MAX_DELAY = 0.004
HIGH_WATER = 8192
SEED = 29

CONFIGS = (
    ("commit-lock reads", False),
    ("snapshot reads", True),
)


def _fresh_engine(query):
    rng = random.Random(SEED ^ 0xBEEF)
    value = value_sampler(rng, DOMAIN, "uniform")
    db = Database()
    for atom in query.atoms:
        if atom.relation not in db:
            db.create(atom.relation, atom.variables)
            for _ in range(PREFILL):
                db[atom.relation].add(
                    tuple(value() for _ in atom.variables), 1
                )
    return IVMEngine(query, db)


def _percentile(samples, q):
    ordered = sorted(samples)
    return ordered[min(int(q * (len(ordered) - 1)), len(ordered) - 1)]


def _drive(query, snapshot_reads):
    engine = _fresh_engine(query)
    server = AsyncIVMServer(
        engine,
        max_batch=MAX_BATCH,
        max_delay=MAX_DELAY,
        high_water=HIGH_WATER,
        snapshot_reads=snapshot_reads,
    )
    stats = server.attach_stats()
    updates = list(update_stream(query, UPDATES, domain=DOMAIN, seed=SEED))
    head_width = len(query.head)
    samples: list[float] = []

    async def run():
        done = False

        async def writer(chunk):
            for update in chunk:
                await server.submit(update)

        async def reader(index):
            rng = random.Random(SEED + 101 * index)
            while not done:
                key = tuple(
                    rng.randrange(DOMAIN) for _ in range(head_width)
                )
                start = time.perf_counter()
                await server.lookup(key)
                samples.append(time.perf_counter() - start)
                await asyncio.sleep(0)

        async with server:
            readers = [
                asyncio.get_running_loop().create_task(reader(i))
                for i in range(READERS)
            ]
            start = time.perf_counter()
            await asyncio.gather(
                *(writer(updates[i::WRITERS]) for i in range(WRITERS))
            )
            await server.drain()
            elapsed = time.perf_counter() - start
            done = True
            await asyncio.gather(*readers)
            return elapsed

    elapsed = asyncio.run(run())
    # A lock-serialized reader only lands ~one sample per commit cycle
    # (that is the pathology being measured), so the floor is modest.
    assert len(samples) >= 50, "reader loop barely ran; bench is broken"
    return {
        "rate": UPDATES / elapsed,
        "reads": len(samples),
        "read_p50": _percentile(samples, 0.50),
        "read_p99": _percentile(samples, 0.99),
        "read_max": max(samples),
        "commits": stats.commits,
        "output": sorted(engine.enumerate()),
    }, stats


def bench_snapshot(benchmark):
    benchmark.pedantic(_snapshot_table, rounds=1, iterations=1)


def _snapshot_table():
    query = parse_query(QUERY)
    table = Table(
        "epoch snapshot reads -- read tail latency vs commit-lock reads",
        [
            "configuration",
            "read p99 latency (ms)",
            "p99 speedup",
            "read p50 latency",
            "read max latency",
            "upd/s",
        ],
    )

    results = {}
    gated_stats = None
    for label, snapshot_reads in CONFIGS:
        summary, stats = _drive(query, snapshot_reads)
        results[label] = summary
        if snapshot_reads:
            gated_stats = stats

    # Differential gate: both configurations commit the same stream, so
    # the final views must be bit-identical.
    outputs = [summary.pop("output") for summary in results.values()]
    assert all(output == outputs[0] for output in outputs[1:])

    lock_p99 = results[CONFIGS[0][0]]["read_p99"]
    for label, _ in CONFIGS:
        summary = results[label]
        # The p50/max cells are informational, printed as "<=" upper
        # bounds; the gate is the p99 ratio asserted below.
        table.add(
            label,
            f"{summary['read_p99'] * 1e3:.3f}",
            f"{lock_p99 / summary['read_p99']:.1f}x",
            f"<={summary['read_p50']:.2g}s",
            f"<={summary['read_max']:.2g}s",
            f"{summary['rate']:,.0f}",
        )

    report(
        table,
        "snapshot.txt",
        stats=gated_stats,
        meta={
            "query": QUERY,
            "updates": UPDATES,
            "writers": WRITERS,
            "readers": READERS,
            "prefill": PREFILL,
            "domain": DOMAIN,
            "max_batch": MAX_BATCH,
            "max_delay": MAX_DELAY,
            "high_water": HIGH_WATER,
            "seed": SEED,
            "results": {
                label: {
                    key: value
                    for key, value in summary.items()
                }
                for label, summary in results.items()
            },
        },
    )

    # Acceptance gate: decoupling reads from the commit lock cuts p99
    # point-lookup latency by >= 5x under the same sustained write load.
    snap_p99 = results[CONFIGS[1][0]]["read_p99"]
    assert lock_p99 / snap_p99 >= 5.0, {
        label: summary["read_p99"] for label, summary in results.items()
    }
