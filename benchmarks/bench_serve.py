"""Adaptive group commit vs per-update submission through `repro.serve`.

The serving front-end's claim: micro-batching concurrent writers into
``apply_batch`` group commits (sealed at ``max_batch`` updates or after
``max_delay`` seconds, whichever first) sustains a multiple of the
update rate of committing every submission individually — while readers
run concurrently and observe comparable staleness, because the deadline
trigger bounds how long an update can sit uncommitted.

Each configuration drives the same closed loop: 4 writer tasks split the
update stream, 2 reader tasks share a schedule of 1000 point lookups
per second (``loadgen.READS_PER_S``), and the reported rate is
end-to-end (first submit to final drain, readers included).  The
per-update row commits with ``max_batch=1`` and no deadline — the
group-commit machinery degenerated to one engine call per update, which
is exactly what a naive serving loop would do.

Acceptance gates (asserted below): each group-commit configuration
sustains >= 2x the upd/s of per-update submission in the same run, and
no configuration's engine fell back to the generic walk.

Latency columns are informational: bucketed upper bounds, formatted
``<=…s``, since they mostly measure scheduler noise.
"""

from __future__ import annotations

import asyncio
import random

from repro.bench import Table
from repro.core.engine import IVMEngine
from repro.data import Database
from repro.query import parse_query
from repro.serve import AsyncIVMServer, run_load_test, value_sampler

from _util import report

QUERY = "Q(Y, X, Z) = R(Y, X) * S(Y, Z)"
UPDATES = 6000
WRITERS = 4
READERS = 2
PREFILL = 200
DOMAIN = 64
SEED = 23

CONFIGS = (
    ("per-update", 1, 0.0),
    ("group-commit (64, 1ms)", 64, 0.001),
    ("group-commit (256, 2ms)", 256, 0.002),
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


def _serve(query, max_batch, max_delay):
    engine = _fresh_engine(query)
    server = AsyncIVMServer(engine, max_batch=max_batch, max_delay=max_delay)
    stats = server.attach_stats()

    async def run():
        async with server:
            return await run_load_test(
                server,
                query,
                UPDATES,
                writers=WRITERS,
                readers=READERS,
                domain=DOMAIN,
                seed=SEED,
            )

    summary = asyncio.run(run())
    summary["output"] = sorted(engine.enumerate())
    return summary, stats


def bench_serve(benchmark):
    benchmark.pedantic(_serve_table, rounds=1, iterations=1)


def _serve_table():
    query = parse_query(QUERY)
    table = Table(
        "async serving -- group commit vs per-update submission",
        [
            "configuration",
            "upd/s",
            "speedup",
            "commit latency p50",
            "commit latency p99",
            "read staleness p50",
        ],
    )

    results = {}
    fallbacks = {}
    for label, max_batch, max_delay in CONFIGS:
        summary, stats = _serve(query, max_batch, max_delay)
        results[label] = summary
        fallbacks[label] = stats.codegen_fallbacks

    # Differential gate: every configuration commits the same stream, so
    # the final views must be bit-identical.
    outputs = [summary.pop("output") for summary in results.values()]
    assert all(output == outputs[0] for output in outputs[1:])

    baseline = results[CONFIGS[0][0]]["rate_end_to_end"]
    for label, _, _ in CONFIGS:
        summary = results[label]
        rate = summary["rate_end_to_end"]
        table.add(
            label,
            f"{rate:,.0f}",
            f"{rate / baseline:.2f}x",
            f"<={summary['commit_p50']:.2g}s",
            f"<={summary['commit_p99']:.2g}s",
            f"<={summary['staleness_p50']:.2g}s",
        )

    report(
        table,
        "serve.txt",
        stats=stats,  # the last configuration's recorder
        meta={
            "query": QUERY,
            "updates": UPDATES,
            "writers": WRITERS,
            "readers": READERS,
            "prefill": PREFILL,
            "domain": DOMAIN,
            "seed": SEED,
            "configs": [
                {"label": label, "max_batch": batch, "max_delay": delay}
                for label, batch, delay in CONFIGS
            ],
            "rates": {
                label: {
                    "rate_end_to_end": summary["rate_end_to_end"],
                    "rate_maintenance": summary["rate_maintenance"],
                    "commits": summary["commits"],
                    "reads": summary["reads"],
                    "backpressure_waits": summary["backpressure_waits"],
                }
                for label, summary in results.items()
            },
        },
    )

    # Acceptance gates: every group-commit configuration sustains >= 2x
    # per-update submission under the same concurrent reader load, and
    # every configuration ran its generated kernels.
    assert not any(fallbacks.values()), fallbacks
    speedups = {
        label: results[label]["rate_end_to_end"] / baseline
        for label, _, _ in CONFIGS[1:]
    }
    assert min(speedups.values()) >= 2.0, speedups
