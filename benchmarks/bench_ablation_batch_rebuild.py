"""Ablation: propagate a batch vs recompute the view tree from scratch.

The paper's opening motivation — "small changes beget small changes" —
implies a crossover: once a batch is comparable to the database size,
recomputing the views could beat propagating the change.  This ablation
sweeps the batch size on the Fig. 3 query and prices both sides:

* **propagate** — ``ViewTreeEngine.apply_batch`` on a maintained tree
  (coalesce, then the generated batch kernels);
* **recompute** — write the coalesced batch to a copy of the pre-batch
  database and build a fresh ``ViewTreeEngine`` over it, with the kernel
  shape cache warm (the maintained tree's construction compiled the same
  shapes).

It reports op counts (deterministic) and the median wall-clock of three
runs per side, asserts that both sides land on the same output, and
asserts that propagation costs fewer ops than recomputation at every
batch size.  The last row deletes the whole base: the one batch where a
recompute, which builds over an empty database, can win.
"""

from __future__ import annotations

import random
import statistics
import time

from repro.bench import Table
from repro.data import Database, Update, counting
from repro.data.columnar import coalesce_columnar
from repro.query import parse_query
from repro.rings import Z
from repro.viewtree import ViewTreeEngine

from _util import report

QUERY = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
BASE_ROWS = 3000
BATCHES = [30, 300, 3000, 30000]
RUNS = 5


def _db(seed=0):
    rng = random.Random(seed)
    db = Database()
    r = db.create("R", ("Y", "X"))
    s = db.create("S", ("Y", "Z"))
    for _ in range(BASE_ROWS):
        r.insert(rng.randrange(100), rng.randrange(BASE_ROWS))
        s.insert(rng.randrange(100), rng.randrange(BASE_ROWS))
    return db


def _batch(size, seed=1):
    rng = random.Random(seed)
    return [
        Update(
            rng.choice(["R", "S"]),
            (rng.randrange(100), rng.randrange(BASE_ROWS)),
            1,
        )
        for _ in range(size)
    ]


def _delete_all():
    return [
        Update(rel.name, key, -payload)
        for rel in _db()
        for key, payload in rel.data.items()
    ]


def _propagate(batch):
    """``(ops, seconds, output)`` of one apply_batch on a maintained tree."""
    engine = ViewTreeEngine(QUERY, _db())
    with counting() as ops:
        start = time.perf_counter()
        engine.apply_batch(batch)
        seconds = time.perf_counter() - start
    return ops.total(), seconds, engine.output_relation()


def _recompute(batch):
    """``(ops, seconds, output)`` of writing the coalesced batch to the
    base and building a fresh tree over it."""
    db = _db()
    with counting() as ops:
        start = time.perf_counter()
        for name, (keys, payloads) in coalesce_columnar(batch, Z).items():
            db[name].add_delta(zip(keys, payloads))
        engine = ViewTreeEngine(QUERY, db)
        seconds = time.perf_counter() - start
    return ops.total(), seconds, engine.output_relation()


def _measure(run, batch):
    """Op count, median seconds over RUNS runs, and the output."""
    runs = [run(batch) for _ in range(RUNS)]
    return runs[0][0], statistics.median(r[1] for r in runs), runs[0][2]


def bench_batch_rebuild_ablation(benchmark):
    benchmark.pedantic(_ablation_table, rounds=1, iterations=1)


def _ablation_table():
    table = Table(
        f"Ablation -- propagate vs recompute on a base of {2 * BASE_ROWS} "
        f"tuples: ops and median ms of {RUNS} runs per batch",
        [
            "batch",
            "propagate ops",
            "recompute ops",
            "propagate ms",
            "recompute ms",
            "recompute / propagate (ms)",
        ],
    )
    rows = [(str(size), _batch(size)) for size in BATCHES]
    rows.append(("delete all", _delete_all()))
    for label, batch in rows:
        prop_ops, prop_s, prop_out = _measure(_propagate, batch)
        re_ops, re_s, re_out = _measure(_recompute, batch)
        assert prop_out == re_out, label
        if label != "delete all":
            assert prop_ops < re_ops, (label, prop_ops, re_ops)
        table.add(
            label,
            prop_ops,
            re_ops,
            f"{prop_s * 1e3:.2f}",
            f"{re_s * 1e3:.2f}",
            f"{re_s / prop_s:.2f}x",
        )
    report(table, "ablation_batch_rebuild.txt")
