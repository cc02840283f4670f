"""Sliding-window triangle counting: sustained insert-delete throughput.

The motivating streaming workload for Section 3.3's insert-*delete*
machinery: maintain the triangle count over the most recent W edges of a
skewed stream.  Every step is one insert plus (once the window is full)
one delete, so techniques restricted to insert-only streams do not apply;
the comparison is IVM^eps against first-order delta queries.
"""

from __future__ import annotations

from repro.bench import Table, time_call
from repro.data import Database
from repro.delta import DeltaQueryEngine
from repro.ivme import TriangleCounter
from repro.query import parse_query
from repro.workloads import sliding_window_stream, zipf_edges

from _util import report

TRIANGLE = parse_query("Q() = R(A,B) * S(B,C) * T(C,A)")
EDGES = 1500
WINDOW = 600


def _stream():
    edges = zipf_edges(nodes=250, edges=EDGES, skew=1.2, seed=4)
    return list(sliding_window_stream(edges, WINDOW))


def bench_sliding_window_table(benchmark):
    benchmark.pedantic(_window_table, rounds=1, iterations=1)


def _window_table():
    stream = _stream()

    counter = TriangleCounter(epsilon=0.5)
    ivme_seconds, _ = time_call(lambda: counter.apply_batch(stream))

    db = Database()
    for name in ("R", "S", "T"):
        db.create(name, ("X", "Y"))
    delta_engine = DeltaQueryEngine(TRIANGLE, db)
    delta_seconds, _ = time_call(
        lambda: [delta_engine.apply(u) for u in stream]
    )
    assert counter.count == delta_engine.scalar()

    table = Table(
        f"Sliding window (W = {WINDOW}) triangle count over a skewed "
        f"stream of {EDGES} edges",
        ["engine", "updates/s", "final count"],
    )
    table.add("IVM^eps (Sec 3.3)", len(stream) / ivme_seconds, counter.count)
    table.add(
        "delta queries (Sec 3.1)",
        len(stream) / delta_seconds,
        delta_engine.scalar(),
    )
    report(table, "sliding_window_triangles.txt")
    assert ivme_seconds < delta_seconds


def bench_window_step(benchmark):
    """One insert+delete window step on a warm IVM^eps counter."""
    stream = _stream()
    counter = TriangleCounter(epsilon=0.5)
    counter.apply_batch(stream)
    replay = iter(stream * 50)

    def one_step():
        counter.apply(next(replay))

    benchmark(one_step)
