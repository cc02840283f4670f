"""Maintained reads via output change streams vs per-epoch full drains.

The tentpole claim of the change-stream model: a reader that keeps a
:class:`~repro.viewtree.changes.MaterializedView` pays O(|delta|) per
epoch — ``refresh()`` pulls the composed output delta since its last
epoch and patches its dict in place — while a reader that re-drains
``enumerate_snapshot()`` pays O(|output|) for the same freshness, even
when the commit touched a handful of tuples.

Both read styles serve the identical loop: after every publish, answer
``READS`` point reads against up-to-date state.  The maintained reader
refreshes (a patch on the first read of the epoch, an O(1) epoch check
after) and probes its dict; the drain reader rebuilds its dict from
``enumerate_snapshot()`` once per epoch and probes that.  Per-read cost
is the whole block over ``READS``, so each style's per-epoch freshness
work is amortized exactly once.

Construction keeps the arithmetic honest: ``S`` holds every join key
and ``R`` only ever gains distinct ``(X, Y)`` pairs, so |output| == |R|
exactly and each batch of ``BATCH`` inserts is exactly ``BATCH`` output
delta tuples — the delta/state ratio shrinks from ~0.5% to ~0.05% as
the state grows 10x under a fixed write batch.

Differential gate (asserted below): after the final epoch the
delta-maintained dict is bit-identical to a fresh full drain, with zero
full-refresh fallbacks (every epoch stayed under the ratio threshold).

Acceptance gates (asserted below):

* maintained reads are >= 5x cheaper than drain-backed reads at every
  size (delta/state <= 1% throughout);
* the maintained per-read cost stays flat — <= 1.3x — as the state
  grows 10x, because patching scales with the delta while the drain
  reader's per-read cost grows ~10x with the state.

Lagging reader (second table, same run): a view that refreshes once
after ``LAG_COMMITS`` commits of ``LAG_BATCH`` updates each (a sliding
window: half fresh inserts, half deletes of the oldest live tuples)
applies the retained per-epoch deltas in order.  Gate: that refresh
takes <= 0.8x the time of ``compose_deltas`` followed by one
``apply_to`` over the same deltas, and both states are bit-identical to
each other and to a fresh drain.
"""

from __future__ import annotations

import os
import time
from collections import deque

from repro.bench import Table
from repro.data import Database, Update
from repro.query import parse_query
from repro.viewtree import ViewTreeEngine
from repro.viewtree.changes import compose_deltas

from _util import RESULTS_DIR, report

QUERY = "Q(X, Y) = R(X, Y) * S(X)"
DOMAIN = 64
BATCH = 64
READS = 8000
EPOCHS = 20
WARMUP_EPOCHS = 4
STATE_SIZES = (12000, 40000, 120000)
LAG_PREFILL = 40000
LAG_COMMITS = 100
LAG_BATCH = 12
LAG_TRIALS = 21


def _fresh_engine(query, prefill):
    db = Database()
    db.create("R", ("X", "Y"))
    db.create("S", ("X",))
    for x in range(DOMAIN):
        db["S"].add((x,), 1)
    # Distinct (X, Y) pairs: |Q| == |R| == prefill, exactly.
    for i in range(prefill):
        db["R"].add((i % DOMAIN, i // DOMAIN), 1)
    return ViewTreeEngine(query, db)


def _median(samples):
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


def _drive(query, prefill):
    engine = _fresh_engine(query, prefill)
    stats = engine.attach_stats()
    view = engine.subscribe()
    next_y = prefill // DOMAIN + 1
    patch_times: list[float] = []
    drain_times: list[float] = []
    maintained_reads: list[float] = []
    drain_reads: list[float] = []
    drained: dict = {}
    for epoch in range(EPOCHS):
        base = next_y
        batch = [
            Update("R", (i % DOMAIN, base + i // DOMAIN), 1)
            for i in range(BATCH)
        ]
        next_y = base + (BATCH - 1) // DOMAIN + 1
        engine.apply_batch(batch)
        engine.publish_epoch()
        # Readers probe a hot set of freshly-changed keys — the natural
        # pattern for a subscriber reacting to an epoch's changes (and a
        # probe working set whose cache footprint is size-independent,
        # so the flatness gate measures the patch path, not the memory
        # hierarchy).
        probe_keys = [update.key for update in batch[:16]]
        n_keys = len(probe_keys)

        start = time.perf_counter()
        view.refresh()  # the one O(delta) patch this epoch
        patch = time.perf_counter() - start
        for i in range(READS - 1):
            view.refresh()  # O(1): already at the published epoch
            view.get(probe_keys[i % n_keys])
        maintained = time.perf_counter() - start

        start = time.perf_counter()
        drained = dict(engine.enumerate_snapshot())  # O(n) re-drain
        drain = time.perf_counter() - start
        for i in range(READS - 1):
            drained.get(probe_keys[i % n_keys])
        drain_backed = time.perf_counter() - start

        # The first publishes pay one-off costs (guard index builds,
        # shape-cache warmup); keep the steady-state samples.
        if epoch >= WARMUP_EPOCHS:
            patch_times.append(patch)
            drain_times.append(drain)
            maintained_reads.append(maintained / READS)
            drain_reads.append(drain_backed / READS)

    # Differential gate: the delta-maintained dict must be bit-identical
    # to a fresh drain, and it must have got there purely via patches.
    state = dict(view.items())
    assert state == drained, "maintained view diverged from full drain"
    assert view.full_refreshes == 0, "ratio threshold tripped; bench invalid"
    assert len(drained) == prefill + EPOCHS * BATCH

    maintained_read = _median(maintained_reads)
    drain_read = _median(drain_reads)
    return {
        "entries": len(drained),
        "delta_tuples": BATCH,
        "delta_ratio": BATCH / len(drained),
        "patch_median": _median(patch_times),
        "drain_median": _median(drain_times),
        "maintained_read": maintained_read,
        "drain_read": drain_read,
        "speedup": drain_read / maintained_read,
    }, stats


def _lagging_reader(query):
    """In-order refresh vs compose + apply, after the same lag."""
    engine = _fresh_engine(query, LAG_PREFILL)
    view = engine.subscribe()
    live = deque((i % DOMAIN, i // DOMAIN) for i in range(LAG_PREFILL))
    next_y = LAG_PREFILL // DOMAIN + 1
    refresh_times: list[float] = []
    compose_times: list[float] = []
    summed = composed_entries = 0
    for trial in range(WARMUP_EPOCHS + LAG_TRIALS):
        for _ in range(LAG_COMMITS):
            batch = []
            for i in range(LAG_BATCH // 2):
                key = (i, next_y)
                live.append(key)
                batch.append(Update("R", key, 1))
                batch.append(Update("R", live.popleft(), -1))
            next_y += 1
            engine.apply_batch(batch)
            engine.publish_epoch()
        deltas = engine.deltas_since(view.epoch)
        composed = dict(view.state)
        # Alternate which side runs first.
        for side in ((0, 1) if trial % 2 else (1, 0)):
            start = time.perf_counter()
            if side:
                delta = compose_deltas(deltas, view.epoch, deltas[-1].epoch_to)
                delta.apply_to(composed)
                compose_time = time.perf_counter() - start
            else:
                view.refresh()
                refresh_time = time.perf_counter() - start
        assert view.full_refreshes == 0, "the lag tripped the ratio check"
        assert view.state == composed, "in-order patch diverged from compose"
        if trial >= WARMUP_EPOCHS:
            refresh_times.append(refresh_time)
            compose_times.append(compose_time)
        summed = sum(map(len, deltas))
        composed_entries = len(delta)
    assert dict(view.items()) == dict(engine.enumerate_snapshot())
    refresh, compose = _median(refresh_times), _median(compose_times)
    return {
        "entries": len(view),
        "commits": LAG_COMMITS,
        "batch": LAG_BATCH,
        "summed_entries": summed,
        "composed_entries": composed_entries,
        "refresh_median": refresh,
        "compose_apply_median": compose,
        "ratio": refresh / compose,
    }


def bench_changes(benchmark):
    benchmark.pedantic(_changes_table, rounds=1, iterations=1)


def _changes_table():
    query = parse_query(QUERY)
    table = Table(
        "output change streams -- maintained reads vs full drains",
        [
            "output entries",
            "delta/state",
            "patched read time (us)",
            "drained read time (us)",
            "read speedup",
            "patch latency",
            "drain latency",
        ],
    )

    results = {}
    gated_stats = None
    for prefill in STATE_SIZES:
        summary, stats = _drive(query, prefill)
        results[prefill] = summary
        gated_stats = stats
        # The ratio and raw per-epoch latency cells are informational,
        # printed as "<=" upper bounds; the gates are the per-read cost
        # ratios asserted below.
        table.add(
            f"{summary['entries']:,}",
            f"<={summary['delta_ratio']:.2%}",
            f"{summary['maintained_read'] * 1e6:.3f}",
            f"{summary['drain_read'] * 1e6:.3f}",
            f"{summary['speedup']:.1f}x",
            f"<={summary['patch_median'] * 1e6:.0f}us",
            f"<={summary['drain_median'] * 1e3:.1f}ms",
        )

    lag = _lagging_reader(query)
    lag_table = Table(
        f"lagging reader -- one refresh after {LAG_COMMITS} commits of "
        f"{LAG_BATCH} updates",
        [
            "output entries",
            "summed entries",
            "composed entries",
            "in-order refresh (us)",
            "compose + apply (us)",
            "ratio",
        ],
    )
    lag_table.add(
        f"{lag['entries']:,}",
        f"{lag['summed_entries']:,}",
        f"{lag['composed_entries']:,}",
        f"{lag['refresh_median'] * 1e6:.0f}",
        f"{lag['compose_apply_median'] * 1e6:.0f}",
        f"{lag['ratio']:.2f}x",
    )

    report(
        table,
        "changes.txt",
        stats=gated_stats,
        extra_tables=[lag_table],
        meta={
            "query": QUERY,
            "domain": DOMAIN,
            "batch": BATCH,
            "reads": READS,
            "epochs": EPOCHS,
            "warmup_epochs": WARMUP_EPOCHS,
            "state_sizes": list(STATE_SIZES),
            "results": {
                str(prefill): summary for prefill, summary in results.items()
            },
            "lagging_reader": lag,
        },
    )
    lag_table.show()
    with open(os.path.join(RESULTS_DIR, "changes.txt"), "a") as handle:
        handle.write("\n" + lag_table.render() + "\n")

    # Acceptance gate 1: at delta/state <= 1%, maintained reads beat
    # drain-backed reads by >= 5x (every configured size qualifies).
    for prefill, summary in results.items():
        assert summary["delta_ratio"] <= 0.01, summary
        assert summary["speedup"] >= 5.0, (prefill, summary)

    # Acceptance gate 2: maintained reads scale with the delta, not the
    # state — per-read cost stays within 1.3x across 10x state growth,
    # while the drain reader's per-read cost grows with the state.
    small = results[STATE_SIZES[0]]["maintained_read"]
    large = results[STATE_SIZES[-1]]["maintained_read"]
    assert large <= 1.3 * small, {
        "read_small": small,
        "read_large": large,
        "ratio": large / small,
    }

    # Acceptance gate 3: a lagging reader patches through the retained
    # deltas in order for at most 0.8x what composing them costs.
    assert lag["ratio"] <= 0.8, lag
