"""Load generation for the serving front-end.

Writers run closed-loop (each submits as fast as backpressure allows);
readers run open-loop on a fixed schedule (:data:`READS_PER_S`).

:func:`update_stream` is the one synthetic update generator — uniform
/ zipf value distributions and the sliding-window insert+delayed-delete
pairing: ``python -m repro stats`` replays it into an engine, and
``python -m repro serve``, ``benchmarks/bench_serve.py`` and the test
suite drive the :class:`~repro.serve.server.AsyncIVMServer` with it.

Validity: each writer task draws from its **own** independent stream
(seeded ``seed + writer_index``), so a delete always retracts a tuple
its own writer inserted earlier.  Updates commute across writers (ring
additions), so any interleaving the server commits is equivalent to some
serial replay — the property the equivalence tests pin down.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import deque
from typing import Any, Callable, Iterator

from ..data.update import Update
from ..viewtree.changes import EpochGapError

#: Point lookups per second the reader tasks offer between them: the
#: read load of the end-to-end benchmark's serve workloads
#: (``benchmarks/e2e/README.md``), so ``bench_serve`` and
#: ``python -m repro serve`` measure writes under the same read
#: pressure.
READS_PER_S = 1000.0


def value_sampler(
    rng: random.Random, domain: int, workload: str, zipf_s: float = 1.2
) -> Callable[[], int]:
    """A ``() -> int`` attribute-value sampler for the chosen workload.

    ``uniform`` draws each value with equal probability; ``zipf`` draws
    value ``k`` with probability proportional to ``1/(k+1)**s``, so a
    few hot join-key values dominate — the adversarial shape for hash
    sharding (hot keys pile onto one shard) and for heavy/light
    partitioning schemes.
    """
    if workload == "uniform":
        return lambda: rng.randrange(domain)
    if workload == "zipf":
        import bisect
        import itertools

        weights = [1.0 / (k + 1) ** zipf_s for k in range(domain)]
        cumulative = list(itertools.accumulate(weights))
        total = cumulative[-1]

        def sample() -> int:
            return min(
                bisect.bisect_left(cumulative, rng.random() * total),
                domain - 1,
            )

        return sample
    raise ValueError(f"unknown workload shape {workload!r}")


def update_stream(
    query,
    updates: int,
    *,
    domain: int = 16,
    seed: int = 0,
    workload: str = "uniform",
    zipf_s: float = 1.2,
    window: int = 256,
    deletes_ok: bool = True,
) -> Iterator[Update]:
    """Yield a valid ``updates``-long stream over the query's relations.

    Deletes only retract still-live insertions from this same stream, so
    multiplicities stay non-negative and enumeration stays sound.
    ``sliding-window`` keeps a FIFO of the last ``window`` insertions
    and emits the matching delete as each tuple falls out of the window.
    """
    rng = random.Random(seed)
    value = value_sampler(
        rng,
        domain,
        "uniform" if workload == "sliding-window" else workload,
        zipf_s,
    )
    static_names = {atom.relation for atom in query.static_atoms}
    arities: dict[str, int] = {}
    dynamic: list[str] = []
    for atom in query.atoms:
        if atom.relation not in arities:
            arities[atom.relation] = len(atom.variables)
            if atom.relation not in static_names:
                dynamic.append(atom.relation)
    if not dynamic:
        raise ValueError("query has no dynamic relations to stream into")

    def random_key(relation: str) -> tuple:
        return tuple(value() for _ in range(arities[relation]))

    live: dict[str, list[tuple]] = {name: [] for name in dynamic}
    fifo: deque[tuple[str, tuple]] = deque()
    for _ in range(updates):
        relation = dynamic[rng.randrange(len(dynamic))]
        if workload == "sliding-window":
            if len(fifo) >= max(window, 1):
                relation, key = fifo.popleft()
                yield Update(relation, key, -1)
                continue
            key = random_key(relation)
            fifo.append((relation, key))
            yield Update(relation, key, 1)
            continue
        keys = live[relation]
        if deletes_ok and keys and rng.random() < 0.25:
            key = keys.pop(rng.randrange(len(keys)))
            yield Update(relation, key, -1)
        else:
            key = random_key(relation)
            keys.append(key)
            yield Update(relation, key, 1)


async def run_load_test(
    server,
    query,
    updates: int,
    *,
    writers: int = 4,
    readers: int = 2,
    domain: int = 16,
    seed: int = 0,
    workload: str = "uniform",
    zipf_s: float = 1.2,
    window: int = 256,
    deletes_ok: bool = True,
    change_feed: bool = False,
) -> dict[str, Any]:
    """Drive ``server`` closed-loop and return a summary dict.

    ``writers`` tasks split ``updates`` between them, each submitting
    its own independently-seeded stream as fast as backpressure allows.
    ``readers`` tasks share an open-loop schedule of :data:`READS_PER_S`
    point lookups per second on random candidate keys until the writers
    finish: each sleeps until its next read is due, so the readers
    offer a fixed load instead of competing with the writers for every
    turn of the event loop.  The returned summary reports the sustained
    end-to-end rate (submit of first update to drain of last), the
    maintenance-only rate (updates over summed commit time), the
    achieved ``read_rate``, and the commit-latency / read-staleness
    percentiles from the recorder.

    With ``change_feed=True`` (engines with change-stream support) a
    subscriber task seeds an absolute state from ``enumerate()`` and
    applies every per-epoch delta the feed delivers; the summary then
    carries ``feed_deltas`` / ``feed_tuples`` / ``feed_gaps`` and
    ``maintained_ok`` — whether the delta-maintained state finished
    identical to a fresh server enumeration.
    """
    writers = max(int(writers), 1)
    readers = max(int(readers), 0)
    head = tuple(query.head)
    key_rng = random.Random(seed ^ 0x5EED)
    key_value = value_sampler(
        key_rng,
        domain,
        "uniform" if workload == "sliding-window" else workload,
        zipf_s,
    )
    per_writer = [updates // writers] * writers
    per_writer[0] += updates - sum(per_writer)

    async def write(index: int, count: int) -> None:
        for update in update_stream(
            query,
            count,
            domain=domain,
            seed=seed + index,
            workload=workload,
            zipf_s=zipf_s,
            window=window,
            deletes_ok=deletes_ok,
        ):
            await server.submit(update)

    done = asyncio.Event()
    reads = 0

    read_interval = readers / READS_PER_S

    async def read() -> None:
        nonlocal reads
        clock = time.perf_counter
        due = clock()
        while not done.is_set():
            # Always yield, so a reader that has fallen behind catches
            # up one read per loop turn instead of holding the loop.
            await asyncio.sleep(max(0.0, due - clock()))
            if head:
                await server.lookup(tuple(key_value() for _ in head))
            else:
                await server.scalar()
            reads += 1
            due += read_interval

    feed = None
    feed_task = None
    feed_state: dict = {}
    feed_counts = {"deltas": 0, "tuples": 0, "gaps": 0}
    if change_feed:
        feed_state.update(await server.enumerate())
        feed = server.subscribe()

        async def consume() -> None:
            while True:
                try:
                    delta = await feed.__anext__()
                except StopAsyncIteration:
                    return
                except EpochGapError:
                    # Stream gapped (e.g. worker pool rebuild): re-seed
                    # with an absolute drain and keep consuming.
                    feed_counts["gaps"] += 1
                    fresh = dict(await server.enumerate())
                    feed_state.clear()
                    feed_state.update(fresh)
                    continue
                feed_counts["deltas"] += 1
                feed_counts["tuples"] += len(delta)
                delta.apply_to(feed_state)

        feed_task = asyncio.get_running_loop().create_task(consume())

    start = time.perf_counter()
    reader_tasks = [
        asyncio.get_running_loop().create_task(read())
        for _ in range(readers)
    ]
    try:
        await asyncio.gather(
            *(write(i, n) for i, n in enumerate(per_writer))
        )
        await server.drain()
    finally:
        done.set()
        if reader_tasks:
            await asyncio.gather(*reader_tasks, return_exceptions=True)
    seconds = time.perf_counter() - start

    maintained_ok = None
    if feed is not None:
        # Everything is committed and published; the close sentinel
        # queues behind any still-undelivered deltas, so the consumer
        # drains them all before exiting.
        feed.close()
        await feed_task
        maintained_ok = feed_state == dict(await server.enumerate())

    stats = server.stats
    summary: dict[str, Any] = {
        "updates": updates,
        "writers": writers,
        "readers": readers,
        "reads": reads,
        "read_rate": reads / seconds if seconds > 0 else 0.0,
        "seconds": seconds,
        "rate_end_to_end": updates / seconds if seconds > 0 else 0.0,
    }
    if feed is not None:
        summary.update(
            {
                "feed_deltas": feed_counts["deltas"],
                "feed_tuples": feed_counts["tuples"],
                "feed_gaps": feed_counts["gaps"],
                "maintained_entries": len(feed_state),
                "maintained_ok": maintained_ok,
            }
        )
    if stats is not None:
        commit_seconds = stats.commit_latency.stat.total
        summary.update(
            {
                "commits": stats.commits,
                "size_commits": stats.size_commits,
                "deadline_commits": stats.deadline_commits,
                "drain_commits": stats.drain_commits,
                "seconds_maintenance": commit_seconds,
                "rate_maintenance": (
                    updates / commit_seconds if commit_seconds > 0 else 0.0
                ),
                "commit_p50": stats.commit_latency.percentile(0.50),
                "commit_p99": stats.commit_latency.percentile(0.99),
                "mean_batch": stats.commit_batch_size.stat.mean,
                "backpressure_waits": stats.backpressure_waits,
                "staleness_p50": stats.read_staleness.percentile(0.50),
                "staleness_p99": stats.read_staleness.percentile(0.99),
            }
        )
    return summary
