"""The five workloads: which stack of the program each one drives, and how.

Every workload does the same four things — generate inputs from the seed
(:mod:`workloads`), set the program up (several times when set-up time is
being measured), replay its closed cycle for the budgeted time or work
while timing what a caller would see, and check the final output against
a ``repro.naive`` recompute of the final base database — and returns an
:class:`~measure.Outcome`.  Engines, servers and worker pools are closed
in ``finally`` so a failed run leaves no process behind.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from measure import Outcome, child_pids, children_cpu_seconds, peak_rss_mb, tail
from repro.core.engine import IVMEngine
from repro.data.database import Database
from repro.naive import evaluate
from repro.query.parser import parse_query
from repro.serve import AsyncIVMServer
from repro.shard.engine import ShardedEngine
from repro.viewtree.changes import EpochGapError
from repro.viewtree.engine import ViewTreeEngine
from workloads import (
    closed_cycle,
    hier_query_reads,
    list_query_reads,
    uniform_sampler,
    zipf_sampler,
)

Q_LIST = "Q(Y, X, Z) = R(Y, X) * S(Y, Z)"
Q_HIER = "Q(A, C) = R(A, B) * S(B, C)"
DOMAIN = 5000
BATCH = 256
#: ``serve.late_share`` is the share of ``serve_paced``'s updates visible
#: later than this.  A diagnostic, not a failure: one stall of the shared
#: host makes a few hundred updates late in one run and none in the next.
LATENCY_LIMIT_MS = 250.0


@dataclass(frozen=True)
class Budget:
    """How long the measured window lasts: ``seconds`` of wall time, or
    ``scale`` times the workload's nominal number of updates (fixed work,
    so counts repeat exactly for one seed)."""

    seconds: float | None = None
    scale: float | None = None

    def updates(self, nominal: int) -> int | None:
        return None if self.scale is None else max(2 * BATCH, int(nominal * self.scale))


def _database(query) -> Database:
    database = Database()
    for atom in query.atoms:
        database.create(atom.relation, atom.variables)
    return database


def _oracle(query, database, produced: dict) -> bool:
    """Whether ``produced`` equals a from-scratch evaluation of ``query``.

    Bound (non-head) variables go first in the evaluator's order, so a
    join through a bound variable is walked once per joining pair instead
    of once per pair of head values.
    """
    head = list(query.head)
    order = sorted(query.variables() - set(head)) + head
    return produced == evaluate(query, database, variable_order=order).data


# ----------------------------------------------------------------------
# Engine workloads: one thread calling the engine directly
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EngineWorkload:
    """``engine_batch``, ``engine_mixed`` and ``shard_batch``."""

    name: str
    #: ``Q_LIST`` gets uniform keys; ``Q_HIER`` gets a zipf join key ``B``.
    query_text: str
    build: Callable  # (query, empty database) -> the engine under test
    window: int
    cycle: int  # updates in one pass of the closed cycle
    nominal_updates: int
    batch: int  # 1: one ``apply`` per update; else ``apply_batch`` per slice
    updates_per_lookup: int
    drain_every: int
    rate_every: int  # updates per throughput segment

    def generate(self, seed: int, budget: Budget):
        rng = np.random.default_rng(seed)
        wanted = budget.updates(self.nominal_updates)
        cycle = self.cycle if wanted is None else min(self.cycle, max(wanted, 4 * self.window))
        hier = self.query_text == Q_HIER
        uniform = uniform_sampler(rng, DOMAIN)
        join = zipf_sampler(rng, DOMAIN) if hier else uniform
        stream = closed_cycle(("R", "S"), ((uniform, join), (join, uniform)), self.window, cycle)
        if self.batch == 1:
            units = stream.cycle
        else:
            units = [stream.cycle[i : i + self.batch] for i in range(0, len(stream.cycle), self.batch)]
        sizes = [1 if self.batch == 1 else len(unit) for unit in units]
        if hier:
            reads = hier_query_reads(stream, DOMAIN, join)
        else:
            ends, applied = [], 0
            for size in sizes:
                applied += size
                ends.append((applied, size // self.updates_per_lookup))
            reads = list_query_reads(rng, stream, DOMAIN, ends)
        keys = [[key for key, _ in group] for group in reads]
        hits = [[hit for _, hit in group] for group in reads]
        return stream, units, sizes, keys, hits

    def _setup(self, query, stream):
        engine = self.build(query, _database(query))
        try:
            if self.batch == 1:
                for update in stream.prefill:
                    engine.apply(update)
            else:
                for i in range(0, len(stream.prefill), self.batch):
                    engine.apply_batch(stream.prefill[i : i + self.batch])
        except BaseException:
            _close(engine)
            raise
        return engine

    def run(self, inputs, budget: Budget, calibrator, tracer=None, setups: int = 1) -> Outcome:
        stream, units, sizes, keys, hits = inputs
        query = parse_query(self.query_text)
        setup_s = []
        engine = None
        try:
            for _ in range(setups):
                _close(engine)
                _forget_generated_kernels()
                started = calibrator.open_bracket()
                engine = self._setup(query, stream)
                setup_s.append(calibrator.close_bracket(started))
            outcome = self._measure(engine, units, sizes, keys, hits, budget, tracer, calibrator)
            if tracer is not None:
                tracer.on = False  # the oracle's reads are not part of the window
            outcome.setup_s = setup_s
            outcome.correct = _oracle(query, engine.database, dict(engine.enumerate()))
            return outcome
        finally:
            _close(engine)

    def _measure(self, engine, units, sizes, keys, hits, budget, tracer, calibrator) -> Outcome:
        write = engine.apply if self.batch == 1 else engine.apply_batch
        lookup, drain = engine.lookup, engine.enumerate
        set_request = tracer.set_request if tracer is not None else None
        target = budget.updates(self.nominal_updates) or float("inf")
        clock, calibrate, spacing = time.perf_counter, calibrator.sample, calibrator.SPACING_S
        # (seconds, middle of the interval) per write call, lookup burst and drain.
        writes, bursts, drains = [], [], []
        written, drained = [], []
        done = undrained = reads = wrong = 0
        children = child_pids()
        if tracer is not None:
            tracer.mark()
        children_before = children_cpu_seconds(children)
        begin = next_sample = calibrate()
        stop_at = begin + budget.seconds if budget.seconds else float("inf")
        running = True
        while running:
            for index, unit in enumerate(units):
                if set_request is not None:
                    set_request(len(writes))
                before = clock()
                write(unit)
                after = clock()
                writes.append((after - before, (before + after) / 2))
                size = sizes[index]
                written.append(size)
                done += size
                undrained += size
                group = keys[index]
                if group:
                    before = clock()
                    values = [lookup(key) for key in group]
                    after = clock()
                    bursts.append(((after - before) / len(group), (before + after) / 2))
                    reads += len(group)
                    for value, hit in zip(values, hits[index]):
                        wrong += (value != 0) != hit
                stopping = done >= target or after >= stop_at
                if undrained >= self.drain_every or (stopping and not drains):
                    # A drain is long enough for the machine's speed to
                    # change under it: sample on both sides.
                    before = calibrate()
                    tuples = len(list(drain()))
                    after = clock()
                    drains.append((after - before, (before + after) / 2))
                    drained.append(tuples)
                    undrained = 0
                    next_sample = after
                if after >= next_sample:
                    next_sample = calibrate() + spacing
                if stopping:
                    running = False
                    break
        wall = calibrate() - begin
        cpu = calibrator.quiet_cpu(begin, children_cpu_seconds(children) - children_before)
        write_s = calibrator.quiet(writes)
        # One rate per stretch of ``rate_every`` updates; the last stretch
        # may be short, so it is folded into the one before.
        stretch = (np.cumsum(written) - 1) // self.rate_every
        if stretch[-1] > 0:
            stretch[stretch == stretch[-1]] -= 1
        rates = np.bincount(stretch, weights=written) / np.bincount(stretch, weights=write_s)
        slowdown = calibrator.slowdown(calibrator.times)
        return Outcome(
            updates=done,
            wall_s=wall,
            cpu_s=cpu,
            rss_mb=peak_rss_mb(children),
            write_rates=rates.tolist(),
            visible_ms=write_s * 1e3,
            lookup_us=calibrator.quiet(bursts) * 1e6,
            drain_rates=(np.array(drained) / calibrator.quiet(drains)).tolist(),
            attempted=len(writes) + reads + len(drains),
            failed=wrong,
            facts={
                "loadgen.reads_sent": reads,
                "loadgen.slowdown_p50": float(np.median(slowdown)),
            },
        )


def _close(engine) -> None:
    close = getattr(engine, "close", None)
    if close is not None:
        close()


def _forget_generated_kernels() -> None:
    """Make every set-up pay for kernel generation, as a fresh process does."""
    try:
        from repro.viewtree.codegen import clear_shape_cache
    except ImportError:
        return
    clear_shape_cache()


# ----------------------------------------------------------------------
# Serve workloads: the asyncio server, its commit thread, and consumers
# ----------------------------------------------------------------------


class EngineProxy:
    """What the server is given in place of the engine: the same surface,
    plus a log of every commit.

    The group-commit queue is FIFO, so the cumulative batch lengths map
    submission order to commits; with the time each commit's delta
    reached the subscriber that gives every update's visibility latency
    without touching the program.  The server reads ``backend`` to find
    the object carrying ``epoch`` and ``changes_since``; the proxy answers
    with itself so those calls are logged too.
    """

    def __init__(self, engine, set_request=None):
        self._engine = engine
        self._set_request = set_request
        self.sizes: list[int] = []
        self.entered: list[float] = []
        self.finished: list[float] = []
        self.epochs: list[int] = []
        self.engine_s = 0.0
        self.errors = 0

    def __getattr__(self, name):
        return getattr(self._engine, name)

    @property
    def backend(self):
        return self

    @property
    def epoch(self) -> int:
        return self._engine.backend.epoch

    def apply_batch(self, batch) -> None:
        if self._set_request is not None:
            self._set_request(len(self.sizes))
        started = time.perf_counter()
        try:
            self._engine.apply_batch(batch)
        except BaseException:
            self.errors += 1
            raise
        ended = time.perf_counter()
        self.engine_s += ended - started
        self.sizes.append(len(batch))
        self.entered.append(started)
        self.finished.append(ended)
        self.epochs.append(-1)

    def publish_epoch(self):
        started = time.perf_counter()
        try:
            snapshot = self._engine.publish_epoch()
        except BaseException:
            self.errors += 1
            raise
        ended = time.perf_counter()
        if self.epochs and self.epochs[-1] < 0:  # the publish that ends a commit
            self.engine_s += ended - started
            self.finished[-1] = ended
            self.epochs[-1] = self.epoch
        return snapshot

    def changes_since(self, epoch: int):
        started = time.perf_counter()
        try:
            return self._engine.backend.changes_since(epoch)
        finally:
            self.engine_s += time.perf_counter() - started


class _Subscriber:
    """A change-feed consumer that keeps a dict equal to the output."""

    def __init__(self, server, feed, state: dict):
        self.server, self.feed, self.state = server, feed, state
        self.received: dict[int, float] = {}
        self.tuples = 0
        self.gaps = 0

    async def run(self) -> None:
        while True:
            try:
                delta = await self.feed.__anext__()
            except StopAsyncIteration:
                return
            except EpochGapError:
                self.gaps += 1
                self.state = dict(await self.server.enumerate())
                continue
            delta.apply_to(self.state)
            self.received[delta.epoch_to] = time.perf_counter()
            self.tuples += len(delta)


@dataclass(frozen=True)
class ServeWorkload:
    """``serve_saturate`` (closed loop) and ``serve_paced`` (open loop)."""

    name: str
    nominal_updates: int
    #: Offered updates per second; ``None`` means two closed-loop writers.
    rate: float | None
    window: int = 10_000  # per stream
    cycle: int = 200_000  # per stream
    lookups_per_s: float = 1000.0
    lookups_per_enumerate: int = 250
    query_text: str = Q_LIST

    def generate(self, seed: int, budget: Budget):
        wanted = budget.updates(self.nominal_updates)
        cycle = self.cycle if wanted is None else min(self.cycle, max(wanted // 2, 4 * self.window))
        *stream_rngs, read_rng = np.random.default_rng(seed).spawn(3)
        streams = []
        for rng in stream_rngs:
            uniform = uniform_sampler(rng, DOMAIN)
            streams.append(closed_cycle(("R", "S"), ((uniform, uniform),) * 2, self.window, cycle))
        # The reader follows the first stream's progress; the margin keeps
        # its hits live both in what was submitted and in what the last
        # published epoch shows (the queue holds at most 4096 updates).
        ends = [(applied, 1) for applied in range(64, cycle + 1, 64)]
        reads = list_query_reads(read_rng, streams[0], DOMAIN, ends, margin=self.window // 4)
        return streams, [group[0][0] for group in reads]

    def run(self, inputs, budget: Budget, calibrator, tracer=None, setups: int = 1) -> Outcome:
        return asyncio.run(self._run(inputs, budget, calibrator, tracer, setups))

    async def _setup(self, query, streams, tracer):
        engine = IVMEngine(query, _database(query))
        for stream in streams:
            for i in range(0, len(stream.prefill), BATCH):
                engine.apply_batch(stream.prefill[i : i + BATCH])
        proxy = EngineProxy(engine, tracer.set_request if tracer is not None else None)
        server = AsyncIVMServer(proxy)
        await server.start()
        try:
            feed = server.subscribe()
            subscriber = _Subscriber(server, feed, dict(await server.enumerate()))
        except BaseException:
            await server.stop()
            raise
        return engine, proxy, server, subscriber

    async def _run(self, inputs, budget, calibrator, tracer, setups) -> Outcome:
        streams, read_keys = inputs
        query = parse_query(self.query_text)
        setup_s = []
        server = None
        try:
            for _ in range(setups):
                if server is not None:
                    await server.stop()
                _forget_generated_kernels()
                started = calibrator.open_bracket()
                engine, proxy, server, subscriber = await self._setup(query, streams, tracer)
                setup_s.append(calibrator.close_bracket(started))
            if tracer is not None:
                tracer.mark()
            outcome = await self._measure(
                proxy, server, subscriber, streams, read_keys, budget, calibrator
            )
            if tracer is not None:
                tracer.on = False  # the oracle's reads are not part of the window
            outcome.setup_s = setup_s
            outcome.correct = (
                subscriber.state == dict(await server.enumerate())
                and _oracle(query, engine.database, dict(engine.enumerate()))
            )
            return outcome
        finally:
            if server is not None:
                await server.stop()

    async def _measure(
        self, proxy, server, subscriber, streams, read_keys, budget, calibrator
    ) -> Outcome:
        clock = time.perf_counter
        target = budget.updates(self.nominal_updates)
        if target is None and self.rate is not None:
            target = int(self.rate * budget.seconds)
        stamps: list[float] = []  # when each update was handed to submit()
        sent = [0] * len(streams)
        reader = _Reader(self, server, read_keys, sent, calibrator)
        listening = asyncio.create_task(subscriber.run())
        reading = asyncio.create_task(reader.run())
        begin = calibrator.sample()
        if self.rate is None:
            stop_at = begin + budget.seconds if budget.seconds else float("inf")
            quota = target // len(streams) if target else None
            await asyncio.gather(*(
                _closed_loop_writer(server, stream.cycle, sent, index, stamps, quota, stop_at)
                for index, stream in enumerate(streams)
            ))
            due = np.array(stamps)
        else:
            await _open_loop_scheduler(server, streams, sent, stamps, self.rate, target, begin)
            due = begin + np.arange(len(stamps)) / self.rate
        backlog_end = len(server.queue)  # what the writers left behind
        await server.drain()
        wall = calibrator.sample() - begin
        cpu = calibrator.quiet_cpu(begin)
        reader.stop = True
        await reading
        if not reader.drains:  # a window shorter than one enumerate interval still reads once
            before = clock()
            reader.drained.append(len(await server.enumerate()))
            reader.drains.append((clock() - before, calibrator.sample()))
        # The last delta crosses from the commit thread to the loop after
        # drain() returns; give it a moment to arrive.
        for _ in range(5000):
            if not proxy.epochs or proxy.epochs[-1] in subscriber.received:
                break
            await asyncio.sleep(0.001)
        subscriber.feed.close()
        await listening

        sizes = np.array(proxy.sizes)
        covered = np.cumsum(sizes)
        commit_of = np.searchsorted(covered, np.arange(len(due)), side="right")
        arrived = np.array([subscriber.received.get(epoch, np.nan) for epoch in proxy.epochs])
        visible_ms = (arrived[commit_of] - due) * 1e3
        waited_ms = (np.array(proxy.entered)[commit_of] - due) * 1e3
        seen = ~np.isnan(visible_ms)
        # An update fails when its commit never reaches the subscriber (a
        # raised submit or read ends the run instead).
        lost = int(np.sum(~seen))
        late_share = float(np.mean(visible_ms[seen] > LATENCY_LIMIT_MS)) if self.rate else 0.0
        # Delivered rate over twenty stretches of the commit log, so that
        # one slow stretch cannot move the reported median.
        finished = np.array(proxy.finished)
        ends = np.unique(np.linspace(0, len(sizes) - 1, 21).astype(int))
        marks = finished[ends]
        rates = np.diff(covered[ends]) / np.diff(marks)
        # Up to ``max_delay`` of an update's latency may be the batching
        # timer, which no CPU speed shortens; the rest is work and is
        # reported at quiet speed.  The delivered rate is at quiet speed
        # only when the writers run flat out: on the schedule the wall
        # clock sets it.
        timer_ms = server.max_delay * 1e3
        visible_ms = visible_ms[seen]
        visible_ms = np.minimum(visible_ms, timer_ms) + (
            np.maximum(visible_ms - timer_ms, 0.0) / calibrator.slowdown(arrived[commit_of][seen])
        )
        if self.rate is None:
            rates = rates * calibrator.slowdown(np.linspace(marks[:-1], marks[1:], 50)).mean(axis=0)
        slowdown = calibrator.slowdown(calibrator.times)
        lookup_s, drain_s = calibrator.quiet(reader.lookups), calibrator.quiet(reader.drains)
        lag_ms = (np.array(stamps) - due) * 1e3
        facts = {
            "serve.commits": len(sizes),
            "serve.mean_batch": float(sizes.mean()),
            "serve.commit_engine_s": proxy.engine_s,
            "serve.overhead_share": 1.0 - proxy.engine_s / wall,
            "serve.queue_wait_p50_ms": float(np.median(waited_ms)),
            "serve.backlog_max": max(reader.backlog, default=0),
            "serve.backlog_end": backlog_end,
            "serve.feed_deltas": len(subscriber.received),
            "serve.feed_tuples": subscriber.tuples,
            "serve.feed_gaps": subscriber.gaps,
            "serve.commit_errors": proxy.errors,
            "serve.lookup_p99_us": tail(lookup_s) * 1e6,
            "serve.visibility_p99_ms": tail(visible_ms),
            "serve.late_share": late_share,
            "loadgen.lag_p50_ms": float(np.median(lag_ms)),
            "loadgen.lag_max_ms": float(lag_ms.max()),
            "loadgen.read_lag_p50_ms": float(np.median(reader.lag)) * 1e3,
            "loadgen.reads_sent": len(reader.lookups),
            "loadgen.slowdown_p50": float(np.median(slowdown)),
        }
        return Outcome(
            updates=len(stamps),
            wall_s=wall,
            cpu_s=cpu,
            rss_mb=peak_rss_mb([]),
            write_rates=rates.tolist(),
            visible_ms=visible_ms,
            lookup_us=lookup_s * 1e6,
            drain_rates=(np.array(reader.drained) / drain_s).tolist(),
            attempted=len(stamps) + len(reader.lookups) + len(reader.drains),
            failed=lost,
            paced=self.rate is not None,
            facts=facts,
        )


async def _closed_loop_writer(server, cycle, sent, index, stamps, quota, stop_at) -> None:
    """Submit the cycle over and over; the next update waits for ``submit`` to return."""
    clock, submit = time.perf_counter, server.submit
    while True:
        for update in cycle:
            now = clock()
            if now >= stop_at or sent[index] == quota:
                return
            stamps.append(now)
            await submit(update)
            sent[index] += 1


async def _open_loop_scheduler(server, streams, sent, stamps, rate, total, begin) -> None:
    """Submit update ``k`` when ``begin + k / rate`` has come, however the server is doing."""
    clock, submit = time.perf_counter, server.submit
    cycles = [stream.cycle for stream in streams]
    ways, length = len(cycles), len(cycles[0])
    k = 0
    while k < total:
        due = min(total, int((clock() - begin) * rate) + 1)
        while k < due:
            stamps.append(clock())
            await submit(cycles[k % ways][(k // ways) % length])
            sent[k % ways] += 1
            k += 1
        await asyncio.sleep(max(0.0, begin + k / rate - clock()))


class _Reader:
    """Point lookups on a fixed schedule, and a full ``enumerate`` now and then.

    Being the one task that wakes every millisecond, it also takes the
    calibration samples and the queue-depth readings.
    """

    def __init__(self, workload: ServeWorkload, server, keys, sent, calibrator):
        self.workload, self.server, self.keys, self.sent = workload, server, keys, sent
        self.calibrator = calibrator
        self.stop = False
        self.lookups: list[tuple[float, float]] = []  # (seconds, middle of the interval)
        self.drains: list[tuple[float, float]] = []
        self.drained: list[int] = []
        self.lag: list[float] = []
        self.backlog: list[int] = []

    async def run(self) -> None:
        clock, server, keys = time.perf_counter, self.server, self.keys
        interval = 1.0 / self.workload.lookups_per_s
        due = clock()
        while not self.stop:
            # Always yield, so a reader that has fallen behind catches up
            # one read per loop turn instead of holding the loop.
            await asyncio.sleep(max(0.0, due - clock()))
            self.lag.append(clock() - due)
            self.backlog.append(len(server.queue))
            key = keys[(self.sent[0] // 64) % len(keys)]
            before = clock()
            await server.lookup(key)
            after = clock()
            self.lookups.append((after - before, (before + after) / 2))
            if len(self.lookups) % self.workload.lookups_per_enumerate == 0:
                before = self.calibrator.sample()
                rows = await server.enumerate()
                after = clock()
                self.drains.append((after - before, (before + after) / 2))
                self.drained.append(len(rows))
            self.calibrator.sample()
            due += interval


def _two_process_shards(query, database):
    return ShardedEngine(query, database, shards=2, executor="process", ipc="delta")


WORKLOADS = {
    workload.name: workload
    for workload in (
        EngineWorkload(
            "engine_batch", Q_LIST, ViewTreeEngine, window=20_000, cycle=400_000,
            nominal_updates=8_000_000, batch=BATCH, updates_per_lookup=64,
            drain_every=100_000, rate_every=100_000,
        ),
        EngineWorkload(
            "engine_mixed", Q_HIER, IVMEngine, window=4_000, cycle=160_000,
            nominal_updates=160_000, batch=1, updates_per_lookup=1,
            drain_every=2_000, rate_every=2_000,
        ),
        EngineWorkload(
            "shard_batch", Q_LIST, _two_process_shards, window=20_000, cycle=400_000,
            nominal_updates=2_000_000, batch=BATCH, updates_per_lookup=64,
            drain_every=100_000, rate_every=50_000,
        ),
        ServeWorkload("serve_saturate", nominal_updates=600_000, rate=None),
        ServeWorkload("serve_paced", nominal_updates=100_000, rate=5_000.0),
    )
}
