"""The async group-commit serving front-end (`repro.serve`)."""

import asyncio
import signal
import sys
import threading
import time

import pytest

from repro.core.engine import IVMEngine
from repro.data import Update
from repro.data.database import Database
from repro.obs import MaintenanceStats
from repro.query.parser import parse_query
from repro.serve import (
    AsyncIVMServer,
    GroupCommitQueue,
    run_load_test,
    update_stream,
)
from repro.serve.batcher import QueueClosed
from repro.serve.loadgen import READS_PER_S
from repro.viewtree import RETAIN_EPOCHS

TEST_TIMEOUT_SECONDS = 60.0


@pytest.fixture(autouse=True)
def _wall_clock_timeout():
    """Fail instead of hanging: an event-loop deadlock in these tests
    would otherwise wedge the whole suite.  Stdlib ``SIGALRM`` keeps the
    guard dependency-free; it degrades to a no-op on platforms without
    the signal (or off the main thread, where signals cannot be set).
    """
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded the {TEST_TIMEOUT_SECONDS:g}s wall-clock limit"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def fresh_engine(text, shards=1, **kwargs):
    query = parse_query(text)
    db = Database()
    for atom in query.atoms:
        if atom.relation not in db:
            db.create(atom.relation, atom.variables)
    return query, IVMEngine(query, db, shards=shards, **kwargs)


def close_backend(engine):
    engine.close()


def record_threads(engine):
    """Wrap ``engine.apply_batch`` to log the thread of every commit."""
    threads = []
    inner_apply = engine.apply_batch

    def apply_batch(batch):
        threads.append(threading.get_ident())
        return inner_apply(batch)

    engine.apply_batch = apply_batch
    return threads


# ----------------------------------------------------------------------
# GroupCommitQueue
# ----------------------------------------------------------------------


class TestGroupCommitQueue:
    def test_size_trigger(self):
        async def run():
            queue = GroupCommitQueue(high_water=64)
            for i in range(10):
                await queue.put(i)
            batch, trigger, depth, _ = await queue.collect(4, 60.0)
            assert batch == [0, 1, 2, 3]
            assert trigger == "size"
            assert depth == 10
            return len(queue)

        assert asyncio.run(run()) == 6

    def test_deadline_trigger_flushes_partial_batch(self):
        async def run():
            queue = GroupCommitQueue(high_water=64)
            await queue.put("only")
            start = time.perf_counter()
            batch, trigger, depth, _ = await queue.collect(1000, 0.01)
            waited = time.perf_counter() - start
            assert batch == ["only"]
            assert trigger == "deadline"
            assert depth == 1
            assert waited < 5.0  # did not wait for 1000 items

        asyncio.run(run())

    def test_close_drains_then_signals_done(self):
        async def run():
            queue = GroupCommitQueue(high_water=64)
            await queue.put("a")
            await queue.put("b")
            queue.close()
            batch, trigger, _, _ = await queue.collect(1000, 60.0)
            assert batch == ["a", "b"]
            assert trigger == "drain"
            assert await queue.collect(1000, 60.0) is None
            with pytest.raises(QueueClosed):
                await queue.put("c")

        asyncio.run(run())

    @pytest.mark.parametrize(
        "high_water, max_batch, max_delay, script, batch, trigger",
        [
            # max_batch reached long before the one-minute deadline
            (64, 4, 60.0, "put sleep put put sleep put", 4, "size"),
            # close() seals what is pending without waiting it out
            (64, 1000, 60.0, "put sleep put close", 2, "drain"),
            # a full queue seals at once: its producers are blocked
            (3, 1000, 60.0, "put put sleep put put", 3, "size"),
            # a trickle below max_batch: one batch, at the deadline
            (64, 1000, 0.05, "put sleep put sleep put", 3, "deadline"),
        ],
        ids=["size", "drain", "high-water", "trickle"],
    )
    def test_arrivals_during_collect_seal_one_batch(
        self, high_water, max_batch, max_delay, script, batch, trigger
    ):
        """Items arriving while ``collect`` waits stay queued, and the
        committer wakes once: at the seal length, the deadline or
        ``close()`` — not once per arrival."""

        async def run():
            queue = GroupCommitQueue(high_water=high_water)
            wakes = 0
            inner_wait = queue._wake.wait

            async def counting_wait():
                nonlocal wakes
                await inner_wait()
                wakes += 1

            queue._wake.wait = counting_wait

            async def producer():
                for i, step in enumerate(script.split()):
                    if step == "put":
                        await queue.put(i)
                    elif step == "sleep":
                        await asyncio.sleep(0.005)
                    else:
                        queue.close()

            loop = asyncio.get_running_loop()
            start = time.perf_counter()
            task = loop.create_task(producer())
            sealed = await queue.collect(max_batch, max_delay)
            waited = time.perf_counter() - start
            await task
            return sealed, waited, wakes

        (got, got_trigger, depth, _), waited, wakes = asyncio.run(run())
        assert len(got) == batch and got == sorted(got)
        assert got_trigger == trigger
        assert depth == batch
        assert wakes == 1
        if trigger == "deadline":
            assert waited >= max_delay
        else:
            assert waited < 5.0  # did not wait out the deadline

    def test_put_blocks_at_high_water(self):
        async def run():
            queue = GroupCommitQueue(high_water=2)
            await queue.put(1)
            await queue.put(2)

            async def producer():
                return await queue.put(3)

            task = asyncio.get_running_loop().create_task(producer())
            await asyncio.sleep(0.01)
            assert not task.done()  # blocked at the mark
            assert len(queue) == 2
            await queue.collect(2, 0.0)
            waited = await task
            assert waited > 0.0
            assert len(queue) == 1

        asyncio.run(run())


# ----------------------------------------------------------------------
# AsyncIVMServer
# ----------------------------------------------------------------------


EQUIVALENCE_QUERIES = [
    ("Q(Y,X,Z) = R(Y,X) * S(Y,Z)", 1),
    ("Q(A) = R(A,B) * S(B)", 1),
    ("Q(B,A) = R(B,A) * S(B)", 3),  # sharded coordinator
    ("Q() = R(A,B) * S(B,C) * T(C,A)", 1),  # delta/triangle scalar plan
]


class TestGroupCommitEquivalence:
    @pytest.mark.parametrize("text,shards", EQUIVALENCE_QUERIES)
    def test_concurrent_writers_match_serial_replay(self, text, shards):
        """N concurrent writers through the server produce bit-identical
        views to a serial ``apply_batch`` replay of the same updates."""
        writers, per_writer, domain, seed = 4, 300, 8, 7
        query, engine = fresh_engine(text, shards=shards)

        async def run():
            async with AsyncIVMServer(
                engine, max_batch=32, max_delay=0.001, high_water=128
            ) as server:
                server.attach_stats()

                async def write(index):
                    for update in update_stream(
                        query, per_writer, domain=domain, seed=seed + index
                    ):
                        await server.submit(update)

                await asyncio.gather(*(write(i) for i in range(writers)))
                await server.drain()
                if query.head:
                    return sorted(await server.enumerate())
                return await server.scalar()

        try:
            served = asyncio.run(run())
        finally:
            close_backend(engine)

        _, serial = fresh_engine(text, shards=1)
        updates = []
        for i in range(writers):
            updates.extend(
                update_stream(query, per_writer, domain=domain, seed=seed + i)
            )
        try:
            serial.apply_batch(updates)
            if query.head:
                assert served == sorted(serial.enumerate())
            else:
                assert served == serial.scalar()
        finally:
            close_backend(serial)

    def test_process_shard_workers_behind_server_match_serial(self):
        """The serving tier over process-executor shards (persistent
        delta-IPC workers): concurrent writers plus snapshot reads in
        flight, final state bit-identical to a serial replay — and the
        commits actually went through the worker protocol."""
        text, shards = "Q(B,A) = R(B,A) * S(B)", 3
        writers, per_writer, domain, seed = 3, 200, 8, 19
        query, engine = fresh_engine(
            text, shards=shards, shard_executor="process"
        )

        async def run():
            stats = MaintenanceStats()
            async with AsyncIVMServer(
                engine, max_batch=64, max_delay=0.001, stats=stats
            ) as server:
                assert server.snapshot_reads

                async def write(index):
                    for update in update_stream(
                        query, per_writer, domain=domain, seed=seed + index
                    ):
                        await server.submit(update)

                async def read():
                    for _ in range(5):
                        await server.enumerate()
                        await asyncio.sleep(0.001)

                await asyncio.gather(
                    *(write(i) for i in range(writers)), read()
                )
                await server.drain()
                return sorted(await server.enumerate()), stats

        try:
            served, stats = asyncio.run(run())
            engine_stats = engine.backend.merged_stats()
        finally:
            close_backend(engine)

        assert engine_stats.ipc_commits == stats.commits
        assert engine_stats.ipc_workers_spawned == shards - 1  # shard 0 is local
        assert engine_stats.ipc_worker_failures == 0

        _, serial = fresh_engine(text, shards=1)
        updates = []
        for i in range(writers):
            updates.extend(
                update_stream(query, per_writer, domain=domain, seed=seed + i)
            )
        try:
            serial.apply_batch(updates)
            assert served == sorted(serial.enumerate())
        finally:
            close_backend(serial)

    def test_lookup_between_commits_sees_committed_state(self):
        query, engine = fresh_engine("Q(A) = R(A,B) * S(B)")

        async def run():
            stats = MaintenanceStats()
            async with AsyncIVMServer(
                engine, max_batch=4, max_delay=0.0005, stats=stats
            ) as server:
                for update in update_stream(query, 200, domain=6, seed=3):
                    await server.submit(update)
                await server.drain()
                hits = [await server.lookup((a,)) for a in range(6)]
            expected = dict(engine.enumerate())
            ring_zero = engine.database.ring.zero
            for a, payload in enumerate(hits):
                assert payload == expected.get((a,), ring_zero)
            assert stats.serve_lookups == 6
            assert stats.read_staleness.count == 6
            return stats

        stats = asyncio.run(run())
        assert stats.submits == 200
        assert stats.commits > 0
        assert stats.commit_batch_size.count == stats.commits
        assert stats.commit_queue_depth.count == stats.commits


class TestServerHeldView:
    """``enumerate()`` answers from a view that reads catch up."""

    TEXT = "Q(Y,X,Z) = R(Y,X) * S(Y,Z)"

    def test_a_read_after_many_unread_commits_is_current(self):
        query, engine = fresh_engine(self.TEXT)

        async def run():
            stats = MaintenanceStats()
            async with AsyncIVMServer(
                engine, max_batch=8, max_delay=0.0005, stats=stats
            ) as server:
                for update in update_stream(query, 400, domain=6, seed=11):
                    await server.submit(update)
                await server.drain()
                # Many commits and not one read: their deltas outgrow
                # the view's budget (ratio_threshold × its size), so the
                # window released its cursor and the catch-up is one
                # full drain.
                assert stats.commits > 20
                served = await server.enumerate()
                assert dict(served) == dict(engine.enumerate_snapshot())
                assert len(served) > 0
                assert server._matview.epoch == engine.backend.epoch
                assert server._matview.full_refreshes == 1
                # The next commit is inside the window: patched, not drained.
                await server.submit(next(update_stream(query, 1, domain=6, seed=3)))
                await server.drain()
                assert dict(await server.enumerate()) == dict(
                    engine.enumerate_snapshot()
                )
                assert server._matview.full_refreshes == 1

        asyncio.run(run())

    def test_reads_patch_across_many_small_commits(self):
        """The view's cursor holds the window past RETAIN_EPOCHS: a read
        after many small deadline commits patches, with no drain."""
        query = parse_query(self.TEXT)
        db = Database()
        r, s = db.create("R", ("Y", "X")), db.create("S", ("Y", "Z"))
        for y in range(4):
            for v in range(10):
                r.insert(y, v)
                s.insert(y, v)
        engine = IVMEngine(query, db)
        commits = 3 * RETAIN_EPOCHS

        async def run():
            stats = MaintenanceStats()
            async with AsyncIVMServer(
                engine, max_batch=1000, max_delay=0.0005, stats=stats
            ) as server:
                for step in range(commits):
                    # 10 output entries per commit; the budget is 200.
                    await server.submit(Update("R", (0, 100 + step), 1))
                    await server.drain()
                assert stats.deadline_commits == commits
                served = await server.enumerate()
                assert dict(served) == dict(engine.enumerate_snapshot())
                assert server._matview.epoch == engine.backend.epoch
                assert server._matview.full_refreshes == 0
                assert stats.full_refresh_fallbacks == 0

        asyncio.run(run())

    def test_reads_during_commits_see_whole_epochs(self):
        query, engine = fresh_engine(self.TEXT)
        published = []
        inner_publish = engine.publish_epoch

        def recording_publish():
            snap = inner_publish()
            published.append(dict(engine.enumerate_snapshot()))
            return snap

        engine.publish_epoch = recording_publish

        async def run():
            async with AsyncIVMServer(
                engine, max_batch=4, max_delay=0.0
            ) as server:
                done = False
                results = []

                async def hammer():
                    while not done:
                        results.append(dict(await server.enumerate()))
                        await asyncio.sleep(0)

                reader = asyncio.get_running_loop().create_task(hammer())
                for update in update_stream(query, 800, domain=5, seed=5):
                    await server.submit(update)
                await server.drain()
                done = True
                await reader  # re-raises whatever a read raised
                return results, dict(await server.enumerate())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results, final = asyncio.run(run())
        finally:
            sys.setswitchinterval(interval)
        assert len(published) >= 200 and len(results) > 10
        assert final == published[-1]
        for got in results:
            assert any(got == epoch for epoch in published)

    @pytest.mark.parametrize(
        "max_batch, max_delay, on_loop",
        [(64, 0.0, True), (10, 60.0, False)],
        ids=["loop", "worker"],
    )
    def test_failed_commit_leaves_the_view_at_the_last_good_epoch(
        self, max_batch, max_delay, on_loop
    ):
        """Deadline seals commit on the loop, size seals (every batch
        here is ten updates) on a worker thread; both fail cleanly."""
        query, engine = fresh_engine(self.TEXT)
        inner_apply = engine.apply_batch
        fail = {"next": False}

        def flaky_apply(batch):
            if fail["next"]:
                fail["next"] = False
                raise RuntimeError("kaboom")
            inner_apply(batch)

        engine.apply_batch = flaky_apply
        threads = record_threads(engine)
        updates = list(update_stream(query, 60, domain=4, seed=2))

        async def run():
            async with AsyncIVMServer(
                engine, max_batch=max_batch, max_delay=max_delay
            ) as server:
                await server.submit_many(updates[:30])
                await server.drain()
                good = dict(await server.enumerate())
                good_epoch = server._matview.epoch

                fail["next"] = True
                await server.submit_many(updates[30:40])
                with pytest.raises(RuntimeError, match="kaboom"):
                    await server.drain()
                assert dict(await server.enumerate()) == good
                assert server._matview.epoch == good_epoch

                await server.submit_many(updates[40:])
                await server.drain()
                assert dict(await server.enumerate()) == dict(
                    engine.enumerate_snapshot()
                )
                assert server._matview.epoch == engine.backend.epoch

        asyncio.run(run())
        loop_thread = threading.get_ident()
        assert threads and all((t == loop_thread) == on_loop for t in threads)


class TestLoadGenerator:
    def test_readers_keep_to_their_schedule(self):
        """Readers used to re-arm with ``sleep(0)`` and take every other
        turn of the loop from the writers."""
        query, engine = fresh_engine("Q(Y,X,Z) = R(Y,X) * S(Y,Z)")

        async def run():
            async with AsyncIVMServer(engine) as server:
                return await run_load_test(
                    server, query, 4000, writers=2, readers=2, domain=8
                )

        summary = asyncio.run(run())
        # Read k of a reader is due k * (readers / READS_PER_S) after
        # the start, so no run can read more than this.
        assert 2 <= summary["reads"] <= summary["seconds"] * READS_PER_S + 2
        assert summary["read_rate"] == summary["reads"] / summary["seconds"]


class TestBackpressure:
    def test_submit_blocks_at_high_water(self):
        """With a deliberately slow engine, the queue caps at the
        high-water mark and submitters spend time blocked."""
        query, engine = fresh_engine("Q(A) = R(A,B) * S(B)")
        inner_apply = engine.apply_batch

        def slow_apply(batch):
            time.sleep(0.002)
            inner_apply(batch)

        engine.apply_batch = slow_apply
        high_water = 8

        async def run():
            stats = MaintenanceStats()
            async with AsyncIVMServer(
                engine,
                max_batch=4,
                max_delay=0.0,
                high_water=high_water,
                stats=stats,
            ) as server:
                for update in update_stream(query, 120, domain=6, seed=1):
                    await server.submit(update)
                await server.drain()
            return stats

        stats = asyncio.run(run())
        assert stats.backpressure_waits > 0
        assert stats.backpressure_wait.stat.total > 0.0
        # Depth at seal time never exceeds the mark.
        assert stats.commit_queue_depth.stat.maximum <= high_water

    def test_unthrottled_run_has_no_backpressure(self):
        query, engine = fresh_engine("Q(A) = R(A,B) * S(B)")

        async def run():
            stats = MaintenanceStats()
            async with AsyncIVMServer(
                engine, max_batch=64, high_water=100_000, stats=stats
            ) as server:
                for update in update_stream(query, 100, domain=6, seed=2):
                    await server.submit(update)
                await server.drain()
            return stats

        assert asyncio.run(run()).backpressure_waits == 0


class TestCommitTriggers:
    def test_deadline_commits_flush_partial_batches(self):
        query, engine = fresh_engine("Q(A) = R(A,B) * S(B)")

        async def run():
            stats = MaintenanceStats()
            async with AsyncIVMServer(
                engine, max_batch=10_000, max_delay=0.005, stats=stats
            ) as server:
                await server.submit(next(iter(update_stream(query, 1))))
                await server.drain()  # only the deadline can flush this
            return stats

        stats = asyncio.run(run())
        assert stats.deadline_commits >= 1
        assert stats.size_commits == 0
        assert stats.commits == stats.deadline_commits

    def test_shutdown_drains_queue(self):
        """stop() commits everything still queued, without waiting for
        the (here: one minute) deadline."""
        query, engine = fresh_engine("Q(A) = R(A,B) * S(B)")
        updates = list(update_stream(query, 50, domain=6, seed=5))

        async def run():
            stats = MaintenanceStats()
            server = AsyncIVMServer(
                engine, max_batch=10_000, max_delay=60.0, stats=stats
            )
            await server.start()
            for update in updates:
                await server.submit(update)
            start = time.perf_counter()
            await server.stop()
            assert time.perf_counter() - start < 30.0
            return stats

        stats = asyncio.run(run())
        assert stats.drain_commits >= 1
        assert stats.commit_batch_size.stat.total == 50
        _, serial = fresh_engine("Q(A) = R(A,B) * S(B)")
        serial.apply_batch(updates)
        assert sorted(engine.enumerate()) == sorted(serial.enumerate())

    @pytest.mark.parametrize(
        "max_batch, on_loop", [(64, True), (1, False)], ids=["loop", "worker"]
    )
    def test_commit_error_surfaces_on_next_call(self, max_batch, on_loop):
        query, engine = fresh_engine("Q(A) = R(A,B) * S(B)")

        def boom(batch):
            raise RuntimeError("kaboom")

        engine.apply_batch = boom
        threads = record_threads(engine)

        async def run():
            async with AsyncIVMServer(
                engine, max_batch=max_batch, max_delay=0.0
            ) as server:
                await server.submit(next(iter(update_stream(query, 1))))
                with pytest.raises(RuntimeError, match="kaboom"):
                    await server.drain()

        asyncio.run(run())
        assert len(threads) == 1
        assert (threads[0] == threading.get_ident()) == on_loop

    def test_a_batch_waiting_for_its_deadline_is_queued_and_stale(self):
        """Updates waiting out the deadline stay in the queue, so they
        count toward its length and toward read staleness.  ``collect``
        used to pop them into a private list while it waited: the queue
        read 0 and reads recorded no staleness, yet the update was not
        visible."""
        _, engine = fresh_engine("Q(A,B) = R(A,B)")

        async def run():
            stats = MaintenanceStats()
            async with AsyncIVMServer(
                engine, max_batch=10_000, max_delay=0.05, stats=stats
            ) as server:
                await server.submit(Update("R", (1, 2)))
                await asyncio.sleep(0.02)
                depth = len(server.queue)
                before = await server.lookup((1, 2))
                await server.drain()
                after = await server.lookup((1, 2))
            return stats, depth, before, after

        stats, depth, before, after = asyncio.run(run())
        assert depth == 1
        assert before == engine.database.ring.zero and after == 1
        assert stats.read_staleness.stat.maximum >= 0.015

    def test_submit_after_stop_raises(self):
        query, engine = fresh_engine("Q(A) = R(A,B) * S(B)")

        async def run():
            server = AsyncIVMServer(engine)
            await server.start()
            await server.stop()
            with pytest.raises(RuntimeError):
                await server.submit(next(iter(update_stream(query, 1))))

        asyncio.run(run())


#: An engine with epoch snapshots (the view tree) and one without (the
#: delta-query plan of a cyclic join).
SNAPSHOT_QUERY = "Q(A) = R(A,B) * S(B)"
LIVE_QUERY = "Q(A,B,C) = R(A,B) * S(B,C) * T(C,A)"
#: ``(trigger, max_batch, max_delay, updates)``: one commit sealed by it.
TRIGGERS = [
    ("deadline", 10_000, 0.005, 1),
    ("drain", 10_000, 60.0, 3),
    ("size", 4, 60.0, 4),
]


class TestCommitPlacement:
    @pytest.mark.parametrize(
        "text, trigger, max_batch, max_delay, updates",
        [(SNAPSHOT_QUERY, *row) for row in TRIGGERS]
        + [(LIVE_QUERY, *row) for row in TRIGGERS],
        ids=[row[0] for row in TRIGGERS]
        + [f"{row[0]}-live" for row in TRIGGERS],
    )
    def test_the_trigger_picks_the_commit_thread(
        self, text, trigger, max_batch, max_delay, updates
    ):
        """Deadline and drain seals commit on the event loop, which sat
        idle waiting for the batch.  On a snapshot engine size seals
        commit on a worker thread, so a saturated loop keeps serving
        reads from the last epoch; on an engine without snapshots every
        commit runs on the loop, between its live reads."""
        query, engine = fresh_engine(text)
        on_worker = trigger == "size" and engine.supports_snapshots
        threads = record_threads(engine)

        async def run():
            stats = MaintenanceStats()
            server = AsyncIVMServer(
                engine, max_batch=max_batch, max_delay=max_delay, stats=stats
            )
            await server.start()
            await server.submit_many(update_stream(query, updates, seed=4))
            if trigger != "drain":
                await server.drain()
            await server.stop()
            return stats

        stats = asyncio.run(run())
        assert stats.commits == getattr(stats, f"{trigger}_commits") == 1
        assert len(threads) == 1
        assert (threads[0] == threading.get_ident()) != on_worker

    def test_a_read_waits_for_one_commit_not_the_backlog(self):
        """Four size-sealed batches queued on an engine without
        snapshots: a lookup issued behind them answers after the first
        commit, because the committer yields between back-to-back
        commits."""
        query, engine = fresh_engine(LIVE_QUERY)
        assert not engine.supports_snapshots
        commits = record_threads(engine)
        seen = []
        inner_lookup = engine.lookup

        def lookup(key):
            seen.append(len(commits))
            return inner_lookup(key)

        engine.lookup = lookup

        async def run():
            async with AsyncIVMServer(
                engine, max_batch=8, max_delay=60.0
            ) as server:
                await server.submit_many(update_stream(query, 32, seed=6))
                await asyncio.create_task(server.lookup((0, 0, 0)))
                await server.drain()

        asyncio.run(run())
        assert seen == [1]
        assert len(commits) == 4


class TestServingObservability:
    def test_serving_block_in_obs_schema(self):
        query, engine = fresh_engine("Q(A) = R(A,B) * S(B)")

        async def run():
            stats = MaintenanceStats()
            async with AsyncIVMServer(
                engine, max_batch=16, max_delay=0.001, stats=stats
            ) as server:
                for update in update_stream(query, 100, domain=6, seed=9):
                    await server.submit(update)
                await server.drain()
                await server.lookup((0,))
            return stats

        stats = asyncio.run(run())
        serving = stats.to_dict()["serving"]
        assert serving["submits"] == 100
        assert serving["commits"] >= 1
        assert (
            serving["size_commits"]
            + serving["deadline_commits"]
            + serving["drain_commits"]
            == serving["commits"]
        )
        assert serving["commit_latency"]["count"] == serving["commits"]
        assert serving["batch_size"]["buckets"]
        assert serving["queue_depth"]["count"] == serving["commits"]
        assert serving["lookups"] == 1
        assert "read_staleness" in serving
        assert "serving:" in stats.render()

    @pytest.mark.parametrize(
        "text", ["Q() = R(A,B) * S(B,C) * T(C,A)", "Q() = R(A,B) * S(B)"],
        ids=["live", "snapshots"],
    )
    def test_scalar_reads_record_staleness(self, text):
        """A Boolean query's reads are ``scalar`` calls: each one counts
        as a served read with its staleness, like a lookup."""
        query, engine = fresh_engine(text)

        async def run():
            stats = MaintenanceStats()
            async with AsyncIVMServer(
                engine, max_batch=16, max_delay=0.001, stats=stats
            ) as server:
                await server.submit_many(update_stream(query, 100, seed=8))
                served = [await server.scalar() for _ in range(7)]
                await server.drain()
            return served, stats

        served, stats = asyncio.run(run())
        assert len(served) == 7
        assert stats.serve_lookups == 7
        assert stats.read_staleness.count == 7
        # The updates were still queued: the reads aged with them.
        assert stats.read_staleness.stat.maximum > 0.0

    def test_merge_accumulates_serving_metrics(self):
        a, b = MaintenanceStats(), MaintenanceStats()
        for stats in (a, b):
            stats.record_submit(10)
            stats.record_commit(0.001, 10, 12, "size")
            stats.record_serve_read(0.0005)
        a.merge(b)
        assert a.submits == 20
        assert a.commits == 2
        assert a.commit_batch_size.stat.total == 20
        assert a.serve_lookups == 2


# ----------------------------------------------------------------------
# Thread-safe recorder (satellite: stress test failing under old code)
# ----------------------------------------------------------------------


class TestRecorderThreadSafety:
    def test_concurrent_recording_loses_no_updates(self):
        """Hammer one recorder from many threads; every increment must
        land.  Under the old unsynchronized recorder the read-modify-
        write races (`self.ops[k] = self.ops.get(k, 0) + n`,
        `self.updates += 1`) drop updates and this test fails."""
        stats = MaintenanceStats()
        threads, iterations = 16, 6000
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            barrier = threading.Barrier(threads)

            def hammer():
                barrier.wait()
                for _ in range(iterations):
                    stats.record_ops({"probe": 1})
                    stats.record_update(0.0, "apply")
                    stats.record_point_lookup()

            workers = [
                threading.Thread(target=hammer) for _ in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(old_interval)
        expected = threads * iterations
        assert stats.ops["probe"] == expected
        assert stats.updates == expected
        assert stats.update_latency.count == expected
        assert stats.point_lookups == expected

    def test_threaded_commits_through_server_are_exact(self):
        """The committer applies size-sealed batches on a worker thread
        while the event loop records submits — totals must still be
        exact.  400 updates in batches of 8 with no reachable deadline:
        every commit is size-sealed, so every one runs off the loop."""
        query, engine = fresh_engine("Q(B,A) = R(B,A) * S(B)", shards=2)

        async def run():
            stats = MaintenanceStats()
            async with AsyncIVMServer(
                engine, max_batch=8, max_delay=60.0, stats=stats
            ) as server:
                for update in update_stream(query, 400, domain=8, seed=11):
                    await server.submit(update)
                await server.drain()
            return stats

        try:
            stats = asyncio.run(run())
        finally:
            close_backend(engine)
        assert stats.submits == 400
        assert stats.commit_batch_size.stat.total == 400
        assert stats.size_commits == stats.commits == 50

    def test_recorder_pickles_without_lock(self):
        import pickle

        stats = MaintenanceStats()
        stats.record_submit(3)
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.submits == 3
        clone.record_submit(1)  # the rebuilt lock works
        assert clone.submits == 4


# ----------------------------------------------------------------------
# Point lookups (satellite: sharded early-break + owner routing)
# ----------------------------------------------------------------------


class TestPointLookup:
    def test_viewtree_lookup_matches_enumeration(self):
        query, engine = fresh_engine("Q(Y,X,Z) = R(Y,X) * S(Y,Z)")
        engine.apply_batch(
            list(update_stream(query, 300, domain=6, seed=13))
        )
        expected = dict(engine.enumerate())
        ring_zero = engine.database.ring.zero
        for key, payload in list(expected.items())[:10]:
            assert engine.lookup(key) == payload
        assert engine.lookup((99, 99, 99)) == ring_zero
        with pytest.raises(ValueError):
            engine.lookup((1, 2))

    def test_sharded_lookup_probes_one_shard(self):
        """Owner routing: on a query with a bound variable (``C``) a
        fully-prebound lookup is routed, and probes exactly the one
        shard its shard-variable value pins — not all four."""
        shards = 4
        query, engine = fresh_engine(
            "Q(B,A) = R(B,A) * S(B,C)", shards=shards
        )
        stats = engine.attach_stats()
        try:
            engine.apply_batch(
                list(update_stream(query, 400, domain=16, seed=17))
            )
            expected = dict(engine.enumerate())
            assert expected  # the workload produced output tuples
            for key, payload in list(expected.items())[:8]:
                assert engine.lookup(key) == payload
            merged = engine.backend.merged_stats()
        finally:
            close_backend(engine)
        assert merged.point_lookups == 8
        # One shard probed per lookup — not all four.
        assert merged.lookup_shards_probed == 8
        assert merged.lookup_shards_probed < shards * merged.point_lookups
        assert "point lookups:" in merged.render()
        enumeration = merged.to_dict()["enumeration"]
        assert enumeration["point_lookups"] == 8
        assert enumeration["lookup_shards_probed"] == 8

# ----------------------------------------------------------------------
# Concurrency regressions (serve/shard bugfix sweep)
# ----------------------------------------------------------------------


class TestConcurrencyRegressions:
    def test_stop_while_submit_backpressured_raises_server_stopped(self):
        """A submit blocked on backpressure when ``stop()`` closes the
        queue must surface the documented ``RuntimeError("server is
        stopped")`` — not the queue's internal ``QueueClosed`` — because
        the update was never accepted."""
        query, engine = fresh_engine("Q(A) = R(A,B) * S(B)")
        release = threading.Event()
        inner_apply = engine.apply_batch

        def gated_apply(batch):
            release.wait(TEST_TIMEOUT_SECONDS / 2)
            inner_apply(batch)

        engine.apply_batch = gated_apply
        updates = list(update_stream(query, 3, domain=4, seed=11))

        async def run():
            server = AsyncIVMServer(
                engine, max_batch=1, max_delay=0.0, high_water=1
            )
            await server.start()
            await server.submit(updates[0])
            await asyncio.sleep(0.05)  # committer takes it, parks in apply
            await server.submit(updates[1])  # queue back at high water
            loop = asyncio.get_running_loop()
            blocked = loop.create_task(server.submit(updates[2]))
            await asyncio.sleep(0.05)
            assert not blocked.done()  # stuck on backpressure
            stopper = loop.create_task(server.stop())
            with pytest.raises(
                RuntimeError, match="server is stopped"
            ) as excinfo:
                await blocked
            assert not isinstance(excinfo.value, QueueClosed)
            release.set()
            await stopper

        asyncio.run(run())

    def test_drain_parks_instead_of_spinning(self):
        """While a commit is in flight with a stale-set idle event,
        ``drain()`` must park on the event — not busy-loop through
        thousands of wait/sleep(0) iterations until the commit lands."""
        query, engine = fresh_engine("Q(A) = R(A,B) * S(B)")

        async def run():
            server = AsyncIVMServer(engine)
            await server.start()
            # Pathological pre-fix state: idle event set while a commit
            # is still in flight (a submit sealed and the committer set
            # the event on an empty queue before drain() ran).
            server._inflight_oldest = time.perf_counter()
            server._idle.set()

            waits = 0
            inner_wait = server._idle.wait

            async def counting_wait():
                nonlocal waits
                waits += 1
                return await inner_wait()

            server._idle.wait = counting_wait

            async def finish_commit():
                await asyncio.sleep(0.05)
                server._inflight_oldest = None
                server._idle.set()

            task = asyncio.get_running_loop().create_task(finish_commit())
            await server.drain()
            await task
            await server.stop()
            return waits

        # The drainer parks once (maybe twice on a spurious wake); the
        # old code spun through hundreds of iterations in those 50ms.
        assert asyncio.run(run()) <= 3

    def test_failed_commits_counted_apart_from_latency_stats(self):
        """Failed commits must bump ``commit_errors`` only — never the
        commit count or the latency/batch-size histograms, whose
        percentiles should describe real commits."""
        query, engine = fresh_engine("Q(A) = R(A,B) * S(B)")
        inner_apply = engine.apply_batch
        calls = {"n": 0}

        def flaky_apply(batch):
            calls["n"] += 1
            if calls["n"] % 2 == 1:
                raise RuntimeError("flaky kaboom")
            inner_apply(batch)

        engine.apply_batch = flaky_apply
        updates = list(update_stream(query, 4, domain=4, seed=3))

        async def run():
            stats = MaintenanceStats()
            server = AsyncIVMServer(
                engine, max_batch=1, max_delay=0.0, stats=stats
            )
            await server.start()
            for update in updates:
                await server.submit(update)
                try:
                    await server.drain()
                except RuntimeError:
                    pass  # the surfaced commit error, consumed
            try:
                await server.stop()
            except RuntimeError:
                pass
            return stats

        stats = asyncio.run(run())
        assert stats.commit_errors == 2
        assert stats.commits == 2
        assert stats.commit_latency.count == stats.commits
        assert stats.commit_batch_size.count == stats.commits
        assert stats.commit_batch_size.stat.total == 2  # applied updates only
        assert "2 failed" in stats.render()
        assert stats.to_dict()["serving"]["commit_errors"] == 2
