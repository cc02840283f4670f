"""Epoch-based snapshot reads (`repro.viewtree.epoch` + engines).

The tentpole invariant under test: a snapshot read answers from the
last *published* epoch, bit-identically to a serialized read over the
same committed prefix — no matter which strategy or sharded executor
maintains the views, and no matter what maintenance work runs
concurrently with the read.
"""

import asyncio
import threading
import time

import pytest

from repro.core.engine import IVMEngine
from repro.core.planner import plan_maintenance
from repro.data.database import Database
from repro.naive import evaluate
from repro.obs import MaintenanceStats
from repro.query.parser import parse_query
from repro.serve import AsyncIVMServer, update_stream
from repro.viewtree.engine import ViewTreeEngine
from tests.conftest import REWRITES, rewrite_case, twin_engines


def fresh_engine(text, shards=1, shard_executor="serial", **kwargs):
    query = parse_query(text)
    db = Database()
    for atom in query.atoms:
        if atom.relation not in db:
            db.create(atom.relation, atom.variables)
    return query, IVMEngine(
        query, db, shards=shards, shard_executor=shard_executor, **kwargs
    )


def close_backend(engine):
    engine.close()


SNAPSHOT_CONFIGS = [
    # (query text, shards, executor, engine kwargs)
    ("Q(Y,X,Z) = R(Y,X) * S(Y,Z)", 1, "serial", {}),
    ("Q(A) = R(A,B) * S(B)", 1, "serial", {}),
    # The generic walk (the oracle), write and read path alike.
    ("Q(A) = R(A,B) * S(B)", 1, "serial", {"generated": False}),
    ("Q(B,A) = R(B,A) * S(B)", 3, "serial", {}),
    # "process": shard 0's snapshots live in the coordinator, the
    # others worker-side — all addressed by the coordinator's epoch
    # number, the remote ones over the pipe.
    ("Q(B,A) = R(B,A) * S(B)", 2, "process", {}),
    ("Q(B,A) = R(B,A) * S(B)", 3, "process", {}),
]


class TestEpochBasics:
    def test_publish_freezes_reads_until_next_publish(self):
        """Writes after a publish stay invisible to snapshot reads; the
        next publish makes them visible atomically."""
        query, engine = fresh_engine("Q(A) = R(A,B) * S(B)")
        prefix = list(update_stream(query, 200, domain=6, seed=1))
        suffix = list(update_stream(query, 200, domain=6, seed=2))
        engine.apply_batch(prefix)
        engine.publish_epoch()
        frozen = sorted(engine.enumerate_snapshot())
        assert frozen == sorted(engine.enumerate())

        engine.apply_batch(suffix)
        # Live reads see the new state; snapshot reads do not, yet.
        assert sorted(engine.enumerate_snapshot()) == frozen
        live = sorted(engine.enumerate())
        assert live != frozen  # the suffix actually changed the output

        engine.publish_epoch()
        assert sorted(engine.enumerate_snapshot()) == live

    def test_epoch_number_advances(self):
        _, engine = fresh_engine("Q(A) = R(A,B) * S(B)")
        backend = engine.backend
        assert backend.epoch == 0
        engine.publish_epoch()
        engine.publish_epoch()
        assert backend.epoch == 2

    def test_first_snapshot_read_auto_publishes(self):
        query, engine = fresh_engine("Q(A) = R(A,B) * S(B)")
        engine.apply_batch(list(update_stream(query, 100, domain=5, seed=3)))
        # No explicit publish: the read publishes epoch 1 itself.
        assert sorted(engine.enumerate_snapshot()) == sorted(engine.enumerate())
        assert engine.backend.epoch == 1

    def test_lookup_snapshot_matches_enumeration_and_validates(self):
        query, engine = fresh_engine("Q(Y,X,Z) = R(Y,X) * S(Y,Z)")
        engine.apply_batch(list(update_stream(query, 300, domain=6, seed=5)))
        engine.publish_epoch()
        expected = dict(engine.enumerate_snapshot())
        assert expected
        ring_zero = engine.database.ring.zero
        for key, payload in list(expected.items())[:8]:
            assert engine.lookup_snapshot(key) == payload
        assert engine.lookup_snapshot((99, 99, 99)) == ring_zero
        with pytest.raises(ValueError):
            engine.lookup_snapshot((1, 2))

    def test_scalar_snapshot_empty_head(self):
        query, engine = fresh_engine("Q() = R(A,B) * S(B)")
        engine.apply_batch(list(update_stream(query, 150, domain=5, seed=7)))
        engine.publish_epoch()
        frozen = engine.scalar_snapshot()
        assert frozen == engine.scalar()
        assert engine.lookup_snapshot(()) == frozen

    def test_cow_copies_are_counted_and_bounded(self):
        """Post-publish writes copy no table: they record pre-images and
        copy each touched bucket once per epoch — counted in the stats —
        and the frozen epoch still reads the pre-write payloads."""
        query, engine = fresh_engine("Q(A) = R(A,B) * S(B)")
        stats = engine.attach_stats()
        engine.apply_batch(list(update_stream(query, 200, domain=6, seed=9)))
        engine.publish_epoch()
        frozen = sorted(engine.enumerate_snapshot())
        engine.apply_batch(list(update_stream(query, 200, domain=6, seed=10)))
        assert sorted(engine.enumerate_snapshot()) == frozen

        engine.publish_epoch()
        assert stats.epochs_published == 2
        # The second publish observed the work the writes did.
        assert stats.cow_tables_copied == 0
        assert stats.undo_entries > 0
        assert stats.cow_buckets_copied > 0
        epochs = stats.to_dict()["epochs"]
        assert epochs["published"] == 2
        assert epochs["cow_tables_copied"] == 0
        assert epochs["undo_entries"] == stats.undo_entries

    def test_unsupported_backend_raises_typeerror(self):
        # The triangle-count query plans onto a non-snapshot backend.
        query, engine = fresh_engine("Q() = R(A,B) * S(B,C) * T(C,A)")
        assert not engine.supports_snapshots
        with pytest.raises(TypeError, match="snapshot"):
            engine.publish_epoch()
        with pytest.raises(TypeError, match="snapshot"):
            engine.enumerate_snapshot()


class TestSnapshotDifferential:
    @pytest.mark.parametrize(
        "text,shards,executor,kwargs", SNAPSHOT_CONFIGS
    )
    def test_snapshot_bit_identical_to_serialized_prefix(
        self, text, shards, executor, kwargs
    ):
        """For every strategy/executor: a snapshot of the committed
        prefix equals a twin engine that only ever saw the prefix,
        bit-for-bit, even while the suffix has already been applied to
        the live views."""
        prefix_n, suffix_n, domain, seed = 300, 300, 8, 21
        query, engine = fresh_engine(
            text, shards=shards, shard_executor=executor, **kwargs
        )
        _, twin = fresh_engine(text, shards=1)
        prefix = list(update_stream(query, prefix_n, domain=domain, seed=seed))
        suffix = list(
            update_stream(query, suffix_n, domain=domain, seed=seed + 1)
        )
        try:
            engine.apply_batch(prefix)
            engine.publish_epoch()
            engine.apply_batch(suffix)  # uncommitted from the reader's view

            twin.apply_batch(prefix)
            expected = sorted(twin.enumerate())
            got = sorted(engine.enumerate_snapshot())
            assert got == expected
            ring_zero = engine.database.ring.zero
            expected_map = dict(expected)
            for key, payload in expected[:6]:
                assert engine.lookup_snapshot(key) == payload
            for key, _ in sorted(engine.enumerate())[:6]:
                assert (
                    engine.lookup_snapshot(key)
                    == expected_map.get(key, ring_zero)
                )

            # Publishing the suffix catches the snapshot up to live.
            engine.publish_epoch()
            assert sorted(engine.enumerate_snapshot()) == sorted(
                engine.enumerate()
            )
        finally:
            close_backend(engine)
            close_backend(twin)


    @pytest.mark.parametrize("strategy", REWRITES)
    def test_rewritten_plans_bit_identical_to_oracle_and_naive(self, strategy):
        """The FD and static/dynamic rewrites read their published epoch
        through the caller's head: the kernels, the generic-walk oracle
        and ``repro.naive`` over the committed prefix all agree, while
        the suffix has already landed on the live views."""
        query, fds, make_db, stream = rewrite_case(strategy, seed=61)
        plan = plan_maintenance(query, fds)
        assert plan.strategy == strategy
        generated, oracle = twin_engines(
            query, None, 61, plan=plan, make_db=make_db
        )
        prefix, suffix = stream[:150], stream[150:]
        committed = make_db()
        for update in prefix:
            committed[update.relation].add(update.key, update.payload)
        expected = evaluate(query, committed).to_dict()
        assert expected
        for engine in (generated, oracle):
            engine.apply_batch(prefix[:100])
            for update in prefix[100:]:
                engine.apply(update)
            engine.publish_epoch()
            engine.apply_batch(suffix)  # uncommitted from the reader's view
        frozen = list(generated.enumerate_snapshot())
        assert frozen == list(oracle.enumerate_snapshot())
        assert dict(frozen) == expected and len(frozen) == len(expected)
        live = evaluate(query, generated.database).to_dict()
        assert live != expected  # the suffix actually changed the output
        zero = generated.ring.zero
        for key in list(expected)[:6] + list(live)[:6]:
            for engine in (generated, oracle):
                assert engine.lookup_snapshot(key) == expected.get(key, zero)
                assert engine.lookup(key) == live.get(key, zero)
        for engine in (generated, oracle):
            engine.publish_epoch()
            assert dict(engine.enumerate_snapshot()) == live


class TestConcurrentReaders:
    @pytest.mark.parametrize(
        "shards,executor", [(1, "serial"), (3, "serial"), (2, "process")]
    )
    def test_readers_see_precommit_epoch_during_slow_commit(
        self, shards, executor
    ):
        """While a commit is (artificially) stuck in flight, snapshot
        reads return the pre-commit epoch bit-identically and without
        waiting for the commit."""
        text = "Q(B,A) = R(B,A) * S(B)" if shards > 1 else "Q(A) = R(A,B) * S(B)"
        query, engine = fresh_engine(
            text, shards=shards, shard_executor=executor
        )
        _, twin = fresh_engine(text)
        prefill = list(update_stream(query, 400, domain=8, seed=31))
        burst = list(update_stream(query, 200, domain=8, seed=32))
        engine.apply_batch(prefill)
        twin.apply_batch(prefill)
        expected = sorted(twin.enumerate())

        release = threading.Event()
        inner_apply = engine.apply_batch

        def gated_apply(batch):
            release.wait(20.0)
            inner_apply(batch)

        engine.apply_batch = gated_apply

        async def run():
            stats = MaintenanceStats()
            server = AsyncIVMServer(
                engine, max_batch=len(burst), max_delay=0.0, stats=stats
            )
            assert server.snapshot_reads
            await server.start()
            for update in burst:
                await server.submit(update)
            await asyncio.sleep(0.05)  # the commit is now parked in apply
            start = time.perf_counter()
            during = sorted(await server.enumerate())
            hits = [await server.lookup(key) for key, _ in expected[:5]]
            elapsed = time.perf_counter() - start
            release.set()
            await server.drain()
            after = sorted(await server.enumerate())
            await server.stop()
            return during, hits, elapsed, after, stats

        try:
            during, hits, elapsed, after, stats = asyncio.run(run())
        finally:
            close_backend(engine)
            close_backend(twin)

        assert during == expected  # pre-commit epoch, bit-identical
        assert hits == [payload for _, payload in expected[:5]]
        assert elapsed < 10.0  # never waited out the gated commit
        # After the commit lands the published epoch includes the burst.
        serial_query, serial = fresh_engine(text)
        try:
            serial.apply_batch(prefill + burst)
            assert after == sorted(serial.enumerate())
        finally:
            close_backend(serial)
        assert stats.snapshot_reads >= 7
        assert stats.epochs_published >= 1
        assert stats.read_staleness.count == 5
        # Reads during the stuck commit aged at least the park time.
        assert stats.read_staleness.stat.maximum >= 0.01


class TestServerFallback:
    def test_live_reads_on_unsupported_backend(self):
        query, engine = fresh_engine("Q() = R(A,B) * S(B,C) * T(C,A)")
        assert not engine.supports_snapshots

        async def run():
            stats = MaintenanceStats()
            async with AsyncIVMServer(
                engine, max_batch=16, max_delay=0.001, stats=stats
            ) as server:
                assert not server.snapshot_reads
                for update in update_stream(query, 150, domain=5, seed=41):
                    await server.submit(update)
                await server.drain()
                served = await server.scalar()
            return served, stats

        served, stats = asyncio.run(run())
        assert served == engine.scalar()
        assert stats.snapshot_reads == 0

    def test_snapshot_mode_records_epoch_metrics(self):
        query, engine = fresh_engine("Q(A) = R(A,B) * S(B)")

        async def run():
            stats = MaintenanceStats()
            async with AsyncIVMServer(
                engine, max_batch=16, max_delay=0.001, stats=stats
            ) as server:
                assert server.snapshot_reads
                for update in update_stream(query, 200, domain=6, seed=47):
                    await server.submit(update)
                await server.drain()
                hits = [await server.lookup((a,)) for a in range(4)]
                await server.enumerate()
            return hits, stats

        hits, stats = asyncio.run(run())
        expected = dict(engine.enumerate())
        ring_zero = engine.database.ring.zero
        assert hits == [expected.get((a,), ring_zero) for a in range(4)]
        # start() published the initial epoch; each commit one more.
        assert stats.epochs_published == stats.commits + 1
        assert stats.snapshot_reads == 5  # 4 lookups + 1 enumerate
        assert stats.snapshot_read_latency.count == 5
        assert stats.serve_lookups == 4
        d = stats.to_dict()
        assert d["epochs"]["published"] == stats.epochs_published
        assert d["epochs"]["snapshot_reads"] == 5
        assert d["epochs"]["read_latency"]["count"] == 5
