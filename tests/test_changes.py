"""Per-epoch output change streams (`repro.viewtree.changes`).

The contract under test: applying the emitted delta stream to a stale
materialization is **bit-identical** to a fresh drain — across rings
(including the non-exact-zero Provenance/Covariance payloads), the four
Fig. 4 strategies, and the serial/thread/process(delta-IPC) shard
executors — and a subscriber that cannot be patched (epoch gap, ratio
blow-up, worker resync) falls back to a counted full drain instead of
serving partial state.
"""

from __future__ import annotations

import asyncio
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import IVMEngine, plan_maintenance
from repro.data import Database, Update
from repro.naive import evaluate
from repro.query import parse_query
from repro.rings import (
    B,
    MIN_PLUS,
    PROVENANCE,
    CovarianceRing,
    LiftingMap,
    R,
    Z,
    moment_lifting,
)
from repro.shard import ShardWorkerError, ShardedEngine
from repro.viewtree import (
    RETAIN_EPOCHS,
    EpochGapError,
    ViewTreeEngine,
    make_strategy,
    STRATEGIES,
)
from repro.serve import AsyncIVMServer
from tests.conftest import REWRITES, rewrite_case, twin_engines, valid_stream

QUERY = parse_query("Q(B, A) = R(B, A) * S(B)")
SCHEMAS = {"R": 2, "S": 1}


def fresh_db(ring=Z, rng=None, rows=0, domain=8):
    db = Database(ring=ring)
    db.create("R", ("B", "A"))
    db.create("S", ("B",))
    if rng is not None:
        for _ in range(rows):
            db["R"].insert(rng.randrange(domain), rng.randrange(domain))
            db["S"].insert(rng.randrange(domain))
    return db


def ring_stream(rng, ring, count, deletes, domain=8):
    """A valid stream with ring-one payloads (negated for deletes)."""
    stream = []
    for update in valid_stream(
        rng, SCHEMAS, count, domain=domain,
        delete_prob=0.25 if deletes else 0.0,
    ):
        payload = ring.one if update.payload > 0 else ring.neg(ring.one)
        stream.append(Update(update.relation, update.key, payload))
    return stream


def drive_and_check(engine, stream, publish_every=20, refresh_every=2):
    """Mixed applies/batches with periodic publishes and catch-ups.

    The subscriber skips every other publish, so refreshes compose
    multi-epoch deltas (still inside the retained window); every refresh
    must land bit-identical to a fresh snapshot drain.  The generous
    ratio threshold keeps the patch path engaged even on the small
    states these tests build (the fallback path has its own tests).
    """
    view = engine.subscribe(ratio_threshold=100.0)
    assert dict(view.items()) == dict(engine.enumerate_snapshot())
    publishes = 0
    cursor = 0
    rng = random.Random(0xD1FF)
    while cursor < len(stream):
        if rng.random() < 0.5:
            engine.apply(stream[cursor])
            cursor += 1
        else:
            step = min(rng.randrange(2, publish_every), len(stream) - cursor)
            engine.apply_batch(stream[cursor:cursor + step])
            cursor += step
        if cursor // publish_every > publishes:
            engine.publish_epoch()
            publishes += 1
            if publishes % refresh_every == 0:
                view.refresh()
                assert dict(view.items()) == dict(
                    engine.enumerate_snapshot()
                )
    engine.publish_epoch()
    view.refresh()
    fresh = dict(engine.enumerate_snapshot())
    assert dict(view.items()) == fresh
    return view, fresh


class TestSingleEngine:
    def test_counting_stream_bit_identical(self, rng):
        engine = ViewTreeEngine(QUERY, fresh_db(rng=rng, rows=40))
        stream = valid_stream(rng, SCHEMAS, 400, domain=8)
        view, fresh = drive_and_check(engine, stream)
        # The maintained dict is also bit-identical to the live drain.
        assert fresh == engine.output_relation().to_dict()
        assert view.full_refreshes == 0

    @pytest.mark.parametrize(
        "ring,deletes",
        [(Z, True), (R, True), (B, False), (MIN_PLUS, False),
         (PROVENANCE, False)],
        ids=["int", "float", "boolean", "min-plus", "provenance"],
    )
    def test_ring_matrix(self, ring, deletes):
        # Non-exact-zero payloads (float tolerance, provenance
        # structural zero) exercise the is-it-really-gone paths: a
        # patched absence must match what a fresh enumeration omits.
        rng = random.Random(17)
        engine = ViewTreeEngine(QUERY, fresh_db(ring=ring))
        stream = ring_stream(rng, ring, 300, deletes)
        view, fresh = drive_and_check(engine, stream)
        assert dict(view.items()) == fresh

    def test_covariance_ring_with_lifting(self):
        # Covariance payloads (float moment vectors, no exact zero)
        # through a lifting: the maintained view must carry the exact
        # Moments objects a fresh drain enumerates.
        ring = CovarianceRing()
        query = parse_query("Q(A) = R(A, V) * S(A)")
        lifting = LiftingMap(ring, {"V": moment_lifting("V")})
        db = Database(ring=ring)
        db.create("R", ("A", "V"))
        db.create("S", ("A",))
        engine = ViewTreeEngine(query, db, lifting=lifting)
        view = engine.subscribe()
        rng = random.Random(23)
        live: list[tuple] = []
        for step in range(200):
            if rng.random() < 0.6:
                if live and rng.random() < 0.3:
                    key = live.pop(rng.randrange(len(live)))
                    engine.apply(Update("R", key, ring.neg(ring.one)))
                else:
                    key = (rng.randrange(5), rng.randrange(1, 9))
                    live.append(key)
                    engine.apply(Update("R", key, ring.one))
            else:
                engine.apply(Update("S", (rng.randrange(5),), ring.one))
            if step % 40 == 39:
                engine.publish_epoch()
                view.refresh()
                assert dict(view.items()) == dict(
                    engine.enumerate_snapshot()
                )

    def test_empty_head_scalar_maintained(self, rng):
        query = parse_query("Q() = R(B, A) * S(B)")
        engine = ViewTreeEngine(query, fresh_db(rng=rng, rows=30))
        view = engine.subscribe()
        assert view.scalar == engine.scalar_snapshot()
        for _ in range(5):
            for update in valid_stream(rng, SCHEMAS, 40, domain=6):
                engine.apply(update)
            engine.publish_epoch()
            view.refresh()
            assert view.scalar == engine.scalar_snapshot()

    def test_non_free_top_order_unsupported(self):
        db = Database()
        db.create("R", ("A", "B"))
        db.create("S", ("B", "C"))
        engine = ViewTreeEngine(parse_query("Q(C) = R(A,B) * S(B,C)"), db)
        assert not engine.supports_changes
        with pytest.raises(TypeError):
            engine.track_changes()

    def test_changes_obs_block(self, rng):
        engine = ViewTreeEngine(QUERY, fresh_db(rng=rng, rows=40))
        stats = engine.attach_stats()
        view = engine.subscribe(ratio_threshold=100.0)
        for update in valid_stream(rng, SCHEMAS, 60, domain=8):
            engine.apply(update)
        engine.publish_epoch()
        view.refresh()
        assert stats.deltas_emitted > 0
        assert stats.delta_tuples > 0
        assert stats.tuples_patched > 0
        block = stats.to_dict()["changes"]
        assert block["deltas_emitted"] == stats.deltas_emitted
        assert block["patch_time"]["count"] == 1
        assert block["delta_ratio_pct"]["count"] == 1
        # Per-epoch output-delta size rides along in the epochs block.
        assert stats.to_dict()["epochs"]["output_delta_tuples"] == (
            stats.delta_tuples
        )
        assert "changes" in stats.render()


class TestEpochGaps:
    def test_gap_raises_typed_error(self, rng):
        engine = ViewTreeEngine(QUERY, fresh_db(rng=rng, rows=20))
        engine.track_changes()
        base = engine.epoch
        for _ in range(RETAIN_EPOCHS + 2):
            engine.apply(Update("R", (1, 1), 1))
            engine.publish_epoch()
        with pytest.raises(EpochGapError):
            engine.changes_since(base)
        # The newest retained epochs still compose.
        assert len(engine.changes_since(engine.epoch)) == 0

    def test_future_epoch_rejected(self, rng):
        engine = ViewTreeEngine(QUERY, fresh_db(rng=rng, rows=10))
        engine.track_changes()
        with pytest.raises(ValueError):
            engine.changes_since(engine.epoch + 1)

    def test_subscriber_falls_back_and_recovers(self, rng):
        engine = ViewTreeEngine(QUERY, fresh_db(rng=rng, rows=30))
        view = engine.subscribe()
        for _ in range(RETAIN_EPOCHS + 3):
            for update in valid_stream(rng, SCHEMAS, 10, domain=6):
                engine.apply(update)
            engine.publish_epoch()
        view.refresh()
        assert view.full_refreshes == 1
        assert dict(view.items()) == dict(engine.enumerate_snapshot())
        # Back inside the window: the next refresh patches again.
        engine.apply(Update("R", (2, 2), 1))
        engine.publish_epoch()
        view.refresh()
        assert view.full_refreshes == 1
        assert dict(view.items()) == dict(engine.enumerate_snapshot())

    def test_ratio_threshold_triggers_full_drain(self, rng):
        engine = ViewTreeEngine(QUERY, fresh_db(rng=rng, rows=30))
        stats = engine.attach_stats()
        view = engine.subscribe(ratio_threshold=0.0)
        engine.apply(Update("R", (3, 3), 1))
        engine.publish_epoch()
        view.refresh()
        assert view.full_refreshes == 1
        assert stats.full_refresh_fallbacks == 1
        assert dict(view.items()) == dict(engine.enumerate_snapshot())


class TestStrategies:
    def test_all_four_strategies_match_maintained_view(self, rng):
        """The delta-maintained dict agrees with every Fig. 4 strategy.

        The change stream is emitted by the eager-fact view tree; the
        other strategies replay the identical stream and their fresh
        drains must coincide with the patched materialization.
        """
        stream = valid_stream(rng, SCHEMAS, 250, domain=7)
        strategies = {
            name: make_strategy(name, QUERY, fresh_db())
            for name in sorted(STRATEGIES)
        }
        engine = strategies["eager-fact"].engine
        view = engine.subscribe()
        for i, update in enumerate(stream):
            for strategy in strategies.values():
                strategy.apply(update)
            if i % 50 == 49:
                engine.publish_epoch()
                view.refresh()
                maintained = dict(view.items())
                for name, strategy in strategies.items():
                    got: dict = {}
                    for key, payload in strategy.enumerate():
                        got[key] = (
                            got[key] + payload if key in got else payload
                        )
                    assert got == maintained, name


EXECUTORS = ("serial", "process")


class TestRewrittenPlans:
    """The FD and static/dynamic rewrites run on the one view tree, so
    they get its change streams — in the caller's head."""

    @pytest.mark.parametrize("strategy", REWRITES)
    def test_patched_views_bit_identical_to_oracle_and_naive(self, strategy):
        query, fds, make_db, stream = rewrite_case(strategy, seed=71)
        plan = plan_maintenance(query, fds)
        assert plan.strategy == strategy
        generated, oracle = twin_engines(
            query, None, 71, plan=plan, make_db=make_db
        )
        views = []
        for engine in (generated, oracle):
            assert engine.supports_changes
            # Publishes every 20 updates, refreshes every other publish:
            # the view is patched across a dozen epochs, never re-drained.
            view, fresh = drive_and_check(engine, stream)
            assert view.full_refreshes == 0 and view.epoch >= 3
            views.append(view)
        assert views[0].state == views[1].state
        assert views[0].state == evaluate(query, generated.database).to_dict()

    def test_server_serves_an_fd_plan_from_snapshots_with_a_feed(self):
        """``AsyncIVMServer(IVMEngine(<fd plan>))`` used to fall back to
        commit-lock reads with no change feed."""
        query, fds, make_db, stream = rewrite_case("fd-viewtree", seed=73)
        engine = IVMEngine(query, make_db(), fds)
        assert engine.plan.strategy == "fd-viewtree"
        assert engine.supports_snapshots and engine.supports_changes

        async def run():
            async with AsyncIVMServer(engine, max_batch=32) as server:
                assert server.snapshot_reads is True
                state = dict(await server.enumerate())
                feed = server.subscribe()
                await server.submit_many(stream)
                await server.drain()
                served = dict(await server.enumerate())
                deltas = 0
                while not feed._queue.empty():
                    (await feed.__anext__()).apply_to(state)
                    deltas += 1
                return state, served, deltas

        state, served, deltas = asyncio.run(run())
        expected = evaluate(query, engine.database).to_dict()
        assert deltas >= 3
        assert state == served == expected


class TestSharded:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_merged_deltas_bit_identical(self, executor, rng):
        db = fresh_db(rng=rng, rows=120, domain=12)
        engine = ShardedEngine(QUERY, db, shards=3, executor=executor)
        try:
            view = engine.subscribe(ratio_threshold=100.0)
            assert dict(view.items()) == dict(engine.enumerate_snapshot())
            for _ in range(5):
                engine.apply_batch(valid_stream(rng, SCHEMAS, 24, domain=12))
                engine.publish_epoch()
                view.refresh()
                assert dict(view.items()) == dict(
                    engine.enumerate_snapshot()
                )
            assert view.full_refreshes == 0
        finally:
            engine.close()

    def test_worker_retain_epochs_boundary(self, rng):
        """The shard CHANGES command refuses evicted coordinator epochs.

        Shards map coordinator epoch numbers to their own engine epochs
        and retain only RETAIN_EPOCHS + 1 entries; asking for an older
        epoch must surface the typed gap, never a partial delta — from
        the coordinator-hosted shard directly, from a worker over the
        pipe — and the coordinator-level ``changes_since`` guard
        mirrors it.
        """
        db = fresh_db(rng=rng, rows=60, domain=10)
        engine = ShardedEngine(QUERY, db, shards=2, executor="process")
        try:
            view = engine.subscribe()
            evicted = engine.epoch  # the tracking-baseline publish
            for _ in range(RETAIN_EPOCHS + 2):
                engine.apply(Update("R", (1, 1), 1))
                engine.publish_epoch()
            with pytest.raises(EpochGapError):
                engine.changes_since(evicted)
            stale = ("changes", evicted, engine.epoch)
            with pytest.raises(EpochGapError):
                engine._call(0, stale)
            with pytest.raises(ShardWorkerError, match="EpochGapError"):
                engine._call(1, stale)
            # The stale subscriber recovers through a counted full drain.
            view.refresh()
            assert view.full_refreshes == 1
            assert dict(view.items()) == dict(engine.enumerate_snapshot())
        finally:
            engine.close()

    def test_stale_tracker_resyncs_after_publish(self, rng):
        """A pool rebuild marks the tracker stale; subscribers full-drain
        once and the stream then resumes patching."""
        db = fresh_db(rng=rng, rows=60, domain=10)
        engine = ShardedEngine(QUERY, db, shards=2, executor="serial")
        try:
            view = engine.subscribe()
            engine._change_tracker.stale = True
            engine.apply(Update("R", (4, 4), 1))
            engine.publish_epoch()  # resync happens here
            view.refresh()
            assert view.full_refreshes == 1
            assert dict(view.items()) == dict(engine.enumerate_snapshot())
            engine.apply(Update("R", (5, 5), 1))
            engine.publish_epoch()
            view.refresh()
            assert view.full_refreshes == 1  # patched, no second drain
            assert dict(view.items()) == dict(engine.enumerate_snapshot())
        finally:
            engine.close()

    def test_empty_head_scalar_via_workers(self, rng):
        query = parse_query("Q() = R(B, A) * S(B)")
        db = fresh_db(rng=rng, rows=40, domain=8)
        engine = ShardedEngine(query, db, shards=2, executor="process")
        try:
            view = engine.subscribe()
            engine.apply(Update("R", (2, 2), 5))
            engine.apply(Update("S", (2,), 1))
            engine.publish_epoch()
            view.refresh()
            assert view.scalar == engine.scalar_snapshot()
        finally:
            engine.close()


class TestFuzzInterleavings:
    @given(
        st.integers(0, 10_000),
        st.lists(
            st.sampled_from(["apply", "batch", "publish", "refresh"]),
            min_size=5,
            max_size=50,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_interleaved_ops_stay_bit_identical(self, seed, ops):
        rng = random.Random(seed)
        engine = ViewTreeEngine(QUERY, fresh_db(rng=rng, rows=15, domain=6))
        view = engine.subscribe()
        stream = valid_stream(rng, SCHEMAS, 300, domain=6)
        cursor = 0
        for op in ops:
            if op == "apply" and cursor < len(stream):
                engine.apply(stream[cursor])
                cursor += 1
            elif op == "batch":
                step = min(rng.randrange(1, 9), len(stream) - cursor)
                if step > 0:
                    engine.apply_batch(stream[cursor:cursor + step])
                    cursor += step
            elif op == "publish":
                engine.publish_epoch()
            else:  # refresh: catch up however far behind (gaps included)
                view.refresh()
                assert dict(view.items()) == dict(
                    engine.enumerate_snapshot()
                )
        engine.publish_epoch()
        view.refresh()
        fresh = dict(engine.enumerate_snapshot())
        assert dict(view.items()) == fresh
        assert fresh == engine.output_relation().to_dict()
