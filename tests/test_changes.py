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
from repro.constraints import parse_fds
from repro.data import Database, Update, counting
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


Q_LIST = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")


def list_engine(groups=4, fanout=30):
    """``Q_LIST`` over ``groups`` values of Y, each with ``fanout`` X and
    ``fanout`` Z partners — ``fanout**2`` output tuples per group."""
    db = Database()
    r = db.create("R", ("Y", "X"))
    s = db.create("S", ("Y", "Z"))
    for y in range(groups):
        for v in range(fanout):
            r.insert(y, v)
            s.insert(y, v)
    engine = ViewTreeEngine(Q_LIST, db)
    engine.track_changes()
    return engine


def publish_spying(engine):
    """Publish once; return ``(delta, ops, dirty_keys, walked_epochs)``.

    ``ops`` counts the lookups and enumeration steps of the publish
    alone, ``dirty_keys`` the written keys the tracker had to look at
    (the entries of the previous snapshot's pre-image maps),
    and ``walked_epochs`` the epoch number of every snapshot walk the
    diff started.
    """
    tracker = engine._change_tracker
    dirty_keys = sum(
        len(tracker._prev.data_of(rel)[1]) for rel, _, _ in tracker.tracked
    )
    walked = []
    inner = engine._enumerate

    def spy(prebound=None, stats=None, epoch=None):
        walked.append(epoch.number)
        return inner(prebound, stats, epoch=epoch)

    engine._enumerate = spy
    try:
        prev = engine.epoch
        with counting() as ops:
            engine.publish_epoch()
    finally:
        del engine._enumerate
    return engine.changes_since(prev), ops, dirty_keys, walked


class TestWorkIsProportionalToTheDelta:
    """The diff walks what changed, not the groups it changed in."""

    #: Lookups + enumeration steps allowed per delta tuple or dirty key.
    C = 6

    def test_mixed_batch_within_the_bound(self):
        engine = list_engine(groups=4, fanout=30)
        engine.apply_batch([
            Update("R", (0, 100), 1),    # insert: 30 new tuples
            Update("R", (1, 3), -1),     # delete: 30 tuples gone
            Update("S", (2, 5), 1),      # payload 1 -> 2: 30 tuples move
            Update("S", (3, 7), -1),
            Update("R", (9, 0), 1),      # new Y with no S partner: nothing
        ])
        delta, ops, dirty_keys, _ = publish_spying(engine)
        assert len(delta) == 120
        work = ops["lookup"] + ops["enum"]
        # Re-walking each touched group on both snapshots is
        # 2 * 4 * 900 steps; the bound here is 6 * (120 + 9).
        assert work <= self.C * (len(delta) + dirty_keys), (work, dirty_keys)

    def test_inserts_never_walk_the_previous_snapshot(self):
        engine = list_engine(groups=3, fanout=10)
        old_epoch = engine.epoch
        engine.apply_batch(
            [Update("R", (y, 50 + y), 1) for y in range(3)]
            + [Update("S", (7, 1), 1), Update("R", (7, 1), 1)]  # a new group
        )
        delta, _, _, walked = publish_spying(engine)
        assert len(delta) == 31 and all(old is None for _, old, _ in delta)
        assert walked and old_epoch not in walked

    def test_deletes_never_walk_the_new_snapshot(self):
        engine = list_engine(groups=3, fanout=10)
        engine.apply_batch([Update("R", (y, 2), -1) for y in range(3)])
        delta, _, _, walked = publish_spying(engine)
        assert len(delta) == 30 and all(new is None for _, _, new in delta)
        assert walked and engine.epoch not in walked

    def test_write_that_cancels_walks_nothing(self):
        engine = list_engine(groups=2, fanout=5)
        engine.apply(Update("R", (0, 77), 1))
        engine.apply(Update("R", (0, 77), -1))
        delta, _, dirty_keys, walked = publish_spying(engine)
        assert dirty_keys > 0 and len(delta) == 0 and walked == []


def _naive_output(engine):
    """The maintained query from scratch, keyed by the output head."""
    maintained = evaluate(engine.query, engine.database)
    positions = [engine.query.head.index(v) for v in engine.head]
    return {
        tuple(key[i] for i in positions): payload
        for key, payload in maintained.to_dict().items()
    }


#: ``(query, fds, rows, flip, expected keys)``: ``rows`` leaves one join
#: value with partner payloads +1 and -1, so its aggregate cancels and,
#: in the oracle's summed walk, the free node's guard entry is *absent*
#: while every leaf under it is non-zero; ``flip`` makes the guard
#: appear, which must surface every tuple of the group — not just the
#: one the written leaf key names.  A generated engine's guard holds the
#: support, which the cancelled group is in all along: there the flip
#: adds the one tuple its key names.
GUARD_FLIPS = {
    "list": (
        "Q(Y, X, Z) = R(Y, X) * S(Y, Z)", (),
        [("R", (5, 1), 1), ("R", (5, 2), -1), ("S", (5, 9), 1)],
        Update("R", (5, 3), 1),
        {(5, 1, 9): 1, (5, 2, 9): -1, (5, 3, 9): 1},
    ),
    # Output head (X, Z) through ``head=``: the tree keeps Y free.
    "fd-head": (
        "Q(X, Z) = R(X, Y) * S(Y, Z)", ("X -> Y",),
        [("R", (1, 5), 1), ("R", (2, 5), -1), ("S", (5, 9), 1)],
        Update("R", (3, 5), 1),
        {(1, 9): 1, (2, 9): -1, (3, 9): 1},
    ),
    # Z is bound: V_Z(Y) is the boundary view of a non-free subtree and
    # its payload (here 2) multiplies into every output tuple.
    "boundary-view": (
        "Q(Y, X) = R(Y, X) * S(Y, Z)", (),
        [("R", (5, 1), 1), ("R", (5, 2), -1), ("S", (5, 8), 1),
         ("S", (5, 9), 1)],
        Update("R", (5, 3), 1),
        {(5, 1): 2, (5, 2): -2, (5, 3): 2},
    ),
}


class TestGuardFlips:
    @pytest.mark.parametrize("case", sorted(GUARD_FLIPS))
    def test_flip_surfaces_and_retracts_the_whole_group(self, case):
        text, fd_texts, rows, flip, expected = GUARD_FLIPS[case]
        query = parse_query(text)
        plan = plan_maintenance(query, parse_fds(*fd_texts))

        def make_db():
            db = Database()
            for atom in query.atoms:
                db.create(atom.relation, atom.variables)
            # Bystanders the flip must not touch.
            db["R"].insert(0, 0)
            db["S"].insert(0, 0)
            for name, key, payload in rows:
                db[name].add(key, payload)
            return db

        twins = twin_engines(query, None, 0, plan=plan, make_db=make_db)
        assert [engine.generated for engine in twins] == [True, False]
        for engine in twins:
            view = engine.subscribe(ratio_threshold=100.0)
            before = dict(view.items())
            want = expected
            if engine.generated:
                assert before == _naive_output(engine)
                want = {k: p for k, p in expected.items() if k not in before}
                assert len(want) == 1
            assert not set(want) & set(before)

            engine.apply(flip)
            engine.publish_epoch()
            appeared = engine.changes_since(engine.epoch - 1)
            assert {k: (o, n) for k, o, n in appeared} == {
                k: (None, p) for k, p in want.items()
            }
            view.refresh()
            assert dict(view.items()) == {**before, **want}
            assert dict(view.items()) == _naive_output(engine)

            engine.apply(flip.inverted(Z))
            engine.publish_epoch()
            vanished = engine.changes_since(engine.epoch - 1)
            assert {k: (o, n) for k, o, n in vanished} == {
                k: (p, None) for k, p in want.items()
            }
            view.refresh()
            assert dict(view.items()) == before
            assert view.full_refreshes == 0

    def test_boundary_view_payload_moves_every_tuple_under_it(self):
        query = parse_query("Q(Y, X) = R(Y, X) * S(Y, Z)")
        for engine in twin_engines(query, (("R", "YX"), ("S", "YZ")), 5):
            view = engine.subscribe(ratio_threshold=100.0)
            group = {k: p for k, p in view.items() if k[0] == 3}
            assert len(group) > 1
            engine.apply(Update("S", (3, 99), 1))
            engine.publish_epoch()
            delta = engine.changes_since(engine.epoch - 1)
            assert {k for k, _, _ in delta} == set(group)
            assert all(new != old for _, old, new in delta)
            view.refresh()
            assert dict(view.items()) == _naive_output(engine)


class TestDeltaWindow:
    def test_single_epoch_request_returns_the_retained_delta(self):
        engine = list_engine(groups=2, fanout=3)
        engine.apply(Update("R", (0, 9), 1))
        engine.publish_epoch()
        one = engine.changes_since(engine.epoch - 1)
        assert one is engine.changes_since(engine.epoch - 1)
        engine.apply(Update("R", (0, 9), -1))
        engine.publish_epoch()
        # Two epochs compose into a fresh object; the round trip cancels.
        assert len(engine.changes_since(engine.epoch - 2)) == 0
        assert len(one) == 3  # the retained delta was not touched


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
