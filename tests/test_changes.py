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
import gc
import random
import sys
import threading

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
    OutputDelta,
    EpochGapError,
    ViewTreeEngine,
    make_strategy,
    STRATEGIES,
)
from repro.serve import AsyncIVMServer
from repro.viewtree import changes as changes_module
from repro.viewtree.changes import DeltaWindow
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


def window_of(engine):
    return engine._change_tracker.window


def small_epochs(engine, count, start=100):
    """``count`` publishes, each inserting one fresh ``R`` tuple whose
    ``B`` joins: one output entry per epoch."""
    for step in range(count):
        engine.apply(Update("S", (start + step,), 1))
        engine.apply(Update("R", (start + step, 0), 1))
        engine.publish_epoch()


class TestCursorRetention:
    """A subscriber's cursor holds the window until its budget,
    ``ratio_threshold × max(len(state), 1)`` entries, runs out."""

    def test_a_view_many_epochs_behind_patches(self, rng):
        engine = ViewTreeEngine(QUERY, fresh_db(rng=rng, rows=60, domain=10))
        stats = engine.attach_stats()
        view = engine.subscribe()
        assert 0.5 * len(view) > 3 * RETAIN_EPOCHS  # the lag fits the budget
        small_epochs(engine, 3 * RETAIN_EPOCHS)
        view.refresh()
        assert view.full_refreshes == 0
        assert stats.full_refresh_fallbacks == 0
        assert dict(view.items()) == dict(engine.enumerate_snapshot())

    def test_an_over_budget_view_drains_once(self, rng):
        engine = ViewTreeEngine(QUERY, fresh_db(rng=rng, rows=60, domain=10))
        stats = engine.attach_stats()
        view = engine.subscribe()
        small_epochs(engine, int(0.5 * len(view)) + RETAIN_EPOCHS + 1)
        # Released: the window is back to its floor, so the deltas since
        # the view's epoch are gone.
        assert len(window_of(engine)) == RETAIN_EPOCHS
        with pytest.raises(EpochGapError):
            engine.changes_since(view.epoch)
        view.refresh()
        assert view.full_refreshes == 1
        assert stats.full_refresh_fallbacks == 1
        assert dict(view.items()) == dict(engine.enumerate_snapshot())
        small_epochs(engine, RETAIN_EPOCHS + 1, start=200)
        view.refresh()  # held again after the drain: patched
        assert view.full_refreshes == 1
        assert dict(view.items()) == dict(engine.enumerate_snapshot())

    def test_the_window_holds_the_floor_plus_what_cursors_need(self, rng):
        """Random lags and delta sizes against a model of the rule: at
        each publish the window keeps the newest RETAIN_EPOCHS deltas,
        or back to the oldest cursor whose entries since stay within its
        budget."""
        engine = ViewTreeEngine(QUERY, fresh_db(rng=rng, rows=40, domain=8))
        views = [engine.subscribe(ratio_threshold=t) for t in (0.1, 0.5, 2.0)]

        def cursor(view):
            return view.epoch, view.ratio_threshold * max(len(view), 1)

        held = [cursor(view) for view in views]
        sizes = {}  # epoch_from -> entries
        for published in range(1, 61):
            for update in valid_stream(rng, SCHEMAS, rng.randrange(1, 6), domain=8):
                engine.apply(update)
            engine.publish_epoch()
            sizes[engine.epoch - 1] = len(engine.changes_since(engine.epoch - 1))
            need = RETAIN_EPOCHS
            for epoch, budget in held:
                spent = sum(n for e, n in sizes.items() if e >= epoch)
                if spent <= budget:
                    need = max(need, engine.epoch - epoch)
            assert len(window_of(engine)) == min(need, published)
            for index, view in enumerate(views):
                if rng.random() < 0.2:
                    view.refresh()
                    assert dict(view.items()) == dict(engine.enumerate_snapshot())
                    held[index] = cursor(view)

    def test_a_collected_view_stops_holding_deltas(self, rng):
        engine = ViewTreeEngine(QUERY, fresh_db(rng=rng, rows=60, domain=10))
        view = engine.subscribe()
        small_epochs(engine, 2 * RETAIN_EPOCHS)
        assert len(window_of(engine)) == 2 * RETAIN_EPOCHS
        del view
        gc.collect()
        small_epochs(engine, 1, start=300)
        assert len(window_of(engine)) == RETAIN_EPOCHS

    def test_concurrent_publishes_never_gap_a_held_cursor(self):
        """One thread appends while more subscriber threads than cores
        patch and re-hold: a cursor with an unbounded budget must never
        see a gap, and every patched state must equal its epoch's."""
        window, keys, last = DeltaWindow(0), 7, 3000

        def truth(epoch):
            # Delta e-1 -> e sets key (e % keys,) to e.
            return {
                (k,): epoch - (epoch - k) % keys
                for k in range(keys)
                if epoch - (epoch - k) % keys >= 1
            }

        class Subscriber:
            pass

        subscribers = [Subscriber() for _ in range(4)]
        for sub in subscribers:
            window.hold(sub, 0, float("inf"))
        errors = []

        def publish():
            for e in range(1, last + 1):
                window.append(OutputDelta(e - 1, e, [((e % keys,), None, e)]))

        def follow(sub):
            # Alternates the composed delta with the in-order deltas.
            state, epoch, step = {}, 0, 0
            try:
                while epoch < last:
                    step += 1
                    if step % 2:
                        deltas = [window.changes_since(epoch)]
                    else:
                        deltas = window.deltas_since(epoch)
                    for delta in deltas:
                        delta.apply_to(state)
                        epoch = delta.epoch_to
                    window.hold(sub, epoch, float("inf"))
                    assert state == truth(epoch)
            except BaseException as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=follow, args=(sub,)) for sub in subscribers]
        threads.append(threading.Thread(target=publish))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert window.epoch == last

    def test_a_sharded_subscriber_patches_past_the_floor(self, rng):
        engine = ShardedEngine(
            QUERY, fresh_db(rng=rng, rows=60, domain=10), shards=2,
            executor="serial",
        )
        try:
            view = engine.subscribe()
            small_epochs(engine, 3 * RETAIN_EPOCHS)
            view.refresh()
            assert view.full_refreshes == 0
            assert dict(view.items()) == dict(engine.enumerate_snapshot())
        finally:
            engine.close()


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

    def test_deltas_since_hands_out_the_retained_deltas_in_order(self):
        window = DeltaWindow(0)
        deltas = [OutputDelta(e, e + 1, [((e,), None, e)]) for e in range(6)]
        for delta in deltas:
            window.append(delta)
        # No cursor: the newest RETAIN_EPOCHS deltas stay.
        oldest = 6 - RETAIN_EPOCHS
        got = window.deltas_since(oldest)
        assert len(got) == RETAIN_EPOCHS
        assert all(a is b for a, b in zip(got, deltas[oldest:]))
        assert window.deltas_since(5)[0] is window.changes_since(5) is deltas[5]
        assert window.deltas_since(6) == []
        composed = window.changes_since(oldest)
        assert (composed.epoch_from, composed.epoch_to) == (oldest, 6)
        for ask in (window.deltas_since, window.changes_since):
            with pytest.raises(EpochGapError, match=f"oldest available: {oldest}"):
                ask(oldest - 1)
            with pytest.raises(ValueError, match="not published yet"):
                ask(7)


EXECUTORS = ("serial", "process")


@pytest.fixture(params=["engine", "sharded"])
def make_source(request):
    """Builds a ``QUERY`` change source: a ``ViewTreeEngine`` or a serial
    two-shard ``ShardedEngine`` (closed at teardown)."""
    opened = []

    def make(ring=Z, rng=None, rows=0, domain=8):
        db = fresh_db(ring=ring, rng=rng, rows=rows, domain=domain)
        if request.param == "engine":
            return ViewTreeEngine(QUERY, db)
        engine = ShardedEngine(QUERY, db, shards=2, executor="serial")
        opened.append(engine)
        return engine

    yield make
    for engine in opened:
        engine.close()


def churn_epoch(engine, rng, live, step, values):
    """One commit: three random ``R`` / ``S`` keys inserted with a payload
    from ``values``, or, when live, deleted by retracting that payload
    (so groups empty), plus ``R(7, 7)`` inserted on even steps and
    deleted on odd ones under a standing ``S(7)``: the output key
    ``(7, 7)`` round-trips inside every lag of two epochs or more."""
    ring = engine.ring
    batch = []
    for _ in range(3):
        name = rng.choice("RS")
        key = (rng.randrange(5),) + ((rng.randrange(5),) if name == "R" else ())
        if (name, key) in live:
            batch.append(Update(name, key, ring.neg(live.pop((name, key)))))
        else:
            live[name, key] = payload = rng.choice(values)
            batch.append(Update(name, key, payload))
    one = ring.one
    batch.append(Update("R", (7, 7), one if step % 2 == 0 else ring.neg(one)))
    engine.apply_batch(batch)
    engine.publish_epoch()


def exact(state):
    """``state`` with floats as their bit patterns."""
    return {
        key: value.hex() if isinstance(value, float) else value
        for key, value in state.items()
    }


class TestInOrderPatching:
    """A lagging ``MaterializedView`` applies the retained per-epoch
    deltas one after another (set-to-absolute, so no composing), checks
    its ratio against their summed entries, and drains exactly once on
    a gap — on an engine and on a serial sharded source alike (the
    stale sharded stream: ``TestSharded``)."""

    @pytest.mark.parametrize(
        "ring,values", [(Z, (1, 2, 3)), (R, (0.1, 0.3, 0.7, 1.5))],
        ids=["int", "float"],
    )
    def test_a_view_lagging_k_epochs_equals_a_fresh_drain(
        self, make_source, ring, values
    ):
        engine = make_source(ring)
        engine.apply(Update("S", (7,), ring.one))
        engine.publish_epoch()
        stats = engine.attach_stats()
        view = engine.subscribe(ratio_threshold=1e9)  # always patch
        rng, live, step = random.Random(0x1A6), {}, 0
        for lag in range(1, 41):
            for _ in range(lag):
                churn_epoch(engine, rng, live, step, values)
                step += 1
            view.refresh()
            assert view.epoch == engine.epoch
            assert exact(view.state) == exact(dict(engine.enumerate_snapshot()))
        assert view.full_refreshes == 0
        assert stats.full_refresh_fallbacks == 0
        assert stats.tuples_patched > 0

    def test_the_ratio_check_trips_on_summed_entries(self, make_source):
        """Three epochs toggle one output key: they compose to one entry
        but sum to three, over a budget of 2.5, so the view drains; two
        such epochs sum to two and patch."""
        engine = make_source()
        engine.apply_batch(
            [Update("S", (7,), 1)] + [Update("R", (7, a), 1) for a in range(8)]
        )
        engine.publish_epoch()
        stats = engine.attach_stats()
        view = engine.subscribe()
        toggles = 0

        def lag(epochs):
            nonlocal toggles
            view.ratio_threshold = 2.5 / len(view)
            for _ in range(epochs):
                engine.apply(Update("R", (7, 99), -1 if toggles % 2 else 1))
                engine.publish_epoch()
                toggles += 1

        lag(3)
        assert len(engine.changes_since(view.epoch)) == 1
        assert sum(map(len, engine.deltas_since(view.epoch))) == 3
        view.refresh()
        assert view.full_refreshes == stats.full_refresh_fallbacks == 1
        assert stats.tuples_patched == 0
        assert dict(view.items()) == dict(engine.enumerate_snapshot())
        lag(2)
        view.refresh()
        assert view.full_refreshes == 1
        assert stats.tuples_patched == 2  # the sum, not the composed 0
        assert dict(view.items()) == dict(engine.enumerate_snapshot())

    def test_a_gap_drains_exactly_once(self, make_source):
        engine = make_source(rng=random.Random(3), rows=30)
        stats = engine.attach_stats()
        view = engine.subscribe()
        small_epochs(engine, 3)
        window_of(engine).reset(engine.epoch)  # older epochs are gaps now
        small_epochs(engine, 2, start=200)
        with pytest.raises(EpochGapError):
            engine.deltas_since(view.epoch)
        view.refresh()
        assert view.full_refreshes == stats.full_refresh_fallbacks == 1
        assert dict(view.items()) == dict(engine.enumerate_snapshot())
        small_epochs(engine, 3, start=300)
        view.refresh()
        assert view.full_refreshes == stats.full_refresh_fallbacks == 1
        assert dict(view.items()) == dict(engine.enumerate_snapshot())

    def test_refresh_never_composes(self, make_source, monkeypatch):
        def refuse(*args):
            raise AssertionError("compose_deltas on the refresh path")

        monkeypatch.setattr(changes_module, "compose_deltas", refuse)
        engine = make_source(rng=random.Random(5), rows=30)
        view = engine.subscribe(ratio_threshold=1e9)
        rng, live = random.Random(6), {}
        for step in range(12):
            churn_epoch(engine, rng, live, step, (1, 2))
            if step % 4 == 3:
                view.refresh()
                assert dict(view.items()) == dict(engine.enumerate_snapshot())
        assert view.full_refreshes == 0
        with pytest.raises(AssertionError, match="refresh path"):
            engine.changes_since(engine.epoch - 2)


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
        mirrors it.  The subscriber's budget is zero, so its cursor holds
        nothing past the RETAIN_EPOCHS floor.
        """
        db = fresh_db(rng=rng, rows=60, domain=10)
        engine = ShardedEngine(QUERY, db, shards=2, executor="process")
        try:
            view = engine.subscribe(ratio_threshold=0.0)
            evicted = engine.epoch  # the tracking-baseline publish
            for _ in range(RETAIN_EPOCHS + 2):
                engine.apply(Update("R", (1, 1), 1))
                engine.publish_epoch()
            with pytest.raises(EpochGapError):
                engine.changes_since(evicted)
            stale = ("changes", evicted)
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
            stats = engine.attach_stats()
            view = engine.subscribe()
            engine._change_tracker.stale = True
            for ask in (engine.deltas_since, engine.changes_since):
                with pytest.raises(EpochGapError, match="interrupted"):
                    ask(view.epoch)
            engine.apply(Update("R", (4, 4), 1))
            engine.publish_epoch()  # resync happens here
            view.refresh()
            assert view.full_refreshes == stats.full_refresh_fallbacks == 1
            assert dict(view.items()) == dict(engine.enumerate_snapshot())
            small_epochs(engine, 3)
            view.refresh()
            # patched across three epochs, no second drain
            assert view.full_refreshes == stats.full_refresh_fallbacks == 1
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

    def test_merged_delta_order_ignores_the_hash_seed(self):
        """Merged keys come in first-seen order (shard order, then entry
        order), so string keys give one delta and one subscriber dict
        order under every ``PYTHONHASHSEED``."""
        import ast
        import subprocess
        import sys

        script = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.data import Database, Update\n"
            "from repro.query import parse_query\n"
            "from repro.shard import ShardedEngine\n"
            "db = Database()\n"
            "db.create('R', ('Y', 'X')); db.create('S', ('Y', 'Z'))\n"
            "query = parse_query('Q(Y, X, Z) = R(Y, X) * S(Y, Z)')\n"
            "engine = ShardedEngine(query, db, shards=2)\n"
            "view = engine.subscribe()\n"
            "engine.apply_batch(\n"
            "    [Update('R', (f'y{i}', f'x{i}'), 1) for i in range(16)]\n"
            "    + [Update('S', (f'y{i}', f'z{i}'), 1) for i in range(16)])\n"
            "engine.publish_epoch()\n"
            "view.refresh()\n"
            "print([key for key, _, _ in engine.changes_since(engine.epoch - 1)])\n"
            "print([key for key, _ in view.items()])\n"
        )
        outputs = []
        for seed in ("1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                cwd=__file__.rsplit("/tests/", 1)[0],
                env={"PYTHONHASHSEED": seed},
            )
            assert out.returncode == 0, out.stderr
            outputs.append(
                [ast.literal_eval(line) for line in out.stdout.splitlines()]
            )
        assert [len(keys) for keys in outputs[0]] == [16, 16]
        assert outputs[0] == outputs[1]


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
