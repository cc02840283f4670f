"""Shard runtimes and their worker processes (`repro.shard.worker`).

The tentpole invariant under test: with ``executor="process"`` the
coordinator hosts shard 0 itself and N-1 worker processes host the
rest — workers keep all view state resident and the pipe carries only
the columns of coalesced sub-batches out and acks / read results back
(stats deltas only when pulled).  Every read path must stay
bit-identical to the serial executor (the same runtimes, all local),
the unsharded engine and ``repro.naive``.
"""

import multiprocessing
import os
import pickle
import random
import signal
import threading
import time

import pytest

from repro.data import Database, Update, apply_batch
from repro.data.columnar import coalesce_columnar
from repro.naive import evaluate, evaluate_scalar
from repro.query import parse_query
from repro.rings import PROVENANCE, Polynomial
from repro.rings.standard import FloatRing, Z
from repro.serve import update_stream
from repro.shard import ShardWorkerError, ShardedEngine, stable_hash
from repro.shard.engine import encode_batch
from repro.viewtree import ViewTreeEngine
from tests.conftest import valid_stream

QUERY = parse_query("Q(B, A) = R(B, A) * S(B)")


def fresh_db(rng=None, rows=0, domain=8, ring=Z):
    db = Database(ring=ring)
    db.create("R", ("B", "A"))
    db.create("S", ("B",))
    if rng is not None:
        for _ in range(rows):
            db["R"].insert(rng.randrange(domain), rng.randrange(domain))
            db["S"].insert(rng.randrange(domain))
    return db


# ----------------------------------------------------------------------
# Columnar wire encoding
# ----------------------------------------------------------------------


def wire_round_trip(batch, ring):
    """Coalesce, encode, cross a pickle boundary: columns again."""
    encoded = encode_batch(coalesce_columnar(batch, ring))
    return pickle.loads(pickle.dumps(encoded))


class TestWireEncoding:
    def test_round_trip_integer_ring(self):
        batch = [
            Update("R", (1, 2), 3),
            Update("R", (1, 2), -1),  # coalesced before encoding
            Update("S", (4,), 5),
            Update("R", (0, 0), 1),
            Update("S", (6,), 2 ** 80),  # exact integers never narrow
        ]
        decoded = wire_round_trip(batch, Z)
        assert decoded == {
            "R": ([(1, 2), (0, 0)], [2, 1]),
            "S": ([(4,), (6,)], [5, 2 ** 80]),
        }
        assert decoded == coalesce_columnar(batch, Z)

    def test_float_payloads_round_trip_bit_identically(self):
        ring = FloatRing()
        # Payloads chosen so any decimal re-parse would drift.
        payloads = [0.1, 1e-9, 3.141592653589793, -2.5000000000000004]
        batch = [
            Update("R", (i, 0), payload)
            for i, payload in enumerate(payloads)
        ]
        decoded = wire_round_trip(batch, ring)
        keys, got = decoded["R"]
        assert keys == [(i, 0) for i in range(len(payloads))]
        assert [value.hex() for value in got] == [p.hex() for p in payloads]

    def test_non_numeric_ring_ships_python_payloads(self):
        ring = PROVENANCE
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        batch = [Update("R", (1, 1), x), Update("R", (1, 1), y), Update("S", (2,), x)]
        decoded = wire_round_trip(batch, ring)
        assert decoded == {"R": ([(1, 1)], [ring.add(x, y)]), "S": ([(2,)], [x])}

    def test_cancelled_updates_never_hit_the_wire(self):
        batch = [Update("R", (7, 7), 1), Update("R", (7, 7), -1)]
        assert wire_round_trip(batch, Z) == {}
        floats = [Update("R", (7, 7), 0.25), Update("R", (7, 7), -0.25)]
        assert wire_round_trip(floats, FloatRing()) == {}

    def test_output_delta_float_payloads_round_trip_bit_identically(self):
        from repro.viewtree.changes import OutputDelta, decode_delta, encode_delta

        def bits(entries):
            return [
                tuple(None if v is None else v.hex() for v in (old, new))
                for _key, old, new in entries
            ]

        entries = [((1,), None, 0.1), ((2,), 1e-9, None), ((3,), 2.5, -3.14159)]
        wire = encode_delta(OutputDelta(4, 5, entries))
        delta = decode_delta(pickle.loads(pickle.dumps(wire)))
        assert (delta.epoch_from, delta.epoch_to) == (4, 5)
        assert [key for key, _, _ in delta.entries] == [(1,), (2,), (3,)]
        assert bits(delta.entries) == bits(entries)


def owned_key(engine, shard, spread=64):
    """An ``R`` key whose shard-variable value ``shard`` owns."""
    return next(
        (value, 1) for value in range(spread)
        if stable_hash(value) % engine.shards == shard
    )


# ----------------------------------------------------------------------
# Differential: process (shard 0 local + workers) vs serial vs naive
# ----------------------------------------------------------------------


class TestDeltaDifferential:
    def test_process_matches_serial_and_naive(self):
        """Same stream through two coordinators — every runtime local,
        shard 0 local plus two workers — must agree bit-for-bit on
        every read path, and with a from-scratch evaluation."""
        stream = valid_stream(random.Random(5), {"R": 2, "S": 1}, 160)
        children = len(multiprocessing.active_children())
        engines = {
            "serial": ShardedEngine(
                QUERY, fresh_db(random.Random(13), rows=20), shards=3,
                executor="serial",
            ),
            "process": ShardedEngine(
                QUERY, fresh_db(random.Random(13), rows=20), shards=3,
                executor="process", ipc="delta",
            ),
        }
        try:
            for engine in engines.values():
                engine.apply_batch(stream[:100])
                engine.apply(Update("R", (1, 1), 2))  # inline single update
                engine.apply_batch(stream[100:])
            # the coordinator hosts shard 0 only; one process per other shard
            assert len(engines["process"].engines) == 1
            assert len(engines["serial"].engines) == 3
            assert len(multiprocessing.active_children()) == children + 2
            expected = dict(engines["serial"].enumerate())
            assert expected == evaluate(QUERY, engines["serial"].database).data
            assert dict(engines["process"].enumerate()) == expected
            assert (
                engines["process"].output_relation()
                == engines["serial"].output_relation()
            )
            for key in list(expected)[:5] + [(99, 99)]:
                payloads = {
                    name: engine.lookup(key)
                    for name, engine in engines.items()
                }
                assert len(set(payloads.values())) == 1, payloads
            assert (
                engines["process"].total_view_size()
                == engines["serial"].total_view_size()
            )
        finally:
            for engine in engines.values():
                engine.close()

    def test_two_shards_are_one_child_process(self):
        before = len(multiprocessing.active_children())
        with ShardedEngine(
            QUERY, fresh_db(), shards=2, executor="process"
        ) as engine:
            engine.apply(Update("R", (0, 0), 1))
            assert len(multiprocessing.active_children()) == before + 1

    def test_boolean_scalar_via_workers(self):
        query = parse_query("Q() = R(B, A) * S(B)")
        db = fresh_db(random.Random(2), rows=25)
        with ShardedEngine(
            query, db, shards=2, executor="process", ipc="delta"
        ) as engine:
            assert engine.scalar() == evaluate_scalar(query, db)
            engine.apply(Update("S", (0,), 2))
            assert engine.scalar() == evaluate_scalar(query, db)
            assert dict(engine.enumerate()).get((), 0) == engine.scalar()

    def test_broadcast_apply_goes_through_workers(self):
        """Satellite: broadcast updates (relation without the shard
        variable) must ride the worker protocol — the old process path
        ran them serially against coordinator replicas that no longer
        exist in delta mode."""
        query = parse_query("Q(B, C) = R(B, A) * S(B) * T(C)")
        db = fresh_db(random.Random(4), rows=15)
        db.create("T", ("C",))
        for value in range(4):
            db["T"].insert(value)
        with ShardedEngine(
            query, db, shards=3, shard_variable="B",
            executor="process", ipc="delta",
        ) as engine:
            assert engine.output_relation() == evaluate(query, db)
            engine.apply(Update("T", (9,), 2))  # broadcast single update
            assert engine.output_relation() == evaluate(query, db)
            engine.apply_batch(
                [Update("T", (5,), 1), Update("R", (2, 2), 1)]
            )
            assert engine.output_relation() == evaluate(query, db)

    def test_merged_views_and_describe(self):
        db = fresh_db(random.Random(17), rows=40)
        serial = ShardedEngine(
            QUERY, db.copy(), shards=3, executor="serial"
        )
        with ShardedEngine(
            QUERY, db, shards=3, executor="process", ipc="delta"
        ) as engine:
            engine.apply_batch(
                valid_stream(random.Random(8), {"R": 2, "S": 1}, 60)
            )
            serial.apply_batch(
                valid_stream(random.Random(8), {"R": 2, "S": 1}, 60)
            )
            assert engine.merged_views() == serial.merged_views()
            text = engine.describe()
            assert "(process)" in text
            assert "shard 0:" in text
            assert text.count("worker-resident") == 2
        serial.close()


    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_sliding_window_with_in_batch_cancellation(self, executor):
        """A window shorter than the batch puts a tuple's insert *and*
        its delete into one batch: the coordinator's single coalescing
        pass must cancel them before the split, on every executor."""
        stream = list(update_stream(
            QUERY, 600, domain=12, seed=9, workload="sliding-window", window=24
        ))
        batches = [stream[at:at + 100] for at in range(0, len(stream), 100)]
        assert any(
            len(coalesce_columnar(batch, Z).get("R", ([],))[0])
            < sum(update.relation == "R" for update in batch)
            for batch in batches
        )
        plain = ViewTreeEngine(QUERY, fresh_db())
        with ShardedEngine(
            QUERY, fresh_db(), shards=3, executor=executor
        ) as engine:
            for batch in batches:
                engine.apply_batch(batch)
                plain.apply_batch(batch)
                assert dict(engine.enumerate()) == dict(plain.enumerate())
            assert engine.database["R"] == plain.database["R"]
            assert engine.database["S"] == plain.database["S"]
            assert engine.merged_views() == {
                f"{kind}_{node.variable}": relation
                for root in plain.roots
                for node in root.walk()
                for kind, relation in (("V", node.view), ("G", node.guard))
                if relation is not None
            }


# ----------------------------------------------------------------------
# ipc observability: bytes per commit scale with the batch, not state
# ----------------------------------------------------------------------


class TestIpcObservability:
    def test_bytes_per_commit_flat_as_state_grows(self):
        """Ship 8 same-size batches of fresh keys; resident view state
        grows ~8x while the bytes crossing the pipe per commit stay
        flat — shipping state would make the last commit ~8x the
        first one."""
        db = fresh_db()
        commits = 8
        with ShardedEngine(
            QUERY, db, shards=2, executor="process", ipc="delta"
        ) as engine:
            stats = engine.attach_stats()
            for round_no in range(commits):
                base = round_no * 1000  # disjoint keys: state only grows
                batch = [
                    Update("R", (base + i, i), 1) for i in range(100)
                ] + [Update("S", (base + i,), 1) for i in range(100)]
                engine.apply_batch(batch)
            assert engine.total_view_size() > 0
            assert stats.ipc_commits == commits
            assert stats.ipc_commit_bytes.count == commits
            low = stats.ipc_commit_bytes.stat.minimum
            high = stats.ipc_commit_bytes.stat.maximum
            assert low > 0
            # Identical batch shapes: per-commit wire size is flat (the
            # small wiggle is pickle framing), not proportional to the
            # 8x-grown view state.
            assert high <= 1.5 * low, (low, high)
            assert stats.ipc_workers_spawned == 1  # shard 0 is local
            assert stats.ipc_rounds >= commits
            assert stats.ipc_bytes_sent > 0
            assert stats.ipc_bytes_received > 0

    def test_obs_schema_and_render(self):
        db = fresh_db()
        with ShardedEngine(
            QUERY, db, shards=2, executor="process", ipc="delta"
        ) as engine:
            stats = engine.attach_stats()
            engine.apply_batch(
                valid_stream(random.Random(3), {"R": 2, "S": 1}, 80)
            )
            list(engine.enumerate())
            merged = engine.merged_stats()
        payload = stats.to_dict()["ipc"]
        assert payload["commits"] == 1
        assert payload["rounds"] >= 1
        assert payload["bytes_sent"] > 0
        assert payload["bytes_received"] > 0
        assert payload["workers"] == 1
        assert payload["workers_spawned"] == 1
        assert payload["worker_failures"] == 0
        assert 0.0 <= payload["utilization"] <= 1.0
        assert payload["commit_bytes"]["count"] == 1
        assert "worker ipc:" in stats.render()
        # Shard 0 recorded live; the worker-side maintenance stats
        # delta made it back to the recorder the merged view labels.
        assert set(merged.shard_summaries) == {"shard0", "shard1"}
        assert all(
            summary["batches"] >= 1
            for summary in merged.shard_summaries.values()
        )


    def test_lazy_stats_total_what_per_commit_shipping_did(self):
        """Commit acks carry no stats; ``merged_stats`` pulls from the
        worker while shard 0's recorder is written live.  The per-shard
        totals equal the serial executor's (all recorders live), and
        pulling twice does not count anything twice."""
        batches = [
            valid_stream(random.Random(seed), {"R": 2, "S": 1}, 50)
            for seed in range(6)
        ]
        totals = {}
        for executor in ("serial", "process"):
            with ShardedEngine(
                QUERY, fresh_db(), shards=2, executor=executor
            ) as engine:
                stats = engine.attach_stats()
                for batch in batches:
                    engine.apply_batch(batch)
                engine.apply(Update("R", (1, 1), 1))
                local, remote = engine.shard_stats
                assert local.batches == len(batches)  # live, never pulled
                if executor == "process":
                    assert remote.batches == 0  # nothing rode the acks
                first = engine.merged_stats().shard_summaries
                second = engine.merged_stats().shard_summaries
                assert first == second
                totals[executor] = {
                    label: {
                        name: summary[name]
                        for name in (
                            "batches", "updates", "batch_updates_raw",
                            "batch_updates_coalesced",
                        )
                    }
                    for label, summary in first.items()
                }
                # the coordinator counts the one coalescing pass itself
                assert stats.batch_updates_raw == sum(map(len, batches))
                assert stats.batch_updates_coalesced == sum(
                    len(keys)
                    for batch in batches
                    for keys, _ in coalesce_columnar(batch, Z).values()
                )
            # ... and close() ships what the last pull left behind
            assert engine.merged_stats().shard_summaries == first
        assert totals["process"] == totals["serial"]
        assert all(
            summary["batches"] == len(batches) for summary in first.values()
        )
        assert sum(summary["updates"] for summary in first.values()) == 1


# ----------------------------------------------------------------------
# Failures: clear error, counted, the condemned rebuilt from the base
# ----------------------------------------------------------------------


class TestWorkerCrash:
    def test_crash_surfaces_counts_and_pool_rebuilds(self):
        db = fresh_db()
        serial = ShardedEngine(
            QUERY, fresh_db(), shards=3, executor="serial"
        )
        batches = [
            valid_stream(random.Random(seed), {"R": 2, "S": 1}, 60)
            for seed in (1, 2, 3)
        ]
        with ShardedEngine(
            QUERY, db, shards=3, executor="process", ipc="delta"
        ) as engine:
            stats = engine.attach_stats()
            engine.apply_batch(batches[0])
            first_pool = engine._pool
            assert first_pool is not None and not first_pool.broken

            # Kill shard 1's worker out from under the pool, mid-life.
            first_pool.workers[0].process.kill()
            first_pool.workers[0].process.join(5.0)
            with pytest.raises(ShardWorkerError, match="shard worker 1"):
                engine.apply_batch(batches[1])
            assert first_pool.broken
            assert stats.ipc_worker_failures == 1
            assert stats.to_dict()["ipc"]["worker_failures"] == 1

            # The failed batch's base writes committed before the crash,
            # so the rebuilt workers (respawned from the authoritative
            # base database) include it — nothing is lost or doubled.
            engine.apply_batch(batches[2])
            assert engine._pool is not first_pool
            assert not engine._pool.broken
            assert stats.ipc_workers_spawned == 4  # 2 at birth + 2 rebuilt

            for batch in batches:
                serial.apply_batch(batch)
            assert db["R"] == serial.database["R"]
            assert db["S"] == serial.database["S"]
            assert dict(engine.enumerate()) == dict(serial.enumerate())
            assert engine.output_relation() == evaluate(QUERY, db)
        serial.close()

    def test_worker_killed_mid_round(self):
        """The worker dies *after* its sub-batch is on the pipe and
        before it acks: the round raises naming the shard, the base
        writes and shard 0's slice (which overlap the workers) landed
        exactly once, and the next read — shard 0 with the state it
        kept, the pool rebuilt off that base — is correct."""
        batches = [
            valid_stream(random.Random(seed), {"R": 2, "S": 1}, 60)
            for seed in (1, 2)
        ]
        db, reference = fresh_db(), fresh_db()
        with ShardedEngine(
            QUERY, db, shards=3, executor="process", ipc="delta"
        ) as engine:
            stats = engine.attach_stats()
            engine.apply_batch(batches[0])
            pool = engine._pool
            (shard_zero,) = engine._runtimes
            victim = pool.workers[0].process
            # A stopped worker takes the command into its pipe but never
            # reads it; killing it while the coordinator waits for the
            # ack is a death mid-round, noticed through the sentinel.
            os.kill(victim.pid, signal.SIGSTOP)
            killer = threading.Timer(0.3, victim.kill)
            killer.start()
            try:
                with pytest.raises(ShardWorkerError, match="shard worker 1"):
                    engine.apply_batch(batches[1])
            finally:
                killer.join(5.0)
                victim.kill()
            assert not killer.is_alive()
            assert pool.broken and stats.ipc_worker_failures == 1
            for batch in batches:
                apply_batch(reference, batch)
            assert db["R"] == reference["R"] and db["S"] == reference["S"]
            assert engine.output_relation() == evaluate(QUERY, db)
            assert engine._pool is not pool
            assert engine._runtimes == [shard_zero]  # never rebuilt

    def test_failure_in_the_slot_leaves_no_stale_ack(self, monkeypatch):
        """Whatever raises between send and receive — a base write, now
        also shard 0's kernel — every ack is read before it propagates
        (the next command must not be answered by a stale one), and the
        commit nobody can vouch for rebuilds every shard from the base."""
        batches = [
            valid_stream(random.Random(seed), {"R": 2, "S": 1}, 60)
            for seed in (1, 2, 3)
        ]
        db, reference = fresh_db(), fresh_db()
        with ShardedEngine(QUERY, db, shards=3, executor="process") as engine:
            engine.apply_batch(batches[0])
            pool, runtimes = engine._pool, engine._runtimes

            def failing_write(columns):
                raise RuntimeError("disk full")

            monkeypatch.setattr(engine, "_write_base", failing_write)
            with pytest.raises(RuntimeError, match="disk full"):
                engine.apply_batch(batches[1])
            monkeypatch.undo()
            # The transport is in step: the old pool answers a fresh
            # command with that command's reply, not a leftover ack.
            assert isinstance(pool.call(0, ("total_view_size",)).payload, int)
            # The workers applied slices the base never got; the next
            # read sees shards rebuilt from the base instead.
            assert engine.output_relation() == evaluate(QUERY, db)
            assert engine._pool is not pool
            assert engine._runtimes is not runtimes
            engine.apply_batch(batches[2])
            for batch in (batches[0], batches[2]):
                apply_batch(reference, batch)
            assert db["R"] == reference["R"] and db["S"] == reference["S"]
            assert engine.output_relation() == evaluate(QUERY, db)

    def test_round_drains_every_ack_before_raising(self):
        """Pool-level: an ``overlap`` that raises still has every reply
        read, and the base-write slot ran exactly once."""
        with ShardedEngine(QUERY, fresh_db(), shards=3, executor="process") as engine:
            engine.apply(Update("R", (1, 2), 3))
            pool = engine._pool
            calls = []

            def overlap():
                calls.append(1)
                raise KeyError("boom")

            with pytest.raises(KeyError, match="boom"):
                pool.round([("scalar", None)] * pool.size, overlap)
            assert calls == [1] and not pool.broken
            sizes = pool.broadcast(("total_view_size",))
            assert all(isinstance(reply.payload, int) for reply in sizes)
            # a worker-side application error is drained the same way
            with pytest.raises(ShardWorkerError, match="unknown worker"):
                pool.round([("no_such_command",)] * pool.size)
            assert not pool.broken
            assert engine.lookup((1, 2)) == 0  # S(1) is absent: no output

    def test_remote_error_does_not_break_the_pool(self):
        """An application-level error inside a worker (bad command)
        raises in the parent but leaves the pool healthy — only
        transport failures force a rebuild."""
        db = fresh_db()
        with ShardedEngine(
            QUERY, db, shards=2, executor="process", ipc="delta"
        ) as engine:
            stats = engine.attach_stats()
            engine.apply(Update("R", (1, 2), 3))
            pool = engine._pool
            with pytest.raises(ShardWorkerError, match="unknown worker"):
                pool.call(0, ("no_such_command",))
            assert not pool.broken
            assert stats.ipc_worker_failures == 0
            engine.apply(Update("S", (1,), 5))  # same pool still serves
            assert engine._pool is pool
            assert engine.lookup((1, 2)) == 15


class TestWorkerSlices:
    """A worker is spawned with its slice of the base, never the base."""

    def test_each_worker_is_pickled_its_slice_also_after_a_respawn(self):
        db = fresh_db(random.Random(21), rows=4000, domain=10**6)
        full = len(pickle.dumps(db))
        stream = valid_stream(random.Random(22), {"R": 2, "S": 1}, 200)
        with ShardedEngine(QUERY, db, shards=4, executor="process") as engine:
            engine.apply_batch(stream[:100])
            first = engine._pool
            # Uniform keys: a slice is a quarter of the base.
            assert first.size == 3
            assert first.spawn_bytes <= 0.35 * full * first.size
            first.workers[1].process.kill()
            first.workers[1].process.join(5.0)
            with pytest.raises(ShardWorkerError, match="shard worker 2"):
                engine.output_relation()
            engine.apply_batch(stream[100:])
            pool = engine._pool
            assert pool is not first and not pool.broken
            assert pool.spawn_bytes <= 0.35 * full * pool.size
            expected = evaluate(QUERY, db)
            assert engine.output_relation() == expected
            for key in list(expected.data)[:20]:
                assert engine.lookup(key) == expected.data[key]


# ----------------------------------------------------------------------
# Owner routing: shard 0 never touches a pipe
# ----------------------------------------------------------------------


#: The shard variable ``B`` is a head variable, but ``C`` is bound: a
#: live lookup cannot be answered from the base, so it is routed.
ROUTED = parse_query("Q(B, A) = R(B, A) * S(B, C)")


def routed_db():
    db = Database()
    db.create("R", ("B", "A"))
    db.create("S", ("B", "C"))
    return db


class TestOwnerRouting:
    def test_lookups_live_and_pinned_for_both_owners(self):
        """A key owned by shard 0 and one owned by the worker, read
        live, at the published epoch, and at an epoch pinned before
        later publishes."""
        with ShardedEngine(ROUTED, routed_db(), shards=2, executor="process") as engine:
            stats = engine.attach_stats()
            keys = [owned_key(engine, 0), owned_key(engine, 1)]
            engine.apply_batch(
                [Update("R", key, 2) for key in keys]
                + [Update("S", (key[0], 7), 3) for key in keys]
            )
            rounds = stats.ipc_rounds
            assert engine.lookup(keys[0]) == 6
            assert stats.ipc_rounds == rounds  # shard 0: no pipe
            assert engine.lookup(keys[1]) == 6
            assert stats.ipc_rounds == rounds + 1  # the worker: one trip

            pinned = engine.publish_epoch()
            frozen = engine.enumerate_snapshot()  # pins here, drains later
            for _ in range(2):  # later publishes, inside the retention
                engine.apply_batch([Update("R", key, 1) for key in keys])
                engine.publish_epoch()
            engine.apply_batch([Update("R", key, 1) for key in keys])
            for owner, key in enumerate(keys):
                assert engine.lookup(key) == 15  # live: unpublished too
                assert engine.lookup_snapshot(key) == 12
                at_pin = ("lookup", key, pinned)
                assert engine._call(owner, at_pin).payload == 6
            assert dict(frozen) == {key: 6 for key in keys}

    def test_routed_lookups_record_point_lookups_not_enumerations(self):
        """The owner shard answers a routed lookup with its engine's own
        lookup: its recorder counts a point lookup, not an enumeration
        (was: one ``enumerations`` and a delay sample per lookup, no
        ``point_lookups``)."""
        engine = ShardedEngine(ROUTED, routed_db(), shards=2)
        engine.attach_stats()
        keys = [owned_key(engine, 0), owned_key(engine, 1)]
        engine.apply_batch(
            [Update("R", key, 2) for key in keys]
            + [Update("S", (key[0], 7), 3) for key in keys]
        )
        assert [engine.lookup(key) for key in (keys[0], keys[1], keys[1])] == [6] * 3
        merged = engine.merged_stats()
        for label, lookups in (("shard0", 1), ("shard1", 2)):
            summary = merged.shard_summaries[label]
            assert summary["enumerations"] == 0
            assert summary["point_lookups"] == lookups
        assert merged.point_lookups == merged.lookup_shards_probed == 3

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_full_query_lookups_answer_on_the_coordinator(self, executor):
        """Every probe of a query with no bound variable is a base
        relation: the coordinator answers from its database, and no
        shard sees the read — no pipe round, no shard recorder moves —
        whichever shard owns the key."""
        with ShardedEngine(QUERY, fresh_db(), shards=2, executor=executor) as engine:
            stats = engine.attach_stats()
            keys = [owned_key(engine, 0), owned_key(engine, 1)]
            engine.apply_batch(
                [Update("R", key, 2) for key in keys]
                + [Update("S", key[:1], 3) for key in keys]
            )
            engine.merged_stats()  # sync the worker's recorder
            before = [shard.to_dict() for shard in engine.shard_stats]
            rounds = stats.ipc_rounds
            assert [engine.lookup(key) for key in keys] == [6, 6]
            assert engine.lookup((99, 99)) == 0
            assert stats.ipc_rounds == rounds
            assert stats.point_lookups == 3
            assert stats.lookup_shards_probed == 0
            engine.merged_stats()
            assert [shard.to_dict() for shard in engine.shard_stats] == before

    def test_snapshot_lookups_stay_routed(self):
        """The coordinator's base keeps no versions, so a snapshot
        lookup goes to the owner shard even on a full query: a worker
        key costs one pipe round and answers the published epoch, also
        after the base has moved on."""
        with ShardedEngine(QUERY, fresh_db(), shards=2, executor="process") as engine:
            stats = engine.attach_stats()
            keys = [owned_key(engine, 0), owned_key(engine, 1)]
            engine.apply_batch(
                [Update("R", key, 2) for key in keys]
                + [Update("S", key[:1], 3) for key in keys]
            )
            engine.publish_epoch()
            engine.apply_batch([Update("R", key, 1) for key in keys])
            rounds = stats.ipc_rounds
            assert engine.lookup_snapshot(keys[0]) == 6
            assert stats.ipc_rounds == rounds  # shard 0: no pipe
            assert engine.lookup_snapshot(keys[1]) == 6
            assert stats.ipc_rounds == rounds + 1  # the worker: one trip
            assert [engine.lookup(key) for key in keys] == [9, 9]
            assert stats.ipc_rounds == rounds + 1  # live: the base

    def test_local_snapshot_read_returns_while_a_round_is_in_flight(self):
        """No per-worker lock guards the coordinator's own shard: with
        the worker stopped mid-round (its lock held by the commit
        thread), a snapshot lookup of a shard-0 key still answers, and
        so does a live lookup of the worker's key (the coordinator's
        base answers it; no pipe is waited on)."""
        with ShardedEngine(QUERY, fresh_db(), shards=2, executor="process") as engine:
            local, remote = owned_key(engine, 0), owned_key(engine, 1)
            engine.apply_batch(
                [Update("R", local, 2), Update("S", local[:1], 3),
                 Update("S", remote[:1], 3)]
            )
            engine.publish_epoch()
            worker = engine._pool.workers[0]
            victim = worker.process
            commit = threading.Thread(
                target=engine.apply_batch,
                args=([Update("R", remote, 1), Update("R", local, 5)],),
            )
            os.kill(victim.pid, signal.SIGSTOP)
            try:
                commit.start()
                deadline = time.monotonic() + 5.0
                # the round holds the worker's lock from send to receive
                while not worker.lock.locked() and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert worker.lock.locked() and commit.is_alive()
                assert engine.lookup_snapshot(local) == 6
                # Before or after the base write; read on a thread so a
                # lookup waiting on the stopped worker fails, not hangs.
                live = []
                reader = threading.Thread(
                    target=lambda: live.append(engine.lookup(remote)), daemon=True
                )
                reader.start()
                reader.join(5.0)
                assert live and live[0] in (0, 3)
                assert commit.is_alive()  # answered mid-round, not after it
            finally:
                os.kill(victim.pid, signal.SIGCONT)
                commit.join(10.0)
            assert not commit.is_alive()
            assert engine.lookup(local) == 21


# ----------------------------------------------------------------------
# Lifecycle (satellite): teardown, pickling, configuration
# ----------------------------------------------------------------------


class TestWorkerLifecycle:
    def test_close_terminates_workers_and_keeps_stats(self):
        db = fresh_db()
        engine = ShardedEngine(
            QUERY, db, shards=2, executor="process", ipc="delta"
        )
        engine.attach_stats()
        engine.apply_batch(valid_stream(random.Random(9), {"R": 2, "S": 1}, 40))
        processes = [w.process for w in engine._pool.workers]
        assert len(processes) == 1 and processes[0].is_alive()
        engine.close()
        assert engine._pool is None
        for process in processes:
            process.join(5.0)
            assert not process.is_alive()
        # The shutdown reply shipped the worker's final stats delta.
        merged = engine.merged_stats()
        assert set(merged.shard_summaries) == {"shard0", "shard1"}
        assert all(s["batches"] == 1 for s in merged.shard_summaries.values())
        engine.close()  # idempotent

    def test_context_manager_tears_down(self):
        db = fresh_db()
        with ShardedEngine(
            QUERY, db, shards=2, executor="process", ipc="delta"
        ) as engine:
            engine.apply(Update("R", (0, 0), 1))
            processes = [w.process for w in engine._pool.workers]
        for process in processes:
            process.join(5.0)
            assert not process.is_alive()

    def test_coordinator_pickles_without_pool(self):
        """Shards are derived state: a restored engine rebuilds all of
        them — shard 0 like the workers — from its base database, and
        re-publishes the epoch its readers had pinned."""
        for executor in ("serial", "process"):
            db = fresh_db(random.Random(1), rows=10)
            with ShardedEngine(QUERY, db, shards=2, executor=executor) as engine:
                engine.apply(Update("R", (3, 3), 2))
                pinned = engine.publish_epoch()
                blob = pickle.dumps(engine)
                expected = dict(engine.enumerate())
            clone = pickle.loads(blob)
            try:
                assert clone._pool is None and clone._runtimes is None
                assert clone.epoch == pinned
                assert dict(clone.enumerate_snapshot()) == expected
                assert dict(clone.enumerate()) == expected
                assert clone.output_relation() == evaluate(QUERY, clone.database)
            finally:
                clone.close()

    def test_single_shard_stays_in_process(self):
        before = len(multiprocessing.active_children())
        with ShardedEngine(
            QUERY, fresh_db(), shards=1, executor="process", ipc="delta"
        ) as engine:
            engine.apply(Update("R", (1, 1), 1))
            engine.apply_batch([Update("S", (1,), 2)])
            assert engine.lookup((1, 1)) == 2
            assert len(engine.engines) == 1
            assert engine._pool is None
            assert len(multiprocessing.active_children()) == before

    def test_invalid_ipc_mode_rejected(self):
        with pytest.raises(ValueError, match="ipc"):
            ShardedEngine(QUERY, fresh_db(), shards=2, ipc="carrier-pigeon")
