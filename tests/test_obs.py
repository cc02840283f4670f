"""The repro.obs observability layer: counters, recorders, hooks, export."""

import json
import math
import os
import pickle
import sys
import threading

import pytest

from repro.data import Database, Update
from repro.obs import (
    LatencyHistogram,
    MaintenanceStats,
    Observable,
    RunningStat,
    STATS_SCHEMA,
    observed,
    observed_enumeration,
    stats_record,
    write_stats_json,
)
from repro.query.parser import parse_query


class TestRunningStat:
    def test_basics(self):
        stat = RunningStat()
        for value in (1.0, 3.0, 2.0):
            stat.record(value)
        assert stat.count == 3
        assert stat.mean == pytest.approx(2.0)
        assert stat.minimum == 1.0
        assert stat.maximum == 3.0

    def test_empty_to_dict(self):
        assert RunningStat().to_dict()["count"] == 0

    def test_merge(self):
        a, b = RunningStat(), RunningStat()
        a.record(1.0)
        b.record(5.0)
        a.merge(b)
        assert a.count == 2 and a.maximum == 5.0


class TestLatencyHistogram:
    def test_percentiles_bracket_samples(self):
        histogram = LatencyHistogram()
        for _ in range(99):
            histogram.record(1e-5)
        histogram.record(1e-2)
        assert histogram.count == 100
        # p50 is within a factor of 2 of the mass at 1e-5.
        assert histogram.percentile(0.5) <= 2e-5
        assert histogram.percentile(0.995) >= 1e-2 / 2
        summary = histogram.to_dict()
        assert summary["count"] == 100
        assert summary["p50"] <= summary["p99"]

    def test_zero_and_negative_durations(self):
        histogram = LatencyHistogram()
        histogram.record(0.0)
        histogram.record(-1.0)  # clock skew: clamped, never throws
        assert histogram.count == 2
        assert histogram.percentile(1.0) > 0


class TestMaintenanceStats:
    def test_update_vs_batch_series(self):
        stats = MaintenanceStats("e")
        stats.record_update(0.001, "apply")
        stats.record_update(0.002, "update")
        stats.record_update(0.01, "apply_batch")
        assert stats.updates == 2
        assert stats.batches == 1
        assert stats.update_latency.count == 2
        assert stats.batch_latency.count == 1

    def test_to_dict_is_json_able(self):
        stats = MaintenanceStats("e")
        stats.record_update(0.001)
        stats.record_delta("V_A", 3)
        stats.record_enum_delay(0.0001)
        stats.record_migration(5, to_heavy=True)
        stats.record_repartition(4.0)
        stats.record_ops({"lookup": 7})
        payload = json.loads(json.dumps(stats.to_dict()))
        assert payload["updates"] == 1
        assert payload["delta_sizes"]["V_A"]["count"] == 1
        assert payload["rebalance"]["migrations"] == 1
        assert payload["rebalance"]["repartitions"] == 1
        assert payload["ops"] == {"lookup": 7}

    def test_render_mentions_key_sections(self):
        stats = MaintenanceStats("engine-x")
        stats.record_update(0.001)
        stats.record_delta("V_A", 2)
        stats.record_migration(1, to_heavy=False)
        text = stats.render()
        assert "engine-x" in text
        assert "delta sizes" in text
        assert "rebalancing" in text

    def test_merge(self):
        a, b = MaintenanceStats("a"), MaintenanceStats("b")
        a.record_update(0.001)
        b.record_update(0.002)
        b.record_delta("V", 4)
        a.merge(b)
        assert a.updates == 2
        assert a.delta_sizes["V"].count == 1

    def test_labelled_merge_keeps_shard_identity(self):
        total = MaintenanceStats("coordinator")
        total.record_update(0.001)
        shard = MaintenanceStats("worker")
        shard.record_update(0.002)
        shard.record_delta("V_A", 3)
        total.merge(shard, label="shard0")
        # the shard's work is summarised, not folded into the top-level
        # counters — a logical update is counted once, by the coordinator
        assert total.updates == 1
        assert total.shard_summaries["shard0"]["updates"] == 1
        assert "shard0/V_A" in total.delta_sizes
        assert "V_A" not in total.delta_sizes
        payload = total.to_dict()
        assert payload["shards"]["shard0"]["updates"] == 1
        assert "shard0" in total.render()

    def test_unlabelled_merge_folds_shard_summaries(self):
        a, b = MaintenanceStats("a"), MaintenanceStats("b")
        shard = MaintenanceStats("worker")
        shard.record_update(0.002)
        a.merge(shard, label="shard0")
        b.merge(shard, label="shard0")
        a.merge(b)
        # count fields add on label collision
        assert a.shard_summaries["shard0"]["updates"] == 2


class _ToyEngine(Observable):
    def __init__(self):
        self.applied = []

    @observed
    def apply(self, update):
        self.applied.append(update)

    @observed
    def apply_batch(self, batch):
        for update in batch:
            self.apply(update)


class TestObservedDecorator:
    def test_no_stats_no_recording(self):
        engine = _ToyEngine()
        engine.apply("u")
        assert engine.stats is None

    def test_attach_records_latency(self):
        engine = _ToyEngine()
        stats = engine.attach_stats()
        engine.apply("u1")
        engine.apply("u2")
        assert stats.updates == 2
        assert stats.update_latency.count == 2
        assert stats.engine == "_ToyEngine"

    def test_outermost_frame_wins(self):
        # apply_batch loops over decorated apply: the shared recorder
        # must count one batch, not also three updates.
        engine = _ToyEngine()
        stats = engine.attach_stats()
        engine.apply_batch(["u1", "u2", "u3"])
        assert stats.batches == 1
        assert stats.updates == 0
        assert len(engine.applied) == 3

    def test_detach(self):
        engine = _ToyEngine()
        stats = engine.attach_stats()
        assert engine.detach_stats() is stats
        engine.apply("u")
        assert stats.updates == 0

    def test_exceptions_still_recorded(self):
        class Exploding(Observable):
            @observed
            def apply(self, update):
                raise RuntimeError("boom")

        engine = Exploding()
        stats = engine.attach_stats()
        with pytest.raises(RuntimeError):
            engine.apply("u")
        assert stats.updates == 1  # the attempt is still a sample


class TestObservedEnumeration:
    def test_counts_and_delays(self):
        stats = MaintenanceStats("e")
        values = list(observed_enumeration(stats, iter([1, 2, 3])))
        assert values == [1, 2, 3]
        assert stats.enumerations == 1
        assert stats.tuples_enumerated == 3
        assert stats.enum_delay.count == 3

    def test_none_stats_pass_through(self):
        assert list(observed_enumeration(None, [1, 2])) == [1, 2]


class TestEngineIntegration:
    def _small_engine(self):
        from repro import IVMEngine

        db = Database()
        db.create("R", ("A", "B"))
        db.create("S", ("B",))
        return IVMEngine(parse_query("Q(A) = R(A, B) * S(B)"), db)

    def test_facade_shares_recorder_with_backend(self):
        engine = self._small_engine()
        stats = engine.attach_stats()
        assert engine.backend.stats is stats
        for i in range(20):
            engine.insert("R", i % 3, i % 4)
            engine.insert("S", i % 4)
        assert stats.updates == 40
        # View-tree delta sizes were recorded per view.
        assert any(view.startswith("V_") for view in stats.delta_sizes)

    def test_enumeration_delay_sampled(self):
        engine = self._small_engine()
        stats = engine.attach_stats()
        engine.insert("R", 1, 2)
        engine.insert("S", 2)
        assert list(engine.enumerate()) == [((1,), 1)]
        assert stats.enumerations == 1
        assert stats.tuples_enumerated == 1

    def test_triangle_counter_rebalance_events(self):
        import random

        from repro.ivme.triangle import TriangleCounter

        counter = TriangleCounter(epsilon=0.5)
        stats = counter.attach_stats()
        rng = random.Random(7)
        for _ in range(300):
            counter.apply(
                Update(
                    rng.choice("RST"),
                    (rng.randrange(5), rng.randrange(5)),
                    1,
                )
            )
        assert stats.updates == 300
        assert stats.repartitions > 0

    def test_tradeoff_engine_observable(self):
        from repro.ivme.hierarchical import TradeoffEngine

        engine = TradeoffEngine(epsilon=0.5)
        stats = engine.attach_stats()
        for i in range(40):
            engine.apply(Update("R", (i % 5, i % 3), 1))
            engine.apply(Update("S", (i % 3,), 1))
        assert stats.updates == 80
        assert engine.R.stats is stats

    def test_strategies_observable(self):
        from repro.viewtree import make_strategy

        db = Database()
        db.create("R", ("Y", "X"))
        db.create("S", ("Y", "Z"))
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        for name in ("eager-fact", "lazy-list"):
            strategy = make_strategy(name, query, db.copy())
            stats = strategy.attach_stats()
            strategy.apply(Update("R", (1, 2), 1))
            strategy.apply(Update("S", (1, 3), 1))
            count = strategy.enumerate_count()
            assert count == 1
            assert stats.updates == 2, name
            assert stats.tuples_enumerated >= 1, name


class TestStatsExport:
    def test_stats_record_schema(self):
        stats = MaintenanceStats("e")
        record = stats_record(stats, meta={"query": "Q"})
        assert record["schema"] == STATS_SCHEMA
        assert record["engine"] == "e"
        assert record["meta"] == {"query": "Q"}

    def test_write_stats_json(self, tmp_path):
        stats = MaintenanceStats("e")
        stats.record_update(0.001)
        path = write_stats_json(str(tmp_path / "out.json"), stats)
        with open(path) as handle:
            data = json.load(handle)
        assert data["schema"] == STATS_SCHEMA
        assert data["stats"]["updates"] == 1


GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures", "obs_golden.json")


def _recorded(engine: str, k: int = 1) -> MaintenanceStats:
    """A recorder on which every ``record_*`` ran with fixed values."""
    s = MaintenanceStats(engine)
    s.record_update(0.001 * k, "apply")
    s.record_update(0.004, "update")
    s.record_update(-1.0)  # clock skew clamps to 0
    s.record_update(0.02 * k, "apply_batch")
    s.record_delta("V_A", 3 * k)
    s.record_delta("V_A", 1)
    s.record_delta("V_B", 2)
    s.record_enumeration()
    s.record_enum_delay(2e-6 * k)
    s.record_enum_delay(0.0)
    s.record_view_sizes(10 * k, {"V_A": 6 * k, "V_B": 4})
    s.record_view_sizes(12)
    s.record_batch_coalesce(8 * k, 5)
    s.record_probe_sharing(4, 2 * k)
    s.record_compiled_enumeration()
    s.record_enum_probes(7 * k)
    s.record_lazy_refresh()
    s.record_point_lookup()
    s.record_point_lookup(3)
    s.record_migration(5 * k, to_heavy=True)
    s.record_repartition(4.0)
    s.record_ops({"lookup": 7 * k, "insert": 2})  # ops as a dict ...
    s.record_ops([("lookup", 1), ("delete", 3)])  # ... and as pairs
    s.record_submit()
    s.record_submit(4 * k)
    s.record_backpressure(0.003)
    s.record_commit(0.002, 64)  # every commit trigger
    s.record_commit(0.005, 3 * k, trigger="deadline")
    s.record_commit(0.001, 1, trigger="drain")
    s.record_serve_read(0.0)
    s.record_serve_read(0.0007 * k)
    s.record_commit_error()
    s.record_epoch_publish()
    s.record_epoch_publish(3, k, 9, 5 * k)
    s.record_snapshot_read(4e-5)
    s.record_change_delta(6 * k)
    s.record_change_delta(2, 128)
    s.record_change_patch(3e-4, 6, 0.125 * k)
    s.record_full_refresh()
    s.record_codegen(3, 1.5 * k, cache_hits=2, fallbacks=1)
    s.record_ipc_round(
        2, 100 * k, 40, busy_s=0.01, wall_s=0.02, workers=2, commit=True
    )
    s.record_ipc_round(1, 10, 500, busy_s=0.001, wall_s=0.004, workers=1)
    s.record_ipc_stats_merge(0.0005)
    s.record_ipc_worker_failure()
    s.record_ipc_workers_spawned(2)
    return s


def _golden_recorder() -> MaintenanceStats:
    """Labelled, unlabelled and same-label merges over ``_recorded``."""
    total = _recorded("coordinator")
    total.merge(_recorded("worker", 2), label="shard0")
    carrier = _recorded("carrier", 3)
    carrier.merge(_recorded("worker", 4), label="shard0")
    carrier.merge(_recorded("worker", 5), label="shard1")
    total.merge(carrier)  # carries summaries; "shard0" collides
    total.merge(_recorded("worker", 6), label="shard1")  # same label again
    total.merge(MaintenanceStats("idle"), label="shard2")
    return total


def _golden_text(merged: MaintenanceStats) -> str:
    return json.dumps([MaintenanceStats("fresh").to_dict(), merged.to_dict()])


def write_golden() -> None:
    """Regenerate the fixture after adding a metric (the diff must only
    add keys): ``PYTHONPATH=src python -c "import tests.test_obs as t;
    t.write_golden()"``."""
    with open(GOLDEN, "w") as handle:
        handle.write(_golden_text(_golden_recorder()))


class TestGoldenDocument:
    """``repro.obs/1`` is append-only: the committed document (generated
    at the commit before the metric table replaced the hand-kept lists)
    must be reproduced byte for byte — keys, key order and values."""

    def test_document_is_byte_identical(self):
        with open(GOLDEN) as handle:
            assert _golden_text(_golden_recorder()) == handle.read()

    def test_pickle_round_trip_is_byte_identical(self):
        merged = pickle.loads(pickle.dumps(_golden_recorder()))
        with open(GOLDEN) as handle:
            assert _golden_text(merged) == handle.read()
        merged.record_update(0.001)  # the lock came back
        assert merged.updates == _golden_recorder().updates + 1


class TestMetricTable:
    """One declaration per metric: the table is the recorder's state,
    its document and its shard summary."""

    def test_table_is_the_recorder(self):
        from repro.obs.stats import METRICS

        fresh = MaintenanceStats("fresh")
        state = [row.name for row in METRICS if row.derive is None]
        assert len(state) == len(set(state))
        # every declared attribute exists; every public attribute is declared
        assert set(state) == {n for n in vars(fresh) if not n.startswith("_")}
        document = fresh.to_dict()
        paths = [row.path for row in METRICS if row.path is not None]
        for path in paths:
            node = document
            for part in path.split("."):
                assert part in node, path
                node = node[part]
        # ... and nothing undeclared is exported (a block slot such as
        # "codegen" is a prefix of the rows that fill it, not a leaf)
        declared = {
            p for p in paths if not any(q.startswith(p + ".") for q in paths)
        }

        def leaves(node, prefix=""):
            for key, value in node.items():
                path = prefix + key
                if isinstance(value, dict) and path not in declared:
                    yield from leaves(value, path + ".")
                else:
                    yield path

        assert sorted(leaves(document)) == sorted(declared)

    def test_summary_cells_and_adding_rule_come_from_the_table(self):
        from repro.obs.stats import COORDINATOR, METRICS

        total = MaintenanceStats("coordinator")
        total.merge(_recorded("worker"), label="shard0")
        cells = [
            row.name
            for row in METRICS
            if row.shard != COORDINATOR and row.kind.scalar
        ]
        assert list(total.shard_summaries["shard0"]) == cells
        # worker-pool metrics belong to the coordinator: no summary has them
        assert not [name for name in cells if name.startswith("ipc_")]
        assert total.delta_ratio.count == 1  # a ROLLUP histogram folded in
        assert total.commit_latency.count == 0  # a COORDINATOR one did not


class TestLiveRecorderReads:
    """``merge(other)``, ``to_dict()`` and ``render()`` of a recorder
    another thread is writing (``ShardedEngine.merged_stats()`` folds
    shard 0's live recorder while the serve commit thread records)."""

    ROUNDS = 300

    def test_merge_and_export_while_a_writer_records(self):
        live = [MaintenanceStats("live")]
        stop = threading.Event()

        def write():
            n = 0
            while not stop.is_set():
                n += 1
                stats = live[0]
                # fresh dict keys on every call: new views, new buckets
                stats.record_delta(f"V{n}", n)
                stats.record_view_sizes(n, {f"V{n}": n})
                stats.record_update(1e-7 * 2.0 ** (n % 40))
                stats.record_ops({f"op{n}": 1})
                stats.record_commit(1e-6, n, ("size", "deadline", "drain")[n % 3])

        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            for round_ in range(self.ROUNDS):
                if round_ % 10 == 0:
                    live[0] = MaintenanceStats("live")  # keep merges short
                other = live[0]
                try:
                    MaintenanceStats("labelled").merge(other, label="shard0")
                    MaintenanceStats("unlabelled").merge(other)
                    other.render()
                    serving = other.to_dict()["serving"]
                    if serving["commits"] != (
                        serving["size_commits"]
                        + serving["deadline_commits"]
                        + serving["drain_commits"]
                    ):
                        errors.append("torn document")
                except RuntimeError as error:
                    errors.append(repr(error))
        finally:
            stop.set()
            writer.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not writer.is_alive()
        assert not errors, f"{len(errors)} of {self.ROUNDS} rounds: {errors[:3]}"

    def test_opposite_merges_do_not_deadlock(self):
        a, b = _recorded("a"), _recorded("b")
        threads = [
            threading.Thread(target=lambda x=x, y=y: [x.merge(y) for _ in range(200)])
            for x, y in ((a, b), (b, a))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
