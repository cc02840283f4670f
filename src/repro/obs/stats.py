"""The :class:`MaintenanceStats` recorder shared by all engines.

One recorder captures what the experiment sections of the paper plot —
per-update and per-batch **latency histograms** (Fig. 4 throughput is a
summary of these), per-view **delta sizes** ("small changes beget small
changes", measurable), **enumeration delay** samples (what the
O(1)-delay theorems bound), heavy/light **rebalance events** and
view-size **memory** samples (Fig. 7) — plus the counters of the layers
above the view tree (batch kernels, serving, epochs, change feeds,
codegen, worker IPC).

Every metric is declared **once**, as a row of :data:`METRICS`: the
recorder attribute, its kind (how it is created, folded and exported),
its path in the ``repro.obs/1`` document and what a labelled (per-shard)
merge does with it.  The constructor, both arms of ``merge``, the
per-shard summary and ``to_dict`` are loops over that table; only the
``record_*`` methods (direct attribute arithmetic: a recording call
looks nothing up) and ``render`` name a metric again.  Adding a metric
is one row plus its ``record_*``.

Thread safety: one recorder may be shared across threads — the serving
front-end commits size-sealed batches on an executor thread while the
event loop records reads (deadline- and drain-sealed batches commit on
the loop itself), and a sharded coordinator merges shard 0's live
recorder.  Every ``record_*`` holds the recorder's lock (unattached
engines never pay for it), ``merge`` holds both recorders' locks and
``to_dict`` / ``render`` their own, so a merge never iterates a growing
dict and an exported document is never torn.  The :func:`~repro.obs.instrument.observed`
reentrancy depth is per *thread*.  Lock and thread-local are dropped on
pickling (shard workers ship recorders) and rebuilt on unpickling.
"""

from __future__ import annotations

import operator
import threading
from typing import Any, Callable, Iterable, NamedTuple

from .histogram import CountHistogram, LatencyHistogram, RunningStat


class _Kind(NamedTuple):
    """How one kind of metric is created, folded and exported."""

    new: Callable[[], Any] | None  #: fresh value (None: derived, holds no state)
    fold: Callable[[Any, Any], Any] | None  #: ``(mine, theirs) -> merged``
    export: Callable[[Any], Any]  #: the value's plain-JSON form
    scalar: bool = False  #: a number or string: fits a shard-summary cell
    adds: bool = False  #: a cell that adds when the same shard label recurs


def _same(value):
    return value


def _merged(mine, theirs):
    mine.merge(theirs)
    return mine


def _fold_stats(mine: dict, theirs: dict) -> dict:
    for key, stat in theirs.items():
        if key not in mine:
            mine[key] = RunningStat()
        mine[key].merge(stat)
    return mine


def _fold_counts(mine: dict, theirs: dict) -> dict:
    for key, amount in theirs.items():
        mine[key] = mine.get(key, 0) + amount
    return mine


def _fold_summaries(mine: dict, theirs: dict) -> dict:
    for label, cells in theirs.items():
        held = mine.setdefault(label, {})
        # Same label seen twice: counts add, means are recomputed poorly
        # at best — keep the counts exact and let the latest win on the rest.
        for key, value in cells.items():
            adds = key in _ADDING_CELLS and key in held
            held[key] = held[key] + value if adds else value
    return mine


_described = operator.methodcaller("to_dict")

NAME = _Kind(str, lambda mine, theirs: mine, _same, scalar=True)
INT = _Kind(int, operator.add, _same, scalar=True, adds=True)
FLOAT = _Kind(float, operator.add, _same, scalar=True, adds=True)
PEAK = _Kind(int, max, _same, scalar=True)
STAT = _Kind(RunningStat, _merged, _described)
LATENCY = _Kind(LatencyHistogram, _merged, _described)
COUNTS = _Kind(CountHistogram, _merged, _described)
#: ``{view: RunningStat}``; a labelled merge keeps shards apart as
#: ``"<label>/<view>"``.
STAT_BY_VIEW = _Kind(
    dict,
    _fold_stats,
    lambda value: {view: stat.to_dict() for view, stat in sorted(value.items())},
)
COUNT_BY_KIND = _Kind(dict, _fold_counts, lambda value: dict(sorted(value.items())))
SUMMARIES = _Kind(
    dict,
    _fold_summaries,
    lambda value: {label: dict(cells) for label, cells in sorted(value.items())},
)
#: Derived cells: computed from other rows on export, never stored.
GAUGE = _Kind(None, None, _same, scalar=True)
TOTAL = _Kind(None, None, _same, scalar=True, adds=True)

#: Shard policies: what ``merge(other, label=...)`` does with a row.
#: ``COORDINATOR``: nothing — the coordinator records every logical update
#: itself, and adding each shard's count would count a broadcast update
#: once per shard.  ``SUMMARY``: a cell of the label's entry in ``shards``.
#: ``ROLLUP``: shard-level engine work is real work — it also adds into
#: the coordinator's totals (and is a summary cell if it is a scalar).
COORDINATOR, SUMMARY, ROLLUP = range(3)


class Metric(NamedTuple):
    """One row of :data:`METRICS`."""

    name: str  #: recorder attribute; for a derived row, its summary key
    kind: _Kind
    path: str | None  #: dotted path in the ``repro.obs/1`` document
    shard: int = COORDINATOR
    derive: Callable[["MaintenanceStats"], Any] | None = None

    def value(self, stats: "MaintenanceStats") -> Any:
        return self.derive(stats) if self.derive else getattr(stats, self.name)


def _peak_view_size(stats: "MaintenanceStats") -> float:
    return stats.view_size.maximum if stats.view_size.count else 0


def _utilization(stats: "MaintenanceStats") -> float:
    """Worker busy time over coordinator wall time across the pool."""
    if not (stats.ipc_wall_s and stats.ipc_workers):
        return 0.0
    return stats.ipc_worker_busy_s / (stats.ipc_wall_s * stats.ipc_workers)


def _slot(path: str) -> Metric:
    """Hold ``path``'s place in the document for a row declared later:
    rows are in shard-summary order, and where the (append-only) document
    has a key earlier than that, a slot reserves the position."""
    return Metric("", GAUGE, path, derive=lambda stats: {})


#: Every metric, once.  Row order is the key order of a shard summary
#: and, within each block, of the ``repro.obs/1`` document; both are
#: append-only, so a new row goes at the end of its block.
METRICS: tuple[Metric, ...] = (
    Metric("engine", NAME, "engine", SUMMARY),
    # Top-level update / batch calls observed, and their latency.
    Metric("updates", INT, "updates", SUMMARY),
    Metric("batches", INT, "batches", SUMMARY),
    Metric("update_latency", LATENCY, "update_latency"),
    Metric("batch_latency", LATENCY, "batch_latency"),
    Metric("update_mean_s", GAUGE, None, SUMMARY, lambda s: s.update_latency.stat.mean),
    Metric("batch_mean_s", GAUGE, None, SUMMARY, lambda s: s.batch_latency.stat.mean),
    # View name -> delta-size distribution (view-tree propagation).
    Metric("delta_sizes", STAT_BY_VIEW, "delta_sizes", ROLLUP),
    # Enumeration requests, tuples, and per-tuple delay samples.
    Metric("enumerations", INT, "enumerations", SUMMARY),
    Metric("tuples_enumerated", INT, "tuples_enumerated", SUMMARY),
    Metric("enum_delay", LATENCY, "enum_delay"),
    # Heavy/light partition events (repro.ivme.partition).
    Metric("migrations", INT, "rebalance.migrations", SUMMARY),
    Metric("tuples_migrated", INT, "rebalance.tuples_migrated"),
    Metric("repartitions", INT, "rebalance.repartitions", SUMMARY),
    # Elementary op totals of a counting() block, folded in via
    # record_ops (the stats CLI counts its whole replay).
    Metric("ops", COUNT_BY_KIND, "ops", ROLLUP),
    Metric("ops", TOTAL, None, SUMMARY, lambda s: sum(s.ops.values())),
    Metric("peak_view_size", GAUGE, None, SUMMARY, _peak_view_size),
    # Batches: updates entering a coalescing pass vs. distinct deltas
    # surviving it (kernel or per-tuple path alike); the batch kernels'
    # sibling probes issued vs. saved.
    Metric("batch_updates_raw", INT, "batch.raw_updates", ROLLUP),
    Metric("batch_updates_coalesced", INT, "batch.coalesced_updates", ROLLUP),
    Metric("sibling_probes", INT, "batch.sibling_probes", ROLLUP),
    Metric("sibling_probes_shared", INT, "batch.probes_shared", ROLLUP),
    # Read path: enumerations served by a kernel, its guard probes, lazy
    # recomputes inside enumerate(), fully-prebound point lookups and the
    # shard engines they probed (unsharded: one each).
    Metric("enum_compiled", INT, "enumeration.compiled", ROLLUP),
    Metric("enum_guard_probes", INT, "enumeration.guard_probes", ROLLUP),
    Metric("lazy_refreshes", INT, "enumeration.lazy_refreshes", ROLLUP),
    Metric("point_lookups", INT, "enumeration.point_lookups", ROLLUP),
    Metric("lookup_shards_probed", INT, "enumeration.lookup_shards_probed", ROLLUP),
    # Serving (repro.serve): successful group commits by trigger with
    # their histograms, backpressure, reads between commits.
    Metric("submits", INT, "serving.submits"),
    Metric("commits", INT, "serving.commits"),
    Metric("size_commits", INT, "serving.size_commits"),
    Metric("deadline_commits", INT, "serving.deadline_commits"),
    Metric("drain_commits", INT, "serving.drain_commits"),
    Metric("commit_latency", LATENCY, "serving.commit_latency"),
    Metric("commit_batch_size", COUNTS, "serving.batch_size"),
    Metric("commit_queue_depth", COUNTS, "serving.queue_depth"),
    Metric("backpressure_waits", INT, "serving.backpressure_waits"),
    Metric("backpressure_wait", LATENCY, "serving.backpressure_wait"),
    Metric("serve_lookups", INT, "serving.lookups"),
    Metric("read_staleness", LATENCY, "serving.read_staleness"),
    Metric("commit_errors", INT, "serving.commit_errors"),
    _slot("codegen"),
    # Worker IPC (repro.shard.worker): per-worker round-trips, pipe bytes,
    # per-commit bytes ("cost scales with batch, not state"), worker busy
    # vs. coordinator wall time, processes spawned (> shards - 1: a rebuild).
    Metric("ipc_rounds", INT, "ipc.rounds"),
    Metric("ipc_commits", INT, "ipc.commits"),
    Metric("ipc_bytes_sent", INT, "ipc.bytes_sent"),
    Metric("ipc_bytes_received", INT, "ipc.bytes_received"),
    Metric("ipc_commit_bytes", COUNTS, "ipc.commit_bytes"),
    Metric("ipc_worker_busy_s", FLOAT, "ipc.worker_busy_s"),
    Metric("ipc_wall_s", FLOAT, "ipc.wall_s"),
    Metric("ipc_workers", PEAK, "ipc.workers"),
    Metric("utilization", GAUGE, "ipc.utilization", derive=_utilization),
    Metric("ipc_stats_merge_s", FLOAT, "ipc.stats_merge_s"),
    Metric("ipc_worker_failures", INT, "ipc.worker_failures"),
    Metric("ipc_workers_spawned", INT, "ipc.workers_spawned"),
    # Epoch snapshots (repro.viewtree.epoch): publishes, the work paid for
    # them (buckets copied; tables copied is 0 since relations keep
    # pre-image maps instead), snapshot-mode reads, output delta per
    # publish, pre-images recorded (a rolled-back commit's included).
    Metric("epochs_published", INT, "epochs.published", ROLLUP),
    _slot("epochs.snapshot_reads"),
    Metric("snapshot_read_latency", LATENCY, "epochs.read_latency", ROLLUP),
    Metric("cow_buckets_copied", INT, "epochs.cow_buckets_copied", ROLLUP),
    Metric("cow_tables_copied", INT, "epochs.cow_tables_copied", ROLLUP),
    Metric("snapshot_reads", INT, "epochs.snapshot_reads", ROLLUP),
    Metric("output_delta_tuples", INT, "epochs.output_delta_tuples", ROLLUP),
    Metric("undo_entries", INT, "epochs.undo_entries", ROLLUP),
    # Output change streams (repro.viewtree.changes): per-epoch deltas,
    # subscriber patches, full-drain fallbacks, delta/state ratio in percent.
    Metric("deltas_emitted", INT, "changes.deltas_emitted", ROLLUP),
    Metric("delta_tuples", INT, "changes.delta_tuples", ROLLUP),
    Metric("delta_bytes", INT, "changes.delta_bytes", ROLLUP),
    Metric("tuples_patched", INT, "changes.tuples_patched", ROLLUP),
    Metric("patch_time", LATENCY, "changes.patch_time", ROLLUP),
    Metric("full_refresh_fallbacks", INT, "changes.full_refresh_fallbacks", ROLLUP),
    Metric("delta_ratio", COUNTS, "changes.delta_ratio_pct", ROLLUP),
    # Codegen (repro.viewtree.codegen): kernels exec'd from generated
    # source, shape-cache hits, relations left to the generic walk.
    Metric("kernels_generated", INT, "codegen.kernels_generated", ROLLUP),
    Metric("codegen_time_ms", FLOAT, "codegen.codegen_time_ms", ROLLUP),
    Metric("shape_cache_hits", INT, "codegen.shape_cache_hits", ROLLUP),
    Metric("codegen_fallbacks", INT, "codegen.fallbacks", ROLLUP),
    # Memory: periodic samples of total view size (views + guards +
    # leaves), and per view / guard.
    Metric("view_size", STAT, "memory.total_view_size", ROLLUP),
    Metric("view_sizes", STAT_BY_VIEW, "memory.view_sizes", ROLLUP),
    # Label -> summary cells, written by labelled merges (sharded runs).
    Metric("shard_summaries", SUMMARIES, "shards"),
)

#: Rows that hold recorder state (the rest are derived on export).
_STATE = tuple(row for row in METRICS if row.derive is None)
#: Rows that are a cell of a shard summary, in summary key order.
_CELLS = tuple(row for row in METRICS if row.shard != COORDINATOR and row.kind.scalar)
_ADDING_CELLS = frozenset(row.name for row in _CELLS if row.kind.adds)


class MaintenanceStats:
    """Structured recorder for one engine's maintenance activity.

    Its attributes are the state rows of :data:`METRICS`.
    """

    def __init__(self, engine: str = "engine"):
        for row in _STATE:
            setattr(self, row.name, row.kind.new())
        self.engine = engine
        # Recorders may be shared across threads (the serve commit
        # executor, shard 0 of a process pool); every mutation and every
        # whole-recorder read holds this lock.
        self._lock = threading.RLock()
        # Reentrancy guard: engines stack (facade -> cascade -> view tree),
        # and only the outermost observed call should count the update.
        # Tracked per thread so concurrent observed calls on different
        # threads do not suppress each other's recording.
        self._local = threading.local()

    @property
    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    @_depth.setter
    def _depth(self, value: int) -> None:
        self._local.depth = value

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_lock", None)
        state.pop("_local", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Recording API (called from instrumentation hooks): direct attribute
    # arithmetic under the lock, nothing looked up in METRICS
    # ------------------------------------------------------------------

    def record_update(self, seconds: float, kind: str = "apply") -> None:
        """One top-level ``apply``/``update`` (or ``*_batch``) call."""
        with self._lock:
            if kind.endswith("batch"):
                self.batches += 1
                self.batch_latency.record(seconds)
            else:
                self.updates += 1
                self.update_latency.record(seconds)

    def record_delta(self, view: str, size: int) -> None:
        """Size of one delta propagated into ``view``."""
        with self._lock:
            stat = self.delta_sizes.get(view)
            if stat is None:
                stat = self.delta_sizes[view] = RunningStat()
            stat.record(size)

    def record_enumeration(self) -> None:
        with self._lock:
            self.enumerations += 1

    def record_enum_delay(self, seconds: float) -> None:
        with self._lock:
            self.enum_delay.record(seconds)
            self.tuples_enumerated += 1

    def record_view_sizes(
        self, total: int, per_view: dict[str, int] | None = None
    ) -> None:
        """One memory sample: total view size plus per-view sizes.

        Engines call this periodically during maintenance (see
        ``ViewTreeEngine.view_sample_interval``), turning the space side
        of the IVM trade-off into a recorded series.
        """
        with self._lock:
            self.view_size.record(total)
            for view, size in (per_view or {}).items():
                stat = self.view_sizes.get(view)
                if stat is None:
                    stat = self.view_sizes[view] = RunningStat()
                stat.record(size)

    def record_batch_coalesce(self, raw: int, coalesced: int) -> None:
        """One batch run: raw updates vs. surviving deltas."""
        with self._lock:
            self.batch_updates_raw += raw
            self.batch_updates_coalesced += coalesced

    def record_probe_sharing(self, issued: int, shared: int) -> None:
        """Sibling probes actually issued vs. saved by the probe cache."""
        with self._lock:
            self.sibling_probes += issued
            self.sibling_probes_shared += shared

    def record_compiled_enumeration(self) -> None:
        """One enumeration request served by an enumeration kernel."""
        with self._lock:
            self.enum_compiled += 1

    def record_enum_probes(self, count: int) -> None:
        """Guard probes issued by the enumeration kernel (bulk)."""
        with self._lock:
            self.enum_guard_probes += count

    def record_lazy_refresh(self) -> None:
        """One on-demand recompute inside a lazy strategy's enumerate()."""
        with self._lock:
            self.lazy_refreshes += 1

    def record_point_lookup(self, shards_probed: int = 1) -> None:
        """One fully-prebound point lookup, probing that many shards."""
        with self._lock:
            self.point_lookups += 1
            self.lookup_shards_probed += shards_probed

    def record_migration(self, moved: int, to_heavy: bool) -> None:
        with self._lock:
            self.migrations += 1
            self.tuples_migrated += moved

    def record_repartition(self, threshold: float) -> None:
        with self._lock:
            self.repartitions += 1

    def record_ops(self, counts: dict[str, int] | Iterable[tuple[str, int]]) -> None:
        items = counts.items() if isinstance(counts, dict) else counts
        with self._lock:
            for kind, amount in items:
                self.ops[kind] = self.ops.get(kind, 0) + amount

    # Serving hooks (repro.serve)

    def record_submit(self, count: int = 1) -> None:
        """Updates accepted into the serving queue."""
        with self._lock:
            self.submits += count

    def record_backpressure(self, seconds: float) -> None:
        """One submit blocked at the high-water mark for ``seconds``."""
        with self._lock:
            self.backpressure_waits += 1
            self.backpressure_wait.record(seconds)

    def record_commit(
        self, seconds: float, batch_size: int, queue_depth: int, trigger: str = "size"
    ) -> None:
        """One group commit: latency, batch size, queue depth at commit.

        ``trigger`` names what fired the commit — ``"size"`` (the batch
        reached the maximum size), ``"deadline"`` (the latency deadline
        expired on a partial batch), or ``"drain"`` (a shutdown/drain
        flush).
        """
        with self._lock:
            self.commits += 1
            if trigger == "deadline":
                self.deadline_commits += 1
            elif trigger == "drain":
                self.drain_commits += 1
            else:
                self.size_commits += 1
            self.commit_latency.record(seconds)
            self.commit_batch_size.record(batch_size)
            self.commit_queue_depth.record(queue_depth)

    def record_serve_read(self, staleness_seconds: float) -> None:
        """One lookup served between commits, with its read staleness.

        Staleness is the age of the oldest update submitted but not yet
        committed at the moment the read was served — 0 when the queue
        was empty (the read saw a fully fresh view).  In snapshot-read
        mode this is the published epoch's age relative to the stream:
        how long the oldest update invisible to the epoch has waited.
        """
        with self._lock:
            self.serve_lookups += 1
            self.read_staleness.record(staleness_seconds)

    def record_commit_error(self) -> None:
        """One group commit that raised out of the engine.

        Failed commits are excluded from ``commits`` and from the
        latency/batch-size/queue-depth histograms so serving percentiles
        describe successful work only.
        """
        with self._lock:
            self.commit_errors += 1

    def record_epoch_publish(
        self,
        buckets_copied: int = 0,
        tables_copied: int = 0,
        delta_tuples: int = 0,
        undo_entries: int = 0,
    ) -> None:
        """One epoch publish, with the work of the epoch it closed.

        ``undo_entries`` counts the pre-images the closing epoch's
        snapshot recorded (one per key and per bucket written while it
        was live), ``buckets_copied`` the index buckets copied before
        their first write; both include the writes of a commit that was
        rolled back, whose pre-images stay in the map
        (:meth:`~repro.viewtree.epoch.EpochSnapshot.restore`).  Relations no longer copy tables, so
        ``tables_copied`` stays 0 in the engines; the ``repro.obs/1``
        key is kept.  ``delta_tuples`` is the size of the output change
        delta the publish emitted (0 when change tracking is off).
        """
        with self._lock:
            self.epochs_published += 1
            self.cow_buckets_copied += buckets_copied
            self.cow_tables_copied += tables_copied
            self.output_delta_tuples += delta_tuples
            self.undo_entries += undo_entries

    def record_snapshot_read(self, seconds: float) -> None:
        """One snapshot-mode read with its end-to-end latency."""
        with self._lock:
            self.snapshot_reads += 1
            self.snapshot_read_latency.record(seconds)

    def record_change_delta(self, tuples: int, bytes_: int = 0) -> None:
        """One per-epoch output delta emitted by the change tracker.

        ``bytes_`` is the columnar wire volume when the delta crossed a
        worker pipe (0 for in-process streams).
        """
        with self._lock:
            self.deltas_emitted += 1
            self.delta_tuples += tuples
            self.delta_bytes += bytes_

    def record_change_patch(self, seconds: float, tuples: int, ratio: float) -> None:
        """One subscriber materialization patched in O(δ).

        ``ratio`` is delta size over materialization size; it lands in
        the percent-bucketed ``delta_ratio`` histogram.
        """
        with self._lock:
            self.tuples_patched += tuples
            self.patch_time.record(seconds)
            self.delta_ratio.record(int(ratio * 100))

    def record_full_refresh(self) -> None:
        """One subscriber full-drain fallback (ratio threshold or gap)."""
        with self._lock:
            self.full_refresh_fallbacks += 1

    def record_codegen(
        self, kernels: int, time_ms: float, cache_hits: int = 0, fallbacks: int = 0
    ) -> None:
        """One engine's kernel-generation totals (recorded at attach)."""
        with self._lock:
            self.kernels_generated += kernels
            self.codegen_time_ms += time_ms
            self.shape_cache_hits += cache_hits
            self.codegen_fallbacks += fallbacks

    def record_ipc_round(
        self,
        round_trips: int,
        bytes_sent: int,
        bytes_received: int,
        busy_s: float = 0.0,
        wall_s: float = 0.0,
        workers: int = 0,
        commit: bool = False,
    ) -> None:
        """One coordinator operation against the shard-worker pool.

        ``round_trips`` counts per-worker command exchanges inside the
        operation (a broadcast over N workers is N round-trips but one
        call).  ``commit=True`` marks maintenance commits (``apply`` /
        ``apply_batch``) and feeds the per-commit byte histogram — the
        series that must stay flat as resident view state grows.
        """
        with self._lock:
            self.ipc_rounds += round_trips
            self.ipc_bytes_sent += bytes_sent
            self.ipc_bytes_received += bytes_received
            self.ipc_worker_busy_s += busy_s
            self.ipc_wall_s += wall_s
            if workers > self.ipc_workers:
                self.ipc_workers = workers
            if commit:
                self.ipc_commits += 1
                self.ipc_commit_bytes.record(bytes_sent + bytes_received)

    def record_ipc_stats_merge(self, seconds: float) -> None:
        """Time spent folding a worker's shipped stats delta."""
        with self._lock:
            self.ipc_stats_merge_s += seconds

    def record_ipc_worker_failure(self) -> None:
        """One worker crash (or dead pipe) surfaced to the coordinator."""
        with self._lock:
            self.ipc_worker_failures += 1

    def record_ipc_workers_spawned(self, count: int) -> None:
        """Worker processes spawned (pool build or rebuild)."""
        with self._lock:
            self.ipc_workers_spawned += count

    # ------------------------------------------------------------------
    # Aggregation and export
    # ------------------------------------------------------------------

    def merge(self, other: "MaintenanceStats", label: str | None = None) -> None:
        """Fold ``other`` into this recorder.

        With ``label`` (e.g. ``"shard3"``) the merge is *labelled*: ``other``
        is summarized under that label in :attr:`shard_summaries`, its
        ``ROLLUP`` rows add into this recorder (per-view series kept apart
        as ``"<label>/<view>"``) and the rest is left alone — see the shard
        policies above :data:`METRICS`.  Without it every row folds
        (associative recorder composition), shard summaries included.
        ``other`` may be live: both locks are held, taken in ``id`` order.
        """
        first, second = sorted((self._lock, other._lock), key=id)
        with first, second:
            if label is not None:
                self.shard_summaries[label] = {
                    row.name: row.value(other) for row in _CELLS
                }
            for row in _STATE:
                if label is not None and row.shard != ROLLUP:
                    continue
                theirs = getattr(other, row.name)
                if label is not None and row.kind is STAT_BY_VIEW:
                    theirs = {f"{label}/{view}": s for view, s in theirs.items()}
                merged = row.kind.fold(getattr(self, row.name), theirs)
                setattr(self, row.name, merged)

    def to_dict(self) -> dict:
        """Plain-JSON snapshot (the ``repro.obs/1`` stats payload)."""
        document: dict = {}
        with self._lock:
            for row in METRICS:
                if row.path is None:
                    continue
                *blocks, leaf = row.path.split(".")
                block = document
                for name in blocks:
                    block = block.setdefault(name, {})
                block[leaf] = row.kind.export(row.value(self))
        return document

    def render(self) -> str:
        """Human-readable multi-line summary (CLI ``stats`` output)."""
        with self._lock:
            return "\n".join(self._render_lines())

    def _render_lines(self) -> list[str]:
        lines = [f"maintenance stats — {self.engine}"]
        add = lines.append
        add("=" * len(lines[0]))
        add(f"updates:  {self.updates}  (batches: {self.batches})")
        add(_latency_line("latency", self.update_latency))
        if self.batches:
            add(_latency_line("batch latency", self.batch_latency))
        add(f"enumerations: {self.enumerations}  tuples: {self.tuples_enumerated}")
        if self.tuples_enumerated:
            add(_latency_line("delay", self.enum_delay))
        if self.enum_compiled or self.lazy_refreshes:
            add(
                f"enum kernel: {self.enum_compiled} compiled runs, "
                f"{self.enum_guard_probes} guard probes; "
                f"{self.lazy_refreshes} lazy refreshes"
            )
        if self.point_lookups:
            add(
                f"point lookups: {self.point_lookups}  "
                f"(shards probed: {self.lookup_shards_probed})"
            )
        if self.commits or self.submits or self.commit_errors:
            errors = f", {self.commit_errors} failed" if self.commit_errors else ""
            add(
                f"serving: {self.submits} submits -> {self.commits} commits "
                f"({self.size_commits} size / {self.deadline_commits} "
                f"deadline / {self.drain_commits} drain{errors})"
            )
            add(_latency_line("commit latency", self.commit_latency))
            if self.commit_batch_size.count:
                depth = self.commit_queue_depth
                add(
                    _count_line("batch size", self.commit_batch_size)
                    + f"  queue depth p50<={depth.percentile(0.5):g}"
                    f"  max={depth.stat.maximum:g}"
                )
            if self.backpressure_waits:
                add(
                    f"  backpressure: {self.backpressure_waits} blocked submits, "
                    f"mean wait {self.backpressure_wait.stat.mean:.3g}s"
                )
            if self.serve_lookups:
                stale = self.read_staleness
                add(
                    f"  reads: {self.serve_lookups} lookups  "
                    f"staleness mean={stale.stat.mean:.3g}s  "
                    f"p50<={stale.percentile(0.5):.3g}s  "
                    f"p99<={stale.percentile(0.99):.3g}s"
                )
        if self.kernels_generated or self.codegen_fallbacks:
            add(
                f"codegen: {self.kernels_generated} kernels in "
                f"{self.codegen_time_ms:.3g}ms  "
                f"(shape-cache hits: {self.shape_cache_hits}, "
                f"fallbacks: {self.codegen_fallbacks})"
            )
        if self.ipc_rounds or self.ipc_workers_spawned:
            failed = self.ipc_worker_failures
            add(
                f"worker ipc: {self.ipc_rounds} round-trips "
                f"({self.ipc_commits} commits)  "
                f"bytes: {self.ipc_bytes_sent} out / {self.ipc_bytes_received} in  "
                f"utilization: {_utilization(self):.0%}  "
                f"workers spawned: {self.ipc_workers_spawned}"
                + (f"  failures: {failed}" if failed else "")
            )
            if self.ipc_commit_bytes.count:
                add(
                    _count_line("commit bytes", self.ipc_commit_bytes)
                    + f"  stats-merge: {self.ipc_stats_merge_s:.3g}s"
                )
        if self.epochs_published or self.snapshot_reads:
            add(
                f"epochs: {self.epochs_published} published  "
                f"snapshot reads: {self.snapshot_reads}  "
                f"cow: {self.cow_buckets_copied} buckets copied  "
                f"undo: {self.undo_entries} pre-images  "
                f"output delta tuples: {self.output_delta_tuples}"
            )
            if self.snapshot_reads:
                add(_latency_line("snapshot read", self.snapshot_read_latency))
        if self.deltas_emitted or self.full_refresh_fallbacks:
            add(
                f"changes: {self.deltas_emitted} deltas "
                f"({self.delta_tuples} tuples, {self.delta_bytes} wire "
                f"bytes)  patched: {self.tuples_patched} tuples  "
                f"full refreshes: {self.full_refresh_fallbacks}"
            )
            if self.patch_time.count:
                add(_latency_line("patch", self.patch_time))
            if self.delta_ratio.count:
                add(_count_line("delta/state ratio", self.delta_ratio, "%"))
        if self.delta_sizes:
            add("delta sizes per view:")
            for view, stat in sorted(self.delta_sizes.items()):
                add(f"  {view}: n={stat.count}  mean={stat.mean:.3g}  max={stat.maximum:g}")
        if self.view_size.count:
            add(
                f"view size: samples={self.view_size.count}  "
                f"mean={self.view_size.mean:.3g}  peak={self.view_size.maximum:g}"
            )
        if self.batch_updates_raw:
            cancelled = self.batch_updates_raw - self.batch_updates_coalesced
            add(
                f"batch kernel: {self.batch_updates_raw} updates -> "
                f"{self.batch_updates_coalesced} coalesced deltas "
                f"({cancelled} cancelled); sibling probes "
                f"{self.sibling_probes} issued, {self.sibling_probes_shared} shared"
            )
        if self.migrations or self.repartitions:
            add(
                f"rebalancing: {self.migrations} migrations "
                f"({self.tuples_migrated} tuples), {self.repartitions} repartitions"
            )
        if self.ops:
            detail = ", ".join(f"{kind}={n}" for kind, n in sorted(self.ops.items()))
            add(f"elementary ops: {sum(self.ops.values())}  ({detail})")
        if self.shard_summaries:
            add("per-shard maintenance:")
            for label, cells in sorted(self.shard_summaries.items()):
                add(
                    f"  {label}: updates={cells.get('updates', 0)}  "
                    f"batches={cells.get('batches', 0)}  "
                    f"mean={cells.get('update_mean_s', 0.0):.3g}s"
                )
        return lines

    def __repr__(self) -> str:
        return (
            f"MaintenanceStats({self.engine!r}, updates={self.updates}, "
            f"enumerations={self.enumerations})"
        )


def _latency_line(label: str, histogram: LatencyHistogram) -> str:
    stat = histogram.stat
    if not stat.count:
        return f"  {label}: none"
    return (
        f"  {label}: n={stat.count}  mean={stat.mean:.3g}s  "
        f"p50<={histogram.percentile(0.5):.3g}s  "
        f"p95<={histogram.percentile(0.95):.3g}s  max={stat.maximum:.3g}s"
    )


def _count_line(label: str, histogram: CountHistogram, unit: str = "") -> str:
    return (
        f"  {label}: mean={histogram.stat.mean:.3g}{unit}  "
        f"p50<={histogram.percentile(0.5):g}{unit}  max={histogram.stat.maximum:g}{unit}"
    )
