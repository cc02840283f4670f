"""Sharded parallel view-tree maintenance.

:class:`ShardedEngine` runs one :class:`~repro.viewtree.engine.ViewTreeEngine`
per hash shard of a chosen shard variable, all over the *same* shared
database and the same variable order.  Each shard's leaves materialize
only the tuples its :class:`~repro.shard.router.ShardLeafFilter` accepts,
updates route through the :class:`~repro.shard.router.ShardRouter`
(owned updates to one shard, broadcast updates to all), and shard
maintenance runs on a ``concurrent.futures`` executor.

Why merging is exact (not approximate): the shard variable lives in one
connected component of the query, and every atom binding it partitions
by its value.  A join-output tuple with shard-variable value ``v`` can
therefore only arise on the shard owning ``v`` — shards maintain a
*disjoint* decomposition of every view whose subtree touches a
partitioned leaf, while views over broadcast-only subtrees are identical
replicas.  Ring-adding shard outputs (payload union for enumeration,
ring sum for scalars) reconstructs the unsharded result exactly; the
differential shard-invariance tests assert bit-identical contents
against the unsharded engine for ``shards`` in {1, 2, 4}.

One write path, columnar end to end, whatever the executor:
``apply_batch`` ring-coalesces the batch **once** into per-relation
``(keys, payloads)`` columns (ring updates commute, so a batch may be
summed per key first and partitioned second), the router splits each
relation's columns by owner (broadcast relations share the same lists),
and every shard engine applies its slice through
:meth:`~repro.viewtree.engine.ViewTreeEngine.apply_coalesced_batch` —
no re-coalescing, no ``Update`` objects rebuilt along the way.

Executors:

* ``"thread"`` (default) — one persistent thread pool; shard engines are
  disjoint object graphs, so shard maintenance runs lock-free.  Pure
  Python still serializes on the GIL; what shards buy is smaller
  per-shard views (smaller probes, smaller groups).
* ``"process"`` — persistent shard workers (:mod:`repro.shard.worker`):
  each worker process is spawned once, builds its shard engine locally
  from a small pickled spec, and keeps all view state resident.  Per
  commit the coordinator ships only each shard's columns (numpy
  payload buffers as raw bytes) and gets a bare ack back — IPC cost
  scales with the batch, never with accumulated view state — and it
  writes its own base relations *after* the sub-batches are on the
  pipes and before it reads the acks, overlapping the workers.  Reads
  (``lookup`` routed to the owner shard, ``enumerate``/``scalar``
  streamed in chunks, ``publish_epoch`` as a barrier) ride the same
  pipe protocol, so the coordinator holds no engine replicas at all.
  The previous ship-the-whole-engine-per-batch path survives behind
  ``ipc="pickle-engine"`` as the differential oracle.
* ``"serial"`` — no pool; useful for debugging and differential tests.

What sharding costs: on a 2-core box two worker processes still deliver
less than the unsharded update rate, at several times the CPU per
update, and a point lookup costs a pipe round-trip (EXPERIMENTS.md has
the ``benchmarks/e2e`` ledger rows) — do not shard for throughput there.

Observability: every shard engine carries its own
:class:`~repro.obs.MaintenanceStats` recorder (recorders merge
associatively — that is what makes per-shard recording sound), and the
coordinator's own recorder — attached via ``attach_stats`` like any
other engine — captures logical update latency, the one coalescing
pass, and merged enumeration delay.  Stats are lazy in delta mode:
commit acks carry none, workers accumulate into their recorder and ship
the delta only when :meth:`merged_stats` (or ``close``) pulls — so
``shard_stats`` is current only after a pull.  :meth:`merged_stats`
folds everything into one recorder with per-shard labels.
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Iterator

# ``coalesce`` is this module's name for the one coalescing pass of the
# write path (benchmarks/e2e wraps it by that dotted name).
from ..data.columnar import coalesce_columnar as coalesce
from ..data.database import Database
from ..data.relation import Relation
from ..data.schema import Schema
from ..data.update import Update
from ..obs import MaintenanceStats, Observable, observed, observed_enumeration
from ..query.ast import Query
from ..query.variable_order import VariableOrder, order_for
from ..rings.lifting import LiftingMap
from ..viewtree.changes import (
    DeltaWindow,
    EpochGapError,
    MaterializedView,
    OutputDelta,
    decode_delta,
)
from ..viewtree.engine import ViewTreeEngine
from .router import (
    ShardLeafFilter,
    ShardRouter,
    choose_shard_variable,
    stable_hash,
)
from .worker import (
    ShardWorkerError,
    ShardWorkerPool,
    ShardWorkerSpec,
    encode_batch,
)

_EXECUTORS = ("serial", "thread", "process")
_IPC_MODES = ("delta", "pickle-engine")


def _apply_shard_batch(engine: ViewTreeEngine, columns, rebuild_factor):
    """Process-pool worker: apply a shard's columns and return the engine."""
    engine.apply_coalesced_batch(
        columns, update_base=False, rebuild_factor=rebuild_factor
    )
    return engine


class ShardedEngine(Observable):
    """Hash-sharded parallel maintenance over per-shard view trees."""

    #: Coordinator exposes publish_epoch / *_snapshot reads (feature
    #: probe for the serving tier's snapshot-read mode).
    supports_snapshots: bool = True

    def __init__(
        self,
        query: Query,
        database: Database,
        shards: int = 2,
        shard_variable: str | None = None,
        order: VariableOrder | None = None,
        lifting: LiftingMap | None = None,
        executor: str = "thread",
        max_workers: int | None = None,
        generated: bool = True,
        ipc: str = "delta",
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if executor not in _EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {_EXECUTORS}"
            )
        if ipc not in _IPC_MODES:
            raise ValueError(
                f"unknown ipc mode {ipc!r}; expected one of {_IPC_MODES}"
            )
        self.query = query
        self.database = database
        self.ring = database.ring
        self.shards = int(shards)
        self.shard_variable = (
            shard_variable
            if shard_variable is not None
            else choose_shard_variable(query)
        )
        self.router = ShardRouter(query, self.shard_variable, self.shards)
        self.order = order if order is not None else order_for(query)
        self.executor = executor
        self.ipc = ipc
        self._max_workers = max_workers
        self._pool = None
        #: Delta-IPC mode: persistent worker processes own the shard
        #: engines; the coordinator keeps no engine replicas and ships
        #: only sub-batch columns out / acks back.  A single shard has
        #: nothing to parallelize — it stays in-process like "serial".
        self._delta_ipc = (
            executor == "process" and ipc == "delta" and self.shards > 1
        )
        self._worker_pool: ShardWorkerPool | None = None
        self._lifting = lifting
        #: Whether the shard engines run generated kernels (shards share
        #: plan shapes, so each shape compiles once per process) or the
        #: generic walk (the oracle).
        self.generated = generated

        #: One recorder per shard, attached from birth (delta mode: the
        #: worker deltas merged_stats/close pulled); merged on demand.
        self.shard_stats = [
            MaintenanceStats(engine=f"ViewTreeEngine/shard{index}")
            for index in range(self.shards)
        ]
        if self._delta_ipc:
            # The shard engines live in the workers (spawned lazily on
            # first use, from the then-current base database).
            self.engines = []
        else:
            # Each shard engine generates its own kernels (their plans
            # reference that shard's leaves and views) and the whole
            # graph stays picklable for the process-pool executor.
            self.engines = [
                ViewTreeEngine(
                    query,
                    database,
                    self.order,
                    lifting=lifting,
                    stats=self.shard_stats[index],
                    leaf_filter=ShardLeafFilter(self.router, index),
                    generated=generated,
                )
                for index in range(self.shards)
            ]
        #: Variables whose subtree joins at least one partitioned leaf;
        #: their per-shard views are disjoint slices (ring-add to merge),
        #: all other views are identical replicas (take any one copy).
        self._partitioned_variables = self._find_partitioned_variables()
        #: Last published coordinator epoch: a tuple of (shard engine,
        #: shard EpochSnapshot) pairs, swapped in one assignment so
        #: merged snapshot reads are cross-shard consistent.  In delta
        #: mode snapshots live worker-side, addressed by epoch number
        #: (``_published_epoch`` is the newest readers may pin).
        self.epoch = 0
        self._epoch_snapshot: tuple | None = None
        self._published_epoch: int | None = None
        #: Coordinator-side change tracker (see :meth:`track_changes`):
        #: folds per-shard output deltas into merged coordinator-epoch
        #: deltas so subscribers patch in O(δ) across all shards.
        self._change_tracker: _ShardChangeTracker | None = None

    # ------------------------------------------------------------------
    # Executor plumbing
    # ------------------------------------------------------------------

    def _ensure_pool(self):
        if self.executor == "serial" or self.shards == 1:
            return None
        if self._pool is None:
            workers = self._max_workers or min(self.shards, os.cpu_count() or 1)
            if self.executor == "thread":
                self._pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-shard"
                )
            else:
                self._pool = ProcessPoolExecutor(max_workers=workers)
        return self._pool

    def _each_engine(self, call, *columns) -> list:
        """``call(engine, *args)`` per local shard engine, ``args`` taken
        from the parallel ``columns``; on the thread pool when there is one."""
        pool = self._ensure_pool() if self.executor == "thread" else None
        if pool is None:
            return [call(*args) for args in zip(self.engines, *columns)]
        futures = [pool.submit(call, *args) for args in zip(self.engines, *columns)]
        return [future.result() for future in futures]

    def _ensure_workers(self) -> ShardWorkerPool:
        """The persistent worker pool, spawned (or rebuilt) on demand.

        Workers build their shard engines from the coordinator's
        *current* base database — also the recovery path: after a
        worker crash the pool is respawned from the committed base
        state, so surviving shards lose nothing.  If an epoch was
        published before the rebuild, it is re-published under the same
        number so pinned snapshot readers keep getting answers (they
        observe the committed base state, which can only be fresher).
        """
        pool = self._worker_pool
        if pool is not None and not pool.broken:
            return pool
        if pool is not None:
            for shard, delta in pool.close():
                self.shard_stats[shard].merge(delta)
            self._worker_pool = None
        specs = [
            ShardWorkerSpec(
                query=self.query,
                database=self.database,
                shard=index,
                router=self.router,
                order=self.order,
                lifting=self._lifting,
                generated=self.generated,
            )
            for index in range(self.shards)
        ]
        pool = ShardWorkerPool(specs)
        self._worker_pool = pool
        stats = self._maintenance_stats
        if stats is not None:
            stats.record_ipc_workers_spawned(pool.size)
            stats.record_ipc_round(
                round_trips=pool.size,
                bytes_sent=pool.spawn_bytes,
                bytes_received=0,
                workers=pool.size,
            )
        if self._published_epoch is not None:
            pool.broadcast(("publish_epoch", self._published_epoch))
        if self._change_tracker is not None:
            # Fresh workers carry no change-tracking state; the next
            # coordinator publish resynchronizes (re-enables tracking,
            # re-pulls shard output states) and resets the delta
            # window, so stale subscribers fall back to a full drain.
            self._change_tracker.mark_stale()
        return pool

    def _absorb(self, replies, wall_s: float, commit: bool = False) -> None:
        """Feed one exchange's bytes and latency into the ``ipc`` block."""
        stats = self._maintenance_stats
        if stats is not None:
            stats.record_ipc_round(
                round_trips=len(replies),
                bytes_sent=sum(reply.bytes_sent for reply in replies),
                bytes_received=sum(reply.bytes_received for reply in replies),
                busy_s=sum(reply.busy for reply in replies),
                wall_s=wall_s,
                workers=self.shards,
                commit=commit,
            )

    def _worker_failed(self) -> None:
        """Count a transport-level worker failure (crash / dead pipe)."""
        pool = self._worker_pool
        stats = self._maintenance_stats
        if pool is not None and pool.broken and stats is not None:
            stats.record_ipc_worker_failure()

    def _pool_round(
        self, commands: list[tuple], commit: bool = False, overlap=None
    ):
        """One command per worker, with failure counting and absorption."""
        pool = self._ensure_workers()
        started = time.perf_counter()
        try:
            replies = pool.round(commands, overlap)
        except ShardWorkerError:
            self._worker_failed()
            raise
        self._absorb(replies, time.perf_counter() - started, commit)
        return replies

    def _pool_broadcast(self, command: tuple, commit: bool = False):
        return self._pool_round([command] * self.shards, commit)

    def _pool_call(self, shard: int, command: tuple, commit: bool = False):
        """One command to one worker, with failure counting/absorption."""
        pool = self._ensure_workers()
        started = time.perf_counter()
        try:
            reply = pool.call(shard, command)
        except ShardWorkerError:
            self._worker_failed()
            raise
        self._absorb([reply], time.perf_counter() - started, commit)
        return reply

    def close(self) -> None:
        """Shut executor and worker pools down (idempotent).

        Worker shutdown ships each worker's final stats delta, so
        :meth:`merged_stats` stays complete after close.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._worker_pool is not None:
            pool, self._worker_pool = self._worker_pool, None
            for shard, delta in pool.close():
                self.shard_stats[shard].merge(delta)

    def __getstate__(self) -> dict:
        # Neither pool survives pickling; a restored engine respawns
        # lazily on first use.
        state = self.__dict__.copy()
        state["_pool"] = None
        state["_worker_pool"] = None
        # Change tracking holds per-shard state keyed to this process's
        # epochs; a restored copy re-enables on demand and stale
        # subscribers full-drain.
        state["_change_tracker"] = None
        return state

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # best-effort; close() is the supported path
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    @observed
    def apply(self, update: Update, update_base: bool = True) -> None:
        """Route one single-tuple update to its owning shard(s)."""
        if self._delta_ipc:
            # Spawn (or rebuild) the workers before the base write: a
            # worker builds its leaves from the parent database as of
            # spawn time, so the update must not be in it yet.
            self._ensure_workers()
        if update_base and update.relation in self.database:
            self.database[update.relation].add(update.key, update.payload)
        owner = self.router.shard_of(update)
        if self._delta_ipc:
            # One pipe round-trip per tuple: correct but slow — batch
            # through apply_batch when throughput matters.  Broadcasts
            # go through the worker protocol too (the old process path
            # silently ran them serially in the coordinator).
            if owner is not None:
                self._pool_call(owner, ("apply", update), commit=True)
            else:
                self._pool_broadcast(("apply", update), commit=True)
            return
        if owner is not None:
            self.engines[owner].apply(update, update_base=False)
        else:  # broadcast: every shard replays the update
            self._each_engine(lambda engine: engine.apply(update, False))

    @observed
    def apply_batch(
        self,
        batch,
        update_base: bool = True,
        rebuild_factor: float | None = None,
    ) -> None:
        """Coalesce once, split the columns by owner, run the shards.

        Ring updates commute, so the batch is summed per key *before*
        it is partitioned: same-key deltas collapse to one tuple
        (cancellations vanish entirely) and everything downstream — the
        router, the wire, the base writes, every shard's batch kernel —
        sees the already-shrunk ``{relation: (keys, payloads)}`` columns
        and never re-coalesces or rebuilds ``Update`` objects.  Each
        shard engine takes its slice through
        :meth:`~repro.viewtree.engine.ViewTreeEngine.apply_coalesced_batch`
        whatever the executor.
        """
        batch = list(batch)
        columns = coalesce(batch, self.ring)
        stats = self._maintenance_stats
        if stats is not None:
            stats.record_batch_coalesce(
                len(batch), sum(len(keys) for keys, _ in columns.values())
            )
        sub_batches = self.router.split(columns)
        if self._delta_ipc:
            # _pool_round spawns (or rebuilds) the workers first — they
            # build their leaves from the base database as of spawn
            # time, so this batch must not be in it yet — and the pool
            # runs the base writes once the sub-batches are on the
            # pipes, overlapping the workers.  They land even when the
            # round fails: the rebuilt pool starts from the base.
            self._pool_round(
                [
                    ("apply_batch", encode_batch(sub.columns, self.ring), rebuild_factor)
                    for sub in sub_batches
                ],
                commit=True,
                overlap=(
                    functools.partial(self._write_base, columns)
                    if update_base
                    else None
                ),
            )
            return
        if update_base:
            self._write_base(columns)
        if self.executor != "process" or self.shards == 1:
            self._each_engine(
                lambda engine, sub: engine.apply_coalesced_batch(
                    sub.columns, False, rebuild_factor
                ),
                sub_batches,
            )
        else:
            pool = self._ensure_pool()
            futures = [
                pool.submit(_apply_shard_batch, engine, sub.columns, rebuild_factor)
                for engine, sub in zip(self.engines, sub_batches)
            ]
            for index, future in enumerate(futures):
                engine = future.result()
                # Adopt the worker's engine (and its recorder): the copy
                # carries the shard's post-batch state.  Re-point its
                # database at the shared one — the worker pickled its own.
                engine.database = self.database
                self.engines[index] = engine
                if engine.stats is not None:
                    self.shard_stats[index] = engine.stats

    def _write_base(self, columns: dict[str, tuple[list, list]]) -> None:
        """One ``add_delta`` per relation of a coalesced batch."""
        database = self.database
        for name, (keys, payloads) in columns.items():
            if name in database:
                database[name].add_delta(zip(keys, payloads))

    def rebuild(self) -> None:
        """Rebuild every shard's views from its leaves."""
        if self._delta_ipc:
            self._pool_broadcast(("rebuild",))
            return
        for engine in self.engines:
            engine.rebuild()

    # ------------------------------------------------------------------
    # Merged output access
    # ------------------------------------------------------------------

    # Reads take a *pin*: ``None`` reads the live state, anything else the
    # published epoch :meth:`_pin` returned — its number in delta mode
    # (workers retain numbered snapshots), its ``(engine, snapshot)``
    # pairs otherwise.

    def _scalar(self, pin=None) -> Any:
        if self._delta_ipc:
            replies = self._pool_broadcast(("scalar", pin))
            payloads = [reply.payload for reply in replies]
        elif pin is None:
            payloads = [engine.scalar() for engine in self.engines]
        else:
            payloads = [engine.scalar_snapshot(snap) for engine, snap in pin]
        total = self.ring.zero
        for payload in payloads:
            total = self.ring.add(total, payload)
        return total

    def scalar(self) -> Any:
        """Boolean-query payload: the ring sum of per-shard scalars."""
        return self._scalar()

    def enumerate(
        self, prebound: dict[str, Any] | None = None
    ) -> Iterator[tuple[tuple, Any]]:
        """Enumerate the merged output (ring-union of shard outputs)."""
        return observed_enumeration(
            self._maintenance_stats, self._enumerate_merged(prebound)
        )

    def _enumerate_merged(
        self, prebound: dict[str, Any] | None = None, pin=None
    ) -> Iterator[tuple[tuple, Any]]:
        if not self.query.head:
            payload = self._scalar(pin)
            if not self.ring.is_zero(payload):
                yield (), payload
            return
        yield from self._merged_output(prebound, pin).data.items()

    def _shard_outputs(self, prebound, pin, observed: bool) -> list:
        """Each shard's output entries, live or at ``pin``.

        ``observed=False`` drains each shard's *unobserved* internal
        iterator — materialization (``output_relation``) and snapshot
        reads are not enumeration requests and must not record phantom
        delay samples into the shard recorders.
        """
        if self._delta_ipc:
            # Workers drain concurrently (commands land before any
            # reply is awaited) and stream their outputs in chunks.
            replies = self._pool_broadcast(("enumerate", prebound, pin, observed))
            return [reply.items or [] for reply in replies]
        if pin is not None:
            return [
                engine._enumerate(prebound, None, epoch=snap)
                for engine, snap in pin
            ]
        if observed:
            return self._each_engine(lambda e: list(e.enumerate(prebound)))
        return self._each_engine(lambda e: list(e._enumerate(prebound)))

    def _merged_output(
        self, prebound: dict[str, Any] | None = None, pin=None,
        observed: bool = True,
    ) -> Relation:
        """Union the shard outputs into one fresh relation."""
        out = Relation(
            f"{self.query.name}_merged", Schema(self.query.head), self.ring
        )
        for entries in self._shard_outputs(prebound, pin, observed):
            for key, payload in entries:
                out.add(key, payload)
        return out

    # ------------------------------------------------------------------
    # Epoch snapshots (cross-shard consistent)
    # ------------------------------------------------------------------

    def publish_epoch(self, record: bool = True) -> tuple:
        """Publish every shard's epoch together as one coordinator epoch.

        Called between batches (all shards at the same committed prefix),
        so the per-shard snapshots are mutually consistent; the single
        tuple assignment makes the combined publish atomic for readers.
        Each element pairs the shard engine with its snapshot — pairing
        them here (rather than zipping against ``self.engines`` at read
        time) keeps snapshot reads correct when the process executor
        adopts replacement engines mid-read.
        """
        if self._delta_ipc:
            # Barrier broadcast: every worker freezes its current state
            # under the next coordinator epoch number.  The number is
            # advanced only after all workers acked, so readers never
            # pin an epoch a worker has not published yet; workers
            # retain the last few numbered snapshots, so a reader
            # pinning N-1 during the publish of N still gets answers.
            replies = self._pool_broadcast(("publish_epoch", self.epoch + 1))
            copied = [reply.payload for reply in replies]
            published = self._published_epoch = self.epoch + 1
        else:
            published = self._epoch_snapshot = tuple(
                (engine, engine.publish_epoch(record=False))
                for engine in self.engines
            )
            copied = [(snap.cow_buckets, snap.cow_tables) for _, snap in published]
        self.epoch += 1
        tracker = self._change_tracker
        delta = tracker.on_publish(self.epoch) if tracker is not None else None
        stats = self._maintenance_stats
        if record and stats is not None:
            stats.record_epoch_publish(
                sum(buckets for buckets, _ in copied),
                sum(tables for _, tables in copied),
                len(delta) if delta is not None else 0,
            )
            if delta is not None:
                stats.record_change_delta(len(delta), tracker.last_bytes)
        return published

    def _pin(self):
        """The published epoch (publishing one first if none exists)."""
        if self._delta_ipc:
            if self._published_epoch is None:
                self.publish_epoch()
            return self._published_epoch
        if self._epoch_snapshot is None:
            self.publish_epoch()
        return self._epoch_snapshot

    def scalar_snapshot(self) -> Any:
        """:meth:`scalar` against the published epoch."""
        return self._scalar(self._pin())

    def enumerate_snapshot(
        self, prebound: dict[str, Any] | None = None
    ) -> Iterator[tuple[tuple, Any]]:
        """Merged :meth:`enumerate` against the published epoch.

        Safe to drive from any thread while shard maintenance runs: each
        shard is drained through its frozen snapshot and the union is
        materialized into a fresh thread-local relation.  The epoch is
        pinned here, at the call, so a read that races the next publish
        stays on its own consistent epoch.
        """
        return observed_enumeration(
            self._maintenance_stats,
            self._enumerate_merged(prebound, self._pin()),
        )

    # ------------------------------------------------------------------
    # Output change streams (merged per-shard deltas)
    # ------------------------------------------------------------------

    @property
    def supports_changes(self) -> bool:
        """Whether per-epoch output change streams are available.

        Mirrors :attr:`ViewTreeEngine.supports_changes`: empty-head
        queries always qualify; otherwise the order must be free-top.
        """
        return not self.query.head or self.order.is_free_top()

    def track_changes(self) -> None:
        """Enable merged per-epoch output delta emission (idempotent).

        Publishes a fresh coordinator epoch as the tracking baseline;
        every subsequent :meth:`publish_epoch` pulls each shard's
        output delta (delta-IPC: the worker ``changes`` command; local
        executors: the shard engine's own change window) and folds them
        — in shard order, mimicking the merged-read ``Relation.add``
        fold exactly — into one coordinator-epoch
        :class:`~repro.viewtree.changes.OutputDelta`.
        """
        if self._change_tracker is not None:
            return
        if not self.supports_changes:
            raise TypeError(
                "change streams require a free-top variable order; "
                f"order for {self.query.name!r} interleaves bound "
                "variables above free ones"
            )
        self._change_tracker = _ShardChangeTracker(self)

    def changes_since(self, epoch: int) -> OutputDelta:
        """The merged output delta from coordinator ``epoch`` to now.

        Raises :class:`~repro.viewtree.changes.EpochGapError` when
        ``epoch`` has left the retained window or the stream was
        interrupted by a worker-pool rebuild — callers must full-drain,
        never patch partially.
        """
        self.track_changes()
        tracker = self._change_tracker
        if tracker.stale or tracker.window.epoch != self.epoch:
            raise EpochGapError(
                "change stream interrupted (worker pool rebuilt, or "
                "tracking enabled after the requested epoch); "
                "a full drain is required"
            )
        return tracker.window.changes_since(epoch)

    def subscribe(self, ratio_threshold: float = 0.5) -> MaterializedView:
        """A reader-side materialization patched in O(δ) per epoch."""
        self.track_changes()
        return MaterializedView(self, ratio_threshold=ratio_threshold)

    def _lookup_owner(self, prebound: dict[str, Any]) -> int | None:
        """The single shard that can own this key, when pinnable."""
        if (
            self.shards > 1
            and self.shard_variable in prebound
            and self.router.partitioned_relations()
        ):
            return stable_hash(prebound[self.shard_variable]) % self.shards
        return None

    def _lookup(self, key: tuple, snapshot: bool) -> Any:
        key = tuple(key)
        head = self.query.head
        if len(key) != len(head):
            raise ValueError(
                f"lookup key {key!r} does not match head {head!r}"
            )
        pin = self._pin() if snapshot else None
        if not head:
            return self._scalar(pin)
        prebound = dict(zip(head, key))
        # A join-output tuple with shard-variable value v can only
        # arise on the shard owning v (disjoint decomposition — see
        # the module docstring), so the others cannot contribute.
        owner = self._lookup_owner(prebound)
        shard_list = range(self.shards) if owner is None else (owner,)
        total = zero = self.ring.zero
        for shard in shard_list:
            if self._delta_ipc:
                command = ("lookup", key, prebound, pin)
                payload = self._pool_call(shard, command).payload
            else:
                if pin is None:
                    entries = self.engines[shard].enumerate(prebound)
                else:
                    engine, snap = pin[shard]
                    entries = engine._enumerate(prebound, None, epoch=snap)
                # A fully-prebound key matches at most one tuple per
                # shard: abandon the iterator on the first match.
                payload = next((p for found, p in entries if found == key), zero)
            total = self.ring.add(total, payload)
        stats = self._maintenance_stats
        if stats is not None:
            stats.record_point_lookup(len(shard_list))
        return total

    def lookup_snapshot(self, key: tuple) -> Any:
        """:meth:`lookup` against the published epoch (same probe savers)."""
        return self._lookup(key, snapshot=True)

    def lookup(self, key: tuple) -> Any:
        """Merged payload of one output tuple (ring zero when absent).

        Every head variable arrives prebound, so each shard answers with
        O(1) guard probes along the free prefix — no full enumeration.
        Two probe savers on top of that:

        * a fully-prebound key identifies at most one output tuple per
          shard, so each shard's iterator is abandoned on first match
          instead of being drained to exhaustion;
        * when the shard variable is itself a head variable (and the
          query has partitioned leaves), the key value pins the one shard
          that can own the tuple — the other shards are never probed.

        ``point_lookups`` / ``lookup_shards_probed`` on an attached
        recorder (plus the shards' ``enum_guard_probes``) make the saved
        probes visible.
        """
        return self._lookup(key, snapshot=False)

    def output_relation(self, name: str | None = None) -> Relation:
        out = self._merged_output(observed=False)
        out.name = name or self.query.name
        return out

    # ------------------------------------------------------------------
    # Merged introspection
    # ------------------------------------------------------------------

    def _find_partitioned_variables(self) -> frozenset[str]:
        partitioned: set[str] = set()

        def visit(var_node) -> bool:
            here = any(
                self.router.is_partitioned(atom.relation)
                for atom in var_node.atoms
            )
            for child in var_node.children:
                here |= visit(child)
            if here:
                partitioned.add(var_node.variable)
            return here

        for root in self.order.roots:
            visit(root)
        return frozenset(partitioned)

    def merged_views(self) -> dict[str, Relation]:
        """Per-node merged view (and guard) contents across all shards.

        Views over partitioned subtrees ring-add their disjoint shard
        slices; views over broadcast-only subtrees are replicas, so shard
        0's copy stands for all.  The result is keyed ``V_<variable>`` /
        ``G_<variable>`` and equals the corresponding relations of an
        unsharded engine fed the same stream.
        """
        merged: dict[str, Relation] = {}
        if self._delta_ipc:
            replies = self._pool_broadcast(("views",))
            for reply in replies:
                for name, variable, schema_vars, items in reply.payload:
                    replicated = variable not in self._partitioned_variables
                    if name not in merged:
                        out = Relation(name, Schema(list(schema_vars)), self.ring)
                        for key, payload in items:
                            out.add(key, payload)
                        merged[name] = out
                    elif not replicated:
                        for key, payload in items:
                            merged[name].add(key, payload)
            return merged
        for shard, engine in enumerate(self.engines):
            for root in engine.roots:
                for node in root.walk():
                    pairs = [(f"V_{node.variable}", node.view)]
                    if node.guard is not None:
                        pairs.append((f"G_{node.variable}", node.guard))
                    for name, relation in pairs:
                        replicated = (
                            node.variable not in self._partitioned_variables
                        )
                        if name not in merged:
                            merged[name] = relation.copy(name)
                        elif not replicated:
                            merged[name].apply(relation)
        return merged

    def total_view_size(self) -> int:
        """Entries across all shards' views, guards, and leaves."""
        if self._delta_ipc:
            replies = self._pool_broadcast(("total_view_size",))
            return sum(reply.payload for reply in replies)
        return sum(engine.total_view_size() for engine in self.engines)

    def describe(self) -> str:
        executor = self.executor
        if self.executor == "process":
            executor = f"process/{self.ipc}"
        lines = [
            f"ShardedEngine: {self.shards} shards on "
            f"{self.shard_variable!r} ({executor})"
        ]
        for name in sorted(self.router.positions):
            mode = (
                f"partitioned@{self.router.positions[name]}"
                if self.router.is_partitioned(name)
                else "broadcast"
            )
            lines.append(f"  {name}: {mode}")
        if self._delta_ipc:
            replies = self._pool_broadcast(("describe",))
            for index, reply in enumerate(replies):
                lines.append(f"shard {index} (worker-resident):")
                lines.extend("  " + line for line in reply.payload.splitlines())
            return "\n".join(lines)
        for index, engine in enumerate(self.engines):
            lines.append(f"shard {index}:")
            lines.extend("  " + line for line in engine.describe().splitlines())
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _propagate_stats(self, stats) -> None:
        # Deliberately do NOT share the coordinator recorder with shard
        # engines: each shard records into its own recorder (associative
        # merge makes that sound), and sharing one recorder across
        # concurrent shard threads would race its histograms.
        return

    def merged_stats(self) -> MaintenanceStats:
        """One recorder: coordinator series + per-shard labelled summaries.

        Delta mode pulls here: commit acks carry no stats, so the
        workers ship what their recorders accumulated since the last
        pull (fresh-recorder swap — pulling twice counts nothing twice)
        and it folds into the per-shard recorders.  Observability is
        paid for when it is read, not on every commit.
        """
        pool = self._worker_pool
        if pool is not None and not pool.broken:
            try:
                replies = self._pool_broadcast(("pull_stats",))
            except ShardWorkerError:
                replies = ()
            started = time.perf_counter()
            for recorder, reply in zip(self.shard_stats, replies):
                recorder.merge(reply.stats)
            if self._maintenance_stats is not None:
                self._maintenance_stats.record_ipc_stats_merge(
                    time.perf_counter() - started
                )
        merged = MaintenanceStats(
            engine=f"ShardedEngine[{self.shards}x{self.shard_variable}]"
        )
        if self._maintenance_stats is not None:
            merged.merge(self._maintenance_stats)
        for index, stats in enumerate(self.shard_stats):
            merged.merge(stats, label=f"shard{index}")
        return merged


class _ShardChangeTracker:
    """Folds per-shard output deltas into merged coordinator deltas.

    Shard outputs are **not** disjoint in general (the shard variable
    need not appear in the head), so a merged payload is the shard-order
    ring fold of the per-shard payloads — exactly what
    ``ShardedEngine._merged_output`` computes by replaying every shard
    entry through ``Relation.add``.  To diff that merge in O(δ) the
    tracker keeps each shard's *absolute* output state in a plain dict
    (seeded from a snapshot enumeration at enable time, then patched by
    the very deltas it pulls), re-folds only the keys named by some
    shard's delta, and emits the keys whose merged payload moved.

    Epoch addressing: per-shard deltas are pulled eagerly at every
    coordinator publish, so the window advances in lockstep with
    ``ShardedEngine.epoch`` and workers are only ever asked for the
    one-epoch step ``(prev, number)`` — comfortably inside the worker's
    ``RETAIN_EPOCHS`` change window.  A worker-pool rebuild (or a
    pickled-engine adoption replacing local shard engines) loses the
    shard-side tracking state; the tracker marks itself stale,
    resynchronizes at the next publish, and resets the window so stale
    subscribers observe :class:`EpochGapError` and full-drain instead
    of patching against a hole.
    """

    __slots__ = (
        "owner", "ring", "window", "shard_states", "last_bytes",
        "stale", "_shard_epochs",
    )

    def __init__(self, owner: ShardedEngine):
        self.owner = owner
        self.ring = owner.ring
        self.last_bytes = 0
        self.stale = False
        self.window: DeltaWindow | None = None
        self.shard_states: list[dict] | None = None
        self._shard_epochs: list[int] | None = None
        if owner._delta_ipc:
            # Enable worker-side tracking first (each worker baselines
            # at a fresh engine epoch), then publish one coordinator
            # epoch so the workers record the coordinator-number ->
            # engine-number mapping, then pull the per-shard output
            # states frozen at that epoch.
            owner._pool_broadcast(("track_changes", None))
        else:
            for engine in owner.engines:
                engine.track_changes()
        self._seed_states(owner.publish_epoch(record=False))
        self.window = DeltaWindow(owner.epoch)

    def _seed_states(self, pin) -> None:
        """Each shard's absolute output state, frozen at ``pin``."""
        owner = self.owner
        self.shard_states = [
            dict(entries) for entries in owner._shard_outputs(None, pin, False)
        ]
        if not owner._delta_ipc:
            self._shard_epochs = [engine.epoch for engine in owner.engines]

    # -- publish hook ---------------------------------------------------

    def mark_stale(self) -> None:
        self.stale = True

    def on_publish(self, number: int) -> OutputDelta | None:
        """Pull, merge, and retain the delta for coordinator ``number``.

        Called from ``ShardedEngine.publish_epoch`` right after the
        epoch advanced.  Returns ``None`` when the stream had to resync
        instead of emitting (stale workers / replaced engines): the
        window restarts at ``number`` and older subscribers full-drain.
        """
        owner = self.owner
        self.last_bytes = 0
        if self.stale:
            self._resync(number)
            return None
        prev = self.window.epoch
        if owner._delta_ipc:
            try:
                replies = owner._pool_broadcast(("changes", prev, number))
            except ShardWorkerError:
                # Transport or protocol failure mid-stream: the publish
                # itself already succeeded, so poison the pool (a remote
                # app error leaves pipes desynchronized) and resync at
                # the next publish.
                pool = owner._worker_pool
                if pool is not None:
                    pool.broken = True
                self.stale = True
                return None
            shard_deltas = [
                decode_delta(reply.payload, self.ring) for reply in replies
            ]
            self.last_bytes = sum(reply.bytes_received for reply in replies)
        else:
            shard_deltas = []
            try:
                for index, engine in enumerate(owner.engines):
                    shard_deltas.append(
                        engine.changes_since(self._shard_epochs[index])
                    )
            except EpochGapError:
                # A replaced engine (pickled-engine executor adoption)
                # lost its tracker; its fresh baseline cannot answer for
                # the old epoch.  Resync from current state.
                self._resync(number)
                return None
            for index, engine in enumerate(owner.engines):
                self._shard_epochs[index] = engine.epoch
        delta = self._merge(prev, number, shard_deltas)
        self.window.append(delta)
        return delta

    def _resync(self, number: int) -> None:
        """Rebuild tracking state at already-published epoch ``number``."""
        owner = self.owner
        if owner._delta_ipc:
            owner._pool_broadcast(("track_changes", number))
            self._seed_states(number)
        else:
            states = []
            epochs = []
            for engine in owner.engines:
                engine.track_changes()
                snap = engine.snapshot()
                states.append(dict(engine._enumerate(None, None, epoch=snap)))
                epochs.append(engine.epoch)
            self.shard_states = states
            self._shard_epochs = epochs
        self.window.reset(number)
        self.stale = False

    # -- merging --------------------------------------------------------

    def _fold(self, key: tuple) -> Any:
        """The merged payload for ``key``: shard-order ``Relation.add``.

        ``None`` encodes "absent from the merged output" — per-shard
        states never store ring zeros, and an intermediate fold hitting
        the ring zero deletes the entry exactly as ``Relation.add``
        would, so the result is bit-identical to a merged full drain.
        """
        ring = self.ring
        acc = None
        for state in self.shard_states:
            payload = state.get(key)
            if payload is None:
                continue
            if acc is None:
                acc = payload
            else:
                acc = ring.add(acc, payload)
                if ring.is_zero(acc):
                    acc = None
        return acc

    def _merge(self, prev: int, number: int, shard_deltas) -> OutputDelta:
        touched = set()
        for delta in shard_deltas:
            for key, _old, _new in delta:
                touched.add(key)
        olds = {key: self._fold(key) for key in touched}
        for state, delta in zip(self.shard_states, shard_deltas):
            delta.apply_to(state)
        entries = []
        for key in touched:
            old = olds[key]
            new = self._fold(key)
            if old != new:
                entries.append((key, old, new))
        return OutputDelta(prev, number, entries)
