"""Sharded parallel view-tree maintenance: the coordinator is shard 0.

:class:`ShardedEngine` runs one :class:`~repro.shard.worker.ShardRuntime`
(a :class:`~repro.viewtree.engine.ViewTreeEngine` plus numbered epoch
snapshots) per hash shard of a chosen shard variable, all over the same
variable order.  Each shard's engine runs over its own slice of the
base and writes it; the :class:`~repro.shard.router.ShardRouter` cuts
the slices and routes updates (owned updates to one shard, broadcast
updates to all).

Why merging is exact (not approximate): the shard variable lives in one
connected component of the query, and every atom binding it partitions
by its value.  A join-output tuple with shard-variable value ``v`` can
therefore only arise on the shard owning ``v`` — shards maintain a
*disjoint* decomposition of every view whose subtree touches a
partitioned leaf, while views over broadcast-only subtrees are identical
replicas.  Ring-adding shard outputs (payload union for enumeration,
ring sum for scalars) reconstructs the unsharded result exactly; the
differential shard-invariance tests assert bit-identical contents
against the unsharded engine and ``repro.naive``.

Where the shards live — one shape, two executors:

* ``"serial"`` (default) — all N runtimes live in the coordinator and
  run one after another.  No processes, no parallelism; what shards buy
  here is smaller per-shard views.  Also the differential oracle for
  the process executor.
* ``"process"`` — the coordinator hosts shard 0 and spawns **N−1**
  persistent worker processes (:mod:`repro.shard.worker`) for shards
  1..N−1, so an N-shard engine is N busy processes, not N+1.  Each
  worker is spawned once, builds its runtime from a small pickled spec,
  and keeps all view state resident.

Both are the same code: every operation is one command per shard
(:meth:`ShardedEngine._round`) or one command to the owner
(:meth:`ShardedEngine._call`).  Commands for remote shards go onto the
pipes first; the coordinator then does its own share — the base writes
and shard 0's command, on un-encoded columns — in the slot before it
reads the replies, so its work overlaps the workers'.  Under ``serial``
the slot is all there is.  An owner-routed ``lookup``/``apply`` whose
owner is shard 0 never touches a pipe.  The write path is columnar end
to end (see :meth:`ShardedEngine.apply_batch`): IPC cost scales with
the batch, never with accumulated view state.

What the base copy is for: the coordinator's ``database`` is the one
authoritative copy of every input tuple; shards and their slices are
*derived* state.  They are cut from it on first use, again after a worker
crash (the pool only — shard 0 keeps its state) or after a commit that
failed inside the coordinator (every shard: nobody can vouch for a
half-applied batch), and again when a pickled engine is restored.  An
epoch published before a rebuild is re-published under the same
number, so pinned snapshot readers keep getting answers.  It also
answers live lookups on queries without bound variables.

When to shard: README.md ("Sharded execution") has the measured row
against the unsharded engine.  A 2-shard ``process`` engine is two
processes for two cores; a routed lookup owned by a worker still costs
a pipe round-trip.

Observability: every shard records into its own
:class:`~repro.obs.MaintenanceStats` (recorders merge associatively —
that is what makes per-shard recording sound).  Coordinator-hosted
shards write ``shard_stats[i]`` live; worker shards accumulate remotely
and ship the delta only when :meth:`merged_stats` (or ``close``) pulls,
so their ``shard_stats`` entries are current only after a pull.  The
coordinator's own recorder — attached via ``attach_stats`` like any
other engine — captures logical update latency, the one coalescing
pass, the ``ipc`` block, and merged enumeration delay.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Iterator

from ..backend import Backend, NotSupported

# ``coalesce`` is this module's name for the one coalescing pass of the
# write path (benchmarks/e2e wraps it by that dotted name).
from ..data.columnar import coalesce_columnar as coalesce
from ..data.database import Database
from ..data.relation import Relation, claim_writer, release_writer
from ..data.schema import Schema
from ..data.update import Update
from ..obs import MaintenanceStats, observed, observed_enumeration
from ..query.ast import Query
from ..query.variable_order import VariableOrder, order_for
from ..rings.lifting import LiftingMap
from ..viewtree.changes import EpochGapError, MaterializedView, OutputDelta
from ..viewtree.codegen import LookupKernel
from ..viewtree.engine import ViewTreeEngine, rejected
from .changes import ShardChangeTracker
from .router import ShardRouter, choose_shard_variable, stable_hash
from .worker import (
    ShardRuntime,
    ShardWorkerError,
    ShardWorkerPool,
    ShardWorkerSpec,
)

_EXECUTORS = ("serial", "process")


def encode_batch(columns: dict) -> dict:
    # Converts nothing; kept so the e2e trace's shard.encode span resolves.
    return columns


class ShardedEngine(Backend):
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
        executor: str = "serial",
        generated: bool = True,
        ipc: str = "delta",  # the only wire protocol; benchmarks/e2e still names it
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if executor not in _EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {_EXECUTORS}"
            )
        if ipc != "delta":
            raise ValueError(f"unknown ipc mode {ipc!r}; expected 'delta'")
        self.query = query
        self.database = database
        self.ring = database.ring
        self.shards = int(shards)
        self.shard_variable = shard_variable or choose_shard_variable(query)
        self.router = ShardRouter(query, self.shard_variable, self.shards)
        self.order = order if order is not None else order_for(query)
        self.executor = executor
        self._lifting = lifting
        #: Relations that take updates, and those this engine claimed as
        #: their one writer (:meth:`_admit`).
        self._dynamic = frozenset(a.relation for a in query.dynamic_atoms)
        self._written: set[str] = set()
        #: Whether the shard engines run generated kernels (shards share
        #: plan shapes, so each shape compiles once per process) or the
        #: generic walk (the oracle).
        self.generated = generated
        #: Shards ``[0, _local)`` are hosted here, the rest by workers.
        self._local = 1 if executor == "process" else self.shards
        #: Built lazily, from the then-current base database, and again
        #: whenever :meth:`_ensure` finds them missing or broken.
        self._runtimes: list[ShardRuntime] | None = None
        self._pool: ShardWorkerPool | None = None
        self._build_lock = threading.Lock()
        #: One recorder per shard: live for coordinator-hosted shards,
        #: what merged_stats/close pulled for worker shards.
        self.shard_stats = [
            MaintenanceStats(engine=f"ViewTreeEngine/shard{index}")
            for index in range(self.shards)
        ]
        #: Variables whose subtree joins at least one partitioned leaf;
        #: their per-shard views are disjoint slices (ring-add to merge),
        #: all other views are identical replicas (take any one copy).
        self._partitioned_variables = self._find_partitioned_variables()
        #: An output tuple carries the shard variable and needs a tuple
        #: of a partitioned leaf, which only that value's owner holds:
        #: shard outputs are disjoint and a key pins its one owner.
        self._disjoint_outputs = self.shard_variable in query.head and bool(
            self.router.partitioned_relations()
        )
        #: Last published coordinator epoch (0: none yet).  Snapshots
        #: live shard-side, addressed by this number; it advances only
        #: after every shard acked, so readers never pin an epoch some
        #: shard has not published.
        self.epoch = 0
        #: Generated lookup over the base (see :meth:`lookup`), probing as
        #: the shard engines' own plans do; None: lookups route.
        self._base_lookup = None
        if generated and query.head and not query.bound_variables:
            factors = tuple(
                tuple(
                    (database[a.relation], tuple(map(query.head.index, a.variables)))
                    for a in node.atoms
                )
                for node in self.order.walk()
                if node.atoms
            )
            self._base_lookup = LookupKernel(factors, self.ring, query.head)
        #: Coordinator-side change tracker (see :meth:`track_changes`):
        #: folds per-shard output deltas into merged coordinator-epoch
        #: deltas so subscribers patch in O(δ) across all shards.
        self._change_tracker: ShardChangeTracker | None = None
        #: Set by close(): every later call that reaches a shard raises.
        self._closed = False

    # ------------------------------------------------------------------
    # Shard plumbing: local runtimes + a pool for the rest
    # ------------------------------------------------------------------

    def _ensure(self) -> tuple[list[ShardRuntime], ShardWorkerPool | None]:
        """The local runtimes and the worker pool, (re)built on demand."""
        self._check_open()
        runtimes, pool = self._runtimes, self._pool
        if runtimes is None or (
            self._local < self.shards and (pool is None or pool.broken)
        ):
            with self._build_lock:
                return self._build()
        return runtimes, pool

    def _spec(self, index: int, slices: list[Database]) -> ShardWorkerSpec:
        return ShardWorkerSpec(
            query=self.query,
            database=slices[index],
            shard=index,
            order=self.order,
            lifting=self._lifting,
            generated=self.generated,
        )

    def _build(self) -> tuple[list[ShardRuntime], ShardWorkerPool | None]:
        """Build whatever is missing from the *current* base database.

        Also the recovery path: after a worker crash the pool is
        respawned from the committed base state while shard 0 keeps its
        own, and after a failed local commit every shard is.  Whatever
        is rebuilt re-publishes the current epoch under its number so
        pinned snapshot readers keep getting answers (they observe the
        committed base state, which can only be fresher).
        """
        runtimes, pool = self._runtimes, self._pool
        republish = ("publish_epoch", self.epoch) if self.epoch else None
        rebuilt = False
        slices = self.router.slices(self.database)
        # Workers fork before the local engines exist, so a first build
        # hands them none of shard 0's views.
        if self._local < self.shards and (pool is None or pool.broken):
            if pool is not None:
                self._close_pool(pool)
            pool = self._pool = ShardWorkerPool(
                [self._spec(index, slices) for index in range(self._local, self.shards)]
            )
            stats = self._maintenance_stats
            if stats is not None:
                stats.record_ipc_workers_spawned(pool.size)
                stats.record_ipc_round(
                    round_trips=pool.size,
                    bytes_sent=pool.spawn_bytes,
                    bytes_received=0,
                    workers=pool.size,
                )
            if republish is not None:
                pool.broadcast(republish)
            rebuilt = True
        if runtimes is None:
            runtimes = [
                ShardRuntime(self._spec(index, slices), self.shard_stats[index])
                for index in range(self._local)
            ]
            if republish is not None:
                for runtime in runtimes:
                    runtime.handle(republish)
            self._runtimes = runtimes
            rebuilt = True
        if rebuilt and self._change_tracker is not None:
            # Fresh shards carry no change-tracking state; the next
            # coordinator publish resynchronizes (re-enables tracking,
            # re-pulls shard output states) and resets the delta
            # window, so stale subscribers fall back to a full drain.
            self._change_tracker.stale = True
        return runtimes, pool

    @property
    def engines(self) -> list[ViewTreeEngine]:
        """The coordinator-hosted shard engines (introspection only)."""
        return [runtime.engine for runtime in self._ensure()[0]]

    def _absorb(self, replies, wall_s: float, commit: bool) -> None:
        """Feed one pipe exchange's bytes and latency into the ``ipc`` block."""
        stats = self._maintenance_stats
        if stats is not None:
            stats.record_ipc_round(
                round_trips=len(replies),
                bytes_sent=sum(reply.bytes_sent for reply in replies),
                bytes_received=sum(reply.bytes_received for reply in replies),
                busy_s=sum(reply.busy for reply in replies),
                wall_s=wall_s,
                workers=self.shards - self._local,
                commit=commit,
            )

    def _failed(self, exc: BaseException, commit: bool) -> None:
        """Decide what a failed exchange leaves standing.

        A failed *commit* leaves state nobody can vouch for: a worker's
        failure condemns the pool (shard 0 applied its slice and the
        base writes landed, so it keeps its state), anything raised in
        the coordinator condemns every shard.  :meth:`_ensure` rebuilds
        the condemned from the base.  A failed read condemns nothing
        beyond what the transport already marked broken.
        """
        pool = self._pool
        remote = isinstance(exc, ShardWorkerError)
        if commit:
            if not remote:
                self._runtimes = None
            if pool is not None:
                pool.broken = True
        stats = self._maintenance_stats
        if remote and pool.broken and stats is not None:
            stats.record_ipc_worker_failure()

    def _round(self, commands: list[tuple], commit: bool = False, before=None):
        """One command per shard; replies in shard order.

        Remote commands go onto the pipes first; ``before`` (the base
        writes) and the local shards' commands run in the slot before
        any reply is read, overlapping the workers.
        """
        runtimes, pool = self._ensure()
        replies: list = []

        def slot() -> None:
            if before is not None:
                before()
            for runtime, command in zip(runtimes, commands):
                replies.append(runtime.call(command))

        try:
            if pool is None:
                slot()
                return replies
            started = time.perf_counter()
            remote = pool.round(commands[len(runtimes):], slot)
        except BaseException as exc:
            self._failed(exc, commit)
            raise
        self._absorb(remote, time.perf_counter() - started, commit)
        return replies + remote

    def _broadcast(self, command: tuple):
        return self._round([command] * self.shards)

    def _call(self, shard: int, command: tuple, commit: bool = False):
        """One command to one shard — no pipe when the coordinator hosts it."""
        runtimes, pool = self._ensure()
        try:
            if shard < len(runtimes):
                return runtimes[shard].call(command)
            started = time.perf_counter()
            reply = pool.call(shard - len(runtimes), command)
        except BaseException as exc:
            self._failed(exc, commit)
            raise
        self._absorb([reply], time.perf_counter() - started, commit)
        return reply

    def _close_pool(self, pool: ShardWorkerPool) -> None:
        """Shut ``pool`` down, keeping each worker's final stats delta."""
        for shard, delta in pool.close():
            self.shard_stats[shard].merge(delta)

    def close(self) -> None:
        """Release every shard (idempotent).

        Shuts the worker pool down, closes the coordinator-hosted shards
        (engine and slice, :meth:`ShardRuntime.close`) and releases this
        engine's writer claims; the base keeps its contents.
        Worker shutdown ships each worker's final stats delta, so
        :meth:`merged_stats` stays complete after close.  Every later
        call that reaches a shard, or the base, raises ``RuntimeError``.
        """
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            self._close_pool(pool)
        runtimes, self._runtimes = self._runtimes, None
        for runtime in runtimes or ():
            runtime.close()
        self._change_tracker = None
        release_writer((self.database[name] for name in self._written), self)
        self._written = set()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                f"the sharded engine of query {self.query.name!r} is closed"
            )

    def __getstate__(self) -> dict:
        # Shards are derived state: a restored engine rebuilds all of
        # them — shard 0 like the workers — from its base database on
        # first use.
        state = self.__dict__.copy()
        state["_runtimes"] = None
        state["_pool"] = None
        del state["_build_lock"]
        # Change tracking holds per-shard state keyed to this process's
        # epochs; a restored copy re-enables on demand and stale
        # subscribers full-drain.
        state["_change_tracker"] = None
        # A claim is a weak reference and does not pickle: the restored
        # engine claims its bases again on first write.
        state["_written"] = set()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._build_lock = threading.Lock()

    def __del__(self):  # best-effort; close() is the supported path
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def _admit(self, names) -> None:
        """Reject what :class:`ViewTreeEngine` rejects, and claim the base
        relations about to be written, before any write: an update to a
        static relation or one outside the query, and a relation another
        live engine writes (:class:`~repro.data.relation.SharedBaseError`)."""
        self._check_open()
        for name in names:
            if name not in self._dynamic:
                raise rejected(self.query, name)
        if not self._written.issuperset(names):
            claim_writer((self.database[name] for name in names), self)
            self._written.update(names)

    @observed
    def apply(self, update: Update) -> None:
        """Route one single-tuple update to its owning shard(s)."""
        self._admit((update.relation,))
        # Build (or rebuild) the shards before the base write: a shard's
        # slice is cut from the base as of build time, so the update
        # must not be in it yet.
        self._ensure()
        self.database[update.relation].add(update.key, update.payload)
        owner = self.router.shard_of(update)
        # A worker-owned tuple costs one pipe round-trip: correct but
        # slow — batch through apply_batch when throughput matters.
        if owner is not None:
            self._call(owner, ("apply", update), commit=True)
        else:  # broadcast: every shard replays the update
            self._round([("apply", update)] * self.shards, commit=True)

    @observed
    def apply_batch(self, batch) -> None:
        """Coalesce once, split the columns by owner, run the shards.

        Ring updates commute, so the batch is summed per key *before*
        it is partitioned: same-key deltas collapse to one tuple
        (cancellations vanish entirely) and everything downstream — the
        router, the wire, the base writes, every shard's batch kernel —
        sees the already-shrunk ``{relation: (keys, payloads)}`` columns
        and never re-coalesces or rebuilds ``Update`` objects.  Every
        shard gets the same ``apply_batch`` command; worker slices are
        sent first, and the base writes and the local shards' slices run
        while the workers do theirs.
        The base writes land even when the round fails: whatever is
        rebuilt starts from the base.
        """
        batch = list(batch)
        columns = coalesce(batch, self.ring)
        self._admit(columns)
        stats = self._maintenance_stats
        if stats is not None:
            stats.record_batch_coalesce(
                len(batch), sum(len(keys) for keys, _ in columns.values())
            )
        subs = self.router.split(columns)
        local = self._local
        commands = [("apply_batch", sub.columns) for sub in subs[:local]] + [
            ("apply_batch", encode_batch(sub.columns)) for sub in subs[local:]
        ]
        self._round(commands, True, functools.partial(self._write_base, columns))

    def _write_base(self, columns: dict[str, tuple[list, list]]) -> None:
        """One ``add_delta`` per relation of a coalesced batch."""
        database = self.database
        for name, (keys, payloads) in columns.items():
            database[name].add_delta(zip(keys, payloads))

    # ------------------------------------------------------------------
    # Merged output access
    # ------------------------------------------------------------------

    # Reads take a *pin*: ``None`` reads the live state, a number the
    # published coordinator epoch of that number (shards retain their
    # last few numbered snapshots).

    def _scalar(self, pin: int | None = None) -> Any:
        total = self.ring.zero
        for reply in self._broadcast(("scalar", pin)):
            total = self.ring.add(total, reply.payload)
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
        self, prebound: dict[str, Any] | None = None, pin: int | None = None
    ) -> Iterator[tuple[tuple, Any]]:
        if not self.query.head:
            payload = self._scalar(pin)
            if not self.ring.is_zero(payload):
                yield (), payload
        elif self._disjoint_outputs:
            for entries in self._shard_outputs(prebound, pin, True):
                yield from entries
        else:
            yield from self._merged_output(prebound, pin).data.items()

    def _shard_outputs(self, prebound, pin, observed: bool) -> list:
        """Each shard's output entries, live or at ``pin``.

        Workers drain concurrently with the local shards and stream
        their outputs in chunks.  ``observed=False`` drains each shard's
        *unobserved* internal iterator — materialization
        (``output_relation``) and snapshot reads are not enumeration
        requests and must not record phantom delay samples into the
        shard recorders.
        """
        replies = self._broadcast(("enumerate", prebound, pin, observed))
        return [reply.items or [] for reply in replies]

    def _merged_output(self, prebound=None, pin=None, observed=True) -> Relation:
        """Union the shard outputs into one fresh relation."""
        out = Relation(
            f"{self.query.name}_merged", Schema(self.query.head), self.ring
        )
        outputs = self._shard_outputs(prebound, pin, observed)
        if self._disjoint_outputs:
            # No key occurs on two shards: nothing to ring-fold.
            for entries in outputs:
                out.data.update(entries)
        else:
            for entries in outputs:
                for key, payload in entries:
                    out.add(key, payload)
        return out

    # ------------------------------------------------------------------
    # Epoch snapshots (cross-shard consistent)
    # ------------------------------------------------------------------

    def publish_epoch(self, record: bool = True) -> int:
        """Publish every shard's epoch together as one coordinator epoch.

        Called between batches (all shards at the same committed
        prefix), so the per-shard snapshots are mutually consistent.
        A barrier round: every shard freezes its current state under the
        next coordinator epoch number, and the number advances only
        after all of them acked; shards retain the last few numbered
        snapshots, so a reader pinning N-1 during the publish of N still
        gets answers.  Returns the published number.
        """
        number = self.epoch + 1
        replies = self._broadcast(("publish_epoch", number))
        self.epoch = number
        tracker = self._change_tracker
        delta = tracker.on_publish(number) if tracker is not None else None
        stats = self._maintenance_stats
        if record and stats is not None:
            stats.record_epoch_publish(
                sum(reply.payload[0] for reply in replies),
                delta_tuples=len(delta) if delta is not None else 0,
                undo_entries=sum(reply.payload[1] for reply in replies),
            )
            if delta is not None:
                stats.record_change_delta(len(delta), tracker.last_bytes)
        return number

    def _pin(self) -> int:
        """The published epoch (publishing one first if none exists)."""
        return self.epoch or self.publish_epoch()

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
        output delta (the ``changes`` command) and folds them — in shard
        order, mimicking the merged-read ``Relation.add`` fold exactly —
        into one coordinator-epoch
        :class:`~repro.viewtree.changes.OutputDelta`.
        """
        if self._change_tracker is not None:
            return
        if not self.supports_changes:
            raise NotSupported(
                "change streams require a free-top variable order; "
                f"order for {self.query.name!r} interleaves bound "
                "variables above free ones"
            )
        self._change_tracker = ShardChangeTracker(self)

    def changes_since(self, epoch: int) -> OutputDelta:
        """The merged output delta from coordinator ``epoch`` to now.

        Raises :class:`~repro.viewtree.changes.EpochGapError` when
        ``epoch`` has left the retained window or the stream was
        interrupted by a shard rebuild — callers must full-drain, never
        patch partially.
        """
        return self._change_window().changes_since(epoch)

    def deltas_since(self, epoch: int) -> list[OutputDelta]:
        """:meth:`changes_since`'s per-epoch deltas, uncomposed, in order."""
        return self._change_window().deltas_since(epoch)

    def _change_window(self):
        """The merged window; :class:`EpochGapError` while interrupted."""
        self.track_changes()
        tracker = self._change_tracker
        if tracker.stale or tracker.window.epoch != self.epoch:
            raise EpochGapError(
                "change stream interrupted (shards rebuilt, or "
                "tracking enabled after the requested epoch); "
                "a full drain is required"
            )
        return tracker.window

    def hold_changes(self, subscriber: Any, epoch: int, budget: float) -> None:
        """Retain the merged deltas after coordinator ``epoch`` for
        ``subscriber`` (held weakly) while their entries sum to at most
        ``budget`` (:meth:`~repro.viewtree.changes.DeltaWindow.hold`)."""
        self.track_changes()
        self._change_tracker.window.hold(subscriber, epoch, budget)

    def subscribe(self, ratio_threshold: float = 0.5) -> MaterializedView:
        """A reader-side materialization patched in O(δ) per epoch."""
        self.track_changes()
        return MaterializedView(self, ratio_threshold=ratio_threshold)

    def _lookup(self, key: tuple, snapshot: bool) -> Any:
        if self._base_lookup is not None and not snapshot:
            self._check_open()
            result = self._base_lookup.lookup(key)  # it checks the arity
            stats = self._maintenance_stats
            if stats is not None:
                stats.record_point_lookup(0)
            return result
        key = tuple(key)
        head = self.query.head
        if len(key) != len(head):
            raise ValueError(
                f"lookup key {key!r} does not match head {head!r}"
            )
        if not head:
            return self._scalar(self._pin() if snapshot else None)
        command = ("lookup", key, self._pin() if snapshot else None)
        if self._disjoint_outputs and self.shards > 1:
            # The key's shard-variable value pins the one shard that can
            # own the tuple; the others cannot contribute.
            owner = stable_hash(key[head.index(self.shard_variable)]) % self.shards
            replies = [self._call(owner, command)]
        else:
            replies = self._broadcast(command)
        total = self.ring.zero
        for reply in replies:
            total = self.ring.add(total, reply.payload)
        return total

    def lookup_snapshot(self, key: tuple) -> Any:
        """:meth:`lookup` at the published epoch; routed (the base keeps no versions)."""
        return self._lookup(key, snapshot=True)

    def lookup(self, key: tuple) -> Any:
        """Merged payload of one output tuple (ring zero when absent).

        On a query with no bound variable every probe is a base relation,
        and the base is authoritative after every commit: the coordinator
        multiplies the probes itself, touching no shard and no pipe, and
        records one ``point_lookups`` with 0 shards probed.  Otherwise
        the owner shard answers (no pipe when it is shard 0) when the
        shard variable is a head variable, else every shard, ring-added;
        each records its own point lookup, rolled up by
        :meth:`merged_stats`.
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
        0's copy stands for all.  A guard is a support (``one`` per
        member), so its slices merge as a union.  A derived view answers
        from its shard's index like a written one.  The result is keyed
        ``V_<variable>`` / ``G_<variable>`` and equals the corresponding
        relations of an unsharded engine fed the same stream.
        """
        merged: dict[str, Relation] = {}
        for reply in self._broadcast(("views",)):
            for name, variable, schema_vars, items in reply.payload:
                if name not in merged:
                    merged[name] = Relation(name, Schema(list(schema_vars)), self.ring)
                elif variable not in self._partitioned_variables:
                    continue
                target = merged[name]
                for key, payload in items:
                    if not name.startswith("G_"):
                        target.add(key, payload)
                    elif key not in target.data:
                        target.data[key] = payload
        return merged

    def total_view_size(self) -> int:
        """Entries across all shards' views, guards, and leaves."""
        replies = self._broadcast(("total_view_size",))
        return sum(reply.payload for reply in replies)

    def describe(self) -> str:
        lines = [
            f"ShardedEngine: {self.shards} shards on "
            f"{self.shard_variable!r} ({self.executor})"
        ]
        for name in sorted(self.router.positions):
            mode = (
                f"partitioned@{self.router.positions[name]}"
                if self.router.is_partitioned(name)
                else "broadcast"
            )
            lines.append(f"  {name}: {mode}")
        routed = self._disjoint_outputs and self.shards > 1
        lines.append("lookups: " + (
            "coordinator base" if self._base_lookup is not None
            else "routed to owner" if routed else "every shard"
        ))
        for index, reply in enumerate(self._broadcast(("describe",))):
            where = "" if index < self._local else " (worker-resident)"
            lines.append(f"shard {index}{where}:")
            lines.extend("  " + line for line in reply.payload.splitlines())
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _propagate_stats(self, stats) -> None:
        # Deliberately do NOT share the coordinator recorder with shard
        # engines: each shard records into its own recorder (associative
        # merge makes that sound), and one recorder shared with a worker
        # process would be a copy nobody reads.
        return

    def merged_stats(self) -> MaintenanceStats:
        """One recorder: coordinator series + per-shard labelled summaries.

        Pulls from the workers: commit acks carry no stats, so they
        ship what their recorders accumulated since the last pull
        (fresh-recorder swap — pulling twice counts nothing twice) and
        it folds into their ``shard_stats`` entries; the
        coordinator-hosted shards' entries are live already.
        Observability is paid for when it is read, not on every commit.
        """
        pool = self._pool
        if pool is not None and not pool.broken:
            started = time.perf_counter()
            try:
                replies = pool.broadcast(("pull_stats",))
            except ShardWorkerError as exc:
                self._failed(exc, commit=False)
                replies = []
            else:
                self._absorb(replies, time.perf_counter() - started, False)
            started = time.perf_counter()
            for recorder, reply in zip(self.shard_stats[self._local:], replies):
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
