"""The asyncio serving front-end: concurrent writers, group commits.

:class:`AsyncIVMServer` wraps a :class:`~repro.backend.Backend` (the
:class:`~repro.core.engine.IVMEngine` facade or a backend directly).
Concurrent writer tasks ``await server.submit(update)``; a single
committer task seals adaptive group commits off a
:class:`~repro.serve.batcher.GroupCommitQueue`, which holds at most the
next batch while one commits: writers and commits share one interpreter
lock, so a deeper queue adds no throughput, only delay before an update
is visible.

The engine alone decides how reads see commits.  An engine with epoch
snapshots (``supports_snapshots``) publishes a new epoch after each
commit, and ``lookup`` / ``enumerate`` / ``scalar`` answer from the
last *published* epoch, so readers never block commits and commits
never block readers.  A size-sealed batch means the server is
saturated: it commits on a worker thread so the loop keeps accepting
submissions and answering reads.  A batch sealed by its deadline or at
shutdown commits inline, on the event loop that sat idle waiting for
it.  Behind a process-sharded engine an inline commit holds the loop
for a worker round trip.

An engine without snapshots commits every batch on the event loop, and
reads answer from its live state.  Reads run on the same loop, so they
always fall between two commits; the committer yields once between
back-to-back commits so a waiting read gets in after the next one.

Either way each ``lookup`` and ``scalar`` records its *staleness*: the
age of the oldest update that had been submitted but not yet visible to
the read (under snapshot reads this is the age of the published epoch's
missing suffix — queued updates plus the batch currently committing).
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Iterable

from ..obs import MaintenanceStats, Observable
from ..obs.instrument import share_stats
from ..viewtree.changes import EpochGapError, OutputDelta
from .batcher import GroupCommitQueue, QueueClosed

#: Terminal sentinel pushed into every change feed at server stop.
_FEED_CLOSED = object()


class ChangeFeed:
    """An async iterator of per-epoch :class:`OutputDelta` objects.

    Obtained from :meth:`AsyncIVMServer.subscribe`.  Each committed
    batch that publishes an epoch pushes exactly one delta; iterate
    with ``async for delta in feed``.  A feed starts at the epoch
    current when it subscribed — seed an absolute state with
    ``await server.enumerate()`` first, then apply deltas.  If the
    stream gaps (e.g. a shard worker-pool rebuild reset the change
    window), the iterator raises :class:`EpochGapError`: re-seed with a
    full ``enumerate()`` and keep iterating.  The feed ends
    (``StopAsyncIteration``) when the server stops.
    """

    def __init__(self, server: "AsyncIVMServer"):
        self._server = server
        self._queue: asyncio.Queue = asyncio.Queue()

    def __aiter__(self) -> "ChangeFeed":
        return self

    async def __anext__(self) -> OutputDelta:
        item = await self._queue.get()
        if item is _FEED_CLOSED:
            raise StopAsyncIteration
        if isinstance(item, BaseException):
            raise item
        return item

    def close(self) -> None:
        """Unsubscribe; pending deltas are dropped."""
        self._server._feeds.discard(self)
        self._queue.put_nowait(_FEED_CLOSED)


class AsyncIVMServer(Observable):
    """Async ingestion + point-read server over a maintenance engine.

    Parameters
    ----------
    engine:
        A :class:`~repro.backend.Backend` (the
        :class:`~repro.core.engine.IVMEngine` facade or a backend
        directly); the server reads its declared surface —
        ``supports_snapshots``, ``supports_changes`` and ``backend`` —
        instead of probing for methods.
    max_batch:
        Size trigger — a commit seals as soon as this many updates are
        pending — and the queue bound: ``submit`` awaits while a full
        batch waits to be sealed (backpressure).  ``1`` degenerates to
        per-update commits.
    max_delay:
        Latency trigger in seconds — a commit seals once its oldest
        update has waited this long, even if the batch is short.

    Use as an async context manager, or call :meth:`start` /
    :meth:`stop` explicitly.  On an engine with snapshots, size-sealed
    commits run on a worker thread and the others on the loop; on an
    engine without, every commit runs on the loop.  An exception raised
    by a commit is captured and re-raised from the next ``submit`` /
    ``drain`` / ``lookup`` / ``stop`` call.
    """

    def __init__(
        self,
        engine: Any,
        *,
        max_batch: int = 256,
        max_delay: float = 0.002,
        stats: MaintenanceStats | None = None,
    ):
        if max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        self.engine = engine
        self.queue = GroupCommitQueue(max_batch)
        self.max_delay = max_delay
        #: Reads answer from published epochs, not the live state: the
        #: engine's ``supports_snapshots``, never a choice.
        self.snapshot_reads = bool(engine.supports_snapshots)
        self._inflight_oldest: float | None = None
        self._idle = asyncio.Event()
        self._idle.set()
        self._committer: asyncio.Task | None = None
        self._error: BaseException | None = None
        self._closed = False
        #: Server-held MaterializedView: when the engine emits change
        #: streams, ``enumerate`` answers from this state, patched from
        #: the deltas its cursor holds, instead of re-draining the whole
        #: epoch per call.
        self._matview = None
        #: The engine object carrying ``epoch``/``changes_since`` (the
        #: facade's backend), feeding change feeds from commits.
        self._change_source = None
        self._feed_epoch = 0
        self._feeds: set[ChangeFeed] = set()
        if stats is not None:
            self.attach_stats(stats)

    def _propagate_stats(self, stats: MaintenanceStats | None) -> None:
        share_stats(self.engine, stats)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "AsyncIVMServer":
        """Spawn the committer task (idempotent)."""
        if self._closed:
            raise RuntimeError("server already stopped")
        if self._committer is None:
            if self.snapshot_reads:
                # Publish the pre-ingestion state so reads served before
                # the first commit already see a consistent epoch.
                self.engine.publish_epoch()
                if self.engine.supports_changes:
                    # Maintained read state + change-feed plumbing: the
                    # subscription publishes its tracking baseline now,
                    # before any commit is in flight.
                    self._matview = self.engine.subscribe()
                    self._change_source = self.engine.backend
                    self._feed_epoch = self._change_source.epoch
            self._committer = asyncio.create_task(self._commit_loop())
        return self

    async def stop(self) -> None:
        """Drain the queue, commit everything, and stop the committer."""
        if self._closed:
            self._reraise()
            return
        self._closed = True
        self.queue.close()
        if self._committer is not None:
            await self._committer
            self._committer = None
        self._idle.set()
        for feed in list(self._feeds):
            feed._queue.put_nowait(_FEED_CLOSED)
        self._feeds.clear()
        self._reraise()

    async def __aenter__(self) -> "AsyncIVMServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    async def submit(self, update: Any) -> None:
        """Enqueue one update; awaits while a full batch waits to seal."""
        self._reraise()
        if self._closed:
            raise RuntimeError("server is stopped")
        if self._committer is None:
            raise RuntimeError("server not started (use `async with`)")
        self._idle.clear()
        try:
            waited = await self.queue.put(update)
        except QueueClosed:
            # stop() closed the queue while this submit was blocked on
            # backpressure: the update was NOT accepted and will not be
            # committed.  Surface that as the same documented error a
            # post-stop submit gets, not the queue's internal exception.
            raise RuntimeError("server is stopped") from None
        stats = self._maintenance_stats
        if stats is not None:
            stats.record_submit()
            if waited > 0.0:
                stats.record_backpressure(waited)

    async def submit_many(self, updates: Iterable[Any]) -> None:
        for update in updates:
            await self.submit(update)

    async def drain(self) -> None:
        """Wait until every submitted update has been committed."""
        while True:
            self._reraise()
            if (
                not len(self.queue)
                and self._inflight_oldest is None
                and self._idle.is_set()
            ):
                return
            # The event alone is not authoritative (a commit may still
            # be in flight, or a submit may have raced in after the
            # committer set it).  Clear it *before* parking so a stale
            # set-state cannot turn the wait into a hot spin; the
            # committer sets it again once it really goes idle.
            self._idle.clear()
            await self._idle.wait()

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    async def lookup(self, key: tuple) -> Any:
        """Point lookup against committed state, recording staleness.

        Under snapshot reads this answers from the last published epoch,
        so it never waits for an in-flight commit; staleness then
        measures the epoch's age (the oldest update the epoch is
        missing).
        """
        key = tuple(key)
        if self.snapshot_reads:
            return self._read(self.engine.lookup_snapshot, key)
        return self._read(self.engine.lookup, key)

    async def enumerate(self) -> list[tuple[tuple, Any]]:
        """Materialize the committed output.

        With change streams the server holds a ``MaterializedView``
        that the call catches up to the last published epoch.  It
        applies the deltas of every commit since the previous call in
        order, in O(δ) with δ their summed entries, while δ is at most
        half the view's size (its budget; the window holds the deltas
        that long), and re-drains the epoch once it is not.  The list
        holds a drain's items, not in its order: a key re-inserted since
        the previous call comes last.  Plain snapshot reads enumerate
        the last published epoch; an engine without snapshots drains
        its live state.
        """
        return self._read(self._materialize, point=False)

    def _materialize(self) -> list[tuple[tuple, Any]]:
        view = self._matview
        if view is not None:
            view.refresh()
            return list(view.items())
        if self.snapshot_reads:
            return list(self.engine.enumerate_snapshot())
        return list(self.engine.enumerate())

    async def scalar(self) -> Any:
        """Committed payload of a Boolean (empty-head) query."""
        if self.snapshot_reads:
            return self._read(self.engine.scalar_snapshot)
        return self._read(self.engine.scalar)

    # ------------------------------------------------------------------
    # Change feeds
    # ------------------------------------------------------------------

    def subscribe(self) -> ChangeFeed:
        """Subscribe to per-epoch output deltas (one per commit).

        Requires an engine with epoch snapshots and change streams
        (``supports_snapshots`` and ``supports_changes``) and a started
        server.  Seed an absolute state with :meth:`enumerate` first;
        see :class:`ChangeFeed`.
        """
        if self._change_source is None:
            raise TypeError(
                "change feeds need a started server over an engine with "
                "epoch snapshots and output change streams "
                "(supports_snapshots, supports_changes)"
            )
        feed = ChangeFeed(self)
        self._feeds.add(feed)
        return feed

    def _fanout_changes(self, item) -> None:
        """Deliver one delta (or gap error) to every feed (loop thread)."""
        for feed in list(self._feeds):
            feed._queue.put_nowait(item)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _reraise(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def _read(self, answer, *args, point: bool = True) -> Any:
        """Answer one read and record it in the attached recorder, if any.

        A point read (``lookup``, ``scalar``) records its staleness, and
        under snapshot reads every read records its latency.
        """
        self._reraise()
        stats = self._maintenance_stats
        if stats is None:
            return answer(*args)
        start = time.perf_counter()
        staleness = self._staleness() if point else 0.0
        result = answer(*args)
        if point:
            stats.record_serve_read(staleness)
        if self.snapshot_reads:
            stats.record_snapshot_read(time.perf_counter() - start)
        return result

    def _staleness(self) -> float:
        """Age of the oldest update not visible to a read now (seconds).

        On an engine without snapshots reads and commits share the loop,
        so no commit is in flight and the only invisible updates are the
        queued ones.  Under snapshot reads it also counts the batch
        currently committing (``_inflight_oldest``), which the published
        epoch does not include yet — both fields only mutate on the
        event-loop thread, so no lock is needed.
        """
        oldest = self.queue.oldest_arrival
        if self._inflight_oldest is not None:
            oldest = (
                self._inflight_oldest
                if oldest is None
                else min(oldest, self._inflight_oldest)
            )
        if oldest is None:
            return 0.0
        return max(0.0, time.perf_counter() - oldest)

    def _commit_batch(self, batch: list) -> OutputDelta | EpochGapError | None:
        """Apply one sealed batch; return its feed delta or gap error.

        Under snapshot reads the new epoch is published right after the
        batch lands; a failed batch publishes nothing, so readers keep
        answering from the last good epoch.
        """
        self.engine.apply_batch(batch)
        if self.snapshot_reads:
            self.engine.publish_epoch()
            source = self._change_source
            if source is not None:
                prev = self._feed_epoch
                self._feed_epoch = source.epoch
                if self._feeds:
                    try:
                        return source.changes_since(prev)
                    except EpochGapError as exc:
                        return exc

    async def _commit_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            sealed = await self.queue.collect(self.max_delay)
            if sealed is None:
                return
            batch, trigger, oldest = sealed
            # Size seal on a snapshot engine: writers wait, so a worker
            # thread keeps the loop free for them and for reads, which
            # answer from the last epoch.  Otherwise commit here: the
            # loop was idle, or live reads must not overlap the commit.
            on_loop = trigger != "size" or not self.snapshot_reads
            self._inflight_oldest = oldest
            start = time.perf_counter()
            try:
                if on_loop:
                    item = self._commit_batch(batch)
                else:
                    item = await loop.run_in_executor(
                        None, self._commit_batch, batch
                    )
            except BaseException as exc:  # surfaced on next call
                self._error = exc
                stats = self._maintenance_stats
                if stats is not None:
                    # A failed commit applied nothing: count it apart,
                    # and keep it out of the commit-latency and
                    # batch-size distributions so the percentiles only
                    # describe real commits.
                    stats.record_commit_error()
            else:
                elapsed = time.perf_counter() - start
                stats = self._maintenance_stats
                if stats is not None:
                    stats.record_commit(elapsed, len(batch), trigger)
                if item is not None:
                    self._fanout_changes(item)
            finally:
                self._inflight_oldest = None
            if not len(self.queue):
                self._idle.set()
            elif on_loop:
                # A full queue seals the next batch without suspending:
                # yield once so waiting reads and writers run between
                # back-to-back commits.
                await asyncio.sleep(0)
