"""Bounded queue with adaptive group-commit batch sealing.

:class:`GroupCommitQueue` is the ingestion buffer between concurrent
asyncio writers and the single committer task of
:class:`~repro.serve.server.AsyncIVMServer`.  Writers ``put`` updates
(awaiting while a full batch waits to be sealed — that wait *is* the
backpressure signal); the committer calls
:meth:`GroupCommitQueue.collect`, which seals a batch when it reaches
``max_batch`` updates **or** when the oldest queued update has waited
``max_delay`` seconds, whichever fires first.  The size trigger bounds
per-commit work; the deadline trigger bounds read staleness under a
trickle of writers.  A deadline or drain seal means the loop sat idle,
so the server commits inline; a size seal means it is saturated, so an
engine with epoch snapshots commits on a worker thread.

One batch committing plus one queued keeps the committer busy: writers
and commits share one interpreter lock, so a deeper queue would only
hold updates longer before they become visible.  A blocked ``put``
waits in line, and each seal admits the waiting items, oldest first,
into the room the sealed batch left.

Items stay queued until their batch seals, so ``len`` and
``oldest_arrival`` cover every update not yet committed, and the
committer sleeps once per commit: ``put`` wakes it at the seal length,
a timer armed with the oldest item at its deadline.  All coordination
runs on one event loop, so the check-then-wait sequences below are
race-free: no ``await`` sits between testing the deque and clearing the
event that guards it.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any


class QueueClosed(RuntimeError):
    """Raised by ``put`` once the queue has been closed for shutdown."""


class GroupCommitQueue:
    """Bounded FIFO of ``(arrival, item)`` pairs with batch sealing.

    ``max_batch`` is both the seal length and the bound: producers block
    in :meth:`put` (and are told how long they waited) while a full
    batch waits to be sealed.  :meth:`collect` is single-consumer.
    """

    def __init__(self, max_batch: int):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.max_batch = max_batch
        self.closed = False
        self._items: deque[tuple[float, Any]] = deque()
        #: Blocked ``put`` calls in arrival order: ``(admitted, item)``.
        self._waiting: deque[tuple[asyncio.Future, Any]] = deque()
        self._wake = asyncio.Event()
        #: Set by ``collect``: the delay that seals a short batch.
        self._max_delay = 0.0
        self._timer: asyncio.TimerHandle | None = None

    def __len__(self) -> int:
        return len(self._items)

    @property
    def oldest_arrival(self) -> float | None:
        """``perf_counter`` arrival of the oldest queued item, if any."""
        return self._items[0][0] if self._items else None

    def close(self) -> None:
        """Refuse further ``put``s (blocked ones raise) and wake the committer.

        Items already queued stay collectable: subsequent
        :meth:`collect` calls drain them (trigger ``"drain"``) and then
        return ``None``.
        """
        self.closed = True
        self._wake.set()
        while self._waiting:
            admitted, _ = self._waiting.popleft()
            if not admitted.done():
                admitted.set_exception(QueueClosed("queue is closed"))

    async def put(self, item: Any) -> float:
        """Enqueue ``item``; return seconds spent blocked on backpressure."""
        if self.closed:
            raise QueueClosed("queue is closed")
        if len(self._items) >= self.max_batch:
            # Waiters exist only while the queue is full (``collect``
            # admits them into every free slot), so this is the line.
            admitted = asyncio.get_running_loop().create_future()
            self._waiting.append((admitted, item))
            start = time.perf_counter()
            await admitted
            return time.perf_counter() - start
        self._items.append((time.perf_counter(), item))
        if len(self._items) >= self.max_batch:
            self._wake.set()
        elif len(self._items) == 1:
            self._arm(self._max_delay)
        return 0.0

    def _arm(self, delay: float) -> None:
        self._timer = asyncio.get_running_loop().call_later(
            delay, self._expire
        )

    def _expire(self) -> None:
        self._timer = None
        self._wake.set()

    async def collect(
        self, max_delay: float
    ) -> tuple[list, str, float] | None:
        """Seal and return the next group commit.

        Returns ``(batch, trigger, oldest_arrival)`` where ``trigger`` is
        ``"size"`` / ``"deadline"`` / ``"drain"`` — or ``None`` once the
        queue is closed and empty.  The batch is the whole queue, so its
        length is the queue depth at seal time.  Blocked ``put`` calls
        then fill the room the batch left, oldest first.
        """
        self._max_delay = max_delay
        items = self._items
        while True:
            if len(items) >= self.max_batch:
                trigger = "size"
                break
            if self.closed:
                if not items:
                    return None
                trigger = "drain"
                break
            if items:
                remaining = items[0][0] + max_delay - time.perf_counter()
                if remaining <= 0:
                    trigger = "deadline"
                    break
                if self._timer is None:
                    self._arm(remaining)
            self._wake.clear()
            await self._wake.wait()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        oldest = items[0][0]
        batch = [item for _, item in items]
        items.clear()
        now = time.perf_counter()
        waiting = self._waiting
        while waiting and len(items) < self.max_batch:
            admitted, item = waiting.popleft()
            if not admitted.cancelled():
                items.append((now, item))
                admitted.set_result(None)
        return batch, trigger, oldest
