"""Bounded queue with adaptive group-commit batch sealing.

:class:`GroupCommitQueue` is the ingestion buffer between concurrent
asyncio writers and the single committer task of
:class:`~repro.serve.server.AsyncIVMServer`.  Writers ``put`` updates
(awaiting at the high-water mark — that wait *is* the backpressure
signal); the committer calls :meth:`GroupCommitQueue.collect`, which
seals a batch when it reaches ``max_batch`` updates **or** when the
oldest queued update has waited ``max_delay`` seconds, whichever fires
first.  The size trigger bounds per-commit work; the deadline trigger
bounds read staleness under a trickle of writers.  A deadline or drain
seal means the loop sat idle, so the server commits inline; a size seal
means it is saturated, so an engine with epoch snapshots commits on a
worker thread.

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

    ``high_water`` bounds the number of queued items; producers block in
    :meth:`put` (and are told how long they waited) while the queue sits
    at the mark.  :meth:`collect` is single-consumer.
    """

    def __init__(self, high_water: int = 4096):
        if high_water < 1:
            raise ValueError("high_water must be at least 1")
        self.high_water = high_water
        self.closed = False
        self._items: deque[tuple[float, Any]] = deque()
        self._wake = asyncio.Event()
        self._not_full = asyncio.Event()
        self._not_full.set()
        #: Set by ``collect``: the length and delay that seal a batch.
        self._seal_at = high_water
        self._max_delay = 0.0
        self._timer: asyncio.TimerHandle | None = None

    def __len__(self) -> int:
        return len(self._items)

    @property
    def oldest_arrival(self) -> float | None:
        """``perf_counter`` arrival of the oldest queued item, if any."""
        return self._items[0][0] if self._items else None

    def close(self) -> None:
        """Refuse further ``put``s and wake every waiter.

        Items already queued stay collectable: subsequent
        :meth:`collect` calls drain them (trigger ``"drain"``) and then
        return ``None``.
        """
        self.closed = True
        self._wake.set()
        self._not_full.set()

    async def put(self, item: Any) -> float:
        """Enqueue ``item``; return seconds spent blocked on backpressure."""
        waited = 0.0
        while len(self._items) >= self.high_water and not self.closed:
            self._not_full.clear()
            start = time.perf_counter()
            await self._not_full.wait()
            waited += time.perf_counter() - start
        if self.closed:
            raise QueueClosed("queue is closed")
        self._items.append((time.perf_counter(), item))
        if len(self._items) >= self._seal_at:
            self._wake.set()
        elif len(self._items) == 1:
            self._arm(self._max_delay)
        return waited

    def _arm(self, delay: float) -> None:
        self._timer = asyncio.get_running_loop().call_later(
            delay, self._expire
        )

    def _expire(self) -> None:
        self._timer = None
        self._wake.set()

    async def collect(
        self, max_batch: int, max_delay: float
    ) -> tuple[list, str, int, float] | None:
        """Seal and return the next group commit.

        Returns ``(batch, trigger, depth, oldest_arrival)`` where
        ``trigger`` is ``"size"`` / ``"deadline"`` / ``"drain"`` and
        ``depth`` is the queue depth at seal time (the sealed batch plus
        whatever is still waiting behind it) — or ``None`` once the
        queue is closed and empty.  A full queue seals by size.
        """
        self._seal_at = min(max(max_batch, 1), self.high_water)
        self._max_delay = max_delay
        while True:
            if len(self._items) >= self._seal_at:
                trigger = "size"
                break
            if self.closed:
                if not self._items:
                    return None
                trigger = "drain"
                break
            if self._items:
                remaining = self._items[0][0] + max_delay - time.perf_counter()
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
        depth, oldest = len(self._items), self._items[0][0]
        pop = self._items.popleft
        batch = [pop()[1] for _ in range(min(depth, self._seal_at))]
        self._not_full.set()
        return batch, trigger, depth, oldest
