"""Attachment protocol between engines and :class:`MaintenanceStats`.

Engines opt into observability by mixing in :class:`Observable` and
decorating their ``apply``/``apply_batch`` methods with :func:`observed`.
The cost when no recorder is attached is one attribute read and a
``None`` check per call.

Engines stack — the :class:`~repro.core.engine.IVMEngine` facade wraps a
view-tree engine, a cascade wraps two of them — so a recorder shared down
a stack would count every update once per layer.  :func:`observed` guards
against that: only the *outermost* observed call on a given recorder
records latency; nested calls run un-instrumented.  Structural hooks
(delta sizes, rebalance events) are not guarded, because they fire at
exactly one layer.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Iterable, Iterator

from .stats import MaintenanceStats

_STATS_ATTR = "_maintenance_stats"


class Observable:
    """Mixin: lets a :class:`MaintenanceStats` recorder be attached."""

    _maintenance_stats: MaintenanceStats | None = None

    @property
    def stats(self) -> MaintenanceStats | None:
        """The attached recorder, or ``None`` when not observing."""
        return self._maintenance_stats

    def attach_stats(
        self, stats: MaintenanceStats | None = None
    ) -> MaintenanceStats:
        """Attach a recorder (a fresh one by default) and return it.

        Engines holding sub-engines or partitioned relations override
        :meth:`_propagate_stats` to share the recorder downward, so one
        ``attach_stats`` on a facade observes the whole stack.
        """
        if stats is None:
            stats = MaintenanceStats(engine=type(self).__name__)
        self._maintenance_stats = stats
        self._propagate_stats(stats)
        return stats

    def detach_stats(self) -> MaintenanceStats | None:
        """Detach and return the recorder (sub-engines detach too)."""
        stats = self._maintenance_stats
        self._maintenance_stats = None
        self._propagate_stats(None)
        return stats

    def _propagate_stats(self, stats: MaintenanceStats | None) -> None:
        """Share ``stats`` with owned sub-structures (default: none)."""


def observed(method):
    """Decorate an engine update entry point with latency recording.

    The method's name selects the latency series: names ending in
    ``batch`` record into the batch histogram, everything else into the
    per-update histogram.  Recording happens only at the outermost
    observed frame per recorder (see module docstring).
    """
    kind = method.__name__

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        stats = getattr(self, _STATS_ATTR, None)
        if stats is None or stats._depth:
            return method(self, *args, **kwargs)
        stats._depth += 1
        start = time.perf_counter()
        try:
            return method(self, *args, **kwargs)
        finally:
            stats._depth -= 1
            stats.record_update(time.perf_counter() - start, kind)

    return wrapper


def observed_enumeration(
    stats: MaintenanceStats | None, iterable: Iterable
) -> Iterator:
    """``iterable``'s iterator, recording per-tuple enumeration delay.

    The delay of a tuple is the producer time between the consumer's
    ``next()`` call and the tuple being yielded — consumer time between
    tuples is excluded, matching the paper's notion of enumeration delay.
    With no recorder the iterator itself is returned: no pass-through
    frame per tuple.
    """
    if stats is None:
        return iter(iterable)
    return _observed(stats, iterable)


def _observed(stats: MaintenanceStats, iterable: Iterable) -> Iterator:
    stats.record_enumeration()
    iterator = iter(iterable)
    while True:
        start = time.perf_counter()
        try:
            item = next(iterator)
        except StopIteration:
            return
        stats.record_enum_delay(time.perf_counter() - start)
        yield item


def share_stats(child: Any, stats: MaintenanceStats | None) -> None:
    """Share (or clear) a recorder on a sub-engine, recursively.

    Used by ``_propagate_stats`` overrides; unlike :meth:`attach_stats`
    it never fabricates a recorder, so passing ``None`` detaches.
    """
    if isinstance(child, Observable):
        child._maintenance_stats = stats
        child._propagate_stats(stats)


def attach_to_all(engines: Iterable[Any], stats: MaintenanceStats) -> None:
    """Share one recorder across several :class:`Observable` engines."""
    for engine in engines:
        if isinstance(engine, Observable):
            engine.attach_stats(stats)
