"""Unified maintenance observability: counters, recorders, exporters.

Every maintenance engine in the library answers the same three questions
through this package:

* **how much work?** — :func:`repro.data.counting` blocks count the
  elementary operations of :mod:`repro.data.opcounter` (blocks nest:
  an inner block's counts roll up into the outer one), and
  :meth:`MaintenanceStats.record_ops` folds a block's counts into a
  recorder;
* **how is it distributed?** — :class:`MaintenanceStats` records every
  metric declared in :data:`repro.obs.stats.METRICS` (one row each: the
  recorder's state, its merges, the per-shard summary and the
  ``repro.obs/1`` document all derive from that table) into the
  accumulators of :mod:`repro.obs.histogram`; it is attached to any
  engine through the :class:`Observable` mixin and the :func:`observed`
  hook on ``apply``/``apply_batch``;
* **can a machine read it?** — :func:`write_stats_json` and the bench
  record helpers in :mod:`repro.bench.harness` emit schema-stable,
  append-only JSON.

The package deliberately depends only on the standard library, so
every engine layer may import it freely.
"""

from .export import (
    STATS_SCHEMA,
    stats_record,
    write_stats_json,
)
from .instrument import Observable, observed, observed_enumeration, share_stats
from .histogram import CountHistogram, LatencyHistogram, RunningStat
from .stats import MaintenanceStats

__all__ = [
    "CountHistogram",
    "LatencyHistogram",
    "MaintenanceStats",
    "Observable",
    "RunningStat",
    "STATS_SCHEMA",
    "observed",
    "observed_enumeration",
    "share_stats",
    "stats_record",
    "write_stats_json",
]
