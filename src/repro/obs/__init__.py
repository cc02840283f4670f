"""Unified maintenance observability: counters, recorders, exporters.

Every maintenance engine in the library answers the same three questions
through this package:

* **how much work?** — :func:`op_scope` wraps the elementary-operation
  accounting of :mod:`repro.data.opcounter` into scoped, nestable blocks
  (inner scopes no longer clobber outer ones), and :class:`StopWatch`
  gives nestable accumulating wall-clock timers;
* **how is it distributed?** — :class:`MaintenanceStats` records every
  metric declared in :data:`repro.obs.stats.METRICS` (one row each: the
  recorder's state, its merges, the per-shard summary and the
  ``repro.obs/1`` document all derive from that table) into the
  accumulators of :mod:`repro.obs.histogram`; it is attached to any
  engine through the :class:`Observable` mixin and the :func:`observed`
  hook on ``apply``/``apply_batch``;
* **can a machine read it?** — :func:`write_stats_json` and the bench
  record helpers in :mod:`repro.bench.harness` emit schema-stable JSON so
  benchmark trajectories can be diffed across commits.

The package deliberately depends only on the standard library and
:mod:`repro.data.opcounter`, so every engine layer may import it freely.
"""

from .counter import OpScope, StopWatch, op_scope
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
    "OpScope",
    "RunningStat",
    "STATS_SCHEMA",
    "StopWatch",
    "observed",
    "observed_enumeration",
    "op_scope",
    "share_stats",
    "stats_record",
    "write_stats_json",
]
