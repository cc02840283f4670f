"""Async ingestion + serving front-end over the maintenance engines.

The compiled kernels of :mod:`repro.viewtree` and :mod:`repro.shard`
answer "how fast can one batch be maintained?"; this package answers the
production question the paper frames in its introduction — keeping a
view fresh **while it is being queried**.  Three pieces:

* :class:`GroupCommitQueue` — a queue of at most one batch, enough to
  keep the committer busy, whose consumer side seals adaptive group
  commits: a batch closes when it reaches the size cap **or** its oldest
  update hits the latency deadline, whichever fires first.  Producers
  get backpressure (``put`` awaits) while a full batch waits to seal.
* :class:`AsyncIVMServer` — accepts concurrent ``submit()`` writers,
  group-commits sealed batches into ``engine.apply_batch``, and
  answers ``lookup()`` / ``enumerate()`` / ``scalar()`` from committed
  state (the last published epoch where the engine has snapshots),
  recording commit latency, batch size (the queue depth at the seal)
  and read staleness into an attached
  :class:`~repro.obs.MaintenanceStats` (the ``serving`` block of the
  ``repro.obs/1`` schema).
* :mod:`repro.serve.loadgen` — closed-loop load generator (N writer
  tasks + M reader tasks over the uniform/zipf/sliding-window stream
  shapes) behind ``python -m repro serve`` and
  ``benchmarks/bench_serve.py``.
"""

from .batcher import GroupCommitQueue
from .loadgen import run_load_test, update_stream, value_sampler
from .server import AsyncIVMServer, ChangeFeed

__all__ = [
    "AsyncIVMServer",
    "ChangeFeed",
    "GroupCommitQueue",
    "run_load_test",
    "update_stream",
    "value_sampler",
]
