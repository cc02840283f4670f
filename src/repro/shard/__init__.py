"""Sharded parallel view-tree maintenance (the F-IVM model, N times).

View trees maintain every view by key-partitioned group updates, so hash
shards of a join variable maintain disjoint view slices independently.
This package provides the router that cuts each shard's slice of the
base and partitions update streams (:class:`ShardRouter`), the shard runtime every shard
runs wherever it lives (:class:`ShardRuntime`), the coordinator that
hosts shard 0 itself and merges outputs and statistics
(:class:`ShardedEngine`), and — for ``executor="process"`` — the
persistent worker processes hosting shards 1..N-1
(:mod:`repro.shard.worker`), which keep shard state resident and
exchange only sub-batch columns, acks and (when pulled) stats
increments with the coordinator.
"""

from .engine import ShardedEngine
from .router import ShardRouter, choose_shard_variable, stable_hash
from .worker import (
    ShardRuntime,
    ShardWorkerError,
    ShardWorkerPool,
    ShardWorkerSpec,
)

__all__ = [
    "ShardRouter",
    "ShardRuntime",
    "ShardWorkerError",
    "ShardWorkerPool",
    "ShardWorkerSpec",
    "ShardedEngine",
    "choose_shard_variable",
    "stable_hash",
]
