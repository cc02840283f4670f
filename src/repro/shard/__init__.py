"""Sharded parallel view-tree maintenance (the F-IVM model, N times).

View trees maintain every view by key-partitioned group updates, so hash
shards of a join variable maintain disjoint view slices independently.
This package provides the router that partitions base relations and
update streams (:class:`ShardRouter`), the coordinator that runs one
view-tree engine per shard on an executor and merges outputs and
statistics (:class:`ShardedEngine`), and the persistent shard-worker
runtime for ``executor="process"`` (:mod:`repro.shard.worker`): worker
processes that keep shard state resident and exchange only sub-batch
columns, acks and (when pulled) stats increments with the coordinator.
"""

from .engine import ShardedEngine
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
    decode_batch,
    encode_batch,
)

__all__ = [
    "ShardLeafFilter",
    "ShardRouter",
    "ShardWorkerError",
    "ShardWorkerPool",
    "ShardWorkerSpec",
    "ShardedEngine",
    "choose_shard_variable",
    "decode_batch",
    "encode_batch",
    "stable_hash",
]
