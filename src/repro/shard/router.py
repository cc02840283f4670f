"""Shard routing: hash-partitioning update streams by one join variable.

The view trees of Sections 3.2 and 4.1 maintain every view by
key-partitioned group updates: the delta for a tuple with join-key value
``v`` only ever touches view entries whose key agrees with ``v``.  Hash
shards of the join key therefore maintain *disjoint* slices of every
view, which makes view-tree maintenance embarrassingly parallel — the
F-IVM execution model run once per shard.

The router decides, per relation, where a base tuple or an update goes:

* if every atom over the relation binds the shard variable at the same
  column, the relation is **partitioned**: a tuple belongs to the shard
  hashing its value at that column;
* otherwise (the relation does not contain the shard variable, or a
  self-join binds it at inconsistent columns) the relation is
  **broadcast**: every shard keeps its full contents, and every update to
  it is replayed on every shard.

Hashing uses a content-stable hash (not Python's seeded ``hash``), so a
stream routes identically across processes and runs — differential
shard-invariance tests and the shard worker processes both rely on that.
"""

from __future__ import annotations

import hashlib
import zlib
from typing import Any, Optional

from ..data.database import Database
from ..data.update import Update
from ..query.ast import Query

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15  # 2**64 / golden ratio, odd


def stable_hash(value: Any) -> int:
    """A process-stable hash of one attribute value.

    ``PYTHONHASHSEED`` randomizes ``hash`` per process and routing must
    not depend on it.  Exact ``int`` and ``str`` values — nearly every
    key — take stateless fast paths: a 64-bit multiplicative mix whose
    *high* half is kept (the low bits of a product depend only on the
    low bits of the value, and callers reduce modulo small shard
    counts), and ``crc32`` of the UTF-8 bytes.  Every other type hashes
    its ``repr`` through blake2b.  Equal values of the same type hash
    identically, which is all routing needs; ``1``, ``1.0`` and ``True``
    are one dict key but three hashes, so the result is never memoised
    by value — a warm coordinator's :meth:`ShardRouter.split` and a
    rebuild's :meth:`ShardRouter.slices` would disagree about the owner.
    """
    kind = type(value)
    if kind is int:
        return (value * _GOLDEN64 & _MASK64) >> 32
    if kind is str:
        return zlib.crc32(value.encode("utf-8", "surrogatepass"))
    data = repr(value).encode("utf-8", "backslashreplace")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


class SubBatch:
    """One shard's slice of a coalesced batch.

    ``columns`` is ``{relation: (keys, payloads)}``; ``len()`` is the
    number of tuples across the relations (the measure of shard skew).
    """

    __slots__ = ("columns", "size")

    def __init__(self):
        self.columns: dict[str, tuple[list, list]] = {}
        self.size = 0

    def add(self, relation: str, keys: list, payloads: list) -> None:
        self.columns[relation] = (keys, payloads)
        self.size += len(keys)

    def __len__(self) -> int:
        return self.size


def choose_shard_variable(query: Query) -> str:
    """Default shard variable: the one covering the most atoms.

    The more atoms bind the shard variable, the more relations partition
    instead of broadcasting — ties break lexicographically so the choice
    is deterministic.
    """
    counts: dict[str, int] = {}
    for atom in query.atoms:
        for variable in set(atom.variables):
            counts[variable] = counts.get(variable, 0) + 1
    if not counts:
        raise ValueError(f"query {query.name} has no variables to shard on")
    return min(counts, key=lambda variable: (-counts[variable], variable))


class ShardRouter:
    """Routes updates and base tuples to hash shards of one variable."""

    __slots__ = ("shard_variable", "shards", "positions")

    def __init__(self, query: Query, shard_variable: str, shards: int):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if shard_variable not in query.variables():
            raise ValueError(
                f"shard variable {shard_variable!r} does not occur in "
                f"query {query.name}"
            )
        self.shard_variable = shard_variable
        self.shards = shards
        #: relation name -> column of the shard variable, or None (broadcast).
        self.positions: dict[str, Optional[int]] = {}
        for atom in query.atoms:
            if shard_variable in atom.variables:
                position: Optional[int] = atom.variables.index(shard_variable)
            else:
                position = None
            if atom.relation not in self.positions:
                self.positions[atom.relation] = position
            elif self.positions[atom.relation] != position:
                # Self-join binding the shard variable inconsistently:
                # partitioning by either column would starve the other
                # atom's leaf, so fall back to broadcasting.
                self.positions[atom.relation] = None

    def is_partitioned(self, relation: str) -> bool:
        """True when the relation hash-partitions (vs broadcasts)."""
        return self.positions.get(relation) is not None

    def partitioned_relations(self) -> tuple[str, ...]:
        return tuple(
            name for name, position in self.positions.items() if position is not None
        )

    def shard_of_key(self, relation: str, key: tuple) -> Optional[int]:
        """Owning shard of one base tuple; ``None`` means broadcast."""
        position = self.positions.get(relation)
        if position is None:
            return None
        return stable_hash(key[position]) % self.shards

    def shard_of(self, update: Update) -> Optional[int]:
        """Owning shard of one update; ``None`` means broadcast."""
        return self.shard_of_key(update.relation, update.key)

    def split(self, columns: dict[str, tuple[list, list]]) -> list[SubBatch]:
        """Partition a coalesced columnar batch into one slice per shard.

        ``columns`` is :func:`~repro.data.columnar.coalesce_columnar`'s
        ``{relation: (keys, payloads)}``.  A partitioned relation's
        columns split by owner, each slice keeping the batch's key order;
        a broadcast relation's columns go to every shard as the *same*
        two lists (consumers only read them).  Ring updates commute, so
        applying the slices independently, in any interleaving, has the
        cumulative effect of the batch.
        """
        shards = self.shards
        subs = [SubBatch() for _ in range(shards)]
        for relation, (keys, payloads) in columns.items():
            position = self.positions.get(relation)
            if position is None or shards == 1:
                for sub in subs:
                    sub.add(relation, keys, payloads)
                continue
            key_slices: list[list] = [[] for _ in range(shards)]
            payload_slices: list[list] = [[] for _ in range(shards)]
            for key, payload in zip(keys, payloads):
                owner = stable_hash(key[position]) % shards
                key_slices[owner].append(key)
                payload_slices[owner].append(payload)
            for sub, owned, owned_payloads in zip(subs, key_slices, payload_slices):
                if owned:
                    sub.add(relation, owned, owned_payloads)
        return subs

    def slices(self, database: Database) -> list[Database]:
        """Every shard's slice of the query's relations, in fresh relations:
        a partitioned relation's tuples each in their owner's slice
        (:meth:`shard_of_key`), a broadcast relation whole in every one."""
        slices = [Database(ring=database.ring) for _ in range(self.shards)]
        for name, position in self.positions.items():
            base = database[name]
            parts = [part.create(name, base.schema).data for part in slices]
            if position is None:
                for data in parts:
                    data.update(base.data)
            else:
                for key, payload in base.data.items():
                    parts[stable_hash(key[position]) % self.shards][key] = payload
        return slices

    def __repr__(self) -> str:
        return (
            f"ShardRouter(variable={self.shard_variable!r}, "
            f"shards={self.shards}, positions={self.positions!r})"
        )
