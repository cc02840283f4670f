"""Relations over rings: hash maps with group indexes.

Section 2's data-structure contract, implemented literally:

* a relation is a hash map from key tuples to non-zero ring payloads, with
  amortized O(1) lookup, insert, and delete, and constant-delay enumeration
  of its entries;
* for a subset ``S`` of the schema, a :class:`GroupIndex` enumerates with
  constant delay all tuples that agree on a given projection onto ``S``,
  with amortized O(1) index maintenance per relation update.

Entries whose payload becomes zero are removed, so ``len(relation)`` is
always the number of tuples with non-zero payload.

Versions
--------
Writes always go in place.  What an epoch snapshot
(:mod:`repro.viewtree.epoch`) needs of a relation is one **pre-image
map** per live snapshot: key -> the payload it had at the snapshot's
publish, or :data:`ABSENT`.  Every write path fills the maps of the live
snapshots before it writes, first write wins, so a map holds exactly
the keys written since its publish; a relation no snapshot covers has
no map and its writes pay one empty-list test.  A group index keeps the
same maps over its buckets (group key -> the bucket object at publish),
and copies a bucket once, before its first write after a publish, so
published buckets are never mutated and a snapshot iterates them in
their publish-time order.  A snapshot reads a key from the live dict
first and from its map second; see :class:`~repro.viewtree.epoch.VersionView`
for why that order is exact against a concurrent writer.

Writers
-------
A view tree whose leaf is a base relation maintains its views from the
writes it makes itself, so a second engine writing the same relation
would change that leaf behind the first one's views.  The first engine
to write a relation claims it (:func:`claim_writer`); a claim is a weak
reference, so it lapses with its engine, or when the engine closes
(:func:`release_writer`), and pickles and copies carry none.
"""

from __future__ import annotations

import weakref
from typing import Any, Iterable, Iterator, Mapping

from ..rings.base import Semiring, negate
from ..rings.standard import Z
from .opcounter import COUNTER
from .schema import Schema

#: The pre-image of a key (or group key) that was absent at publish.
#: Stored payloads and buckets are never ``None``, so ``None`` marks
#: absence exactly as ``dict.get`` does: ``undo.get(key, live.get(key))``
#: is a snapshot read.
ABSENT = None


class SharedBaseError(RuntimeError):
    """An engine was about to write a base relation that another live
    engine writes (module docstring, "Writers")."""


def claim_writer(relations: Iterable["Relation"], writer: object) -> None:
    """Make ``writer`` the one engine that writes ``relations``.

    Raises :class:`SharedBaseError`, claiming nothing, when another live
    engine holds any of them: call it before the first write.
    """
    relations = list(relations)
    for relation in relations:
        owner = relation._writer() if relation._writer is not None else None
        if owner is not None and owner is not writer:
            raise SharedBaseError(
                f"relation {relation.name!r} is already written by another "
                f"live engine ({type(owner).__name__}); maintain queries "
                "that share base relations through one MultiQueryEngine"
            )
    ref = weakref.ref(writer)
    for relation in relations:
        relation._writer = ref


def release_writer(relations: Iterable["Relation"], writer: object) -> None:
    """Drop ``writer``'s claim on each of ``relations`` that it holds."""
    for relation in relations:
        if relation._writer is not None and relation._writer() is writer:
            relation._writer = None


def _detach(maps: list[dict], undo: dict) -> list[dict]:
    """``maps`` without ``undo`` (by identity: maps compare by content)."""
    return [m for m in maps if m is not undo]


def _postings(indexes: Iterable["GroupIndex"]) -> list[tuple]:
    """What :meth:`Relation.add_delta` binds per index at a delta's first
    posting: ``(groups, project, newest map or None, index)``."""
    return [
        (index.groups, index._project, index._maps[-1] if index._maps else None, index)
        for index in indexes
    ]


class GroupIndex:
    """Secondary index grouping a relation's keys by a schema subset.

    Projects keys with the schema's :meth:`~Schema.projector`, a C-level
    ``itemgetter`` that pickles, so indexed relations stay picklable (a
    shard worker's database crosses a pipe inside its
    ``ShardWorkerSpec``).  ``_maps`` holds the bucket pre-image maps of
    the live snapshots, newest last (module docstring): a bucket whose
    group key is not yet in the newest map is shared with a snapshot and
    is copied before it is written.  Pickles and copies carry no maps.
    """

    __slots__ = ("group_vars", "_project", "groups", "_maps")

    def __init__(self, schema: Schema, group_vars: tuple[str, ...]):
        self.group_vars = group_vars
        #: key -> group key (always a tuple).
        self._project = schema.projector(group_vars)
        # group key -> dict used as an insertion-ordered set of full keys
        self.groups: dict[tuple, dict[tuple, None]] = {}
        self._maps: list[dict] = []

    def __getstate__(self):
        return self.group_vars, self._project, self.groups

    def __setstate__(self, state) -> None:
        self.group_vars, self._project, self.groups = state
        self._maps = []

    def share_version(self) -> tuple[dict, dict]:
        """Open a bucket pre-image map for a new snapshot.

        Returns ``(groups, undo)``: the live bucket dict and the map,
        which records every bucket's publish-time object (or
        :data:`ABSENT`) before its group key is first written.
        """
        undo: dict = {}
        self._maps.append(undo)
        return self.groups, undo

    def _preserve(self, group_key: tuple, bucket: dict | None) -> dict | None:
        """Record ``bucket`` as ``group_key``'s pre-image in every live
        map lacking one; return the bucket to write — a private copy,
        installed, or ``None`` when the group is absent.

        The record lands before the copy is installed, which is what lets
        a reader that saw either bucket in the live dict find the
        publish-time one in the map.
        """
        for undo in self._maps:
            undo.setdefault(group_key, bucket)
        if bucket is None:
            return None
        # dict.copy() clones a mostly-live table as is; dict() re-inserts
        # every key once the bucket has a deleted slot, which a bucket
        # churned by the previous epoch always has.
        bucket = self.groups[group_key] = bucket.copy()
        return bucket

    def add(self, key: tuple) -> None:
        group_key = self._project(key)
        groups = self.groups
        bucket = groups.get(group_key)
        maps = self._maps
        if maps and group_key not in maps[-1]:
            bucket = self._preserve(group_key, bucket)
        if bucket is None:
            groups[group_key] = {key: None}
        else:
            bucket[key] = None

    def remove(self, key: tuple) -> None:
        group_key = self._project(key)
        groups = self.groups
        bucket = groups.get(group_key)
        if bucket is None:
            return
        maps = self._maps
        if maps and group_key not in maps[-1]:
            bucket = self._preserve(group_key, bucket)
        bucket.pop(key, None)
        if not bucket:
            del groups[group_key]

    def clear(self) -> None:
        """Empty the index in place (its relation has no live map: see
        :meth:`Relation.clear`)."""
        self.groups.clear()

    def rebuild(self, keys: Iterable[tuple]) -> None:
        """Re-derive every bucket from ``keys`` in a fresh dict (rollback
        of an index created after the version being restored)."""
        self.groups = {}
        self._maps = []
        for key in keys:
            self.add(key)

    def restore(self, undo: dict) -> None:
        """Put every bucket named in ``undo`` back to its pre-image.

        Restored buckets are copies: the pre-image objects stay frozen
        for the snapshot that recorded them.
        """
        groups = self.groups
        for group_key, bucket in undo.items():
            if bucket is ABSENT:
                groups.pop(group_key, None)
            else:
                groups[group_key] = dict(bucket)

    def copy(self) -> "GroupIndex":
        """Structural copy sharing no mutable state with the original."""
        clone = object.__new__(GroupIndex)
        clone.group_vars = self.group_vars
        clone._project = self._project
        clone.groups = {
            group_key: dict(bucket) for group_key, bucket in self.groups.items()
        }
        clone._maps = []
        return clone

    def drop_version(self, undo: dict) -> None:
        """Stop recording into ``undo`` (its snapshot is gone)."""
        self._maps = _detach(self._maps, undo)

    def keys_in_group(self, group_key: tuple) -> Iterator[tuple]:
        bucket = self.groups.get(group_key)
        if bucket is not None:
            yield from bucket

    def group_size(self, group_key: tuple) -> int:
        bucket = self.groups.get(group_key)
        return len(bucket) if bucket is not None else 0

    def group_keys(self) -> Iterator[tuple]:
        """All distinct group keys with at least one member."""
        return iter(self.groups)

    def __len__(self) -> int:
        return len(self.groups)


class Relation:
    """A finite map from key tuples to non-zero ring payloads.

    ``data`` is written in place, always.  ``_maps`` holds the pre-image
    maps of the live snapshots that cover the relation, newest last
    (module docstring); it is empty when none does, and pickles and
    copies carry none.  ``_writer`` is the weak reference of the engine
    that claimed the relation (:func:`claim_writer`), or ``None``.
    """

    __slots__ = ("name", "schema", "ring", "data", "_indexes", "_maps", "_writer")

    def __init__(
        self,
        name: str,
        schema: Schema | Iterable[str],
        ring: Semiring = Z,
        data: Mapping[tuple, Any] | None = None,
    ):
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        self.name = name
        self.schema = schema
        self.ring = ring
        self.data: dict[tuple, Any] = {}
        self._indexes: dict[tuple[str, ...], GroupIndex] = {}
        self._maps: list[dict] = []
        self._writer: weakref.ref | None = None
        if data:
            for key, payload in data.items():
                self.add(key, payload)

    def __getstate__(self):
        return self.name, self.schema, self.ring, self.data, self._indexes

    def __setstate__(self, state) -> None:
        self.name, self.schema, self.ring, self.data, self._indexes = state
        self._maps = []
        self._writer = None

    # ------------------------------------------------------------------
    # Versions (epoch snapshots, rollback)
    # ------------------------------------------------------------------

    def share_version(self) -> tuple[dict, dict, dict]:
        """Open pre-image maps for a new snapshot.

        Returns ``(data, undo, groups)``: the live payload dict, its map,
        and ``{group_vars: (buckets, bucket_undo)}`` for every group
        index (:meth:`GroupIndex.share_version`).  From here on every
        write records the first pre-image of its key in ``undo`` before
        it lands, so ``undo.get(key, data.get(key))`` reads the
        publish-time payload, and index buckets keep their publish-time
        objects — and order — in theirs.
        """
        undo: dict = {}
        self._maps.append(undo)
        groups = {
            group_vars: index.share_version()
            for group_vars, index in self._indexes.items()
        }
        return self.data, undo, groups

    def drop_version(self, undo: dict) -> None:
        """Stop recording into ``undo`` (its snapshot is gone)."""
        self._maps = _detach(self._maps, undo)

    def _record(self, key: tuple, old: Any) -> None:
        """Keep ``old`` (``None``: absent) as ``key``'s pre-image in every
        live map that has none yet.  Callers test first that the newest
        map lacks ``key``: a key in the newest map is in all of them."""
        for undo in self._maps:
            undo.setdefault(key, old)

    def restore(self, data: dict, undo: dict, groups: dict) -> None:
        """Roll back to the version :meth:`share_version` returned.

        ``data`` is the live dict (it is never replaced while a map is
        live): the pre-images are written back in place and each index
        bucket is restored from its own map (:meth:`GroupIndex.restore`).
        An index created after the version was opened has no map in it
        and is rebuilt from the restored data.  The maps keep their
        entries: each now equals the live value it overrides.

        Contents come back exactly; insertion order need not.  A key
        deleted since the version was opened is re-inserted at the end of
        ``data``, and a rebuilt index follows that order, and nothing
        records where the key stood.  Iteration after a rollback may
        therefore visit entries in another order than a twin that never
        failed — for a ring whose addition rounds (``FloatRing``), later
        sums may differ in the last bits.  Snapshots published before
        the failure are unaffected: they read frozen buckets.
        """
        for key, payload in undo.items():
            if payload is ABSENT:
                data.pop(key, None)
            else:
                data[key] = payload
        for group_vars, index in self._indexes.items():
            version = groups.get(group_vars)
            if version is None:
                index.rebuild(data)
            else:
                index.restore(version[1])

    # ------------------------------------------------------------------
    # Lookups and enumeration
    # ------------------------------------------------------------------

    def get(self, key: tuple) -> Any:
        """Payload of ``key``; the ring zero when absent."""
        COUNTER.bump("lookup")
        return self.data.get(key, self.ring.zero)

    def __contains__(self, key: tuple) -> bool:
        COUNTER.bump("lookup")
        return key in self.data

    def items(self) -> Iterator[tuple[tuple, Any]]:
        """Enumerate (key, payload) entries with constant delay."""
        for entry in self.data.items():
            COUNTER.bump("enum")
            yield entry

    def keys(self) -> Iterator[tuple]:
        for key in self.data:
            COUNTER.bump("enum")
            yield key

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[tuple]:
        return self.keys()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def add(self, key: tuple, payload: Any) -> Any:
        """Ring-add ``payload`` to the entry at ``key``; return new payload.

        Entries reaching the ring zero are removed, together with their
        index postings, in amortized constant time.
        """
        ring = self.ring
        data = self.data
        if ring.is_zero(payload):
            return data.get(key, ring.zero)
        COUNTER.bump("write")
        old = data.get(key)
        maps = self._maps
        if maps and key not in maps[-1]:
            self._record(key, old)
        if old is None:
            data[key] = payload
            for index in self._indexes.values():
                index.add(key)
            return payload
        new = ring.add(old, payload)
        if ring.is_zero(new):
            del data[key]
            for index in self._indexes.values():
                index.remove(key)
            return ring.zero
        data[key] = new
        return new

    def add_delta(self, entries: Iterable[tuple[tuple, Any]]) -> int:
        """Ring-add many ``(key, payload)`` pairs in one fused pass.

        Semantically identical to calling :meth:`add` once per pair —
        zero payloads are skipped, entries cancelling to the ring zero
        are removed together with their index postings, and payloads,
        index buckets and pre-image maps end up as :meth:`add` leaves
        them, insertion order included — but the hot locals bind once
        for the whole delta and the write accounting is one bulk
        ``COUNTER`` bump.  Batched base writes go through here; a
        generated batch kernel writes its leaf, views and guards inline
        (``codegen._emit_write``).

        Rings declaring ``exact_zero`` with ``add_operator == "+"`` — the
        two flags the generated kernels inline too — take a loop with
        ``old + payload`` and the zero tests in place and with the group
        index postings made in the loop; other rings call the ring's
        ``add`` / ``is_zero`` and :meth:`GroupIndex.add` / ``remove``
        per entry.

        Returns the number of entries written (the op count bumped).
        """
        ring = self.ring
        if ring.exact_zero and ring.add_operator == "+":
            writes = self._add_numeric(entries)
        else:
            writes = self._add_generic(entries)
        if writes:
            COUNTER.bump("write", writes)
        return writes

    def _add_numeric(self, entries: Iterable[tuple[tuple, Any]]) -> int:
        """:meth:`add_delta` for numeric exact-zero rings.

        ``add_operator == "+"`` asserts numeric payloads, whose
        truthiness is exactly ``!= 0``.  Each posting is
        :meth:`GroupIndex.add` / :meth:`GroupIndex.remove` written out,
        bucket preservation included.
        """
        data = self.data
        get = data.get
        newest = self._maps[-1] if self._maps else None
        indexes = self._indexes.values()
        # Bound at the first posting, not before: most deltas to a big
        # relation only change payloads.
        posts = None
        writes = 0
        for key, payload in entries:
            if not payload:
                continue
            writes += 1
            old = get(key)
            if newest is not None and key not in newest:
                self._record(key, old)
            if old is None:
                data[key] = payload
                if posts is None:
                    posts = _postings(indexes)
                for groups, project, fresh, index in posts:
                    group_key = project(key)
                    bucket = groups.get(group_key)
                    if fresh is not None and group_key not in fresh:
                        bucket = index._preserve(group_key, bucket)
                    if bucket is None:
                        groups[group_key] = {key: None}
                    else:
                        bucket[key] = None
                continue
            new = old + payload
            if new:
                data[key] = new
                continue
            del data[key]
            if posts is None:
                posts = _postings(indexes)
            for groups, project, fresh, index in posts:
                group_key = project(key)
                bucket = groups[group_key]
                if fresh is not None and group_key not in fresh:
                    bucket = index._preserve(group_key, bucket)
                del bucket[key]
                if not bucket:
                    del groups[group_key]
        return writes

    def _add_generic(self, entries: Iterable[tuple[tuple, Any]]) -> int:
        """:meth:`add_delta` for any ring: ring calls per entry."""
        ring = self.ring
        is_zero = ring.is_zero
        ring_add = ring.add
        # Inline the zero test for exact-zero rings (see Semiring.exact_zero):
        # one comparison instead of a Python call per entry.
        exact = ring.exact_zero
        zero = ring.zero
        data = self.data
        newest = self._maps[-1] if self._maps else None
        indexes = list(self._indexes.values()) if self._indexes else None
        writes = 0
        for key, payload in entries:
            if (payload == zero) if exact else is_zero(payload):
                continue
            writes += 1
            old = data.get(key)
            if newest is not None and key not in newest:
                self._record(key, old)
            if old is None:
                data[key] = payload
                if indexes is not None:
                    for index in indexes:
                        index.add(key)
                continue
            new = ring_add(old, payload)
            if (new == zero) if exact else is_zero(new):
                del data[key]
                if indexes is not None:
                    for index in indexes:
                        index.remove(key)
            else:
                data[key] = new
        return writes

    def set(self, key: tuple, payload: Any) -> None:
        """Overwrite the payload at ``key`` (remove when zero).

        A zero payload on an absent key is a no-op and counts no write,
        so complexity assertions over ``COUNTER`` see only real work.
        """
        data = self.data
        old = data.get(key)
        zero = self.ring.is_zero(payload)
        if zero and old is None:
            return
        COUNTER.bump("write")
        maps = self._maps
        if maps and key not in maps[-1]:
            self._record(key, old)
        if zero:
            del data[key]
            for index in self._indexes.values():
                index.remove(key)
            return
        data[key] = payload
        if old is None:
            for index in self._indexes.values():
                index.add(key)

    def insert(self, *key, payload: Any = None) -> None:
        """Insert one tuple; payload defaults to the ring one."""
        self.add(tuple(key), self.ring.one if payload is None else payload)

    def delete(self, *key, payload: Any = None) -> None:
        """Delete one tuple: add the negated payload (a :class:`TypeError`
        under a ring without negation, before any write)."""
        value = self.ring.one if payload is None else payload
        self.add(tuple(key), negate(self.ring, value))

    def apply(self, delta: "Relation | Mapping[tuple, Any]") -> None:
        """Apply a delta relation: ``self := self (+) delta``.

        The delta's entries are materialized before any write, so the
        delta may alias ``self`` (``rel.apply(rel)`` doubles every
        payload) or be a view over it, without tripping over mutation
        during iteration.
        """
        for key, payload in list(delta.items()):
            self.add(key, payload)

    def clear(self) -> None:
        """Remove every entry.  Under a live snapshot each key is deleted
        through :meth:`set`, so the maps record it like any other write
        and the dicts are never replaced; otherwise the payload dict and
        the index buckets are emptied in place."""
        if self._maps:
            zero = self.ring.zero
            for key in list(self.data):
                self.set(key, zero)
            return
        self.data.clear()
        for index in self._indexes.values():
            index.clear()

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    def index_on(self, variables: Iterable[str]) -> GroupIndex:
        """Create (or fetch) the group index on ``variables``.

        Building the index over an existing relation costs O(|relation|);
        afterwards it is maintained incrementally by :meth:`add`/:meth:`set`.
        """
        group_vars = tuple(variables)
        index = self._indexes.get(group_vars)
        if index is None:
            if not self.schema.covers(group_vars):
                raise KeyError(
                    f"index variables {group_vars!r} not in schema "
                    f"{self.schema.variables!r} of relation {self.name!r}"
                )
            index = GroupIndex(self.schema, group_vars)
            for key in self.data:
                index.add(key)
            self._indexes[group_vars] = index
        return index

    def group(self, variables: Iterable[str], group_key: tuple) -> Iterator[tuple]:
        """Enumerate keys agreeing with ``group_key`` on ``variables``."""
        index = self.index_on(variables)
        COUNTER.bump("lookup")
        for key in index.keys_in_group(group_key):
            COUNTER.bump("enum")
            yield key

    def group_items(
        self, variables: Iterable[str], group_key: tuple
    ) -> Iterator[tuple[tuple, Any]]:
        """Enumerate ``(key, payload)`` pairs agreeing with ``group_key``.

        Reads payloads straight from :attr:`data` — one index probe plus
        one enumeration step per match, with no per-match payload lookup.
        This is the probe the join operators and the compiled delta
        kernels use; :meth:`group` + :meth:`get` would count (and pay) an
        extra hash probe per matching pair.
        """
        index = self.index_on(variables)
        COUNTER.bump("lookup")
        data = self.data
        for key in index.keys_in_group(group_key):
            COUNTER.bump("enum")
            yield key, data[key]

    def group_size(self, variables: Iterable[str], group_key: tuple) -> int:
        """Number of keys agreeing with ``group_key`` on ``variables``."""
        COUNTER.bump("lookup")
        return self.index_on(variables).group_size(group_key)

    def distinct(self, variables: Iterable[str]) -> Iterator[tuple]:
        """Enumerate the distinct projections of the keys onto ``variables``."""
        index = self.index_on(variables)
        for group_key in index.group_keys():
            COUNTER.bump("enum")
            yield group_key

    # ------------------------------------------------------------------
    # Whole-relation helpers (used by the naive evaluator and tests)
    # ------------------------------------------------------------------

    def copy(self, name: str | None = None) -> "Relation":
        """Copy the relation *including* its group indexes.

        Copying entries is real work — one write per tuple plus one index
        posting per (index, tuple) pair — and is counted as such, so
        ``COUNTER``-based complexity assertions see it.  Carrying the
        indexes over means a copy never repays the O(n) index builds the
        original already performed.
        """
        clone = Relation(name or self.name, self.schema, self.ring)
        COUNTER.bump("write", len(self.data))
        clone.data = dict(self.data)
        for group_vars, index in self._indexes.items():
            COUNTER.bump("write", len(self.data))
            clone._indexes[group_vars] = index.copy()
        return clone

    def project_onto(self, variables: Iterable[str], name: str | None = None) -> "Relation":
        """Sum payloads of keys agreeing on ``variables`` (marginalization
        with the trivial COUNT lifting on the dropped variables)."""
        variables = tuple(variables)
        out = Relation(name or f"pi_{self.name}", Schema(variables), self.ring)
        project = self.schema.projector(variables)
        for key, payload in self.data.items():
            out.add(project(key), payload)
        return out

    def scale(self, factor: Any, name: str | None = None) -> "Relation":
        """Multiply every payload by ``factor`` (used for delta weighting)."""
        out = Relation(name or self.name, self.schema, self.ring)
        for key, payload in self.data.items():
            out.add(key, self.ring.mul(payload, factor))
        return out

    def to_dict(self) -> dict[tuple, Any]:
        return dict(self.data)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Relation):
            return (
                self.schema == other.schema
                and self.ring == other.ring
                and self.data == other.data
            )
        return NotImplemented

    def __hash__(self) -> int:  # relations are mutable; identity hash
        return id(self)

    def __repr__(self) -> str:
        return (
            f"Relation({self.name!r}, schema={self.schema.variables!r}, "
            f"size={len(self.data)})"
        )

    def pretty(self, limit: int = 20) -> str:
        """Small fixed-width rendering, used by examples and docs.

        Keys are sorted with a type-tagged key, so relations mixing value
        types (ints and strings in the same column) render deterministically
        instead of raising ``TypeError`` from a cross-type comparison.
        """

        def tagged(item: tuple[tuple, Any]) -> tuple:
            return tuple((type(v).__name__, v) for v in item[0])

        try:
            entries = sorted(self.data.items(), key=tagged)
        except TypeError:
            # Same-type values that refuse ordering (complex, dicts, ...):
            # fall back to a repr ordering, still deterministic.
            entries = sorted(
                self.data.items(),
                key=lambda item: tuple(repr(v) for v in item[0]),
            )
        header = " ".join(self.schema.variables) + " | payload"
        lines = [header, "-" * len(header)]
        for i, (key, payload) in enumerate(entries):
            if i == limit:
                lines.append(f"... ({len(self.data) - limit} more)")
                break
            lines.append(" ".join(str(v) for v in key) + f" | {payload}")
        return "\n".join(lines)
