"""Epoch snapshots: immutable, consistent views of a committed prefix.

The serving tier's concurrency model: maintenance keeps writing into the
live relations while any number of reader threads enumerate a frozen
*epoch* — the state of every view, guard, leaf and base relation at the
last ``publish_epoch()`` call — with the same constant-delay guarantees
as a serialized read.

**Pre-image maps.**  Writes always go in place; nothing is copied at
publish or after it.  Instead each live :class:`EpochSnapshot` owns one
pre-image map per relation it covers (and one per group index), opened
by :meth:`~repro.data.relation.Relation.share_version`.  The write paths
fill the maps of the live snapshots before they write, first write
wins: key -> payload at publish, or ``ABSENT``; for an index, group key
-> the bucket object at publish.  So a map holds exactly the keys
written since its publish, and an epoch costs O(keys written), not a
copy of every table it touches.  Buckets keep copy-on-write at bucket
granularity: a bucket is copied once, before its first write after a
publish, so published buckets are never mutated and snapshot iteration
walks them in their publish-time order.

**Reads: live first, map second.**  A snapshot reads a key as
``undo.get(key, live.get(key))`` (:class:`VersionView`; the generated
enumeration kernel emits the same expression).  The order is what makes
a read racing a commit exact: the writer records the pre-image *before*
it writes the live dict, so a reader that saw the new live value finds
the old one in the map, and one that saw the old live value gets the
same from either.  No write replaces a live dict while a map is open —
a ``clear()`` under a live snapshot deletes key by key, recording each —
so a snapshot's dicts stay the relation's own.

**Release.**  A map lives as long as its snapshot.  The
:class:`SnapshotRegistry` of each writer holds weak references and
detaches the maps of unreachable snapshots at each publish, on the
writing thread — readers never mutate a relation.  Hold a snapshot while
reading through it: its maps are only kept current while it is alive.

**Rollback.**  The payload maps are also an undo log.  A group index is
a function of its relation's key set, so undo needs the payload
pre-images alone: :meth:`~repro.data.relation.Relation.restore` writes
each back by key and the postings follow.  A commit that raises is
undone from the newest published snapshot's maps when nothing was
written since that publish (:meth:`EpochSnapshot.restore`), else from a
checkpoint: one plain payload map per relation, opened for the commit
and detached after it, with no bucket map and no snapshot
(``ViewTreeEngine._atomically``).  Bucket maps serve snapshot readers
only.

Publication is a single attribute assignment (atomic under the GIL), so
readers see either the whole previous epoch or the whole new one.
"""

from __future__ import annotations

import weakref
from typing import Any, Iterable


class VersionView:
    """A read-only view of one payload dict (or bucket dict) at an epoch.

    ``get`` and ``in`` read the live dict first and the epoch's
    pre-image map second (module docstring).
    """

    __slots__ = ("live", "undo")

    def __init__(self, live: dict, undo: dict):
        self.live = live
        self.undo = undo

    def get(self, key: Any, default: Any = None) -> Any:
        found = self.undo.get(key, self.live.get(key))
        return default if found is None else found

    def __contains__(self, key: Any) -> bool:
        return self.undo.get(key, self.live.get(key)) is not None


class EpochSnapshot:
    """One published epoch: the live dicts plus their pre-image maps.

    ``versions`` maps ``id(relation)`` to ``(relation, data, undo,
    {group_vars: (buckets, bucket_undo)})``, what
    :meth:`~repro.data.relation.Relation.share_version` returned.
    ``cow_buckets`` / ``undo_entries`` report the work of the epoch this
    publish closed: buckets copied, and pre-images recorded, since the
    prior publish.
    """

    __slots__ = ("number", "versions", "cow_buckets", "undo_entries", "__weakref__")

    def __init__(self, number: int, relations: Iterable[Any]):
        self.number = number
        self.versions: dict[int, tuple] = {}
        self.cow_buckets = 0
        self.undo_entries = 0
        for relation in relations:
            ident = id(relation)
            if ident not in self.versions:
                self.versions[ident] = (relation, *relation.share_version())

    def data_of(self, relation: Any) -> tuple[dict, dict]:
        """``(live payload dict, pre-image map)`` of ``relation``."""
        try:
            _, data, undo, _ = self.versions[id(relation)]
        except KeyError:
            raise RuntimeError(
                f"relation {getattr(relation, 'name', relation)!r} is not "
                f"covered by epoch {self.number}; call publish_epoch() "
                "after structural changes"
            ) from None
        return data, undo

    def groups_of(
        self, relation: Any, group_vars: tuple[str, ...]
    ) -> tuple[dict, dict]:
        """``(live bucket dict, pre-image map)`` of ``relation``'s index
        on ``group_vars``."""
        try:
            return self.versions[id(relation)][3][group_vars]
        except KeyError:
            raise RuntimeError(
                f"index on {group_vars!r} of relation "
                f"{getattr(relation, 'name', relation)!r} is not covered by "
                f"epoch {self.number}; call publish_epoch() after "
                "structural changes"
            ) from None

    def view(self, relation: Any, group_vars: tuple[str, ...] | None = None):
        """A :class:`VersionView` of ``relation``'s payloads (or, with
        ``group_vars``, of its index buckets) at this epoch."""
        if group_vars is None:
            return VersionView(*self.data_of(relation))
        return VersionView(*self.groups_of(relation, group_vars))

    def written(self) -> bool:
        """Whether any covered relation was written since the publish."""
        return any(undo for _, _, undo, _ in self.versions.values())

    def work(self) -> tuple[int, int]:
        """``(buckets copied, pre-images recorded)`` since the publish,
        a rolled-back commit's included (:meth:`restore`)."""
        buckets = entries = 0
        for _, _, undo, groups in self.versions.values():
            entries += len(undo)
            for _, bucket_undo in groups.values():
                entries += len(bucket_undo)
                # A recorded bucket (not ABSENT) was copied before its write.
                buckets += sum(map(bool, bucket_undo.values()))
        return buckets, entries

    def restore(self) -> None:
        """Put every covered relation back to this epoch's state.

        Writer thread only, and on the newest snapshot still held: the
        restore records nothing, so a newer one would read the restored
        payload of a key its map lacks.  Readers of this snapshot, and
        of older ones, stay exact throughout: every restored key is in
        their maps, which are read last and keep their entries.
        (Emptying the maps afterwards would race a reader that fetched a
        torn live value just before the restore and then misses in the
        map.)  So the rolled-back writes still count in the next
        publish's :meth:`work`, and the change tracker re-reads their
        keys, whose diff comes out empty.  Payload maps alone are read:
        buckets follow the restored keys, with contents exact and member
        order not (:meth:`~repro.data.relation.Relation.restore`).
        """
        for relation, _, undo, _ in self.versions.values():
            relation.restore(undo)


class SnapshotRegistry:
    """The live snapshots of one writer (an engine).

    Keeps a weak reference to every snapshot it captured, next to the
    snapshot's maps; :meth:`prune` detaches the maps of the snapshots
    nobody holds any more.  Every method runs on the writing thread.
    """

    __slots__ = ("_live",)

    def __init__(self):
        self._live: list[tuple[weakref.ref, dict[int, tuple]]] = []

    def capture(self, number: int, relations: Iterable[Any]) -> EpochSnapshot:
        """Open a snapshot of ``relations`` (views, guards, leaves, bases)."""
        snap = EpochSnapshot(number, relations)
        self._live.append((weakref.ref(snap), snap.versions))
        return snap

    def prune(self) -> None:
        """Detach the maps of every snapshot that is no longer reachable."""
        live = []
        for ref, versions in self._live:
            if ref() is None:
                _release(versions)
            else:
                live.append((ref, versions))
        self._live = live

    def close(self) -> None:
        """Detach every snapshot's maps and uncover its relations, so a
        read through a snapshot still held raises (the writer is closing)."""
        for _, versions in self._live:
            _release(versions)
            versions.clear()
        self._live = []


def _release(versions: dict[int, tuple]) -> None:
    """Detach a snapshot's maps: later writes record nothing in them."""
    for relation, _, undo, groups in versions.values():
        relation.drop_version(undo)
        for group_vars, (_, bucket_undo) in groups.items():
            index = relation._indexes.get(group_vars)
            if index is not None:
                index.drop_version(bucket_undo)
