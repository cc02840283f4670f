"""Merged output change streams across shards.

:class:`ShardChangeTracker` is the coordinator-side half of
``ShardedEngine.track_changes``: at every coordinator publish it pulls
each shard's output delta (the ``changes`` command of
:class:`~repro.shard.worker.ShardRuntime`) and folds them into one
coordinator-epoch :class:`~repro.viewtree.changes.OutputDelta`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..viewtree.changes import (
    DeltaWindow,
    EpochGapError,
    OutputDelta,
    decode_delta,
)
from .worker import ShardWorkerError

if TYPE_CHECKING:
    from .engine import ShardedEngine


class ShardChangeTracker:
    """Folds per-shard output deltas into merged coordinator deltas.

    Shard outputs are **not** disjoint in general (the shard variable
    need not appear in the head), so a merged payload is the shard-order
    ring fold of the per-shard payloads — exactly what
    ``ShardedEngine._merged_output`` computes by replaying every shard
    entry through ``Relation.add``.  To diff that merge in O(δ) the
    tracker keeps each shard's *absolute* output state in a plain dict
    (seeded from a snapshot enumeration at enable time, then patched by
    the very deltas it pulls), re-folds only the keys named by some
    shard's delta, and emits the keys whose merged payload moved.

    Epoch addressing: per-shard deltas are pulled eagerly at every
    coordinator publish, so the window advances in lockstep with
    ``ShardedEngine.epoch`` and shards are only ever asked for the
    one-epoch step ``(prev, number)`` — inside the ``RETAIN_EPOCHS``
    floor of a shard's change window, which holds no cursors.  The
    merged deltas live in the coordinator's window, the same
    :class:`~repro.viewtree.changes.DeltaWindow` a ``ViewTreeEngine``
    keeps, so a coordinator subscriber's cursor holds them within its
    budget exactly as it would unsharded.  A shard rebuild loses the
    shard-side tracking state; the tracker is marked stale,
    resynchronizes at the next publish, and resets the window (releasing
    every cursor) so stale subscribers observe :class:`EpochGapError`
    and full-drain instead of patching against a hole.
    """

    __slots__ = (
        "owner", "ring", "window", "shard_states", "last_bytes", "stale",
    )

    def __init__(self, owner: "ShardedEngine"):
        self.owner = owner
        self.ring = owner.ring
        self.last_bytes = 0
        self.stale = False
        # Enable shard-side tracking first (each shard baselines at a
        # fresh engine epoch), then publish one coordinator epoch so the
        # shards record the coordinator-number -> engine-number mapping,
        # then pull the per-shard output states frozen at that epoch.
        owner._broadcast(("track_changes", None))
        self._seed_states(owner.publish_epoch(record=False))
        self.window = DeltaWindow(owner.epoch)

    def _seed_states(self, pin: int) -> None:
        """Each shard's absolute output state, frozen at ``pin``."""
        self.shard_states = [
            dict(entries)
            for entries in self.owner._shard_outputs(None, pin, False)
        ]

    # -- publish hook ---------------------------------------------------

    def on_publish(self, number: int) -> OutputDelta | None:
        """Pull, merge, and retain the delta for coordinator ``number``.

        Called from ``ShardedEngine.publish_epoch`` right after the
        epoch advanced.  Returns ``None`` when the stream had to resync
        instead of emitting (rebuilt shards): the window restarts at
        ``number`` and older subscribers full-drain.
        """
        owner = self.owner
        self.last_bytes = 0
        if self.stale:
            # Rebuild tracking state at the already-published epoch.
            owner._broadcast(("track_changes", number))
            self._seed_states(number)
            self.window.reset(number)
            self.stale = False
            return None
        prev = self.window.epoch
        try:
            replies = owner._broadcast(("changes", prev))
        except (ShardWorkerError, EpochGapError):
            # A shard could not answer mid-stream: the publish itself
            # already succeeded, so resync at the next one.
            self.stale = True
            return None
        shard_deltas = [decode_delta(reply.payload) for reply in replies]
        self.last_bytes = sum(reply.bytes_received for reply in replies)
        delta = self._merge(prev, number, shard_deltas)
        self.window.append(delta)
        return delta

    # -- merging --------------------------------------------------------

    def _fold(self, key: tuple) -> Any:
        """The merged payload for ``key``: shard-order ``Relation.add``.

        ``None`` encodes "absent from the merged output" — per-shard
        states never store ring zeros, and an intermediate fold hitting
        the ring zero deletes the entry exactly as ``Relation.add``
        would, so the result is bit-identical to a merged full drain.
        """
        ring = self.ring
        acc = None
        for state in self.shard_states:
            payload = state.get(key)
            if payload is None:
                continue
            if acc is None:
                acc = payload
            else:
                acc = ring.add(acc, payload)
                if ring.is_zero(acc):
                    acc = None
        return acc

    def _merge(self, prev: int, number: int, shard_deltas) -> OutputDelta:
        # Keys in first-seen order (shard order, then entry order), as
        # the unsharded ChangeTracker emits them: a set's order would
        # follow the hash seed on string keys.
        olds = {}
        for delta in shard_deltas:
            for key, _old, _new in delta:
                if key not in olds:
                    olds[key] = self._fold(key)
        for state, delta in zip(self.shard_states, shard_deltas):
            delta.apply_to(state)
        entries = []
        for key, old in olds.items():
            new = self._fold(key)
            if old != new:
                entries.append((key, old, new))
        return OutputDelta(prev, number, entries)
