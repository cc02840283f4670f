"""Per-epoch output change streams: O(δ) maintained reads.

IVM's founding bargain (PAPER.md §3–§4) is that consumers pay for
*changes*, not recomputation — yet a full materialization
(``output_relation`` / ``enumerate_snapshot``) re-drains the whole
output in O(view size) even when a commit touched a handful of tuples.
This module closes that gap at the serving boundary: after each
``publish_epoch()`` the engine diffs the new snapshot against the
previous one and emits a compact :class:`OutputDelta` —
``(epoch_from, epoch_to, [(key, old_payload, new_payload)])`` — that a
:class:`MaterializedView` subscriber applies in O(δ).

**Change oracle.** The previous snapshot's pre-image maps
(:mod:`repro.viewtree.epoch`) already name every key written during the
epoch, first write wins, with its payload at the previous publish —
``ABSENT`` when it was not there.  So the write path does nothing for
change streams beyond what snapshots make it do anyway: at publish the
tracker reads each tracked relation's map of the previous snapshot for
its written keys and for whether each was present before, and the live
dict for whether it is present now.  Only the relations the
enumeration actually reads are tracked, and in a free-top order every
one of them has schema ⊆ head, so a key of one *is* a pattern over head
variables (a ``prebound`` probe, O(1) per step).  They come in two
kinds, told apart once, at construction:

* **valued** — the leaves anchored at free nodes and the boundary views
  of non-free subtrees.  Enumeration multiplies their payloads into the
  output payload.
* **guard-only** — the guard ``G_X`` of a free node that is not itself
  one of that node's leaves.  Enumeration reads it for *membership*
  only (which candidates exist); its payload never reaches an output
  tuple — although it moves on every update below the node, which is
  why treating its writes as changes costs a whole group per update.

At publish, a written key of a valued relation is a pattern; a written
key of a guard-only relation is a pattern only if its membership differs
between the two snapshots.  Each pattern is then enumerated on the old
snapshot only if its key was in that relation there, and on the new one
only if it is there: an insert never walks the old side, a delete never
the new one, and a key written but absent from both costs one map entry
and one ``in`` test.  The old side is the live state read through the
previous snapshot's maps, so no table is copied to keep it.  Every write
records its key, ``clear()`` included (it deletes key by key under a
live map), so the previous snapshot's map names every written key.

*Why this is exact.*  An output tuple ``t`` is produced on a side iff the
projection of ``t`` onto every tracked relation is present on that side,
and its payload is the product of the valued entries alone.  Hence (a) a
side on which the pattern's own key is absent yields nothing under that
pattern, so skipping it loses nothing; and (b) a ``t`` that differs
between the two epochs — present on one side only, or with another
payload — projects onto a valued key that was written or onto a guard
key whose membership flipped, so some pattern covers it.  Everything a
pattern enumerates is compared old against new, so covered-but-equal
tuples drop out.  On ``Q(Y,X,Z) = R(Y,X) * S(Y,Z)`` an update to
``R(y,x)`` costs one walk of ``S(y,·)`` on one side, plus a walk of the
``y`` group only when ``y`` itself appears or disappears.  Empty-head
queries shortcut to an O(1) scalar comparison.

**Retention.** Per-epoch deltas live in a :class:`DeltaWindow` held by
subscriber cursors.  After every refresh a :class:`MaterializedView`
registers its epoch and a budget of ``ratio_threshold × max(len(state),
1)`` entries; the window keeps what each cursor needs until the entries
summed since it pass its budget, the point at which the view's own ratio
check would choose a full drain anyway.  So a reader that lags many
small commits still patches, and one that lags a large change drains
without the window having kept that change for it.  Past the cursors the
window keeps the newest :data:`RETAIN_EPOCHS` deltas (matching the shard
workers' snapshot window) for callers without one.  ``changes_since``
composes the retained deltas and raises :class:`EpochGapError` for
anything older — never a silent partial delta.

**Wire.** A shard worker ships its delta as plain key/old/new columns
(:func:`encode_delta`), the same for every ring: payloads cross the pipe
as the objects the shard holds, never converted.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import deque
from typing import Any, Iterator

from ..data.relation import ABSENT

#: How many of the newest per-epoch deltas stay addressable whatever
#: the cursors hold: the window of a caller without a cursor.
#: Deliberately equal to the shard workers' snapshot window
#: (`repro.shard.worker` imports this), so a one-epoch request from the
#: coordinator always finds its shard deltas.
RETAIN_EPOCHS = 4


class EpochGapError(RuntimeError):
    """Changes requested from an epoch outside the retained window.

    Raised instead of returning a partial delta; consumers
    (:class:`MaterializedView`) fall back to a full drain.
    """


class OutputDelta:
    """The output view's change between two published epochs.

    ``entries`` is a list of ``(key, old_payload, new_payload)`` with
    ``None`` meaning *absent*: an insert is ``(k, None, p)``, a delete
    ``(k, p, None)``, an update ``(k, p, p')``.  Payloads are the exact
    objects the two snapshots enumerate, so applying a delta stream to a
    stale materialization is bit-identical to a fresh drain (floats
    included — patches set absolute values, they never re-add).
    """

    __slots__ = ("epoch_from", "epoch_to", "entries")

    def __init__(
        self,
        epoch_from: int,
        epoch_to: int,
        entries: list[tuple[tuple, Any, Any]],
    ):
        self.epoch_from = epoch_from
        self.epoch_to = epoch_to
        self.entries = entries

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[tuple, Any, Any]]:
        return iter(self.entries)

    def apply_to(self, state: dict) -> None:
        """Patch a dict materialization to this delta's ``epoch_to``.

        Set-to-absolute semantics: values are overwritten, absences
        deleted.  Applying to a state that already reflects part of a
        *later* epoch still converges (every key that moved is in some
        retained delta), which is what makes the full-refresh epoch
        bookkeeping race-free under concurrent publishes.
        """
        pop = state.pop
        for key, _old, new in self.entries:
            if new is None:
                pop(key, None)
            else:
                state[key] = new

    def __repr__(self) -> str:
        return (
            f"OutputDelta({self.epoch_from}->{self.epoch_to}, "
            f"{len(self.entries)} entries)"
        )


def compose_deltas(
    deltas: list[OutputDelta], epoch_from: int, epoch_to: int
) -> OutputDelta:
    """Collapse consecutive per-epoch deltas into one.

    Per key: the *old* payload comes from the first delta mentioning it,
    the *new* from the last; keys that round-trip back to their original
    payload drop out entirely.
    """
    old_of: dict[tuple, Any] = {}
    new_of: dict[tuple, Any] = {}
    for delta in deltas:
        for key, old, new in delta.entries:
            if key not in old_of:
                old_of[key] = old
            new_of[key] = new
    entries = [
        (key, old_of[key], new)
        for key, new in new_of.items()
        if old_of[key] != new
    ]
    return OutputDelta(epoch_from, epoch_to, entries)


# ----------------------------------------------------------------------
# Wire encoding (shard worker ``changes`` command)
# ----------------------------------------------------------------------


def encode_delta(delta: OutputDelta) -> tuple:
    """Encode a delta for the pipe as parallel key/old/new columns.

    Three flat lists pickle smaller and faster than the list of entry
    triples; payloads (``None`` for absent) cross unconverted, so the
    coordinator sees exactly the objects the shard enumerated.
    """
    entries = delta.entries
    return (
        delta.epoch_from,
        delta.epoch_to,
        [entry[0] for entry in entries],
        [entry[1] for entry in entries],
        [entry[2] for entry in entries],
    )


def decode_delta(wire: tuple) -> OutputDelta:
    """Decode :func:`encode_delta` output."""
    epoch_from, epoch_to, keys, olds, news = wire
    return OutputDelta(epoch_from, epoch_to, list(zip(keys, olds, news)))


# ----------------------------------------------------------------------
# Retained per-epoch delta window (shared by engine + shard trackers)
# ----------------------------------------------------------------------


class DeltaWindow:
    """A contiguous window of per-epoch output deltas, held by cursors.

    Each subscriber that can patch holds a *cursor*: the epoch it is at
    and a *budget*, the number of delta entries past which it would
    rather re-drain than patch (``MaterializedView`` registers
    ``ratio_threshold × max(len(state), 1)`` after every refresh).  The
    window keeps every delta a live cursor still needs while the entries
    summed since that cursor stay within its budget; a cursor that goes
    over is released, and its deltas drop unless someone else needs
    them.  Past the live cursors the window keeps the newest
    :data:`RETAIN_EPOCHS` deltas, the floor every caller without a
    cursor can count on.  Cursors hold their subscriber weakly, so a
    collected subscriber stops holding deltas at the next append.
    Upkeep is O(live cursors) per append: a cursor keeps the running
    entry total at its epoch, so nothing rescans the deltas.

    Mutations and reads may come from different threads (the serve
    tier publishes size-sealed commits on a worker thread while the
    event loop composes catch-up deltas), so all of it runs under a
    lock.  Retained deltas are immutable: ``changes_since`` hands the
    same object to every caller that asks for exactly one epoch.
    """

    def __init__(self, baseline_epoch: int):
        self.epoch = baseline_epoch
        self._deltas: deque[OutputDelta] = deque()
        #: Entries appended since the window started.
        self._total = 0
        #: ``id(subscriber) -> [weakref, epoch, total at epoch, budget]``.
        self._cursors: dict[int, list] = {}
        self._lock = threading.Lock()

    def append(self, delta: OutputDelta) -> None:
        with self._lock:
            if delta.epoch_from != self.epoch:
                raise ValueError(
                    f"non-contiguous delta "
                    f"{delta.epoch_from}->{delta.epoch_to} "
                    f"appended at epoch {self.epoch}"
                )
            deltas = self._deltas
            deltas.append(delta)
            self.epoch = delta.epoch_to
            total = self._total = self._total + len(delta.entries)
            cursors = self._cursors
            keep_from = self.epoch
            for ident, (ref, epoch, mark, budget) in list(cursors.items()):
                if ref() is None or total - mark > budget:
                    del cursors[ident]
                elif epoch < keep_from:
                    keep_from = epoch
            while len(deltas) > RETAIN_EPOCHS and deltas[0].epoch_from < keep_from:
                deltas.popleft()

    def hold(self, subscriber: Any, epoch: int, budget: float) -> None:
        """Keep the deltas after ``epoch`` for ``subscriber`` (held
        weakly) while their entries sum to at most ``budget``.

        Replaces the subscriber's previous cursor.  An epoch outside the
        window, or a lag already over budget, holds nothing: the
        subscriber's next ``changes_since`` then gaps or fails its ratio
        check, and it drains.
        """
        with self._lock:
            cursors = self._cursors
            cursors.pop(id(subscriber), None)
            deltas = self._deltas
            oldest = deltas[0].epoch_from if deltas else self.epoch
            if not oldest <= epoch <= self.epoch:
                return
            spent = 0
            for delta in reversed(deltas):
                if delta.epoch_from < epoch:
                    break
                spent += len(delta.entries)
            if spent <= budget:
                cursors[id(subscriber)] = [
                    weakref.ref(subscriber), epoch, self._total - spent, budget,
                ]

    def __len__(self) -> int:
        """Deltas retained."""
        return len(self._deltas)

    def reset(self, baseline_epoch: int) -> None:
        """Restart the window (pool rebuilds): older epochs become gaps
        and every cursor is released."""
        with self._lock:
            self.epoch = baseline_epoch
            self._deltas.clear()
            self._cursors.clear()

    def changes_since(self, epoch: int) -> OutputDelta:
        """One composed delta from ``epoch`` to the window's newest.

        Raises :class:`EpochGapError` when ``epoch`` predates the
        window, ``ValueError`` when it lies in the future.
        """
        with self._lock:
            if epoch > self.epoch:
                raise ValueError(
                    f"epoch {epoch} not published yet (at {self.epoch})"
                )
            if epoch == self.epoch:
                return OutputDelta(epoch, epoch, [])
            deltas = self._deltas
            if deltas and deltas[-1].epoch_from == epoch:
                # The steady state of a per-commit consumer: one epoch
                # behind, nothing to compose.
                return deltas[-1]
            selected = [d for d in deltas if d.epoch_from >= epoch]
            if not selected or selected[0].epoch_from != epoch:
                raise EpochGapError(
                    f"epoch {epoch} is outside the retained change window "
                    f"(oldest available: "
                    f"{selected[0].epoch_from if selected else self.epoch})"
                )
            return compose_deltas(selected, epoch, self.epoch)


# ----------------------------------------------------------------------
# Engine-side tracker
# ----------------------------------------------------------------------


class ChangeTracker:
    """Maintains a :class:`DeltaWindow` for one ``ViewTreeEngine``.

    Created lazily by ``ViewTreeEngine.track_changes()``: finds exactly
    the relations enumeration reads, classifies each as valued or
    guard-only (module docstring) and baselines at a fresh published
    snapshot, which it holds until the next publish.  On every
    subsequent publish, :meth:`on_publish` turns the held snapshot's
    pre-image maps into the patterns that could have changed,
    enumerates each on the snapshots that hold its key, and appends the
    resulting per-epoch delta.
    """

    def __init__(self, engine):
        self.engine = engine
        # Baseline at a fresh publish: the window starts at the epoch of
        # the snapshot held here, whose maps name every later write.
        # record=False: enabling tracking is not an application-level
        # epoch publish (keeps `epochs_published == commits + 1` for
        # the serve tier).
        snap = engine.publish_epoch(record=False)
        head = engine.query.head
        #: ``(relation, schema variables, guard_only)`` per tracked
        #: relation, in enumeration order.
        self.tracked: list[tuple[Any, tuple[str, ...], bool]] = []
        if head:
            seen: dict[int, Any] = {}
            valued: set[int] = set()
            for spec in engine._enum_schedule_specs():
                if spec[0]:
                    seen[id(spec[2])] = spec[2]
                    leaves = [leaf for leaf, _ in spec[6]]
                else:
                    leaves = [spec[1]]
                for rel in leaves:
                    seen[id(rel)] = rel
                    valued.add(id(rel))
            head_set = set(head)
            for ident, rel in seen.items():
                variables = rel.schema.variables
                if not set(variables) <= head_set:
                    raise TypeError(
                        f"relation {rel.name!r} (schema "
                        f"{variables!r}) escapes the head "
                        f"{head!r}; change streams need a free-top "
                        "order"
                    )
                self.tracked.append((rel, variables, ident not in valued))
        self._prev = snap
        self.window = DeltaWindow(snap.number)

    def on_publish(self, snap) -> OutputDelta:
        """Diff the freshly-captured snapshot against the previous one."""
        engine = self.engine
        prev = self._prev
        if engine.query.head:
            entries = self._diff_patterns(prev, snap)
        else:
            entries = self._diff_scalar(prev, snap)
        delta = OutputDelta(prev.number, snap.number, entries)
        self._prev = snap
        self.window.append(delta)
        return delta

    def _diff_scalar(self, prev, snap) -> list:
        engine = self.engine
        is_zero = engine.ring.is_zero
        old = engine.scalar_snapshot(prev)
        new = engine.scalar_snapshot(snap)
        old_v = None if is_zero(old) else old
        new_v = None if is_zero(new) else new
        if old_v == new_v:
            return []
        return [((), old_v, new_v)]

    def _diff_patterns(self, prev, snap) -> list:
        old_region: dict[tuple, Any] = {}
        new_region: dict[tuple, Any] = {}
        enumerate_ = self.engine._enumerate
        for rel, variables, guard_only in self.tracked:
            after = rel.data  # the new snapshot's state: no write since
            for key, was in _written(prev, rel):
                now = key in after
                if was == now and (guard_only or not was):
                    continue
                # Overlapping patterns re-derive identical payloads for a
                # shared output key, so plain dict overwrites dedupe them.
                prebound = dict(zip(variables, key))
                if was:
                    old_region.update(enumerate_(prebound, None, epoch=prev))
                if now:
                    new_region.update(enumerate_(prebound, None, epoch=snap))
        entries = []
        for key, old in old_region.items():
            new = new_region.get(key)
            if new is None:
                entries.append((key, old, None))
            elif new != old:
                entries.append((key, old, new))
        for key, new in new_region.items():
            if key not in old_region:
                entries.append((key, None, new))
        return entries

    def changes_since(self, epoch: int) -> OutputDelta:
        return self.window.changes_since(epoch)


def _written(snap, rel) -> list[tuple[tuple, bool]]:
    """``(key, present at snap's publish)`` per key of ``rel`` written since."""
    _, undo = snap.data_of(rel)
    return [(key, old is not ABSENT) for key, old in undo.items()]


# ----------------------------------------------------------------------
# Subscriber-side maintained materialization
# ----------------------------------------------------------------------


class MaterializedView:
    """A dict materialization of the output, patched per epoch in O(δ).

    ``source`` is a backend exposing ``epoch`` (last published epoch
    number), ``changes_since(epoch)``, ``hold_changes(subscriber,
    epoch, budget)``, ``enumerate_snapshot()`` and ``stats`` (the
    recorder patches and refreshes are counted in) —
    ``ViewTreeEngine`` and ``ShardedEngine`` qualify.  :meth:`refresh`
    patches the state forward; it falls back to a full snapshot drain
    (counted as ``full_refresh_fallbacks``) when the subscriber fell out
    of the retained window or the delta/state ratio exceeds
    ``ratio_threshold``.

    After every refresh the view holds a cursor on the source's window
    with a budget of ``ratio_threshold ×
    max(len(state), 1)`` entries, so its next refresh patches however
    many epochs it lags, as long as their deltas sum to at most that;
    past it the cursor is released and the refresh drains, which the
    ratio check would have chosen anyway.  The window holds the view
    weakly: a dropped view stops holding deltas.
    """

    def __init__(self, source, ratio_threshold: float = 0.5):
        self.source = source
        self.ratio_threshold = ratio_threshold
        self.state: dict[tuple, Any] = {}
        self.epoch = 0
        self.full_refreshes = 0
        self._full_refresh(initial=True)

    # -- read surface ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.state)

    def items(self) -> Iterator[tuple[tuple, Any]]:
        return iter(self.state.items())

    def get(self, key: tuple, default: Any = None) -> Any:
        return self.state.get(key, default)

    @property
    def scalar(self) -> Any:
        """Maintained empty-head payload (``None`` when the output is zero)."""
        return self.state.get(())

    # -- maintenance ----------------------------------------------------

    def refresh(self) -> bool:
        """Catch the materialization up to the last published epoch.

        Returns ``True`` when anything changed (including a fallback
        drain), ``False`` when already current.
        """
        target = self.source.epoch
        if target == self.epoch:
            return False
        try:
            delta = self.source.changes_since(self.epoch)
        except EpochGapError:
            self._full_refresh()
            return True
        size = len(self.state)
        if len(delta.entries) > self.ratio_threshold * max(size, 1):
            self._full_refresh()
            return True
        start = time.perf_counter()
        delta.apply_to(self.state)
        self.epoch = delta.epoch_to
        self._hold()
        stats = self.source.stats
        if stats is not None:
            stats.record_change_patch(
                time.perf_counter() - start,
                len(delta.entries),
                len(delta.entries) / max(size, 1),
            )
        return True

    def _hold(self) -> None:
        """Hold the source's deltas from this epoch, within the budget
        a patch is worth."""
        self.source.hold_changes(
            self, self.epoch, self.ratio_threshold * max(len(self.state), 1)
        )

    def _full_refresh(self, initial: bool = False) -> None:
        # Epoch is read *before* the drain: if a publish lands mid-drain
        # the state may mix epochs, but the next patch (set-to-absolute)
        # re-converges it — see OutputDelta.apply_to.
        epoch = self.source.epoch
        self.state = dict(self.source.enumerate_snapshot())
        self.epoch = epoch
        self._hold()
        if not initial:
            self.full_refreshes += 1
            stats = self.source.stats
            if stats is not None:
                stats.record_full_refresh()
