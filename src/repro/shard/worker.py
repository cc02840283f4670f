"""The shard runtime, and the worker processes that host it remotely.

A :class:`ShardRuntime` is one shard: its ``ViewTreeEngine`` plus the
small state a coordinator addresses by number (retained epoch
snapshots, the coordinator-epoch -> engine-epoch map of the change
stream), driven by ``handle(command)``.  Every shard of a
:class:`~repro.shard.engine.ShardedEngine` is one of these, wherever it
lives: the coordinator hosts shard 0 (every shard under
``executor="serial"``) and calls ``handle`` directly; shards 1..N-1 of
``executor="process"`` run the same object inside a worker process
behind a pipe.  One implementation per command, two transports.

The remote transport:

* each worker process is spawned **once** from a small pickled
  :class:`ShardWorkerSpec` (query + the shard's slice of the base +
  order + shard id), builds its runtime over the slice, and keeps the
  slice and all view state resident for the life of the pool;
* the parent speaks the command protocol over a duplex pipe —
  ``apply_batch`` ships only the shard's slice of the coalesced batch,
  as the same ``{relation: (keys, payloads)}`` columns shard 0
  receives in-process, pickled as they are for every ring; the worker
  applies them through ``ViewTreeEngine.apply_coalesced_batch`` and
  replies with a bare ack, never the engine;
* stats are lazy: the worker keeps accumulating into its recorder and
  ships the :class:`~repro.obs.MaintenanceStats` *delta* only when
  asked (``pull_stats``, ``shutdown``) — observability is paid for
  when it is read, not per commit;
* reads (``lookup`` routed to the owner shard, ``enumerate`` streamed
  in chunks, ``publish_epoch`` broadcast as a barrier) ride the same
  protocol.

Wire format: every message in either direction is one
``pickle.dumps`` blob sent with ``Connection.send_bytes`` — framing by
length makes the bytes shipped per command directly countable, which
is what feeds the ``ipc`` observability block.  Replies are either a
terminal ``("ok", payload, stats_delta, busy_seconds)`` /
``("err", traceback)`` or any number of ``("chunk", items)`` messages
followed by a terminal one (streamed enumerations).

Epoch snapshots never cross the pipe: ``EpochSnapshot`` objects are
identity-keyed (meaningless after pickling), so every runtime retains
its last few published snapshots keyed by the *coordinator's* epoch
number and snapshot reads name the epoch they want.

Concurrency: one :class:`threading.Lock` per worker is held across a
full send+receive exchange, so concurrent parent threads (the serve
tier's commit executor vs. its event loop) cannot interleave frames.
Rounds take the locks in worker-index order; point commands take
exactly one — no lock-order cycles, hence no deadlocks.  The
coordinator-hosted runtimes take no lock at all: snapshot reads are
lock-free by construction (:mod:`repro.viewtree.epoch`).

Failure: a dead pipe or worker process raises
:class:`ShardWorkerError` naming the shard — each worker's persistent
selector watches the pipe *and* the process sentinel, so a death is
noticed at once, after any final reply is drained — marks the pool
broken, and the coordinator rebuilds it from its authoritative base
database (see ``ShardedEngine._ensure``): surviving shards lose no
committed state because every worker is rebuilt from the same
committed prefix.  Only stats not yet pulled are lost with a pool.
"""

from __future__ import annotations

import pickle
import selectors
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any

from ..data.database import Database
from ..data.update import Update
from ..obs import MaintenanceStats
from ..query.ast import Query
from ..query.variable_order import VariableOrder
from ..rings.lifting import LiftingMap
from ..viewtree.changes import RETAIN_EPOCHS, EpochGapError, encode_delta

# RETAIN_EPOCHS (how many published epochs each worker keeps
# addressable) is imported from repro.viewtree.changes so the worker
# snapshot window and the output change window's floor retain the same
# span; no subscriber holds a cursor on a shard engine's window.  The serve tier reads the latest published epoch while the
# next one is being published; anything older has no readers.

#: Streamed enumeration chunk size (entries per ``("chunk", ...)``).
CHUNK_SIZE = 4096

_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Commands whose reply carries the worker's accumulated stats delta.
#: Commit acks do not: observability is paid for when it is read
#: (``merged_stats`` / ``close``), not on every commit.
_STATS_COMMANDS = frozenset({"pull_stats", "shutdown"})


class ShardWorkerError(RuntimeError):
    """A shard worker failed (dead process, dead pipe, or remote error)."""

    def __init__(self, shard: int, message: str):
        super().__init__(f"shard worker {shard}: {message}")
        self.shard = shard


# ----------------------------------------------------------------------
# The shard runtime (hosted by the coordinator or by a worker process)
# ----------------------------------------------------------------------


@dataclass
class ShardWorkerSpec:
    """Everything needed to build one shard's engine where it will live.

    Small and picklable: the plan inputs plus the shard's slice of the
    base, which the engine's leaves alias — the one-time spawn cost of a
    worker.  After construction the engine lives only in its host.
    """

    query: Query
    database: Database
    shard: int
    order: VariableOrder
    lifting: LiftingMap | None = None
    generated: bool = True

    def build(self, stats: MaintenanceStats | None = None):
        """Construct the shard's ``ViewTreeEngine``, recording into
        ``stats`` (a fresh recorder when the host keeps none)."""
        from ..viewtree.engine import ViewTreeEngine

        if stats is None:
            stats = MaintenanceStats(engine=f"ViewTreeEngine/shard{self.shard}")
        engine = ViewTreeEngine(
            self.query,
            self.database,
            self.order,
            lifting=self.lifting,
            generated=self.generated,
        )
        engine.attach_stats(stats)
        return engine


class ShardRuntime:
    """One shard's engine and epoch bookkeeping, driven by commands."""

    def __init__(self, spec: ShardWorkerSpec, stats: MaintenanceStats | None = None):
        self.spec = spec
        self.engine = spec.build(stats)
        #: Coordinator epoch number -> this shard's EpochSnapshot.
        self.snapshots: dict[int, Any] = {}
        #: Coordinator epoch number -> this shard's *engine* epoch
        #: number, maintained once change tracking is enabled so the
        #: ``changes`` command can translate the coordinator's epoch
        #: addressing into the engine's own delta window.
        self._change_epochs: dict[int, int] | None = None

    def close(self) -> None:
        """Close the engine and empty its slice, which a closed engine keeps."""
        self.engine.close()
        for relation in self.spec.database:
            relation.clear()

    def take_stats(self) -> MaintenanceStats:
        """Swap in a fresh recorder and return the accumulated delta."""
        delta = self.engine.detach_stats()
        self.engine.attach_stats(
            MaintenanceStats(engine=f"ViewTreeEngine/shard{self.spec.shard}")
        )
        return delta

    # Each handler returns (payload, stream) where stream is an
    # iterator of items to deliver before the terminal reply.

    def handle(self, command: tuple):
        op = command[0]
        handler = getattr(self, f"_cmd_{op}", None)
        if handler is None:
            raise ValueError(f"unknown worker command {op!r}")
        return handler(*command[1:])

    def call(self, command: tuple) -> "_Reply":
        """The in-process transport: :meth:`handle` with a pipe
        exchange's reply shape (nothing shipped, no stats piggybacked —
        the host reads this runtime's recorder directly)."""
        payload, stream = self.handle(command)
        items = None if stream is None else list(stream)
        return _Reply(payload, items, None, 0.0, 0, 0)

    def _cmd_apply(self, update: Update):
        self.engine.apply(update)
        return None, None

    def _cmd_apply_batch(self, columns):
        self.engine.apply_coalesced_batch(columns)
        return None, None

    def _cmd_publish_epoch(self, number: int):
        snap = self.engine.publish_epoch(record=False)
        self.snapshots[number] = snap
        for stale in sorted(self.snapshots)[:-RETAIN_EPOCHS]:
            del self.snapshots[stale]
        epochs = self._change_epochs
        if epochs is not None:
            epochs[number] = snap.number
            for stale in sorted(epochs)[: -(RETAIN_EPOCHS + 1)]:
                del epochs[stale]
        return (snap.cow_buckets, snap.undo_entries), None

    def _cmd_track_changes(self, number: int | None):
        """Enable output change tracking on the shard engine.

        ``number`` is the coordinator epoch the freshly published
        tracking baseline should be addressable as (``None`` when the
        coordinator publishes a new epoch right after enabling).
        """
        self.engine.track_changes()
        if number is None:
            self._change_epochs = {}
        else:
            self._change_epochs = {number: self.engine.epoch}
        return None, None

    def _cmd_changes(self, from_number: int):
        """Ship this shard's output delta since coordinator epoch
        ``from_number`` (up to its last publish)."""
        epochs = self._change_epochs
        if epochs is None or from_number not in epochs:
            raise EpochGapError(
                f"shard {self.spec.shard}: coordinator epoch {from_number} "
                f"not in change window (have "
                f"{sorted(epochs) if epochs else []})"
            )
        delta = self.engine.changes_since(epochs[from_number])
        return encode_delta(delta), None

    def _snapshot(self, number: int):
        snap = self.snapshots.get(number)
        if snap is None:
            raise ValueError(
                f"epoch {number} not retained (have {sorted(self.snapshots)})"
            )
        return snap

    def _cmd_scalar(self, number: int | None):
        if number is None:
            return self.engine.scalar(), None
        return self.engine.scalar_snapshot(self._snapshot(number)), None

    def _cmd_enumerate(self, prebound, number: int | None, observed: bool):
        if number is not None:
            iterator = self.engine._enumerate(
                prebound, None, epoch=self._snapshot(number)
            )
        elif observed:
            iterator = self.engine.enumerate(prebound)
        else:
            # Materialization (output_relation) is not an enumeration
            # request; the unobserved drain records no delay samples.
            iterator = self.engine._enumerate(prebound)
        return None, iterator

    def _cmd_lookup(self, key: tuple, number: int | None):
        """The engine's own lookup (recorded as one, not an enumeration)."""
        if number is None:
            return self.engine.lookup(key), None
        return self.engine.lookup_snapshot(key, self._snapshot(number)), None

    def _cmd_views(self):
        entries = []
        for root in self.engine.roots:
            for node in root.walk():
                pairs = [(f"V_{node.variable}", node.view)]
                if node.guard is not None:
                    pairs.append((f"G_{node.variable}", node.guard))
                for name, relation in pairs:
                    entries.append(
                        (
                            name,
                            node.variable,
                            tuple(relation.schema.variables),
                            list(relation.data.items()),
                        )
                    )
        return entries, None

    def _cmd_total_view_size(self):
        return self.engine.total_view_size(), None

    def _cmd_describe(self):
        return self.engine.describe(), None

    def _cmd_pull_stats(self):
        return None, None

    def _cmd_shutdown(self):
        return None, None


def _chunked(iterator):
    chunk: list = []
    for item in iterator:
        chunk.append(item)
        if len(chunk) >= CHUNK_SIZE:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _worker_main(conn, spec_blob: bytes) -> None:
    """Worker process entry point: build the engine, serve commands."""
    try:
        runtime = ShardRuntime(pickle.loads(spec_blob))
    except Exception:
        try:
            conn.send_bytes(
                pickle.dumps(("err", traceback.format_exc()), _PROTOCOL)
            )
        finally:
            conn.close()
        return
    conn.send_bytes(pickle.dumps(("ok", None, None, 0.0), _PROTOCOL))
    while True:
        try:
            blob = conn.recv_bytes()
        except (EOFError, OSError):
            break
        command = pickle.loads(blob)
        op = command[0]
        started = time.perf_counter()
        try:
            payload, stream = runtime.handle(command)
            if stream is not None:
                for chunk in _chunked(stream):
                    conn.send_bytes(pickle.dumps(("chunk", chunk), _PROTOCOL))
            stats = (
                runtime.take_stats() if op in _STATS_COMMANDS else None
            )
            busy = time.perf_counter() - started
            conn.send_bytes(
                pickle.dumps(("ok", payload, stats, busy), _PROTOCOL)
            )
        except Exception:
            try:
                conn.send_bytes(
                    pickle.dumps(("err", traceback.format_exc()), _PROTOCOL)
                )
            except (BrokenPipeError, OSError):
                break
        if op == "shutdown":
            break
    conn.close()


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------


class _Reply:
    """One worker's answer to one command."""

    __slots__ = (
        "payload", "items", "stats", "busy", "bytes_sent", "bytes_received"
    )

    def __init__(self, payload, items, stats, busy, bytes_sent, bytes_received):
        self.payload = payload
        self.items = items
        self.stats = stats
        self.busy = busy
        self.bytes_sent = bytes_sent
        self.bytes_received = bytes_received


class _Worker:
    __slots__ = ("shard", "process", "conn", "lock", "selector")

    def __init__(self, shard, process, conn):
        self.shard = shard
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()
        #: Wakes on a reply *or* on the process exiting, whichever comes
        #: first; built once (``Connection.poll`` builds one per call).
        self.selector = selectors.DefaultSelector()
        self.selector.register(conn, selectors.EVENT_READ)
        self.selector.register(process.sentinel, selectors.EVENT_READ)


class ShardWorkerPool:
    """A fixed set of persistent shard-worker processes.

    Spawned once from per-shard :class:`ShardWorkerSpec`\\ s; every
    subsequent exchange ships deltas and read results only.  All public
    methods are thread-safe (per-worker locks, acquired in index order
    for broadcasts).
    """

    def __init__(self, specs: list[ShardWorkerSpec]):
        import multiprocessing

        self.workers: list[_Worker] = []
        self.broken = False
        self.spawn_bytes = 0
        for spec in specs:
            parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
            blob = pickle.dumps(spec, _PROTOCOL)
            self.spawn_bytes += len(blob)
            process = multiprocessing.Process(
                target=_worker_main,
                args=(child_conn, blob),
                name=f"repro-shard-{spec.shard}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self.workers.append(_Worker(spec.shard, process, parent_conn))
        # Barrier on construction: every worker acks (or reports a
        # build failure) before the pool is usable.
        for worker in self.workers:
            self._collect(worker)

    @property
    def size(self) -> int:
        return len(self.workers)

    # -- transport ------------------------------------------------------

    def _fail(self, worker: _Worker, message: str) -> ShardWorkerError:
        self.broken = True
        return ShardWorkerError(worker.shard, message)

    def _send(self, worker: _Worker, command: tuple) -> int:
        blob = pickle.dumps(command, _PROTOCOL)
        try:
            worker.conn.send_bytes(blob)
        except (BrokenPipeError, OSError) as exc:
            raise self._fail(
                worker,
                f"pipe closed sending {command[0]!r} ({exc}); "
                "the worker process likely crashed — rebuild the pool",
            ) from exc
        return len(blob)

    def _recv_blob(self, worker: _Worker) -> bytes:
        conn = worker.conn
        ready = worker.selector.select()
        # A reply the worker wrote before dying is readable together
        # with the sentinel and is still delivered; the sentinel alone
        # means the process is gone and left nothing behind.
        if not any(key.fileobj is conn for key, _ in ready):
            raise self._fail(
                worker,
                f"worker process died (exitcode "
                f"{worker.process.exitcode}) — rebuild the pool",
            )
        try:
            return conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise self._fail(
                worker, f"pipe closed mid-reply ({exc}) — rebuild the pool"
            ) from exc

    def _collect(self, worker: _Worker, bytes_sent: int = 0) -> _Reply:
        items = None
        received = 0
        while True:
            blob = self._recv_blob(worker)
            received += len(blob)
            message = pickle.loads(blob)
            tag = message[0]
            if tag == "chunk":
                if items is None:
                    items = []
                items.extend(message[1])
            elif tag == "ok":
                _, payload, stats, busy = message
                return _Reply(payload, items, stats, busy, bytes_sent, received)
            elif tag == "err":
                raise ShardWorkerError(
                    worker.shard, f"remote command failed:\n{message[1]}"
                )
            else:  # pragma: no cover - protocol invariant
                raise self._fail(worker, f"unknown reply tag {tag!r}")

    # -- public API -----------------------------------------------------

    def call(self, shard: int, command: tuple) -> _Reply:
        """One command to one worker; blocks for the full round-trip."""
        worker = self.workers[shard]
        with worker.lock:
            sent = self._send(worker, command)
            return self._collect(worker, sent)

    def round(self, commands: list[tuple], overlap=None) -> list[_Reply]:
        """One command per worker, sent to all before collecting any.

        The workers compute concurrently; collection is in index order
        (each worker's reply waits only on that worker).  Locks are
        taken in index order, so a concurrent :meth:`call` cannot
        deadlock against a broadcast.

        ``overlap`` is called exactly once, after the sends and before
        any reply is read, so its work runs while the workers do theirs
        — also when a send fails (the coordinator's base writes must
        land whether or not the round does).  Whatever ``overlap`` or a
        worker raises, every reply still owed is read before the first
        error propagates: an unread ack would answer the next command.
        """
        if len(commands) != len(self.workers):
            raise ValueError(
                f"need {len(self.workers)} commands, got {len(commands)}"
            )
        acquired = []
        try:
            for worker in self.workers:
                worker.lock.acquire()
                acquired.append(worker)
            errors: list[BaseException] = []
            sent: list[int] = []
            try:
                for worker, command in zip(self.workers, commands):
                    sent.append(self._send(worker, command))
            except Exception as exc:  # a dead pipe, an unpicklable command
                errors.append(exc)
            if overlap is not None:
                try:
                    overlap()
                except BaseException as exc:  # re-raised once the acks are in
                    errors.append(exc)
            replies = []
            for worker, bytes_sent in zip(self.workers, sent):
                if self.broken:  # a dead transport owes nothing readable
                    break
                try:
                    replies.append(self._collect(worker, bytes_sent))
                except ShardWorkerError as exc:
                    errors.append(exc)
            if errors:
                raise errors[0]
            return replies
        finally:
            for worker in reversed(acquired):
                worker.lock.release()

    def broadcast(self, command: tuple) -> list[_Reply]:
        """The same command to every worker."""
        return self.round([command] * len(self.workers))

    def close(self, timeout: float = 5.0) -> list[tuple[int, MaintenanceStats]]:
        """Shut every worker down; returns ``(shard, final stats delta)``."""
        deltas: list[tuple[int, MaintenanceStats]] = []
        for worker in self.workers:
            with worker.lock:
                try:
                    self._send(worker, ("shutdown",))
                    reply = self._collect(worker)
                    if reply.stats is not None:
                        deltas.append((worker.shard, reply.stats))
                except ShardWorkerError:
                    pass
                finally:
                    worker.selector.close()
                    try:
                        worker.conn.close()
                    except OSError:
                        pass
        deadline = time.monotonic() + timeout
        for worker in self.workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
        self.workers = []
        self.broken = True
        return deltas
