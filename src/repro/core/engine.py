"""The unified IVM facade: register a query, feed updates, enumerate.

``IVMEngine`` hides the zoo of specialised engines behind one interface,
instantiating whichever the planner selects.  It is the public entry
point a downstream user should reach for first::

    from repro import Database, IVMEngine, parse_query

    db = Database()
    db.create("R", ["A", "B"])
    db.create("S", ["B"])
    engine = IVMEngine(parse_query("Q(A) = R(A, B) * S(B)"), db)
    engine.insert("R", 1, 2)
    engine.insert("S", 2)
    dict(engine.enumerate())   # {(1,): 1}
"""

from __future__ import annotations

from typing import Any, Iterator

from ..constraints.fds import FDEngine, FunctionalDependency
from ..cqap.engine import CQAPEngine
from ..data.database import Database
from ..data.update import Update
from ..delta.engine import DeltaQueryEngine
from ..insertonly.engine import InsertOnlyEngine
from ..ivme.triangle import TriangleCounter
from ..obs import Observable, share_stats
from ..query.ast import Query
from ..query.properties import is_q_hierarchical
from ..query.variable_order import search_order
from ..rings.lifting import LiftingMap
from ..shard.engine import ShardedEngine
from ..staticdyn.engine import StaticDynamicEngine
from ..viewtree.engine import ViewTreeEngine
from .planner import Plan, plan_maintenance


class IVMEngine(Observable):
    """Plan-and-dispatch facade over the library's maintenance engines.

    Observability: ``attach_stats()`` shares one
    :class:`~repro.obs.MaintenanceStats` recorder with the selected
    backend engine (and, transitively, its sub-engines and partitioned
    relations), so per-update latency, delta sizes, enumeration delay,
    and rebalance events are all captured regardless of the plan.  The
    facade itself records nothing — the backend's instrumented entry
    points do — which keeps facade dispatch out of the latency samples.
    """

    def __init__(
        self,
        query: Query,
        database: Database,
        fds: tuple[FunctionalDependency, ...] = (),
        insert_only: bool = False,
        lifting: LiftingMap | None = None,
        plan: Plan | None = None,
        shards: int = 1,
        shard_executor: str = "serial",
        generated: bool = True,
    ):
        """Plan ``query`` and build the engine the plan names.

        ``generated`` reaches every view-tree-backed backend: ``True``
        (the default) runs source-generated kernels, ``False`` the
        generic walk — the differential-testing oracle.  Backends
        without a view tree ignore it.
        """
        self.query = query
        self.database = database
        self.plan = plan or plan_maintenance(
            query, fds, insert_only, shards=shards
        )
        strategy = self.plan.strategy

        if strategy in ("viewtree", "viewtree-hierarchical", "sharded-viewtree"):
            # q-hierarchical queries get their canonical (free-top) order;
            # merely-hierarchical ones need a searched free-top order so
            # that enumeration works (updates are then rightly costlier —
            # the Theorem 4.1 lower bound says they must be).
            order = None
            if query.head and not is_q_hierarchical(query):
                order = search_order(query, require_free_top=True)
            if strategy == "sharded-viewtree":
                self._engine = ShardedEngine(
                    query,
                    database,
                    shards=max(shards, 1),
                    order=order,
                    lifting=lifting,
                    executor=shard_executor,
                    generated=generated,
                )
            else:
                self._engine = ViewTreeEngine(
                    query,
                    database,
                    order,
                    lifting=lifting,
                    generated=generated,
                )
        elif strategy == "fd-viewtree":
            self._engine = FDEngine(
                query, fds, database, lifting=lifting, generated=generated
            )
        elif strategy == "static-dynamic":
            self._engine = StaticDynamicEngine(
                query, database, lifting=lifting, generated=generated
            )
        elif strategy == "cqap":
            self._engine = CQAPEngine(
                query, database, lifting=lifting, generated=generated
            )
        elif strategy == "insert-only":
            self._engine = InsertOnlyEngine(query)
            for atom in query.atoms:
                for key in database[atom.relation].keys():
                    self._engine.insert(atom.relation, key)
        elif strategy == "ivm-eps-triangle":
            names = tuple(a.relation for a in query.atoms)
            self._engine = TriangleCounter(
                epsilon=0.5, relation_names=names, database=database
            )
        else:
            self._engine = DeltaQueryEngine(query, database, lifting, eager=True)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def _propagate_stats(self, stats) -> None:
        share_stats(self._engine, stats)

    def apply(self, update: Update) -> None:
        engine = self._engine
        if isinstance(engine, TriangleCounter):
            engine.apply(update)
            self.database[update.relation].add(update.key, update.payload)
        elif isinstance(engine, InsertOnlyEngine):
            engine.apply(update)
            self.database[update.relation].add(update.key, update.payload)
        elif isinstance(engine, DeltaQueryEngine):
            engine.update(update)
        else:
            engine.apply(update)

    def apply_batch(self, batch) -> None:
        engine = self._engine
        if isinstance(
            engine,
            (ShardedEngine, ViewTreeEngine, CQAPEngine, StaticDynamicEngine, FDEngine),
        ):
            # Backends with a real batch path: the sharded coordinator
            # splits once and runs shards in parallel; the view-tree
            # family coalesces and runs the generated batch kernels.
            engine.apply_batch(list(batch))
            return
        if isinstance(engine, DeltaQueryEngine):
            engine.update_batch(list(batch))
            return
        # TriangleCounter / InsertOnlyEngine need the facade's per-update
        # base bookkeeping (and IVM^eps's amortization accounting assumes
        # an uncoalesced stream), so they keep the per-update loop.
        for update in batch:
            self.apply(update)

    def insert(self, relation: str, *key, payload: Any = 1) -> None:
        self.apply(Update(relation, tuple(key), payload))

    def delete(self, relation: str, *key, payload: Any = 1) -> None:
        ring = self.database.ring
        self.apply(Update(relation, tuple(key), ring.neg(payload)))

    # ------------------------------------------------------------------
    # Output access
    # ------------------------------------------------------------------

    def enumerate(self) -> Iterator[tuple[tuple, Any]]:
        """Enumerate the output (full enumeration request)."""
        engine = self._engine
        if isinstance(engine, TriangleCounter):
            if engine.count:
                yield (), engine.count
            return
        if isinstance(engine, InsertOnlyEngine):
            for key in engine.enumerate():
                yield key, 1
            return
        yield from engine.enumerate()

    def answer(self, inputs) -> Iterator[tuple[tuple, Any]]:
        """CQAP access request (only for plans with input variables)."""
        if not isinstance(self._engine, CQAPEngine):
            raise TypeError(
                f"plan {self.plan.strategy!r} does not support access requests"
            )
        return self._engine.answer(inputs)

    def scalar(self) -> Any:
        """The payload of a Boolean query's output."""
        engine = self._engine
        if isinstance(engine, TriangleCounter):
            return engine.count
        if isinstance(engine, (ViewTreeEngine, StaticDynamicEngine, ShardedEngine)):
            return engine.scalar()
        if isinstance(engine, DeltaQueryEngine):
            return engine.scalar()
        raise TypeError(f"plan {self.plan.strategy!r} has no scalar output")

    def lookup(self, key: tuple) -> Any:
        """Payload of one output tuple (ring zero when absent).

        Backends with a point-lookup fast path (view-tree family,
        sharded) answer with O(1) guard probes; the rest fall back to a
        scan of ``enumerate()`` that stops at the first match.
        """
        key = tuple(key)
        head = self.query.head
        if not head:
            if key:
                raise ValueError(
                    f"lookup key {key!r} does not match empty head"
                )
            return self.scalar()
        if len(key) != len(head):
            raise ValueError(
                f"lookup key {key!r} does not match head {head!r}"
            )
        engine = self._engine
        backend_lookup = getattr(engine, "lookup", None)
        if backend_lookup is not None:
            return backend_lookup(key)
        ring = self.database.ring
        for found, payload in self.enumerate():
            if found == key:
                return payload
        return ring.zero

    # ------------------------------------------------------------------
    # Epoch snapshot reads (backends that support them)
    # ------------------------------------------------------------------

    @property
    def supports_snapshots(self) -> bool:
        """Whether the selected backend exposes epoch snapshot reads."""
        return bool(getattr(self._engine, "supports_snapshots", False))

    def _snapshot_backend(self):
        if not self.supports_snapshots:
            raise TypeError(
                f"plan {self.plan.strategy!r} does not support epoch "
                "snapshot reads"
            )
        return self._engine

    def publish_epoch(self):
        """Publish the current committed state as the readable epoch."""
        return self._snapshot_backend().publish_epoch()

    def enumerate_snapshot(self) -> Iterator[tuple[tuple, Any]]:
        """Enumerate the last published epoch (never blocks maintenance)."""
        return self._snapshot_backend().enumerate_snapshot()

    def scalar_snapshot(self) -> Any:
        """Boolean-query payload of the last published epoch."""
        return self._snapshot_backend().scalar_snapshot()

    def lookup_snapshot(self, key: tuple) -> Any:
        """Point lookup against the last published epoch."""
        key = tuple(key)
        head = self.query.head
        if not head:
            if key:
                raise ValueError(
                    f"lookup key {key!r} does not match empty head"
                )
            return self.scalar_snapshot()
        if len(key) != len(head):
            raise ValueError(
                f"lookup key {key!r} does not match head {head!r}"
            )
        return self._snapshot_backend().lookup_snapshot(key)

    # ------------------------------------------------------------------
    # Output change streams (backends that support them)
    # ------------------------------------------------------------------

    @property
    def supports_changes(self) -> bool:
        """Whether the backend emits per-epoch output change deltas."""
        backend = self._engine
        return bool(getattr(backend, "supports_changes", False))

    def _changes_backend(self):
        if not self.supports_changes:
            raise TypeError(
                f"plan {self.plan.strategy!r} does not support output "
                "change streams (needs epoch snapshots and a free-top "
                "variable order)"
            )
        return self._engine

    def track_changes(self) -> None:
        """Start emitting per-epoch output deltas (idempotent)."""
        self._changes_backend().track_changes()

    def changes_since(self, epoch: int):
        """The output delta from published ``epoch`` to the current one.

        Raises ``EpochGapError`` once ``epoch`` leaves the retained
        window — callers must fall back to a full drain.
        """
        return self._changes_backend().changes_since(epoch)

    def subscribe(self, ratio_threshold: float = 0.5):
        """A ``MaterializedView`` patched in O(δ) per published epoch."""
        return self._changes_backend().subscribe(
            ratio_threshold=ratio_threshold
        )

    @property
    def backend(self):
        """The underlying specialised engine (for advanced use)."""
        return self._engine

    @property
    def generated(self) -> bool:
        """Whether the backend that runs executes generated kernels.

        Read from the backend, not from what the caller asked for:
        ``False`` for the oracle and for plans without a view tree.
        """
        return getattr(self._engine, "generated", False)
