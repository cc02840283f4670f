"""The unified IVM facade: plan a query, build the one backend the plan
names, delegate to it (quickstart: :mod:`repro`)."""

from __future__ import annotations

from functools import partial
from typing import Any, Iterator, Sequence

from ..backend import Backend, NotSupported
from ..constraints.fds import FunctionalDependency
from ..cqap.fracture import bind_inputs
from ..data.database import Database
from ..data.update import Update
from ..delta.engine import DeltaQueryEngine
from ..insertonly.engine import InsertOnlyEngine
from ..ivme.triangle import TriangleCounter
from ..obs import share_stats
from ..query.ast import Query
from ..rings.base import negate
from ..rings.lifting import LiftingMap
from ..shard.engine import ShardedEngine
from ..viewtree.engine import ViewTreeEngine
from .planner import Plan, plan_maintenance


def _whole_output_only(plan: Plan, *_) -> None:
    """Refuse a read of a CQAP's whole output, which is only defined per
    access request."""
    raise NotSupported(
        f"plan {plan.strategy!r} reads through access requests "
        "only: bind the input variables with answer()"
    )


class IVMEngine(Backend):
    """Construct-and-delegate facade over one :class:`~repro.backend.Backend`.

    Every view-tree strategy (q-hierarchical, FD, static/dynamic, CQAP)
    is the plan's rewrite run by one ``ViewTreeEngine`` (or one
    ``ShardedEngine``); the other strategies are engines of their own.
    ``attach_stats()`` shares one recorder with the backend; the facade
    itself records nothing, keeping its dispatch out of the samples.
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

        ``generated`` reaches every view-tree-backed backend: ``False``
        runs the generic walk, the differential-testing oracle.
        """
        self.query = query
        self.database = database
        self.plan = plan = plan or plan_maintenance(
            query, fds, insert_only, shards=shards
        )
        tree = dict(order=plan.order, lifting=lifting, generated=generated)
        if plan.strategy == "sharded-viewtree":
            self._engine = ShardedEngine(
                plan.query, database, max(shards, 1), executor=shard_executor, **tree
            )
        elif plan.query is not None:
            self._engine = ViewTreeEngine(plan.query, database, head=plan.head, **tree)
        elif plan.strategy == "insert-only":
            self._engine = InsertOnlyEngine(query, database)
        elif plan.strategy == "ivm-eps-triangle":
            names = tuple(a.relation for a in query.atoms)
            self._engine = TriangleCounter(0.5, names, database)
        else:
            self._engine = DeltaQueryEngine(query, database, lifting, eager=True)
        # What runs decides, not what the caller asked for; a CQAP's
        # output is only defined per access request, so it has no deltas.
        self.generated = self._engine.generated
        self.supports_snapshots = self._engine.supports_snapshots
        self.supports_changes = (
            plan.input_origin is None and self._engine.supports_changes
        )
        whole = plan.input_origin is None
        refuse = partial(_whole_output_only, plan)
        self._lookup = self._engine.lookup if whole else refuse
        self._lookup_snapshot = self._engine.lookup_snapshot if whole else refuse

    def _propagate_stats(self, stats) -> None:
        share_stats(self._engine, stats)

    def _output(self) -> Backend:
        """The backend, for reads of the whole output (not a CQAP's)."""
        if self.plan.input_origin is not None:
            _whole_output_only(self.plan)
        return self._engine

    def _prebound(self, inputs) -> dict[str, Any]:
        """An access request's inputs as the fracture's prebound variables."""
        origin = self.plan.input_origin
        if origin is None:
            raise NotSupported(
                f"plan {self.plan.strategy!r} does not support access requests"
            )
        return bind_inputs(self.query.input_variables, origin, inputs)

    def apply(self, update: Update) -> None:
        self._engine.apply(update)

    def apply_batch(self, batch) -> None:
        self._engine.apply_batch(list(batch))

    def insert(self, relation: str, *key, payload: Any = 1) -> None:
        self.apply(Update(relation, tuple(key), payload))

    def delete(self, relation: str, *key, payload: Any = 1) -> None:
        self.apply(Update(relation, tuple(key), negate(self.database.ring, payload)))

    def enumerate(self) -> Iterator[tuple[tuple, Any]]:
        """Enumerate the output (full enumeration request)."""
        return self._output().enumerate()

    def answer(self, inputs) -> Iterator[tuple[tuple, Any]]:
        """CQAP access request: ``inputs`` binds the input variables (a
        mapping, or a sequence in ``query.input_variables`` order)."""
        return self._engine.enumerate(self._prebound(inputs))

    def scalar(self) -> Any:
        """The payload of a Boolean query's output."""
        return self._engine.scalar()

    def lookup(self, key: Sequence) -> Any:
        """Payload of one output tuple (zero when absent): the backend's ``lookup``."""
        return self._lookup(key)

    def publish_epoch(self):
        """Publish the current committed state as the readable epoch."""
        return self._engine.publish_epoch()

    def enumerate_snapshot(self) -> Iterator[tuple[tuple, Any]]:
        """Enumerate the last published epoch (never blocks maintenance)."""
        return self._output().enumerate_snapshot()

    def answer_snapshot(self, inputs) -> Iterator[tuple[tuple, Any]]:
        """:meth:`answer` against the last published epoch."""
        return self._engine.enumerate_snapshot(self._prebound(inputs))

    def scalar_snapshot(self) -> Any:
        return self._engine.scalar_snapshot()

    def lookup_snapshot(self, key: Sequence) -> Any:
        return self._lookup_snapshot(key)

    def track_changes(self) -> None:
        """Start emitting per-epoch output deltas (idempotent)."""
        self._output().track_changes()

    def changes_since(self, epoch: int):
        """The output delta since ``epoch`` (``EpochGapError`` past the window)."""
        return self._output().changes_since(epoch)

    def subscribe(self, ratio_threshold: float = 0.5):
        """A ``MaterializedView`` patched in O(δ) per published epoch."""
        return self._output().subscribe(ratio_threshold=ratio_threshold)

    @property
    def backend(self) -> Backend:
        """The underlying engine (for advanced use)."""
        return self._engine

    def close(self) -> None:
        """Release the backend's resources.

        A view-tree backend empties the views, guards and leaf copies it
        owns and releases its base relations to the next writer, which
        may be another engine over the same database; every later call
        then raises (:meth:`~repro.viewtree.engine.ViewTreeEngine.close`).
        A sharded backend shuts its worker processes down, closes the
        shard engines it hosts the same way and releases its claims;
        every later call that reaches a shard raises, while
        ``merged_stats()`` keeps answering
        (:meth:`~repro.shard.engine.ShardedEngine.close`).  Base
        relations keep their contents either way.
        """
        self._engine.close()
