"""The backend protocol: what :class:`~repro.core.engine.IVMEngine` drives.

The planner's rewrites (§4.3–§4.5) all run on one
:class:`~repro.viewtree.engine.ViewTreeEngine`; the engines that are
different algorithms (:class:`~repro.delta.engine.DeltaQueryEngine`,
:class:`~repro.insertonly.engine.InsertOnlyEngine`,
:class:`~repro.ivme.triangle.TriangleCounter`) and the sharded
coordinator speak the same small surface, so the facade constructs one
backend and delegates.  A backend owns its base relations: ``apply``
lands the update on the database it was built over.

Whatever the paper gives no guarantee for raises :class:`NotSupported`
here, once, instead of at every call site.
"""

from __future__ import annotations

from typing import Any, Iterator

from .obs import Observable


class NotSupported(TypeError):
    """The selected plan gives no guarantee for the requested operation."""


class Backend(Observable):
    """Maintenance engine surface; the defaults reject what is optional."""

    #: Whether ``publish_epoch`` / ``*_snapshot`` reads are available.
    supports_snapshots: bool = False
    #: Whether per-epoch output deltas are available.
    supports_changes: bool = False
    #: Whether generated kernels run (engines without a view tree: never).
    generated: bool = False

    @property
    def backend(self) -> "Backend":
        """The engine that runs the maintenance: this one (the facade
        answers with the engine it wraps)."""
        return self

    def _no(self, what: str) -> NotSupported:
        return NotSupported(f"{type(self).__name__} does not support {what}")

    # -- maintenance ----------------------------------------------------

    def apply(self, update) -> None:
        raise NotImplementedError

    def apply_batch(self, batch) -> None:
        for update in batch:
            self.apply(update)

    # -- reads ----------------------------------------------------------

    def enumerate(self) -> Iterator[tuple[tuple, Any]]:
        """Yield ``(key, payload)`` over the query head."""
        raise NotImplementedError

    def lookup(self, key: tuple) -> Any:
        raise self._no("point lookups")

    def scalar(self) -> Any:
        raise self._no("a scalar output")

    # -- epoch snapshots ------------------------------------------------

    def publish_epoch(self):
        raise self._no("epoch snapshot reads")

    def enumerate_snapshot(self) -> Iterator[tuple[tuple, Any]]:
        raise self._no("epoch snapshot reads")

    def lookup_snapshot(self, key: tuple) -> Any:
        raise self._no("epoch snapshot reads")

    def scalar_snapshot(self) -> Any:
        raise self._no("epoch snapshot reads")

    # -- output change streams ------------------------------------------

    def track_changes(self) -> None:
        raise self._no("output change streams")

    def changes_since(self, epoch: int):
        raise self._no("output change streams")

    def subscribe(self, ratio_threshold: float = 0.5):
        raise self._no("output change streams")

    # -- lifetime -------------------------------------------------------

    def close(self) -> None:
        """Release what the backend holds (default: nothing)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
