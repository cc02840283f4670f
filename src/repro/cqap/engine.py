"""Maintenance of tractable CQAPs (Section 4.3, Theorem 4.8).

A tractable CQAP is maintained component-wise over its fracture: each
fracture component is hierarchical with input variables on top, so its
canonical variable order yields a view tree with O(1) single-tuple
updates.  An access request binds the input variables; the engine probes
each component's view tree with the bound inputs (O(1) guard lookups for
the input prefix) and enumerates the component's output variables with
constant delay, combining components by cross product.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

from ..data.columnar import coalesce_columnar
from ..data.database import Database
from ..data.update import Update
from ..obs import Observable, observed, share_stats
from ..query.ast import Query
from ..query.variable_order import canonical_order
from ..rings.lifting import LiftingMap
from .fracture import Fracture, fracture, is_tractable_cqap
from ..viewtree.engine import ViewTreeEngine


class CQAPEngine(Observable):
    """View-tree maintenance + access requests for a tractable CQAP."""

    def __init__(
        self,
        query: Query,
        database: Database,
        lifting: LiftingMap | None = None,
        generated: bool = True,
    ):
        if not query.input_variables:
            raise ValueError(
                "query has no input variables; use ViewTreeEngine directly"
            )
        if not is_tractable_cqap(query):
            raise ValueError(
                f"{query.name} is not a tractable CQAP (Theorem 4.8); its "
                "fracture is not hierarchical + free-dominant + input-dominant"
            )
        self.query = query
        self.database = database
        self.ring = database.ring
        self.fracture: Fracture = fracture(query)
        #: Whether the component engines run generated kernels or the
        #: generic walk (the oracle).
        self.generated = generated
        self.engines: list[ViewTreeEngine] = []
        for component in self.fracture.components:
            order = canonical_order(component)
            self.engines.append(
                ViewTreeEngine(
                    component, database, order, lifting, generated=generated
                )
            )
        self._relations = frozenset(a.relation for a in query.atoms)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def _propagate_stats(self, stats) -> None:
        for engine in self.engines:
            share_stats(engine, stats)

    @observed
    def apply(self, update: Update) -> None:
        """O(1) single-tuple update, propagated into every component."""
        if update.relation not in self._relations:
            raise KeyError(f"relation {update.relation!r} not in the query")
        if update.relation in self.database:
            self.database[update.relation].add(update.key, update.payload)
        for engine in self.engines:
            engine.apply(update, update_base=False)

    @observed
    def apply_batch(self, batch) -> None:
        """Coalesced batch maintenance across the fracture's components.

        The batch is coalesced once and checked before anything is
        written (a batch naming an unknown relation changes nothing);
        then it lands on the shared base, one bulk write per relation,
        and every component engine applies the same columns through its
        batch path — components ignore relations outside their anchors.
        """
        batch = list(batch)
        columns = coalesce_columnar(batch, self.ring)
        for name in columns:
            if name not in self._relations:
                raise KeyError(f"relation {name!r} not in the query")
        for name, (keys, pays) in columns.items():
            if name in self.database:
                self.database[name].add_delta(zip(keys, pays))
        for engine in self.engines:
            engine.apply_coalesced_batch(
                columns, update_base=False, raw=len(batch)
            )

    # ------------------------------------------------------------------
    # Access requests
    # ------------------------------------------------------------------

    def answer(
        self, inputs: Mapping[str, Any] | Sequence[Any]
    ) -> Iterator[tuple[tuple, Any]]:
        """Answer one access request.

        ``inputs`` binds the query's input variables (a mapping, or a
        sequence in ``query.input_variables`` order).  Yields tuples over
        ``query.output_variables`` with their payloads, with constant
        delay for tractable CQAPs.
        """
        if not isinstance(inputs, Mapping):
            values = tuple(inputs)
            if len(values) != len(self.query.input_variables):
                raise ValueError(
                    f"expected {len(self.query.input_variables)} input "
                    f"values, got {len(values)}"
                )
            inputs = dict(zip(self.query.input_variables, values))
        else:
            missing = set(self.query.input_variables) - set(inputs)
            if missing:
                raise ValueError(f"missing input values for {sorted(missing)}")

        output_vars = self.query.output_variables
        binding: dict[str, Any] = {}

        def rec(index: int, payload: Any) -> Iterator[tuple[tuple, Any]]:
            if self.ring.is_zero(payload):
                return
            if index == len(self.engines):
                yield tuple(binding[v] for v in output_vars), payload
                return
            engine = self.engines[index]
            component = self.fracture.components[index]
            prebound = {
                fresh: inputs[self.fracture.input_origin[fresh]]
                for fresh in component.input_variables
            }
            outputs = [
                v for v in component.head if v not in prebound
            ]
            for key, factor in engine.enumerate(prebound):
                for var, value in zip(component.head, key):
                    if var in outputs:
                        binding[var] = value
                yield from rec(index + 1, self.ring.mul(payload, factor))
            for var in outputs:
                binding.pop(var, None)

        yield from rec(0, self.ring.one)

    def answer_boolean(self, inputs) -> bool:
        """Convenience for CQAPs with no output variables: is the payload
        of the (single) answer non-zero?  (Example 4.6's triangle check.)"""
        for _key, payload in self.answer(inputs):
            return not self.ring.is_zero(payload)
        return False
