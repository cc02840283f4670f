"""Multi-query maintenance over one database: cascades for a query set (§4.2).

Section 4.2 opens with the observation that *sets* of queries offer
reuse: a non-q-hierarchical query can piggyback on a q-hierarchical one.
``MultiQueryEngine`` plans a workload that way: a query that is not
q-hierarchical *rides* on the first q-hierarchical member (its *host*)
over which it has a q-hierarchical rewriting; every other query is
planned on its own (*direct*).

As in F-IVM, the members run over one set of input relations.  Every
view tree — a host's, a rider's, a direct member's — reads the caller's
database (a leaf that is its relation's only atom *is* ``database[R]``),
and one tree maintains each host however many riders it carries.  An
update batch is coalesced once and rejected whole if it names an
unknown or static relation; then, one relation at a time, the base is
written once and the relation's columns are pushed into every tree that
reads it with ``update_base=False`` (the per-relation contract of
:meth:`~repro.viewtree.engine.ViewTreeEngine.apply_coalesced_batch`).
A member whose plan is not a view tree (delta queries, insert-only,
IVM^ε) runs over a private copy of its relations and writes it itself.

A rider's tree reads the host's output through ``V_host``, which changes
only while the host is enumerated: each visited tuple whose payload
moved is written to ``V_host`` once and pushed into every rider, and
tuples that vanished are retracted after the pass — O(1) on top of the
enumeration step that visits them.  So both queries get amortized O(1)
updates and delay provided (i) both outputs are enumerated and (ii) the
host is enumerated before its riders; reading a rider of a host updated
since its last enumeration raises :class:`StaleCascadeError` or, through
:meth:`MultiQueryEngine.enumerate`, enumerates the host first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from ..core.engine import IVMEngine
from ..core.planner import plan_maintenance
from ..data.columnar import coalesce_columnar
from ..data.database import Database
from ..data.relation import Relation, claim_writer
from ..data.schema import Schema
from ..data.update import Update
from ..obs import Observable, observed, share_stats
from ..query.ast import Query
from ..query.properties import is_q_hierarchical
from ..query.rewriting import rewrite_using
from ..viewtree.engine import StaticRelationUpdateError, ViewTreeEngine


class StaleCascadeError(RuntimeError):
    """A rider read while its host is stale (condition (ii) of §4.2)."""


@dataclass
class QueryAssignment:
    """How one workload query is maintained."""

    query: Query
    mode: str  # "direct" | "cascade-host" | "cascade-rider"
    via: Optional[str] = None  # host query name for riders

    def __str__(self) -> str:
        if self.mode == "cascade-rider":
            return f"{self.query.name}: cascades over {self.via}"
        return f"{self.query.name}: {self.mode}"


@dataclass(eq=False)
class _Host:
    """A host's one tree, its output view ``V_host`` and its riders."""

    tree: ViewTreeEngine
    view: Relation
    riders: list[ViewTreeEngine] = field(default_factory=list)
    #: Whether an update reached the host since its last enumeration.
    stale: bool = False


class MultiQueryEngine(Observable):
    """Maintain a set of queries over one database, cascading where
    Section 4.2 allows."""

    def __init__(self, queries: list[Query], database: Database):
        hosts = [q for q in queries if is_q_hierarchical(q)]
        riders: dict[str, tuple[Query, Query]] = {}
        for query in queries:
            if is_q_hierarchical(query):
                continue
            for host in hosts:
                rewriting = rewrite_using(query, host)
                if rewriting is not None and is_q_hierarchical(rewriting):
                    riders[query.name] = (host, rewriting)
                    break
        self._build(queries, database, riders)

    def _build(self, queries, database, riders, lifting=None) -> None:
        """Build the members; ``riders``: rider name -> (host, rewriting)."""
        names = [q.name for q in queries]
        if len(set(names)) != len(names):
            raise ValueError("workload queries must have distinct names")
        self.database = database
        self.ring = ring = database.ring
        self.assignments: dict[str, QueryAssignment] = {}
        #: query name -> the engine enumerating it.
        self._members: dict[str, Any] = {}
        self._hosts: dict[str, _Host] = {}
        self._rider_host: dict[str, _Host] = {}
        #: relation -> the trees reading its base, the engines over a
        #: private copy of it, the hosts an update to it makes stale.
        self._trees: dict[str, list[ViewTreeEngine]] = {}
        self._private: dict[str, list[IVMEngine]] = {}
        self._hosts_of: dict[str, list[_Host]] = {}
        #: Base relations claimed as their one writer (claim_writer).
        self._written: set[str] = set()
        self._static = frozenset(a.relation for q in queries for a in q.static_atoms)
        host_names = {host.name for host, _ in riders.values()}
        # Hosts before riders: a rider's tree reads its host's view.
        for query in sorted(queries, key=lambda q: q.name in riders):
            name, via, routes = query.name, None, self._trees
            reads = dict.fromkeys(a.relation for a in query.atoms)
            if name in riders:
                host_query, rewriting = riders[name]
                host, via = self._hosts[host_query.name], host_query.name
                reads = dict.fromkeys(
                    a.relation for a in rewriting.atoms if a.relation != via
                )
                top = Database([host.view], ring=ring)
                for relation in reads:
                    top.add_relation(database[relation])
                engine = reader = ViewTreeEngine(rewriting, top, lifting=lifting)
                host.riders.append(reader)
                self._rider_host[name] = host
                mode = "cascade-rider"
            elif name in host_names:
                engine = reader = ViewTreeEngine(query, database, lifting=lifting)
                view = Relation(name, Schema(query.head), ring)
                view.add_delta(reader.enumerate())
                self._hosts[name] = host = _Host(reader, view)
                for relation in reads:
                    self._hosts_of.setdefault(relation, []).append(host)
                mode = "cascade-host"
            else:
                plan = plan_maintenance(query, ring=ring)
                if plan.query is None:  # not a view tree: a private copy
                    own = Database((database[r].copy() for r in reads), ring=ring)
                    engine = reader = IVMEngine(query, own, lifting=lifting, plan=plan)
                    routes = self._private
                else:
                    engine = IVMEngine(query, database, lifting=lifting, plan=plan)
                    reader = engine.backend
                mode = "direct"
            for relation in reads:
                routes.setdefault(relation, []).append(reader)
            self._members[name] = engine
            self.assignments[name] = QueryAssignment(query, mode, via)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def _propagate_stats(self, stats) -> None:
        for engine in self._members.values():
            share_stats(engine, stats)

    @observed
    def apply(self, update: Update) -> None:
        """Apply one update to the shared base and every member."""
        self._apply_columns(coalesce_columnar([update], self.ring))

    @observed
    def apply_batch(self, batch) -> None:
        """Coalesce a batch once, then apply it relation by relation."""
        batch = list(batch)
        columns = coalesce_columnar(batch, self.ring)
        stats = self._maintenance_stats
        if stats is not None:
            stats.record_batch_coalesce(
                len(batch), sum(len(keys) for keys, _ in columns.values())
            )
        self._apply_columns(columns)

    def _apply_columns(self, columns: dict[str, tuple[list, list]]) -> None:
        database = self.database
        for name in columns:
            if name not in database:
                raise KeyError(f"relation {name!r} not in the database")
            if name in self._static:
                raise StaticRelationUpdateError(
                    f"relation {name!r} is adorned static"
                )
        if not self._written.issuperset(columns):
            claim_writer((database[name] for name in columns), self)
            self._written.update(columns)
        for name, (keys, payloads) in columns.items():
            database[name].add_delta(zip(keys, payloads))
            one = {name: (keys, payloads)}
            for tree in self._trees.get(name, ()):
                tree.apply_coalesced_batch(one, update_base=False)
            engines = self._private.get(name)
            if engines:
                updates = [Update(name, k, p) for k, p in zip(keys, payloads)]
                for engine in engines:
                    engine.apply_batch(updates)
            for host in self._hosts_of.get(name, ()):
                host.stale = True

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------

    def enumerate(self, name: str) -> Iterator[tuple[tuple, Any]]:
        """Enumerate one workload query's output.

        A cascade rider whose host is stale enumerates the host first
        (condition (ii) of Section 4.2), paying the host enumeration.
        """
        if name in self._hosts:
            return self._enumerate_host(self._hosts[name])
        if name in self._rider_host:
            return self._enumerate_rider(name, strict=False)
        if name in self._members:
            return self._members[name].enumerate()
        raise KeyError(f"unknown query {name!r}")

    def _enumerate_host(self, host: _Host) -> Iterator[tuple[tuple, Any]]:
        """The host's output, refreshing ``V_host`` and every rider."""
        ring, view = self.ring, host.view
        seen: set[tuple] = set()
        for key, payload in host.tree.enumerate():
            seen.add(key)
            stored = view.get(key)
            if stored != payload:
                self._refresh(host, key, ring.sub(payload, stored))
            yield key, payload
        for key in [k for k in view.keys() if k not in seen]:
            self._refresh(host, key, ring.neg(view.get(key)))
        host.stale = False

    @staticmethod
    def _refresh(host: _Host, key: tuple, delta: Any) -> None:
        """Write one ``V_host`` change once, then push it into each rider."""
        host.view.add(key, delta)
        update = Update(host.view.name, key, delta)
        for rider in host.riders:
            rider.apply(update, update_base=False)

    def _enumerate_rider(self, name: str, strict: bool):
        host = self._rider_host[name]
        if host.stale:
            if strict:
                raise StaleCascadeError(
                    f"{host.view.name} was updated since its last "
                    "enumeration; enumerate it first (condition (ii) of "
                    "Section 4.2)"
                )
            for _ in self._enumerate_host(host):
                pass
        return self._members[name].enumerate()

    def plan_report(self) -> str:
        return "\n".join(
            str(self.assignments[name]) for name in sorted(self.assignments)
        )
