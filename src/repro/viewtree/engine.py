"""View trees: higher-order IVM with factorized views (Sections 3.2, 4.1).

A view tree materializes, for each node of a variable order, the aggregate
of the join of everything below the node.  Following F-IVM:

* each query atom becomes a *leaf* relation of the tree: the database
  relation itself when the atom uses its schema and is its only atom,
  otherwise a live copy renamed to the atom's variables — so after
  construction the query's base relations are written through the
  engine, never behind it, and by one engine only (a second writer is a
  :class:`~repro.data.relation.SharedBaseError`);
* the view at node ``X`` has schema ``dep(X)`` — the node's dependency
  set — and aggregates away ``X`` from the join of the node's children
  views and anchored leaves;
* when ``X`` is free and more than one source constrains it (or, in a
  generated engine, its one source is derived), the node additionally
  materializes the support of the pre-marginalization join (the
  *guard*, ``one`` per member), which is what enumeration iterates
  over.  A guard exists only where
  enumeration reads it: the walk treats a bound node as a leaf its view
  summarizes (:func:`~repro.viewtree.enumplan._flatten`), so a guard at
  a bound node — on ``Q(A,C) = R(A,B) * S(B,C)`` the whole ``R ⋈ S`` —
  would cost a write per joined tuple on every update and be read by
  nothing.

On a single-tuple update, deltas propagate along the leaf-to-root path;
each step joins the delta with the sibling sources.  For q-hierarchical
queries under their canonical order, each such join is a constant number
of hash lookups, so updates take O(1) — Theorem 4.1's upper bound.
Enumeration walks the free-variable prefix of the order top-down and emits
output tuples with constant delay (Example 4.4).

Enumeration under a free-top order reads only the *supports* of the
relations above the leaves: an output tuple's payload is the product of
its leaf (and bound-view) payloads.  So a guard holds ``one`` for each
member — a key every source of the node holds — and is written only when
a member appears or disappears, and in a generated engine a free view no
read multiplies is not written at all but derived on read
(:class:`~repro.viewtree.compile.DerivedView`, see
:func:`~repro.viewtree.compile.derive_views`).  On *valid* states (end of
Section 2: at read time every input tuple has a positive multiplicity) a
key is in a view's support exactly when its sum is non-zero, so this is
exact.  Between reads multiplicities may transiently go negative; on an
invalid state the generated engine still enumerates what ``repro.naive``
returns, while the oracle's summed views can cancel to zero above
non-zero tuples, and its walk skips them.
"""

from __future__ import annotations

import warnings
import weakref
from functools import partial
from typing import Any, Iterator, Optional, Sequence

from ..backend import Backend, NotSupported
from ..data.database import Database
from ..data.relation import Relation, claim_writer, release_writer
from ..data.schema import Schema
from ..data.update import Update, coalesce_grouped
from ..naive.algebra import join_all, join_pair, marginalize, union_into
from ..obs import observed, observed_enumeration
from ..query.ast import Atom, Query
from ..query.variable_order import VariableOrder, VarOrderNode, order_for
from ..data.columnar import coalesce_columnar
from ..rings.lifting import LiftingMap
from .codegen import (
    DeltaKernel,
    EnumKernel,
    compile_delta_kernel,
    compile_enum_kernel,
    new_codegen_info,
)
from .changes import ChangeTracker, MaterializedView, OutputDelta
from .compile import DerivedView, compile_delta_plans, derive_views
from .enumplan import _flatten
from .epoch import EpochSnapshot, SnapshotRegistry


class ViewNode:
    """One node of a view tree."""

    __slots__ = (
        "variable",
        "dependency",
        "is_free",
        "children",
        "parent",
        "leaves",
        "view",
        "guard",
    )

    def __init__(self, variable: str, dependency: tuple[str, ...], is_free: bool):
        self.variable = variable
        self.dependency = dependency
        self.is_free = is_free
        self.children: list[ViewNode] = []
        self.parent: Optional[ViewNode] = None
        #: (atom, leaf relation) pairs anchored at this node.
        self.leaves: list[tuple[Atom, Relation]] = []
        #: The node view V_X over dep(X) (X marginalized away); a
        #: DerivedView, written by nothing, where no read multiplies it.
        self.view: Relation | None = None
        #: Support of the pre-marginalization join (``one`` per member),
        #: kept only where enumeration iterates it: at a free node with
        #: more than one source, or with one derived source (see
        #: derive_views).  A bound node is summarized by its view (the
        #: walk never descends into it), so a guard there would be
        #: written on every update below and never read.
        self.guard: Relation | None = None

    def sources(self) -> list[Relation]:
        """The relations joined at this node: anchored leaves + child views."""
        result = [leaf for _, leaf in self.leaves]
        result.extend(child.view for child in self.children)
        return result

    def guard_relation(self) -> Relation:
        """The relation enumerating candidate values for this variable."""
        if self.guard is not None:
            return self.guard
        for relation in self.sources():
            if self.variable in relation.schema:
                return relation
        raise RuntimeError(
            f"node {self.variable!r} has no source containing its variable"
        )

    def walk(self) -> Iterator["ViewNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (
            f"ViewNode({self.variable!r}, dep={self.dependency!r}, "
            f"view_size={len(self.view) if self.view is not None else None})"
        )


class StaticRelationUpdateError(RuntimeError):
    """An update targeted a relation adorned as static (Section 4.5)."""


def rejected(query: Query, relation: str) -> Exception:
    """Why ``relation`` takes no updates under ``query`` (raised before
    any write): it is adorned static, or not in the query."""
    if any(atom.relation == relation for atom in query.static_atoms):
        return StaticRelationUpdateError(f"relation {relation!r} is adorned static")
    return KeyError(f"relation {relation!r} not in the query")


class ViewTreeEngine(Backend):
    """Eager factorized IVM over a variable order (the F-IVM engine).

    The paper's extensions are rewrites in front of this one engine, not
    engines of their own: an FD plan maintains the extended-head query
    under the Sigma-reduct's order and reads it through the original
    ``head`` (Theorem 4.11); a static/dynamic plan is an order under
    which every dynamic atom propagates in O(1), with updates to
    ``query.static_atoms`` rejected (Section 4.5); a CQAP plan maintains
    the fracture's components as this tree's roots and answers an access
    request as ``enumerate(prebound)`` (Theorem 4.8).
    """

    #: Sample view sizes into an attached recorder every N single-tuple
    #: updates (0 disables periodic memory sampling).
    view_sample_interval: int = 64

    #: Minimum batch size routed through the generated batch kernels.
    #: Below it there is nothing to coalesce or share, so the per-tuple
    #: kernels win on plain call overhead.
    batch_compile_threshold: int = 2

    #: Engines exposing publish_epoch / *_snapshot reads (feature probe
    #: for the serving tier's snapshot-read mode).
    supports_snapshots: bool = True

    def __init__(
        self,
        query: Query,
        database: Database,
        order: VariableOrder | None = None,
        lifting: LiftingMap | None = None,
        leaf_filter=None,
        generated: bool = True,
        head: tuple[str, ...] | None = None,
    ):
        """Build the view tree over ``database``.

        ``head`` is the output head when it is a proper subset of the
        maintained ``query.head`` (the planner's rewrites set it):
        enumeration, lookups, snapshots and change streams then speak
        ``head``, while the tree keeps every ``query.head`` variable
        free.  Keys stay distinct as long as the dropped variables are
        determined by the kept ones (FDs) or arrive prebound (CQAP
        inputs).

        ``leaf_filter`` is an optional ``(relation_name, key) -> bool``
        predicate; when given, leaves materialize only the base tuples it
        accepts.  Combined with ``apply(update, update_base=False)`` this
        lets several engines share one database, each maintaining a
        disjoint hash shard of it.  Without one, a leaf whose atom is
        its relation's only atom and uses its schema *is* the database
        relation (see :meth:`_make_leaf`; :meth:`describe` marks each
        leaf ``= base`` or ``copy``): writing that relation behind the
        engine's back changes a leaf without maintaining the views.  So
        an engine claims each base relation it writes, and one about to
        write a relation another live engine writes raises
        :class:`~repro.data.relation.SharedBaseError` before any write,
        aliased leaf or not; queries that share relations are maintained
        together by :class:`~repro.cascade.MultiQueryEngine`.

        ``generated`` (the default) plans every (base relation, anchor)
        propagation path and the free-top enumeration walk
        (:mod:`repro.viewtree.compile`, :mod:`repro.viewtree.enumplan`)
        and source-generates one kernel per plan, eagerly, here
        (:mod:`repro.viewtree.codegen`).  Pass ``False`` for the
        reference implementation: no plan and no kernel is built, and
        maintenance and enumeration run the generic walk
        (:meth:`_propagate`, :meth:`_enumerate_generic`) — the
        differential-testing oracle, which shares no coalescing,
        planning or execution code with the kernels.  Empty-head
        queries and non-free-top orders use the generic code either
        way.

        A generated engine with a free-top order and a non-empty head
        derives the free views no read multiplies instead of writing
        them (:func:`~repro.viewtree.compile.derive_views`).  Generation
        is all or nothing: when any kernel raises, the engine puts the
        derived views back, drops every kernel and is the oracle
        (``generated`` reads ``False``); ``fallbacks`` in the ``codegen``
        obs block reads 1 and a :class:`RuntimeWarning` carries the
        exception.
        """
        self.query = query
        self.database = database
        self.ring = database.ring
        self.lifting = lifting if lifting is not None else LiftingMap(self.ring)
        self.order = order if order is not None else order_for(query)
        if self.order.query is not query and (
            self.order.query.atoms != query.atoms
            or self.order.query.head != query.head
        ):
            raise ValueError("variable order was built for a different query")
        #: The head the read paths emit (``query.head`` unless a rewrite
        #: maintains a wider one).
        self.head = query.head if head is None else tuple(head)
        if not set(self.head) <= set(query.head):
            raise ValueError(
                f"output head {self.head!r} is not a subset of the "
                f"maintained head {query.head!r}"
            )
        #: Relations that never receive updates (Section 4.5 adornment).
        self._static = frozenset(a.relation for a in query.static_atoms)
        overlap = self._static.intersection(
            a.relation for a in query.dynamic_atoms
        )
        if overlap:
            raise ValueError(
                f"relations {sorted(overlap)} appear both static and dynamic"
            )
        self._leaf_filter = leaf_filter

        self.roots: list[ViewNode] = []
        #: relation name -> list of (atom, anchor ViewNode, leaf Relation)
        self._anchors: dict[str, list[tuple[Atom, ViewNode, Relation]]] = {}
        #: atom -> why its leaf is a private copy (see _make_leaf).
        self._leaf_copies: dict[Atom, str] = {}
        for var_root in self.order.roots:
            self.roots.append(self._build_node(var_root, None))
        #: Relations whose one leaf is the base relation itself: an
        #: update writes them once, and not at all when the caller
        #: writes the base (``update_base=False``).
        self._aliased = frozenset(
            name
            for name, anchors in self._anchors.items()
            if anchors[0][2] is database[name]
        )
        #: Base relations this engine has claimed as their one writer
        #: (:func:`~repro.data.relation.claim_writer`, on first write).
        self._written: set[str] = set()
        #: Whether this engine runs generated kernels (the production
        #: path) or the generic walk (the oracle).
        self.generated = generated
        #: relation name -> generated kernels, parallel to _anchors (each
        #: kernel carries its ``.plan``); empty in the oracle.
        self._kernels: dict[str, list[DeltaKernel]] = {}
        #: Generated read-path kernel (None -> generic recursive walk).
        self._enum_kernel: EnumKernel | None = None
        #: Point-lookup probes (None -> lookups run the enumeration walk).
        self._lookup_plan = None
        #: Generation counters, recorded into the first attached stats
        #: recorder (then cleared, so re-attachment never double-counts).
        self._codegen_info: dict | None = None
        if generated:
            self._codegen_info = info = new_codegen_info()
            # Both plans create the group indexes they probe; the delta
            # kernels are generated after, for the final index sets.  The
            # enumeration plan comes first: its guard indexes are what a
            # derived view reads.
            indexed = [(r, set(r._indexes)) for r in self._snapshot_relations()]
            replaced, enum_plan = derive_views(self)
            self._fill_guards(replaced)
            plans = compile_delta_plans(self)
            failure = None
            try:
                self._kernels = {
                    name: [compile_delta_kernel(plan, info) for plan in group]
                    for name, group in plans.items()
                }
                if enum_plan is not None:
                    self._enum_kernel = compile_enum_kernel(enum_plan, info)
                    self._lookup_plan = enum_plan.lookup
            except Exception as exc:
                # Only its repr leaves this block: the exception's
                # traceback holds this frame, and so the engine.
                failure = repr(exc)
            if failure is not None:
                self._generation_failed(replaced, indexed, failure)
        #: relation name -> (base ``add`` or None where a kernel writes the
        #: base as its leaf, kernels): what :meth:`apply` runs on its
        #: direct path; empty in the oracle.
        self._pushes = {
            name: (database[name].add if self._writes(name, True)[0] else None, kernels)
            for name, kernels in self._kernels.items()
        }
        #: The generic enumeration walk's flat schedule, built here with
        #: the guard indexes it reads, so every relation and index a read
        #: touches exists before the first publish (None: the kernel
        #: enumerates, or the query has no walk).
        self._enum_schedule: list | None = None
        if self._enum_kernel is None and query.head and self.order.is_free_top():
            self._enum_schedule = self._enum_schedule_specs()
            for spec in self._enum_schedule:
                if spec[0]:
                    spec[2].index_on(spec[3])
        #: Last published epoch number and its snapshot.
        self.epoch = 0
        self._epoch_snapshot: EpochSnapshot | None = None
        #: Every live snapshot of this engine (the pre-image maps to keep).
        self._versions = SnapshotRegistry()
        #: Set while a commit runs, so nested entry points join its undo
        #: scope instead of opening their own (see _atomically).
        self._committing = False
        #: Lazily-created per-epoch output change tracker (track_changes).
        self._change_tracker: ChangeTracker | None = None
        self._updates_since_sample = 0
        #: Set by close(): every later call raises.
        self._closed = False
        self._bind_reads()

    def _fill_guards(self, nodes) -> None:
        """Refill the guards of ``nodes`` (children first) from their
        sources as they now stand — summed views, or derived supports —
        with ``one`` per member."""
        for node in nodes:
            guard = node.guard
            if guard is None:
                continue
            sources = [
                s.support() if isinstance(s, DerivedView) else s
                for s in node.sources()
            ]
            joined = join_all(sources, self.ring, name=f"G_{node.variable}")
            guard.clear()
            order = joined.schema.projector(guard.schema.variables)
            for key in joined.data:
                guard.set(order(key), self.ring.one)

    def _generation_failed(self, replaced: dict, indexed: list, failure: str) -> None:
        """Make this engine the oracle after a kernel raised: the views
        :func:`derive_views` replaced are written again (their guards
        refilled, a members-only guard dropped), every kernel and every
        group index the plans created (not in ``indexed``) is dropped, and
        the failure is counted and reported once."""
        for node, view in replaced.items():
            node.view = view
            node.guard = node.guard if len(node.sources()) > 1 else None
        self._fill_guards(replaced)
        for relation, kept in indexed:
            for group_vars in relation._indexes.keys() - kept:
                del relation._indexes[group_vars]
        self._kernels = {}
        self._enum_kernel = self._lookup_plan = None
        self.generated = False
        self._codegen_info["fallbacks"] = 1
        warnings.warn(
            f"kernel generation failed for query {self.query.name!r} "
            f"({failure}); it runs the generic walk",
            RuntimeWarning,
            stacklevel=3,
        )

    def __getstate__(self):
        # Epoch snapshots are keyed by object identity, which does not
        # survive pickling, and relations pickle without their pre-image
        # maps; the receiving side republishes.  The change tracker
        # holds snapshots too, so it is likewise dropped — the receiver
        # re-enables tracking (subscribers see an epoch gap and fall
        # back to a full drain).  Writer claims are weak references,
        # which relations drop on pickling: the copy claims anew.
        state = self.__dict__.copy()
        state["_epoch_snapshot"] = None
        state["_change_tracker"] = None
        state["_versions"] = SnapshotRegistry()
        state["_written"] = set()
        del state["_probe"], state["_probe_epoch"]  # rebound on arrival
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind_reads()

    def _bind_reads(self) -> None:
        # The generated probes, or _lookup (recorder, walk, scalar, closed)
        # bound to a proxy: a bound method would make the engine a cycle,
        # which keeps a dropped engine's tree until a full collection.
        fast = self._lookup_plan is not None and self._maintenance_stats is None
        general = partial(type(self)._lookup, weakref.proxy(self))
        self._probe = self._enum_kernel.lookup if fast else general
        self._probe_epoch = self._enum_kernel.lookup_epoch if fast else general

    def _propagate_stats(self, stats) -> None:
        # Report kernel-generation counters to the first recorder that
        # attaches, then drop them: re-attachment (or attaching a fresh
        # recorder after a pickle round-trip) must not double-count
        # compilations that happened once.
        info = self._codegen_info
        if stats is not None and info is not None:
            stats.record_codegen(
                info["kernels"],
                info["time_ms"],
                info["cache_hits"],
                info["fallbacks"],
            )
            self._codegen_info = None
        self._bind_reads()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_node(self, var_node: VarOrderNode, parent: Optional[ViewNode]) -> ViewNode:
        node = ViewNode(
            var_node.variable,
            var_node.dependency,
            var_node.variable in self.query.free_variables,
        )
        node.parent = parent
        for atom in var_node.atoms:
            leaf = self._make_leaf(atom)
            node.leaves.append((atom, leaf))
            self._anchors.setdefault(atom.relation, []).append((atom, node, leaf))
        for child in var_node.children:
            node.children.append(self._build_node(child, node))

        sources = node.sources()
        joined = join_all(sources, self.ring, name=f"G_{node.variable}")
        if node.is_free and len(sources) > 1:
            node.guard = joined
        lift = None
        if not node.is_free:
            if not self.lifting.is_trivial(node.variable):
                lift = self.lifting.for_variable(node.variable)
        node.view = marginalize(
            joined, node.variable, self.ring, lift, name=f"V_{node.variable}"
        )
        if node.guard is not None:
            node.guard.data = dict.fromkeys(joined.data, self.ring.one)
        return node

    def _make_leaf(self, atom: Atom) -> Relation:
        """The leaf of ``atom``: its base relation itself when it can be.

        A leaf *is* ``database[atom.relation]`` unless something makes
        it differ, recorded per atom in ``_leaf_copies``: a
        ``leaf_filter`` (the leaf holds one shard of the base), atom
        variables other than the base schema (``renamed``), or a second
        atom over the same relation (``self-join``: an anchor's push must
        see the relation's later anchors in their pre-update state, see
        :meth:`apply_coalesced_batch`, so each atom needs a leaf of its
        own).  Those leaves are private copies.
        """
        base = self.database[atom.relation]
        if len(atom.variables) != len(base.schema):
            raise ValueError(
                f"atom {atom} arity does not match relation "
                f"{base.schema.variables!r}"
            )
        if self._leaf_filter is not None:
            why = "filter"
        elif atom.variables != base.schema.variables:
            why = "renamed"
        elif sum(a.relation == atom.relation for a in self.query.atoms) > 1:
            why = "self-join"
        else:
            return base
        self._leaf_copies[atom] = why
        leaf = Relation(f"leaf_{atom}", Schema(atom.variables), self.ring)
        if self._leaf_filter is None:
            leaf.data = dict(base.data)
        else:
            keep = self._leaf_filter
            leaf.data = {
                key: payload
                for key, payload in base.data.items()
                if keep(atom.relation, key)
            }
        return leaf

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def apply(self, update: Update, update_base: bool = True) -> None:
        """Process one single-tuple update.

        ``update_base`` also applies the update to the database relation;
        pass ``False`` when a coordinator shares one database among
        several engines and applies base updates itself.  ``False`` is a
        per-update contract: the caller writes *this* update to the base
        immediately before this call and nothing else in between, since
        a leaf that is the base relation is then not written again (with
        ``True`` it is written once, as the base) and every other leaf
        the push reads must still be in its pre-update state.  Updates
        to a static relation (:class:`StaticRelationUpdateError`), to one
        outside the query (``KeyError``) or, with ``update_base``, to a
        base relation another live engine writes
        (:class:`~repro.data.relation.SharedBaseError`) are rejected
        before any write.

        The delta runs through the relation's generated ``push``
        kernels, each of which writes its own leaf first; the oracle
        (``generated`` ``False``, by choice or after a failed generation)
        takes the generic :meth:`_propagate` walk.  With a snapshot
        published, an update that raises midway is rolled back first
        (:meth:`_atomically`).

        A relation this engine has claimed goes straight to its kernels
        while no snapshot is published and no recorder is attached: this
        frame and each ``push`` are the whole update, bar a base write
        where the leaf is a copy.  Every other update, the first one to
        a relation and every ``update_base=False`` one included, takes
        :meth:`_apply`, which checks, claims and records.
        """
        entry = self._pushes.get(update.relation)
        if (
            entry is None
            or not update_base
            or self._maintenance_stats is not None
            or self._epoch_snapshot is not None
            or update.relation not in self._written
        ):
            return self._apply(update, update_base)
        add, kernels = entry
        key, payload = update.key, update.payload
        if add is not None:
            add(key, payload)
        for kernel in kernels:
            kernel.push(key, payload)

    @observed
    def _apply(self, update: Update, update_base: bool) -> None:
        """:meth:`apply`'s checked path: reject, claim, then commit."""
        anchors = self._anchors.get(update.relation)
        if anchors is None or update.relation in self._static:
            self._check_open()  # a closed engine has no anchors
            raise rejected(self.query, update.relation)
        if update_base and update.relation not in self._written:
            self._claim((update.relation,))
        self._atomically(self._apply_one, update, anchors, update_base)

    def _apply_one(self, update: Update, anchors: list, update_base: bool) -> None:
        """One update under :meth:`_apply_columns`' leaf rule: an aliased
        leaf is written once, by its kernel (not at all under
        ``update_base=False``, where ``push_written_one`` pushes it); a
        base whose leaves are copies is written here."""
        key, payload = update.key, update.payload
        write_base, write_leaves = self._writes(update.relation, update_base)
        if write_base:
            self.database[update.relation].add(key, payload)
        if self.generated:
            stats = self._maintenance_stats
            for kernel in self._kernels[update.relation]:
                if write_leaves:
                    kernel.push(key, payload, stats)
                else:
                    kernel.push_written_one(key, payload, stats)
        else:
            for atom, node, leaf in anchors:
                delta = Relation(f"d_{atom}", leaf.schema, self.ring)
                delta.add(update.key, update.payload)
                if write_leaves:
                    leaf.add(update.key, update.payload)
                self._propagate(node, delta, exclude=leaf)
        if self._maintenance_stats is not None:
            self._maybe_sample_views()

    def _atomically(self, write, *args) -> None:
        """Run one commit so that it lands whole or not at all.

        With a snapshot live, a ``write(*args)`` that raises is undone
        from payload pre-images before the exception propagates
        (:meth:`~repro.data.relation.Relation.restore`; index buckets
        follow the keys).  When nothing was written since the newest
        publish (the serve tier commits, then publishes), those are the
        published snapshot's own maps.  Otherwise the commit appends one
        plain map, its checkpoint, to each relation the snapshot covers,
        rolls back from it, and detaches it after: no bucket map is
        opened, so a bucket the snapshot already preserved is not copied
        again.  Without a snapshot the write runs bare, so an engine that
        never publishes keeps no maps and pays for no undo.
        """
        snap = self._epoch_snapshot
        if snap is None or self._committing:
            write(*args)
            return
        checkpoint = None
        if snap.written():
            checkpoint = [(rel, {}) for rel, _, _, _ in snap.versions.values()]
            for rel, undo in checkpoint:
                rel._maps.append(undo)
        self._committing = True
        try:
            write(*args)
        except BaseException:
            if checkpoint is None:
                snap.restore()
            else:
                for rel, undo in checkpoint:
                    rel.restore(undo)
            raise
        finally:
            self._committing = False
            if checkpoint is not None:
                for rel, undo in checkpoint:
                    rel.drop_version(undo)

    def _claim(self, names) -> None:
        """Claim the base relations an ``update_base`` write is about to
        touch (``SharedBaseError`` when another live engine writes one)."""
        claim_writer((self.database[name] for name in names), self)
        self._written.update(names)

    def _writes(self, relation: str, update_base: bool) -> tuple[bool, bool]:
        """``(base, leaves)``: which relations an update to ``relation``
        writes.  An aliased leaf is the base: written once when
        ``update_base`` is set, and not at all otherwise — the caller
        has just written the base (see :meth:`apply`)."""
        if relation in self._aliased:
            return False, update_base
        return update_base and relation in self.database, True

    @observed
    def apply_batch(self, batch) -> None:
        """Coalesce a batch of single-tuple updates and apply it.

        Update batches over a ring commute, so ring-summing same-key
        deltas (cancellations vanish) and regrouping by relation keeps
        the batch's cumulative effect while shrinking the work below;
        :meth:`apply_coalesced_batch` does the rest.  The batch is
        written to the base here; a caller that writes the base itself
        coalesces and passes ``update_base=False`` to
        :meth:`apply_coalesced_batch`.
        """
        batch = list(batch)
        if self.generated:
            columns = coalesce_columnar(batch, self.ring)
        else:
            # The generic walk is the generated kernels' differential
            # oracle: it keeps the dict coalescer, so the two sides
            # share no coalescing code.
            columns = {
                name: (list(deltas), list(deltas.values()))
                for name, deltas in coalesce_grouped(batch, self.ring).items()
            }
        self.apply_coalesced_batch(columns, raw=len(batch))

    @observed
    def apply_coalesced_batch(
        self,
        columns: dict[str, tuple[list, list]],
        update_base: bool = True,
        raw: int | None = None,
    ) -> None:
        """Apply an already coalesced ``{relation: (keys, payloads)}`` batch.

        The entry point of callers that coalesce themselves — the shard
        coordinator sums a batch once and ships each shard its slice of
        the columns.  Keys are distinct per relation and no payload is
        the ring zero; the lists are read, never mutated.  ``raw`` is
        the number of updates the caller coalesced the columns from: the
        threshold below sizes the batch by it (default: the columns' own
        size), and only a call that passes it records the coalescing
        pass, so a shard's slice of its coordinator's pass is not
        counted again.  A batch naming a static relation, one
        outside the query or, with ``update_base``, one another live
        engine writes is rejected before anything is written.

        ``update_base=False`` means the caller wrote the batch to the
        base just before this call.  A leaf that is its base relation
        (``= base`` in :meth:`describe`) then already holds the whole
        batch while other relations' deltas are still being pushed, and
        the pushes would join two deltas twice (``ΔR·ΔS`` once from each
        side).  So under ``update_base=False`` a batch naming such a
        relation must name no other one (``ValueError``, before any
        write): push one relation per call, or use ``update_base=True``.
        A one-relation batch is exact — a relation with a base leaf has
        one atom, and its push never reads its own leaf.

        A ``generated`` engine given at least ``batch_compile_threshold``
        updates feeds each relation's columns to the generated
        ``push_batch`` kernel of every anchor, which writes its leaf and
        pushes the delta in one pass, sibling probes shared across the
        group.  Otherwise each tuple takes the body of :meth:`apply`.
        The paper's opening trade-off — a batch comparable to the
        database is cheaper to recompute — is measured, not configured:
        the batch-rebuild ablation bench compares this path with a fresh
        engine over the post-batch database.

        Correctness of the kernel path rests on the anchor loop
        mirroring the per-tuple path at batch granularity — the kernel
        writes its leaf, then pushes — so by the telescoping identity
        ``Δ(L1·L2) = Δ·L2_old + L1_new·Δ`` the grouped pushes land
        exactly the summed per-tuple deltas (self-joins included: the
        anchor's own leaf is updated before its push and excluded from
        its first sibling join, while later anchors of the same relation
        see the earlier leaves' post-batch state, matching the per-tuple
        interleaving's sum).  A leaf that is its base relation is
        written at most once, on both paths, exactly as in
        :meth:`apply`.  A batch that raises midway is rolled back as in
        :meth:`apply`.
        """
        self._check_open()
        for name in columns:
            if name not in self._anchors or name in self._static:
                raise rejected(self.query, name)
        if not update_base and len(columns) > 1:
            written = sorted(self._aliased.intersection(columns))
            if written:
                raise ValueError(
                    f"update_base=False over {written}, whose leaf is the "
                    "base relation, together with other relations: apply "
                    "one relation per batch, or pass update_base=True"
                )
        if update_base and not self._written.issuperset(columns):
            self._claim(columns)
        self._atomically(self._apply_columns, columns, update_base, raw)

    def _apply_columns(
        self,
        columns: dict[str, tuple[list, list]],
        update_base: bool,
        raw: int | None,
    ) -> None:
        size = sum(len(keys) for keys, _ in columns.values())
        sized = size if raw is None else raw
        stats = self._maintenance_stats
        if stats is not None and raw is not None:
            stats.record_batch_coalesce(raw, size)
        if not self.generated or sized < self.batch_compile_threshold:
            # Checked and claimed above, and inside this commit's undo
            # scope: each tuple is the body of apply().
            for name, (keys, pays) in columns.items():
                anchors = self._anchors[name]
                for key, payload in zip(keys, pays):
                    self._apply_one(Update(name, key, payload), anchors, update_base)
            return
        database = self.database
        for name, (keys, pays) in columns.items():
            write_base, write_leaves = self._writes(name, update_base)
            if write_base:
                database[name].add_delta(zip(keys, pays))
            for kernel in self._kernels[name]:
                # Each kernel writes its own leaf, unless the caller wrote
                # it: an aliased leaf under update_base=False.
                if write_leaves:
                    kernel.push_batch(keys, pays, stats)
                else:
                    kernel.push_written(keys, pays, stats)
        if stats is not None:
            self._maybe_sample_views(sized)

    def _propagate(self, node: ViewNode, delta: Relation, exclude: Relation) -> None:
        """Propagate a delta from ``node`` to the root.

        ``exclude`` is the source whose change ``delta`` describes; it is
        left out of the sibling join at the first step (its new value is
        already reflected by the delta plus its pre-update contribution).
        """
        while node is not None:
            siblings = [s for s in node.sources() if s is not exclude]
            delta_guard = delta
            for sibling in siblings:
                if len(delta_guard) == 0:
                    break
                delta_guard = join_pair(delta_guard, sibling, self.ring)
            if len(delta_guard) == 0:
                return  # the change is absorbed; nothing above moves
            if node.guard is not None:
                order = delta_guard.schema.projector(node.guard.schema.variables)
                self._retest_guard(node, map(order, delta_guard.data))
            lift = None
            if not node.is_free and not self.lifting.is_trivial(node.variable):
                lift = self.lifting.for_variable(node.variable)
            delta_view = marginalize(delta_guard, node.variable, self.ring, lift)
            union_into(node.view, delta_view)
            stats = self._maintenance_stats
            if stats is not None:
                stats.record_delta(f"V_{node.variable}", len(delta_view))
            delta = delta_view
            exclude = node.view
            node = node.parent

    def _retest_guard(self, node: ViewNode, keys) -> None:
        """Make each guard key a member (payload ``one``) exactly when
        every source of ``node`` holds its projection."""
        guard = node.guard
        ring = self.ring
        probes = [
            (source.data, guard.schema.projector(source.schema.variables))
            for source in node.sources()
        ]
        for key in keys:
            member = all(project(key) in data for data, project in probes)
            if member != (key in guard.data):
                guard.set(key, ring.one if member else ring.zero)

    # ------------------------------------------------------------------
    # Epoch snapshots
    # ------------------------------------------------------------------

    def _snapshot_relations(self) -> Iterator[Relation]:
        """Every relation a read path can touch — views, guards, leaves —
        plus the base relations a commit writes, so that a rollback
        restores them too.  A sharded engine's bases belong to its
        coordinator (``leaf_filter``), which writes them."""
        for root in self.roots:
            for node in root.walk():
                if not isinstance(node.view, DerivedView):
                    yield node.view
                if node.guard is not None:
                    yield node.guard
                for _, leaf in node.leaves:
                    yield leaf
        if self._leaf_filter is None:
            for name in self._anchors:
                if name in self.database:
                    yield self.database[name]

    def publish_epoch(self, record: bool = True) -> EpochSnapshot:
        """Freeze the current committed state as the next readable epoch.

        Readers started after this call (``enumerate_snapshot``,
        ``lookup_snapshot``, ``scalar_snapshot``) see exactly this state
        — bit-identical to a serialized read at this instant — no matter
        how maintenance mutates the live relations afterwards.  The swap
        is a single attribute assignment, atomic under the GIL, so a
        publish never blocks readers and readers never block maintenance;
        the cost is one pre-image per key written while the snapshot is
        live (:mod:`repro.viewtree.epoch`).  The maps of snapshots no one
        holds any more are released here.

        ``record`` feeds the attached recorder (``epochs_published``,
        ``cow_buckets_copied``, ``undo_entries``); a shard coordinator
        passes ``False`` and records one aggregate publish itself.
        """
        self._check_open()
        closed = self._epoch_snapshot
        self.epoch += 1
        snap = self._versions.capture(self.epoch, self._snapshot_relations())
        if closed is not None:
            snap.cow_buckets, snap.undo_entries = closed.work()
        self._epoch_snapshot = snap
        # The change tracker diffs against the previous snapshot on every
        # publish regardless of ``record`` — shard workers publish with
        # record=False but their subscribers still need the delta stream.
        tracker = self._change_tracker
        delta = tracker.on_publish(snap) if tracker is not None else None
        del closed
        self._versions.prune()
        if record:
            stats = self._maintenance_stats
            if stats is not None:
                stats.record_epoch_publish(
                    snap.cow_buckets,
                    delta_tuples=len(delta) if delta is not None else 0,
                    undo_entries=snap.undo_entries,
                )
                if delta is not None:
                    stats.record_change_delta(len(delta))
        return snap

    def snapshot(self) -> EpochSnapshot:
        """The last published epoch (publishing one first if none exists)."""
        snap = self._epoch_snapshot
        if snap is None:
            snap = self.publish_epoch()
        return snap

    # ------------------------------------------------------------------
    # Output change streams
    # ------------------------------------------------------------------

    @property
    def supports_changes(self) -> bool:
        """Whether per-epoch output deltas are available.

        Change extraction re-enumerates dirty patterns, so it needs the
        factorized enumeration — a free-top order — or an empty head
        (where the diff is one scalar comparison).
        """
        return not self.query.head or self.order.is_free_top()

    def track_changes(self) -> None:
        """Start emitting per-epoch output deltas (idempotent).

        Baselines at the current published snapshot (publishing one if
        none exists): ``changes_since`` answers from the next publish
        on, and anything older than the baseline is an epoch gap.
        """
        self._check_open()
        if self._change_tracker is None:
            if not self.supports_changes:
                raise NotSupported(
                    f"query {self.query.name!r} has no free-top order; "
                    "output change streams are unavailable"
                )
            self._change_tracker = ChangeTracker(self)

    def changes_since(self, epoch: int) -> OutputDelta:
        """One composed output delta from ``epoch`` to the latest publish.

        Raises :class:`~repro.viewtree.changes.EpochGapError` when
        ``epoch`` predates the retained window (or tracking enablement)
        — never a silent partial delta.
        """
        self.track_changes()
        return self._change_tracker.window.changes_since(epoch)

    def deltas_since(self, epoch: int) -> list[OutputDelta]:
        """:meth:`changes_since`'s per-epoch deltas, uncomposed, in order."""
        self.track_changes()
        return self._change_tracker.window.deltas_since(epoch)

    def hold_changes(self, subscriber: Any, epoch: int, budget: float) -> None:
        """Retain the deltas after ``epoch`` for ``subscriber`` (held
        weakly) while their entries sum to at most ``budget``
        (:meth:`~repro.viewtree.changes.DeltaWindow.hold`)."""
        self.track_changes()
        self._change_tracker.window.hold(subscriber, epoch, budget)

    def subscribe(self, ratio_threshold: float = 0.5) -> MaterializedView:
        """Register a maintained dict materialization of the output.

        The returned :class:`~repro.viewtree.changes.MaterializedView`
        is primed with a full drain of the current epoch; each
        ``refresh()`` afterwards patches it forward in O(δ).
        """
        self.track_changes()
        return MaterializedView(self, ratio_threshold)

    def scalar_snapshot(self, snap: EpochSnapshot | None = None) -> Any:
        """:meth:`scalar` against the published epoch."""
        self._check_open()
        if self.query.head:
            raise ValueError("scalar() requires an empty-head query")
        if snap is None:
            snap = self.snapshot()
        ring = self.ring
        payload = ring.one
        for root in self.roots:
            value = snap.view(root.view).get((), ring.zero)
            payload = ring.mul(payload, value)
        return payload

    def enumerate_snapshot(
        self,
        prebound: dict[str, Any] | None = None,
        snap: EpochSnapshot | None = None,
    ) -> Iterator[tuple[tuple, Any]]:
        """:meth:`enumerate` against the published epoch.

        Safe to drive from any thread while maintenance runs: every probe
        reads the live dicts corrected by the epoch's pre-image maps.
        """
        if snap is None:
            snap = self.snapshot()
        stats = self._maintenance_stats
        return observed_enumeration(
            stats, self._enumerate(prebound, stats, epoch=snap)
        )

    def lookup_snapshot(self, key: Sequence, snap: EpochSnapshot | None = None) -> Any:
        """:meth:`lookup` against the published epoch ``snap`` (default: :meth:`snapshot`)."""
        probe = self._probe_epoch
        return probe(key, self.snapshot() if snap is None else snap)

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------

    def scalar(self) -> Any:
        """The payload of a Boolean (empty-head) query."""
        self._check_open()
        if self.query.head:
            raise ValueError("scalar() requires an empty-head query")
        payload = self.ring.one
        for root in self.roots:
            key = tuple()
            payload = self.ring.mul(payload, root.view.get(key))
        return payload

    def enumerate(
        self, prebound: dict[str, Any] | None = None
    ) -> Iterator[tuple[tuple, Any]]:
        """Enumerate output tuples, sampling delay when stats are attached."""
        stats = self._maintenance_stats
        return observed_enumeration(stats, self._enumerate(prebound, stats))

    def lookup(self, key: Sequence) -> Any:
        """Payload of one output tuple (ring zero when absent); ``key`` is a sequence.

        A generated engine whose key binds every maintained head variable
        runs its enumeration kernel's generated ``lookup`` (as the one frame
        under this method, unless a recorder is attached): an arity check,
        one straight-line keyed read per probe of its lookup plan,
        multiplied in the walk's order, zero at the first miss.  The oracle and FD
        plans (output head ⊂ maintained head) walk the enumeration with
        the key prebound.  The two agree on valid states (§2).  Where a
        view cancels to zero above non-zero tuples, the product still
        returns ``repro.naive``'s payload, as a generated engine's
        enumeration does (its free part keeps supports), while the
        oracle's summed walk may skip the tuple.
        """
        # Load, then call: a method load does not specialise on instances.
        probe = self._probe
        return probe(key)

    def _lookup(self, key: Sequence, snap: EpochSnapshot | None = None) -> Any:
        # A closed engine has no lookup plan: its walk raises.
        key = tuple(key)
        head = self.head
        if len(key) != len(head):
            raise ValueError(
                f"lookup key {key!r} does not match head {head!r}"
            )
        if not head:
            return self.scalar() if snap is None else self.scalar_snapshot(snap)
        stats = self._maintenance_stats
        if self._lookup_plan is not None:
            kernel = self._enum_kernel
            result = kernel.lookup(key) if snap is None else kernel.lookup_epoch(key, snap)
        else:
            result = self.ring.zero
            prebound = dict(zip(head, key))
            for found, payload in self._enumerate(prebound, stats, epoch=snap):
                if found == key:
                    result = payload
                    break
        if stats is not None:
            stats.record_point_lookup()
        return result

    def _enumerate(
        self,
        prebound: dict[str, Any] | None = None,
        stats=None,
        epoch: EpochSnapshot | None = None,
    ) -> Iterator[tuple[tuple, Any]]:
        """Dispatch to the generated kernel or the generic recursive walk.

        ``stats`` feeds the kernel's structural read-path counters
        (``enum_compiled``, guard probes); internal materializations pass
        ``None`` so they leave no trace in an attached recorder.

        ``epoch`` redirects every probe to a published
        :class:`EpochSnapshot` instead of the live relations (the
        snapshot-read path).
        """
        self._check_open()
        kernel = self._enum_kernel
        if kernel is None:
            return self._enumerate_generic(prebound, epoch=epoch)
        if epoch is None:
            return kernel.iterate(prebound, stats)
        return kernel.iterate_epoch(prebound, stats, epoch)

    def _enum_schedule_specs(self) -> list[tuple]:
        """Flatten the enumeration walk for :meth:`_enumerate_generic`.

        The recursion's ``children + rest`` continuation is data
        independent, so the node sequence — with per-node guard,
        group-variable, and leaf specs — is computed once instead of per
        candidate (the schema position lookups and list concatenations
        dominated the old generic profile).
        """
        specs: list[tuple] = []
        for is_free, node in _flatten(self.roots):
            if not is_free:
                specs.append((False, node.view, node.view.schema.variables))
                continue
            guard = node.guard_relation()
            guard_vars = guard.schema.variables
            specs.append(
                (
                    True,
                    node.variable,
                    guard,
                    tuple(v for v in guard_vars if v != node.variable),
                    guard.schema.position(node.variable),
                    guard_vars,
                    tuple((leaf, atom.variables) for atom, leaf in node.leaves),
                )
            )
        return specs

    def _enumerate_generic(
        self,
        prebound: dict[str, Any] | None = None,
        epoch: EpochSnapshot | None = None,
    ) -> Iterator[tuple[tuple, Any]]:
        """Enumerate output tuples (key over the head, payload).

        Requires a free-top variable order; for q-hierarchical queries
        under the canonical order the delay between consecutive tuples is
        constant (Theorem 4.1, Example 4.4).

        ``prebound`` fixes values for some free variables — used for CQAP
        access requests (Section 4.3), where the input variables sit above
        the output variables in the order and arrive bound: instead of
        iterating a node's candidates, the engine checks the given value
        with one guard lookup.

        With ``epoch`` set, every probe reads the snapshot's
        :class:`~repro.viewtree.epoch.VersionView` of a relation (raw
        probes, no op accounting) instead of the live relation.
        """
        if not self.order.is_free_top():
            raise ValueError(
                f"variable order for {self.query.name} is not free-top; "
                "factorized enumeration is unavailable"
            )
        ring = self.ring
        if not self.query.head:
            payload = (
                self.scalar() if epoch is None else self.scalar_snapshot(epoch)
            )
            if not ring.is_zero(payload):
                yield (), payload
            return
        zero = ring.zero
        head = self.head
        prebound = prebound or {}
        binding: dict[str, Any] = {}
        schedule = self._enum_schedule
        nsteps = len(schedule)
        # Per-step epoch views when reading an epoch, resolved up front
        # so a publish racing with this generator cannot mix epochs.
        resolved: list[tuple] | None = None
        if epoch is not None:
            view = epoch.view
            resolved = []
            for spec in schedule:
                if not spec[0]:
                    resolved.append((view(spec[1]),))
                else:
                    guard, group_vars = spec[2], spec[3]
                    resolved.append(
                        (
                            view(guard),
                            view(guard, group_vars),
                            tuple(view(leaf) for leaf, _ in spec[6]),
                        )
                    )

        def rec(i: int, payload: Any) -> Iterator[tuple[tuple, Any]]:
            if ring.is_zero(payload):
                return
            if i == nsteps:
                yield tuple(binding[v] for v in head), payload
                return
            spec = schedule[i]
            if not spec[0]:
                # A fully-bound subtree contributes its view value.
                _, view, view_vars = spec
                key = tuple(binding[v] for v in view_vars)
                if resolved is None:
                    value = view.get(key)
                else:
                    value = resolved[i][0].get(key, zero)
                yield from rec(i + 1, ring.mul(payload, value))
                return
            _, variable, guard, group_vars, var_pos, guard_vars, leaf_specs = spec
            if variable in prebound:
                # Access-pattern lookup: verify the given value instead of
                # iterating candidates (one O(1) guard probe).
                binding[variable] = prebound[variable]
                probe = tuple(binding[v] for v in guard_vars)
                if resolved is None:
                    candidates = [] if ring.is_zero(guard.get(probe)) else [probe]
                else:
                    # Stored payloads are non-zero by construction, so
                    # membership alone decides the probe.
                    candidates = [probe] if probe in resolved[i][0] else []
            else:
                group_key = tuple(binding[v] for v in group_vars)
                if resolved is None:
                    candidates = guard.group(group_vars, group_key)
                else:
                    candidates = resolved[i][1].get(group_key, ())
            leaf_datas = resolved[i][2] if resolved is not None else None
            for key in candidates:
                binding[variable] = key[var_pos]
                factor = ring.one
                ok = True
                for j, (leaf, leaf_vars) in enumerate(leaf_specs):
                    if leaf_datas is None:
                        value = leaf.get(tuple(binding[v] for v in leaf_vars))
                    else:
                        value = leaf_datas[j].get(
                            tuple(binding[v] for v in leaf_vars), zero
                        )
                    if ring.is_zero(value):
                        ok = False
                        break
                    factor = ring.mul(factor, value)
                if ok:
                    yield from rec(i + 1, ring.mul(payload, factor))

        yield from rec(0, ring.one)

    def output_relation(self, name: str | None = None) -> Relation:
        """Materialize the output (mainly for tests and small results).

        Runs through the *unobserved* internal iterator: materialization
        is not an enumeration request, so it must not inject phantom
        ``enum_delay`` samples into an attached recorder.
        """
        out = Relation(name or self.query.name, Schema(self.head), self.ring)
        for key, payload in self._enumerate():
            out.add(key, payload)
        return out

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the view tree (idempotent).

        Empties every relation the engine owns — views, guards, and the
        leaves that are private copies — with their group indexes, so
        their memory is free for what runs next even while the engine
        is still referenced.  Drops the kernels, the plans, the change
        tracker and every snapshot (a snapshot still held raises when
        read), and releases the engine's writer claims, so another
        engine can write its base relations.  A base relation, an
        aliased leaf included, keeps its contents and indexes.  Every
        later call but ``close`` raises ``RuntimeError``.
        """
        if self._closed:
            return
        self._closed = True
        self._versions.close()
        self._epoch_snapshot = self._change_tracker = None
        bases = {id(self.database[name]) for name in self._anchors}
        for relation in self._snapshot_relations():
            if id(relation) not in bases:
                relation.clear()
        release_writer((self.database[name] for name in self._written), self)
        self._written = set()
        self.roots, self._anchors, self._kernels, self._pushes = [], {}, {}, {}
        self._enum_kernel = self._lookup_plan = self._enum_schedule = None
        self._bind_reads()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                f"the view-tree engine of query {self.query.name!r} is closed"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def total_view_size(self) -> int:
        """Number of entries across all views, guards and leaves (a
        derived view counts its index's groups, in O(1))."""
        return self._view_sizes()[0]

    def sample_view_sizes(self, stats=None) -> None:
        """Record one memory sample into ``stats`` (default: attached).

        Samples :meth:`total_view_size` plus the size of every node view
        and guard — the space side of the IVM trade-off, exported under
        ``memory`` in the ``repro.obs/1`` payload.  A derived view's size
        is its index's group count, read in O(1), so a recorder keeps
        the batch path O(|batch|).
        """
        stats = stats if stats is not None else self._maintenance_stats
        if stats is not None:
            stats.record_view_sizes(*self._view_sizes())

    def _view_sizes(self) -> tuple[int, dict[str, int]]:
        """``(total, {"V_X" / "G_X": size})`` in one walk of the tree:
        the total counts every view, guard and leaf."""
        per_view: dict[str, int] = {}
        total = 0
        for root in self.roots:
            for node in root.walk():
                size = len(node.view)
                per_view[f"V_{node.variable}"] = size
                total += size
                if node.guard is not None:
                    size = len(node.guard)
                    per_view[f"G_{node.variable}"] = size
                    total += size
                for _, leaf in node.leaves:
                    total += len(leaf)
        return total, per_view

    def _maybe_sample_views(self, count: int = 1) -> None:
        """Periodic memory sampling: every ``view_sample_interval`` updates.

        ``count`` credits several logical updates at once — the batch
        kernel samples once per batch, not per update.
        """
        interval = self.view_sample_interval
        if not interval:
            return
        self._updates_since_sample += count
        if self._updates_since_sample >= interval:
            self._updates_since_sample = 0
            self.sample_view_sizes()

    def describe(self) -> str:
        """ASCII rendering of the view tree with sizes.

        Each leaf line says whether the leaf is its base relation
        (``= base``) or a private copy, and why (``copy (filter)``,
        ``copy (renamed)``, ``copy (self-join)``): how many copies of
        each input tuple this engine holds.  A derived view names the
        index it is read from (``V_X*(Y) = index R(Y)``).  The last two
        lines are the enumeration walk (``enum: Y · X · Z (Z replayed per
        X)``, ``enum: A · C (C drained per A bucket)``, or ``walk``) and
        the lookup plan (``lookup: R(Y, X) · S(Y, Z)``, or ``walk``).
        """
        lines: list[str] = []
        atoms = self._leaf_atoms()

        def visit(node: ViewNode, depth: int) -> None:
            pad = "  " * depth
            view = node.view
            dep = ", ".join(view.schema.variables)
            marker = "*" if node.is_free else ""
            derived = ""
            if isinstance(view, DerivedView):
                atom = atoms.get(id(view.base))
                base = view.base.name if atom is None else atom.relation
                derived = f" = index {base}({', '.join(view.index.group_vars)})"
            lines.append(
                f"{pad}V_{node.variable}{marker}({dep}){derived} size={len(view)}"
                + (f" guard={len(node.guard)}" if node.guard is not None else "")
            )
            for atom, leaf in node.leaves:
                why = self._leaf_copies.get(atom)
                kind = "= base" if why is None else f"copy ({why})"
                lines.append(f"{pad}  leaf {atom} {kind} size={len(leaf)}")
            for child in node.children:
                visit(child, depth + 1)

        for root in self.roots:
            visit(root, 0)
        lines.append(f"enum: {self._enum_route()}")
        lines.append(f"lookup: {self._lookup_route()}")
        return "\n".join(lines)

    def _leaf_atoms(self) -> dict:
        """``{id(leaf): atom}`` over every anchored leaf."""
        return {
            id(leaf): atom
            for anchors in self._anchors.values()
            for atom, _, leaf in anchors
        }

    def _enum_route(self) -> str:
        """The generated walk's free variables in visit order, the steps
        whose suffix replays per candidate of the step before, and the
        step an unbound drain hands over bucket by bucket."""
        if self._enum_kernel is None:
            return "walk"
        steps = self._enum_kernel.plan.steps
        notes = [
            f"{step.variable} replayed per {steps[d - 1].variable}"
            for d, step in enumerate(steps)
            if step.replay
        ]
        last = steps[-1]
        if last.drain:
            per = f"per {steps[-2].variable} bucket" if len(steps) > 1 else "as one bucket"
            notes.append(f"{last.variable} drained {per}")
        route = " · ".join(step.variable for step in steps)
        return f"{route} ({', '.join(notes)})" if notes else route

    def _lookup_route(self) -> str:
        """How :meth:`lookup` answers: its probes, or why it walks."""
        if self._lookup_plan is None:
            narrow = len(self.head) < len(self.query.head)
            return "walk (output head ⊂ maintained head)" if narrow else "walk"
        atoms = self._leaf_atoms()
        return " · ".join(
            str(atoms.get(id(rel), f"{rel.name}({', '.join(rel.schema.variables)})"))
            for factor in self._lookup_plan
            for rel, _ in factor
        )
