"""Insert-only maintenance of alpha-acyclic joins (Section 4.6).

For insert-only update streams, every alpha-acyclic join query can be
maintained with *amortized constant* time per single-tuple insert and
constant-delay enumeration — even queries (like the path join) that are
not q-hierarchical and therefore cannot achieve this under insert-delete
streams (Theorem 4.1).

The engine keeps a join tree (one node per atom) with a semi-join
calibration that only ever *grows*:

* a tuple is **alive** when, for every child atom, at least one alive
  child tuple joins with it;
* inserting a tuple computes its alive status with one lookup per child;
* when a node's alive-group for some join key becomes non-empty for the
  first time, the parent tuples with that key gain one unit of support —
  work that touches each parent tuple at most once per child over the
  whole stream, because under insert-only semantics alive sets never
  shrink.  Total work is therefore O(#inserts), i.e. amortized O(1).

Enumeration descends alive tuples from the root with constant delay,
yielding the full join (set semantics: every tuple that joins).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from ..backend import Backend
from ..data.database import Database
from ..data.opcounter import COUNTER
from ..data.update import Update
from ..obs import observed
from ..query.ast import Atom, Query
from ..query.hypergraph import JoinTreeNode, build_join_tree


class _NodeState:
    """Runtime state for one join-tree node (one atom)."""

    __slots__ = (
        "atom",
        "children",
        "parent",
        "shared_with_parent",
        "tuples",
        "alive_groups",
        "parent_groups",
    )

    def __init__(self, atom: Atom):
        self.atom = atom
        self.children: list[_NodeState] = []
        self.parent: Optional[_NodeState] = None
        self.shared_with_parent: tuple[str, ...] = ()
        #: key -> number of children currently supporting it.
        self.tuples: dict[tuple, int] = {}
        #: alive keys grouped by the projection shared with the parent.
        self.alive_groups: dict[tuple, dict[tuple, None]] = {}
        #: my keys grouped by the projection shared with each child
        #: (child index -> group key -> keys); used to notify my tuples
        #: when a child group activates.
        self.parent_groups: list[dict[tuple, dict[tuple, None]]] = []

    def project(self, key: tuple, variables: tuple[str, ...]) -> tuple:
        positions = [self.atom.variables.index(v) for v in variables]
        return tuple(key[i] for i in positions)


class InsertOnlyEngine(Backend):
    """Amortized O(1) insert-only maintenance for alpha-acyclic joins."""

    def __init__(self, query: Query, database: Database | None = None):
        """Build the join tree; with ``database``, load its tuples and
        land every applied update on it as well."""
        if not query.is_self_join_free():
            raise ValueError("insert-only engine requires a self-join-free query")
        forest = build_join_tree(query)
        if forest is None:
            raise ValueError(f"{query.name} is not alpha-acyclic")
        self.query = query
        self.database = database
        self.roots: list[_NodeState] = []
        self._by_relation: dict[str, _NodeState] = {}
        for root in forest:
            self.roots.append(self._build(root, None))
        if database is not None:
            for atom in query.atoms:
                for key in database[atom.relation].keys():
                    self.insert(atom.relation, key)

    def _build(self, tree: JoinTreeNode, parent: Optional[_NodeState]) -> _NodeState:
        state = _NodeState(tree.atom)
        state.parent = parent
        if parent is not None:
            state.shared_with_parent = tuple(
                v for v in tree.atom.variables if v in parent.atom.variables
            )
        self._by_relation[tree.atom.relation] = state
        for child in tree.children:
            child_state = self._build(child, state)
            state.children.append(child_state)
            state.parent_groups.append({})
        return state

    # ------------------------------------------------------------------
    # Inserts
    # ------------------------------------------------------------------

    def insert(self, relation: str, key: tuple) -> None:
        """Insert one tuple (multiplicities are ignored: set semantics)."""
        node = self._by_relation.get(relation)
        if node is None:
            raise KeyError(f"relation {relation!r} not in query {self.query.name}")
        if key in node.tuples:
            return
        supported = 0
        COUNTER.bump("write")
        for index, child in enumerate(node.children):
            COUNTER.bump("lookup")
            shared = child.shared_with_parent
            group_key = node.project(key, shared)
            node.parent_groups[index].setdefault(group_key, {})[key] = None
            if child.alive_groups.get(group_key):
                supported += 1
        node.tuples[key] = supported
        if supported == len(node.children):
            self._activate(node, key)

    @observed
    def apply(self, update: Update) -> None:
        """Update-protocol adapter; rejects deletes (insert-only setting)."""
        try:
            negative = update.payload < 0
        except TypeError:
            negative = False
        if negative:
            raise ValueError(
                "InsertOnlyEngine only supports inserts; for insert-delete "
                "streams use the view-tree or delta engines"
            )
        self.insert(update.relation, update.key)
        if self.database is not None:
            self.database[update.relation].add(update.key, update.payload)

    def _activate(self, node: _NodeState, key: tuple) -> None:
        """Mark ``key`` alive and propagate group activations upward."""
        group_key = node.project(key, node.shared_with_parent)
        group = node.alive_groups.setdefault(group_key, {})
        first = not group
        group[key] = None
        parent = node.parent
        if parent is None or not first:
            return
        # The group just activated: every parent tuple joining it gains
        # one supporting child.  Each parent tuple experiences this at
        # most once per child over the whole insert-only stream.
        child_index = parent.children.index(node)
        parent_bucket = parent.parent_groups[child_index].get(group_key)
        if not parent_bucket:
            return
        for parent_key in parent_bucket:
            COUNTER.bump("write")
            parent.tuples[parent_key] += 1
            if parent.tuples[parent_key] == len(parent.children):
                self._activate(parent, parent_key)

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------

    def alive_count(self, relation: str) -> int:
        node = self._by_relation[relation]
        return sum(len(g) for g in node.alive_groups.values())

    def is_nonempty(self) -> bool:
        """Boolean query answer: does the join have any result?"""
        return all(
            any(root.alive_groups.values()) for root in self.roots
        )

    def enumerate(self) -> Iterator[tuple[tuple, int]]:
        """Enumerate the full join as ``(key, 1)`` pairs (keys over all
        variables, in the order the variables first appear across
        atoms; set semantics) with constant delay per output tuple."""
        variables: list[str] = []
        for atom in self.query.atoms:
            for var in atom.variables:
                if var not in variables:
                    variables.append(var)
        binding: dict[str, Any] = {}

        def assign(node: _NodeState, key: tuple) -> list[str]:
            new_vars = []
            for var, value in zip(node.atom.variables, key):
                if var not in binding:
                    binding[var] = value
                    new_vars.append(var)
            return new_vars

        def full(index: int, nodes: list[_NodeState]) -> Iterator[tuple]:
            if nodes:
                node = nodes[0]
                rest = nodes[1:]
                group_key = tuple(binding[v] for v in node.shared_with_parent)
                group = node.alive_groups.get(group_key)
                if not group:
                    return
                for key in group:
                    new_vars = assign(node, key)
                    yield from full(index, list(node.children) + rest)
                    for var in new_vars:
                        del binding[var]
                return
            if index == len(self.roots):
                yield tuple(binding[v] for v in variables), 1
                return
            root = self.roots[index]
            yield from full(index + 1, [root])

        yield from full(0, [])
