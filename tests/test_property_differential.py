"""Property-based differential testing: random queries, random valid
update streams, every maintenance engine against the naive oracle.

This is the repository's strongest correctness net: hypothesis generates
query *shapes* (hierarchical forests for the view-tree engine, acyclic
paths/stars for the others) together with update streams, and each engine
must agree with full recomputation at every checkpoint.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.data import Database, Update
from repro.delta import DeltaQueryEngine
from repro.naive import evaluate
from repro.query import Atom, Query, canonical_order, is_q_hierarchical
from repro.shard import ShardedEngine
from repro.viewtree import ViewTreeEngine
from tests.conftest import valid_stream


@st.composite
def hierarchical_query(draw):
    """A random hierarchical query built from a random variable forest.

    Construction guarantees hierarchy: build a tree of variables, attach
    each atom to a root-to-node path (the atom's schema is that path),
    then pick free variables as a *prefix-closed* subset so the query is
    also q-hierarchical.
    """
    n_vars = draw(st.integers(2, 5))
    variables = [f"V{i}" for i in range(n_vars)]
    parents = [None] + [
        draw(st.integers(0, i - 1)) for i in range(1, n_vars)
    ]

    def path_to_root(i):
        path = [variables[i]]
        while parents[i] is not None:
            i = parents[i]
            path.append(variables[i])
        return tuple(reversed(path))

    n_atoms = draw(st.integers(1, 4))
    atoms = []
    covered: set[str] = set()
    for index in range(n_atoms):
        anchor = draw(st.integers(0, n_vars - 1))
        schema = path_to_root(anchor)
        atoms.append(Atom(f"R{index}", schema))
        covered.update(schema)
    # Drop variables no atom covers.
    kept = [v for v in variables if v in covered]

    # Free prefix: a variable is free only if its parent is free.
    free: list[str] = []
    for i, var in enumerate(variables):
        if var not in covered:
            continue
        parent = parents[i]
        parent_free = parent is None or variables[parent] in free
        if parent_free and draw(st.booleans()):
            free.append(var)
    return Query("Qh", tuple(free), tuple(atoms))


def _run_stream(query, engine_factory, stream_spec):
    """Apply the stream to both the engine and a fresh db; compare."""
    db = Database()
    arities = {}
    for atom in query.atoms:
        if atom.relation not in db:
            db.create(atom.relation, atom.variables)
        arities[atom.relation] = len(atom.variables)
    engine = engine_factory(db)

    live: dict[tuple, int] = {}
    rng = random.Random(stream_spec["seed"])
    for _ in range(stream_spec["length"]):
        name = rng.choice(list(arities))
        if live and rng.random() < 0.3:
            relation, key = rng.choice(list(live))
            update = Update(relation, key, -1)
            live[(relation, key)] -= 1
            if not live[(relation, key)]:
                del live[(relation, key)]
        else:
            key = tuple(rng.randrange(4) for _ in range(arities[name]))
            update = Update(name, key, 1)
            live[(name, key)] = live.get((name, key), 0) + 1
        engine.apply(update)
    return engine, db


class TestViewTreeOnRandomHierarchicalQueries:
    @given(hierarchical_query(), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, query, seed):
        assert is_q_hierarchical(query)  # by construction
        engine, db = _run_stream(
            query,
            lambda db: ViewTreeEngine(query, db),
            {"seed": seed, "length": 40},
        )
        if query.head:
            got = engine.output_relation()
            assert got == evaluate(query, db)
        else:
            assert engine.scalar() == evaluate(query, db).get(())

    @given(hierarchical_query(), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_canonical_order_is_free_top(self, query, seed):
        order = canonical_order(query)
        assert order.is_free_top()


class TestDeltaEngineOnRandomHierarchicalQueries:
    @given(hierarchical_query(), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive(self, query, seed):
        engine, db = _run_stream(
            query,
            lambda db: DeltaQueryEngine(query, db),
            {"seed": seed, "length": 30},
        )
        assert engine.result() == evaluate(query, db)


class TestShardInvariance:
    """Sharded maintenance must be bit-identical to the plain engine:
    same output relation, same enumeration contents, any shard count."""

    @given(hierarchical_query(), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_shard_count_invariance(self, query, seed):
        spec = {"seed": seed, "length": 40}
        plain, db0 = _run_stream(
            query, lambda db: ViewTreeEngine(query, db), spec
        )
        oracle = evaluate(query, db0)
        for shards in (1, 2, 4):
            engine, _db = _run_stream(
                query,
                lambda db: ShardedEngine(
                    query, db, shards=shards, executor="serial"
                ),
                spec,
            )
            if query.head:
                assert dict(engine.enumerate()) == dict(plain.enumerate())
                assert engine.output_relation() == oracle
            else:
                assert engine.scalar() == plain.scalar()
                assert engine.scalar() == oracle.get(())

    @given(hierarchical_query(), st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_batch_application_invariance(self, query, seed):
        arities = {a.relation: len(a.variables) for a in query.atoms}
        batch = valid_stream(random.Random(seed), arities, 60, domain=4)

        def build(shards):
            db = Database()
            for atom in query.atoms:
                if atom.relation not in db:
                    db.create(atom.relation, atom.variables)
            if shards == 0:
                engine = ViewTreeEngine(query, db)
            else:
                engine = ShardedEngine(
                    query, db, shards=shards, executor="serial"
                )
            engine.apply_batch(list(batch))
            return engine, db

        plain, ref_db = build(0)
        oracle = evaluate(query, ref_db)
        for shards in (1, 2, 4):
            engine, _db = build(shards)
            if query.head:
                assert dict(engine.enumerate()) == dict(plain.enumerate())
                assert engine.output_relation() == oracle
            else:
                assert engine.scalar() == plain.scalar()


@st.composite
def acyclic_query(draw):
    """Random path or star join with a random free-variable choice."""
    shape = draw(st.sampled_from(["path", "star"]))
    n_atoms = draw(st.integers(2, 4))
    atoms = []
    if shape == "path":
        for i in range(n_atoms):
            atoms.append(Atom(f"R{i}", (f"V{i}", f"V{i+1}")))
        variables = [f"V{i}" for i in range(n_atoms + 1)]
    else:
        for i in range(n_atoms):
            atoms.append(Atom(f"R{i}", ("V0", f"V{i+1}")))
        variables = ["V0"] + [f"V{i+1}" for i in range(n_atoms)]
    head = tuple(v for v in variables if draw(st.booleans()))
    return Query("Qa", head, tuple(atoms))


class TestDeltaEngineOnRandomAcyclicQueries:
    @given(acyclic_query(), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive(self, query, seed):
        engine, db = _run_stream(
            query,
            lambda db: DeltaQueryEngine(query, db),
            {"seed": seed, "length": 25},
        )
        assert engine.result() == evaluate(query, db)
