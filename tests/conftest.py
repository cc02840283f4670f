"""Shared test fixtures and helpers."""

from __future__ import annotations

import random

import pytest

from repro.data import Database
from repro.rings import Z
from repro.viewtree import ViewTreeEngine


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def make_database(spec: dict[str, tuple[tuple[str, ...], dict]]) -> Database:
    """Build a database from {name: (schema, {key: payload})}."""
    db = Database()
    for name, (schema, data) in spec.items():
        relation = db.create(name, schema)
        for key, payload in data.items():
            relation.add(key, payload)
    return db


def fig2_database() -> Database:
    """The Example 3.1 / Fig. 2 style triangle database.

    Three tuples in the join output, of which exactly one is affected by
    the delete dR = {(a2, b1) -> -2}; the paper's numbers are asserted in
    test_paper_examples.py.
    """
    return make_database(
        {
            "R": (("A", "B"), {("a1", "b1"): 1, ("a2", "b1"): 3}),
            "S": (("B", "C"), {("b1", "c1"): 2, ("b1", "c2"): 1}),
            "T": (
                ("C", "A"),
                {("c1", "a1"): 1, ("c2", "a2"): 2, ("c2", "a1"): 1},
            ),
        }
    )


def random_binary_relation(db, name, vars, rng, n, domain):
    relation = db.create(name, vars)
    for _ in range(n):
        relation.insert(*(rng.randrange(domain) for _ in vars))
    return relation


def seeded_db(schemas, rng, rows=60, domain=8, ring=Z):
    """A database of ``rows`` random ring-one tuples per ``(name, schema)``."""
    db = Database(ring=ring)
    for name, schema in schemas:
        relation = db.create(name, schema)
        for _ in range(rows):
            key = tuple(rng.randrange(domain) for _ in schema)
            relation.add(key, ring.one)
    return db


def twin_engines(
    query, schemas, seed, order=None, lifting=None, ring=Z, rows=60
):
    """``(generated, oracle)`` engines over identically-seeded databases.

    The first runs the source-generated kernels (the production path);
    the second is the differential oracle — ``generated=False``: no
    plan, no kernel, the generic walk with the dict coalescer.
    """
    generated = ViewTreeEngine(
        query,
        seeded_db(schemas, random.Random(seed), rows=rows, ring=ring),
        order,
        lifting,
    )
    oracle = ViewTreeEngine(
        query,
        seeded_db(schemas, random.Random(seed), rows=rows, ring=ring),
        order,
        lifting,
        generated=False,
    )
    assert generated.generated and generated._kernels
    assert not oracle.generated
    assert not oracle._kernels and oracle._enum_kernel is None
    return generated, oracle


def valid_stream(rng, relations, count, domain=8, delete_prob=0.25):
    """A random update stream that keeps all multiplicities non-negative.

    The paper assumes valid batches (Section 2: all tuples keep positive
    multiplicities); factorized enumeration depends on it, so tests that
    exercise enumeration must not drive multiplicities negative.

    ``relations`` is {name: arity}.
    """
    from repro.data import Update

    live: dict[str, dict[tuple, int]] = {name: {} for name in relations}
    stream = []
    for _ in range(count):
        name = rng.choice(list(relations))
        current = live[name]
        if current and rng.random() < delete_prob:
            key = rng.choice(list(current))
            stream.append(Update(name, key, -1))
            current[key] -= 1
            if not current[key]:
                del current[key]
        else:
            key = tuple(rng.randrange(domain) for _ in range(relations[name]))
            stream.append(Update(name, key, 1))
            current[key] = current.get(key, 0) + 1
    return stream
