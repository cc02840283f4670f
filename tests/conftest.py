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
    query,
    schemas,
    seed,
    order=None,
    lifting=None,
    ring=Z,
    rows=60,
    plan=None,
    make_db=None,
):
    """``(generated, oracle)`` engines over identically-seeded databases.

    The first runs the source-generated kernels (the production path);
    the second is the differential oracle — ``generated=False``: no
    plan, no kernel, the generic walk with the dict coalescer.

    With ``plan`` the twins run the planner's rewrite (its maintained
    query, order and output head) — what ``IVMEngine`` builds for the
    FD, static/dynamic and CQAP strategies; ``make_db`` replaces the
    random ``schemas`` database (FD plans need FD-satisfying data).
    """
    if make_db is None:
        def make_db():
            return seeded_db(schemas, random.Random(seed), rows=rows, ring=ring)
    head = None
    if plan is not None:
        query, order, head = plan.query, plan.order, plan.head
    generated = ViewTreeEngine(query, make_db(), order, lifting, head=head)
    oracle = ViewTreeEngine(
        query, make_db(), order, lifting, generated=False, head=head
    )
    assert generated.generated and generated._kernels
    assert not oracle.generated
    assert not oracle._kernels and oracle._enum_kernel is None
    return generated, oracle


def fd_satisfying_db(rng, x_domain=12, w_domain=20):
    """Data for Example 4.12 satisfying X -> Y and Y -> Z."""
    db = Database()
    r = db.create("R", ("X", "W"))
    s = db.create("S", ("X", "Y"))
    t = db.create("T", ("Y", "Z"))
    y_of = {x: rng.randrange(6) for x in range(x_domain)}
    z_of = {y: rng.randrange(6) for y in range(6)}
    for x, y in y_of.items():
        s.insert(x, y)
    for y, z in z_of.items():
        t.insert(y, z)
    for _ in range(150):
        r.insert(rng.randrange(x_domain), rng.randrange(w_domain))
    return db


#: The rewrites that are not plain q-hierarchical view trees but do have
#: an enumerable output (a CQAP's is only defined per access request).
REWRITES = ("fd-viewtree", "static-dynamic")


def rewrite_case(strategy, seed, count=240):
    """``(query, fds, make_db, stream)`` exercising one of :data:`REWRITES`.

    ``make_db()`` returns a fresh, identically-seeded database; ``stream``
    is valid over it (and keeps the FDs satisfied: S and T only toggle
    tuples the database started with).
    """
    from repro.constraints import parse_fds
    from repro.data import Update
    from repro.query import parse_query

    rng = random.Random(seed)
    if strategy == "fd-viewtree":
        query = parse_query("Q(Z, Y, X, W) = R(X, W) * S(X, Y) * T(Y, Z)")
        fds = parse_fds("X -> Y", "Y -> Z")

        def make_db():
            return fd_satisfying_db(random.Random(seed))

        base = make_db()
        present = {
            (name, key): True for name in ("S", "T") for key in base[name].keys()
        }
        stream = []
        for update in valid_stream(rng, {"R": 2}, count, domain=12):
            stream.append(update)
            if rng.random() < 0.2:
                name, key = rng.choice(list(present))
                stream.append(Update(name, key, -1 if present[name, key] else 1))
                present[name, key] = not present[name, key]
        return query, fds, make_db, stream
    assert strategy == "static-dynamic"
    query = parse_query("Q(A,B,C) = R(A,D) * S(A,B) * T@s(B,C)")

    def make_db():
        fill = random.Random(seed)
        db = Database()
        db.create("R", ("A", "D"))
        db.create("S", ("A", "B"))
        t = db.create("T", ("B", "C"))
        for _ in range(50):
            t.insert(fill.randrange(6), fill.randrange(6))
        return db

    return query, (), make_db, valid_stream(rng, {"R": 2, "S": 2}, count, domain=6)


def applied_once(db, stream):
    """``{relation: payloads}`` of ``db`` (over Z) after ``stream`` lands
    on it exactly once; ``db`` itself is not touched."""
    tables = {relation.name: dict(relation.data) for relation in db}
    for update in stream:
        table = tables[update.relation]
        payload = table.get(update.key, 0) + update.payload
        if payload:
            table[update.key] = payload
        else:
            del table[update.key]
    return tables


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
