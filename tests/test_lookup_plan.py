"""Point lookups as a product of probes (``EnumPlan.lookup``).

A generated engine whose key binds every maintained head variable
answers ``lookup`` / ``lookup_snapshot`` by multiplying one dict probe
per anchored leaf and bound view, in the enumeration walk's order.  On
valid states that must equal the oracle's prebound walk bit for bit —
floats included, so the product must associate as the walk does — over
the ring matrix and every probe kind: leaf probes, post probes, prefix
probes, self-join and renamed leaves, a lifted bound view, and the
static/dynamic rewrite.  A sharded coordinator multiplying base
relations must agree with the owner shard the same way.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro import plan_maintenance
from repro.constraints import parse_fds
from repro.data import Database, Update
from repro.data.opcounter import counting
from repro.query import parse_query, search_order
from repro.rings import (
    PROVENANCE,
    CovarianceRing,
    LiftingMap,
    Polynomial,
    R,
    Z,
    moment_lifting,
)
from repro.rings.analytics import Moments
from repro.shard import ShardedEngine
from repro.viewtree import ViewTreeEngine

from tests.conftest import rewrite_case, twin_engines, valid_stream

#: (query, relation schemas, searched free-top order?)
SHAPES = {
    # leaf probes: R(Y, X) · S(Y, Z)
    "leaves": ("Q(Y, X, Z) = R(Y, X) * S(Y, Z)",
               [("R", ("Y", "X")), ("S", ("Y", "Z"))], False),
    # one post probe: V_B(A, C)
    "post": ("Q(A, C) = R(A, B) * S(B, C)",
             [("R", ("A", "B")), ("S", ("B", "C"))], True),
    # a component with no free variable first: the prefix probe V_B()
    "prefix": ("Q(A) = S(B, C) * R(A)",
               [("S", ("B", "C")), ("R", ("A",))], False),
    # a self-join copy and a renamed copy of one relation
    "self-join": ("Q(A, B, C) = R(A, B) * R(B, C)", [("R", ("A", "B"))], False),
    # two leaves on one free step: one factor, multiplied before the
    # running payload (float association)
    "one-step": ("Q(A, B) = R(A, B) * S(A, B) * T(A)",
                 [("R", ("A", "B")), ("S", ("A", "B")), ("T", ("A",))], False),
}

RINGS = {"int": Z, "float": R, "provenance": PROVENANCE, "covariance": CovarianceRing()}


def bits(value):
    """A payload's exact representation (floats by their bit pattern)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Moments):
        return (
            bits(value.count),
            sorted((k, bits(v)) for k, v in value.sums.items()),
            sorted((k, bits(v)) for k, v in value.quads.items()),
        )
    return value


def payloads(ring, rng):
    """Insert payloads that keep every state valid (§2) and, for the
    float and provenance rings, make every tuple's payload distinct."""
    counter = itertools.count()
    if ring is R:
        return lambda: rng.uniform(0.1, 3.0)
    if ring is PROVENANCE:
        return lambda: Polynomial.variable(f"t{next(counter)}")
    return lambda: ring.one


def drive(engines, schemas, ring, seed, count=200, lifted=()):
    """Apply one valid stream to every engine: inserts with ``payloads``,
    and, for the rings with negation, deletes of earlier inserts."""
    rng = random.Random(seed)
    make = payloads(ring, rng)
    arities = {name: len(schema) for name, schema in schemas}
    deletes = 0.25 if ring is Z or isinstance(ring, CovarianceRing) else 0.0
    for update in valid_stream(rng, arities, count, domain=5, delete_prob=deletes):
        if update.payload > 0:
            payload = make()
        else:
            payload = ring.neg(ring.one)
        key = update.key
        if update.relation in lifted:
            key = key[:-1] + (key[-1] + 1,)  # a non-zero lifted value
        for engine in engines:
            engine.apply(Update(update.relation, key, payload))


def probe_keys(oracle, arity, domain=6):
    """Every output key, plus a grid of mostly missing ones."""
    keys = {key for key, _ in oracle.enumerate()}
    keys.update(itertools.product(range(-1, domain), repeat=arity))
    return sorted(keys)


def assert_lookups_agree(generated, oracle):
    keys = probe_keys(oracle, len(oracle.head))
    assert [bits(generated.lookup(k)) for k in keys] == [
        bits(oracle.lookup(k)) for k in keys
    ]
    return keys


def check_twins(generated, oracle, schemas, ring, seed, lifted=()):
    assert generated._lookup_plan is not None
    assert oracle._lookup_plan is None
    drive([generated, oracle], schemas, ring, seed, lifted=lifted)
    assert_lookups_agree(generated, oracle)
    # Snapshot reads: publish, write on, and read the published epoch.
    snaps = generated.publish_epoch(), oracle.publish_epoch()
    keys = probe_keys(oracle, len(oracle.head))
    published = [bits(oracle.lookup(k)) for k in keys]
    drive([generated, oracle], schemas, ring, seed + 1, count=120, lifted=lifted)
    for engine, snap in zip((generated, oracle), snaps):
        assert [bits(engine.lookup_snapshot(k, snap)) for k in keys] == published
    assert_lookups_agree(generated, oracle)


class TestProbeProduct:
    @pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
    @pytest.mark.parametrize("shape", SHAPES)
    def test_lookups_match_the_walk(self, shape, ring):
        text, schemas, searched = SHAPES[shape]
        query = parse_query(text)
        order = search_order(query, require_free_top=True) if searched else None
        generated, oracle = twin_engines(
            query, schemas, seed=7, order=order, ring=ring, rows=0
        )
        check_twins(generated, oracle, schemas, ring, seed=11)

    @pytest.mark.parametrize("ring", [Z, CovarianceRing()], ids=["int", "covariance"])
    def test_lifted_bound_view(self, ring):
        """``V_V(A)`` carries ``moment_lifting`` payloads (§3.2)."""
        query = parse_query("Q(A) = R(A, V) * S(A)")
        lifting = LiftingMap(ring, {"V": moment_lifting("V")}) if ring is not Z else None
        schemas = [("R", ("A", "V")), ("S", ("A",))]
        generated, oracle = twin_engines(
            query, schemas, seed=3, ring=ring, rows=0, lifting=lifting
        )
        assert "V_V(A)" in generated.describe().splitlines()[-1]
        check_twins(generated, oracle, schemas, ring, seed=13, lifted={"R"})

    def test_static_dynamic_plan(self):
        query, fds, make_db, stream = rewrite_case("static-dynamic", seed=5)
        plan = plan_maintenance(query, fds)
        generated, oracle = twin_engines(query, None, 0, plan=plan, make_db=make_db)
        for update in stream:
            generated.apply(update)
            oracle.apply(update)
        assert generated._lookup_plan is not None
        keys = assert_lookups_agree(generated, oracle)
        assert any(generated.lookup(k) for k in keys)

    def test_fd_plan_keeps_the_walk(self):
        """An FD plan's output head drops maintained variables: a key
        binds only part of the maintained head, so lookups walk, with
        the walk's op count."""
        query = parse_query("Q(X, Z) = R(X, Y) * S(Y, Z)")
        plan = plan_maintenance(query, parse_fds("X -> Y"))
        assert plan.query.head != plan.head  # the maintained head is wider

        def make_db():
            rng = random.Random(9)
            db = Database()
            r, s = db.create("R", ("X", "Y")), db.create("S", ("Y", "Z"))
            for x in range(8):
                r.insert(x, x % 3)  # X -> Y holds
            for _ in range(30):
                s.insert(rng.randrange(3), rng.randrange(6))
            return db

        generated, oracle = twin_engines(query, None, 0, plan=plan, make_db=make_db)
        assert generated._lookup_plan is None
        assert generated.describe().endswith(
            "lookup: walk (output head ⊂ maintained head)"
        )
        head, zero = generated.head, generated.ring.zero
        keys = list(dict(oracle.enumerate()))[:20] + [(-1,) * len(head)]
        for key in keys:
            with counting() as walked:
                expected = next(
                    (p for k, p in generated._enumerate(dict(zip(head, key))) if k == key),
                    zero,
                )
            with counting() as ran:
                found = generated.lookup(key)
            assert found == expected == oracle.lookup(key)
            assert ran.counts == walked.counts

    def test_one_lookup_op_per_probe_and_stop_at_first_miss(self):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        db = Database()
        db.create("R", ("Y", "X"))
        db.create("S", ("Y", "Z"))
        generated = ViewTreeEngine(query, db)
        generated.apply(Update("R", (1, 2), 1))
        generated.apply(Update("S", (1, 3), 1))
        for key, expected, probes in (((1, 2, 3), 1, 2), ((1, 9, 3), 0, 1), ((1, 2, 9), 0, 2)):
            with counting() as ops:
                assert generated.lookup(key) == expected
            assert ops.counts == {"lookup": probes}


class TestShardedCoordinator:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_coordinator_answers_equal_the_owner_shard(self, executor):
        """Float payloads: the coordinator's product over the base and
        the owner shard's product over its leaves agree bit for bit."""
        query = parse_query("Q(A, B, C) = R(A, B) * S(A, B) * T(A, C)")
        db = Database(ring=R)
        for name, schema in (("R", ("A", "B")), ("S", ("A", "B")), ("T", ("A", "C"))):
            db.create(name, schema)
        with ShardedEngine(query, db, shards=2, executor=executor) as engine:
            rng = random.Random(17)
            engine.apply_batch(
                [
                    Update(name, (rng.randrange(6), rng.randrange(4)), rng.uniform(0.1, 3.0))
                    for _ in range(300)
                    for name in ("R", "S", "T")
                ]
            )
            assert "lookups: coordinator base" in engine.describe().splitlines()
            outputs = dict(engine.enumerate())
            keys = sorted(outputs) + [(0, 0, 9), (9, 0, 0)]
            for key in keys:
                owner = engine.router.shard_of(Update("R", key[:2], 1))
                routed = engine._call(owner, ("lookup", key, None)).payload
                assert bits(engine.lookup(key)) == bits(routed)
                assert bits(engine.lookup(key)) == bits(outputs.get(key, 0.0))

    @pytest.mark.parametrize(
        "text,generated",
        [("Q(B, A) = R(B, A) * S(B, C)", True), ("Q(B, A) = R(B, A) * S(B)", False)],
        ids=["bound-variable", "oracle"],
    )
    def test_routed_engines_say_so(self, text, generated):
        """A bound variable, or the generic-walk oracle, keeps lookups
        routed to the owner shard."""
        query = parse_query(text)
        db = Database()
        for atom in query.atoms:
            db.create(atom.relation, atom.variables)
        with ShardedEngine(query, db, shards=2, generated=generated) as engine:
            assert engine._base_lookup is None
            assert "lookups: routed to owner" in engine.describe().splitlines()
