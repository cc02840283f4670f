"""Point lookups as a product of probes (``EnumPlan.lookup``).

A generated engine whose key binds every maintained head variable
answers ``lookup`` / ``lookup_snapshot`` with its enumeration kernel's
generated ``lookup`` / ``lookup_epoch``: one dict probe per anchored
leaf and bound view, multiplied in the enumeration walk's order.  On
valid states that must equal the oracle's prebound walk bit for bit —
floats included, so the product must associate as the walk does — over
the ring matrix and every probe kind: leaf probes, post probes, prefix
probes, self-join and renamed leaves, a lifted bound view, and the
static/dynamic rewrite.  A sharded coordinator multiplying base
relations must agree with the owner shard the same way.
"""

from __future__ import annotations

import gc
import itertools
import pickle
import random
import sys
import threading
import weakref

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
from repro.viewtree import EnumPlan, ViewTreeEngine, compile_enum_kernel
from repro.viewtree.codegen import LookupKernel

from tests.conftest import (
    assert_failed_to_oracle,
    rewrite_case,
    seeded_db,
    twin_engines,
    valid_stream,
)

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


LIST_QUERY = "Q(Y, X, Z) = R(Y, X) * S(Y, Z)"
LIST_SCHEMAS = [("R", ("Y", "X")), ("S", ("Y", "Z"))]


def list_query_engines(ring=Z):
    """Generated and oracle engines over ``Q(Y, X, Z)``, empty at first."""
    query = parse_query(LIST_QUERY)
    return twin_engines(query, LIST_SCHEMAS, seed=1, ring=ring, rows=0)


class TestLookupKernel:
    """The generated ``lookup`` / ``lookup_epoch`` entry points."""

    def test_list_keys(self):
        generated, oracle = list_query_engines()
        for engine in (generated, oracle):
            engine.apply(Update("R", (1, 2), 1))
            engine.apply(Update("S", (1, 3), 2))
            snap = engine.publish_epoch()
            assert engine.lookup([1, 2, 3]) == engine.lookup((1, 2, 3)) == 2
            assert engine.lookup_snapshot([1, 2, 3], snap) == 2
            assert engine.lookup_snapshot([1, 2, 9]) == 0

    @pytest.mark.parametrize("key", [(1, 2), (1, 2, 3, 4), ()], ids=["short", "long", "empty"])
    def test_wrong_arity_raises_before_any_probe(self, key):
        generated, oracle = list_query_engines()
        assert generated._lookup_plan is not None and oracle._lookup_plan is None
        for engine in (generated, oracle):
            engine.apply(Update("R", (1, 2), 1))
            engine.apply(Update("S", (1, 3), 1))
            snap = engine.publish_epoch()
            with counting() as ops:
                with pytest.raises(ValueError, match="does not match head"):
                    engine.lookup(key)
                with pytest.raises(ValueError, match="does not match head"):
                    engine.lookup_snapshot(list(key), snap)
            assert ops.counts == {}

    def test_lookup_epoch_exact_while_a_commit_thread_writes(self):
        """A reader pins the last published epoch and looks up a key grid
        while the commit thread writes and publishes on: every answer
        equals the pinned epoch's output."""
        engine, _ = list_query_engines()
        keys = list(itertools.product(range(5), repeat=3))
        stream = valid_stream(random.Random(23), {"R": 2, "S": 2}, 3000, domain=5)
        truth = {engine.publish_epoch().number: {}}
        reads, errors = [], []
        done = threading.Event()

        def commit():
            try:
                for start in range(0, len(stream), 12):
                    engine.apply_batch(stream[start:start + 12])
                    number = engine.publish_epoch().number
                    truth[number] = dict(engine.enumerate())
            except BaseException as exc:  # reported below
                errors.append(exc)
            finally:
                done.set()

        def read():
            try:
                while not done.is_set():
                    snap = engine.snapshot()
                    reads.append((snap.number, [engine.lookup_snapshot(k, snap) for k in keys]))
            except BaseException as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=commit), threading.Thread(target=read)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len({number for number, _ in reads}) > 2
        for number, answers in reads:
            assert answers == [truth[number].get(k, 0) for k in keys], number

    def test_shape_key_includes_the_lookup_positions(self):
        """Two plans with one walk but different lookup projections get
        different factories: the positions are literals in the source."""
        query = parse_query("Q(A, B, C) = R(A, B) * R(B, C)")
        db = Database()
        db.create("R", ("A", "B"))
        engine = ViewTreeEngine(query, db)
        plan = engine._enum_kernel.plan
        swapped = tuple(tuple((r, p[::-1]) for r, p in factor) for factor in plan.lookup)
        assert swapped != plan.lookup
        twin = EnumPlan(
            plan.ring, plan.nslots, plan.head_positions, plan.prefix_probes, plan.steps, swapped
        )
        kernel = compile_enum_kernel(twin)
        assert kernel.source != engine._enum_kernel.source
        engine.apply(Update("R", (1, 2), 1))
        engine.apply(Update("R", (2, 3), 1))
        assert engine.lookup((1, 2, 3)) == 1 and kernel.lookup((1, 2, 3)) == 0
        assert engine.lookup((3, 2, 1)) == 0 and kernel.lookup((3, 2, 1)) == 1


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

    @pytest.mark.parametrize("key", [(1, 2), [1, 2, 3, 4]], ids=["short", "long"])
    def test_wrong_arity_keys_raise_before_any_probe(self, key):
        """The base lookup leaves the check to its generated kernel; a
        routed read checks in the coordinator."""
        query = parse_query("Q(A, B, C) = R(A, B) * S(A, B) * T(A, C)")
        db = Database()
        for name, schema in (("R", ("A", "B")), ("S", ("A", "B")), ("T", ("A", "C"))):
            db.create(name, schema)
        with ShardedEngine(query, db, shards=2) as engine:
            engine.apply_batch([Update(name, (1, 2), 1) for name in ("R", "S", "T")])
            assert engine._base_lookup is not None
            with counting() as ops:
                for read in (engine.lookup, engine.lookup_snapshot):
                    with pytest.raises(ValueError, match="does not match head"):
                        read(key)
            assert ops.counts == {}
            assert engine.lookup([1, 2, 2]) == engine.lookup_snapshot((1, 2, 2)) == 1

    def test_process_coordinator_runs_a_generated_base_lookup(self):
        """The process coordinator's base lookup is a generated kernel:
        one ``lookup`` op per probe, zero at the first miss, bit-equal to
        the owner shard, and rebuilt from its factors when pickled."""
        query = parse_query("Q(A, B, C) = R(A, B) * S(A, B) * T(A, C)")
        db = Database(ring=R)
        for name, schema in (("R", ("A", "B")), ("S", ("A", "B")), ("T", ("A", "C"))):
            db.create(name, schema)
        with ShardedEngine(query, db, shards=2, executor="process") as engine:
            assert isinstance(engine._base_lookup, LookupKernel)
            assert "def lookup(key):" in engine._base_lookup.source
            rng = random.Random(29)
            engine.apply_batch(
                [
                    Update(name, (rng.randrange(5), rng.randrange(4)), rng.uniform(0.1, 3.0))
                    for _ in range(200)
                    for name in ("R", "S", "T")
                ]
            )
            hits = sorted(dict(engine.enumerate()))
            assert hits
            a, b, c = hits[0]
            cases = [(hits[0], 3), ((a, 9, c), 1), ((a, b, 9), 3)]
            for key, probes in cases:
                owner = engine.router.shard_of(Update("R", key[:2], 1))
                routed = engine._call(owner, ("lookup", key, None)).payload
                with counting() as ops:
                    found = engine.lookup(key)
                assert ops.counts == {"lookup": probes}
                assert bits(found) == bits(routed)
            clone = pickle.loads(pickle.dumps(engine._base_lookup))
            assert clone.source == engine._base_lookup.source
            assert bits(clone.lookup(hits[-1])) == bits(engine.lookup(hits[-1]))

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



def fill_list_engine(engine):
    """Two live output tuples of ``Q(Y, X, Z)``, published."""
    engine.apply(Update("R", (1, 2), 1))
    engine.apply(Update("S", (1, 3), 2))
    engine.apply(Update("S", (1, 4), 1))
    engine.publish_epoch()
    return engine


#: Keys of :func:`fill_list_engine`: two hits and two misses, live and
#: at the published epoch.
LIST_KEYS = [(1, 2, 3), (1, 2, 4), (1, 2, 9), (0, 0, 0)]
LIST_READS = ([2, 1, 0, 0], [2, 1, 0, 0])


def reads(engine, keys=LIST_KEYS):
    return [engine.lookup(k) for k in keys], [engine.lookup_snapshot(k) for k in keys]


class TestClassLevelTracing:
    """Tracers wrap the read methods on the class (as the end-to-end
    benchmark's span recorder does): every read must reach them, so no
    engine may shadow ``lookup`` / ``lookup_snapshot`` per instance."""

    @pytest.mark.parametrize("recorder", [False, True], ids=["bare", "recorder"])
    def test_every_read_goes_through_the_class_methods(self, monkeypatch, recorder):
        from repro import IVMEngine

        calls = {}

        def trace(cls, name):
            inner = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls[cls.__name__, name] = calls.get((cls.__name__, name), 0) + 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        for cls in (ViewTreeEngine, IVMEngine):
            trace(cls, "lookup")
            trace(cls, "lookup_snapshot")
        generated, oracle = list_query_engines()
        db = Database()
        db.create("R", ("Y", "X"))
        db.create("S", ("Y", "Z"))
        facade = IVMEngine(generated.query, db)
        for engine in (generated, oracle, facade):
            fill_list_engine(engine)
            if recorder:
                engine.attach_stats()
        for engine in (generated, oracle):
            calls.clear()
            assert reads(engine) == LIST_READS
            assert calls == {
                ("ViewTreeEngine", "lookup"): 4,
                ("ViewTreeEngine", "lookup_snapshot"): 4,
            }
        calls.clear()
        assert reads(facade) == LIST_READS
        assert calls == {
            ("IVMEngine", "lookup"): 4,
            ("IVMEngine", "lookup_snapshot"): 4,
            ("ViewTreeEngine", "lookup"): 4,
            ("ViewTreeEngine", "lookup_snapshot"): 4,
        }
        assert "lookup" not in vars(generated) and "lookup" not in vars(facade)


def reads_generally(engine):
    """Whether both read methods of ``engine`` run ``_lookup``."""
    return all(
        getattr(probe, "func", None) is ViewTreeEngine._lookup
        for probe in (engine._probe, engine._probe_epoch)
    )


def failing_enum_kernel(monkeypatch):
    """Make the next engines' enumeration-kernel generation raise."""
    from repro.viewtree import engine as engine_module

    def fail(plan, info=None):
        raise RuntimeError("injected")

    monkeypatch.setattr(engine_module, "compile_enum_kernel", fail)


class TestBoundProbe:
    """``lookup`` / ``lookup_snapshot`` call the probe the engine bound
    for its state: the generated functions while the plan has them and
    no recorder is attached, else the general path."""

    def test_the_read_methods_are_one_call_of_the_bound_probe(self):
        engine = fill_list_engine(list_query_engines()[0])
        snap, seen = engine.snapshot(), []
        engine._probe = lambda key: seen.append(key) or 7
        engine._probe_epoch = lambda key, epoch: seen.append((key, epoch)) or 8
        assert engine.lookup([1, 2, 3]) == 7 and engine.lookup_snapshot((1, 2), snap) == 8
        assert seen == [[1, 2, 3], ((1, 2), snap)]

    def test_a_recorder_counts_both_read_kinds_until_detached(self):
        engine = fill_list_engine(list_query_engines()[0])
        kernel = engine._enum_kernel
        assert engine._probe is kernel.lookup and engine._probe_epoch is kernel.lookup_epoch
        stats = engine.attach_stats()
        assert reads_generally(engine)
        assert reads(engine) == LIST_READS
        assert stats.point_lookups == 2 * len(LIST_KEYS)
        assert engine.detach_stats() is stats
        assert engine._probe is kernel.lookup and engine._probe_epoch is kernel.lookup_epoch
        assert reads(engine) == LIST_READS
        assert stats.point_lookups == 2 * len(LIST_KEYS)

    @pytest.mark.parametrize(
        "text", ["Q(Y, X, Z) = R(Y, X) * S(Y, Z)", "Q() = R(A, B) * S(B)"], ids=["probe", "scalar"]
    )
    @pytest.mark.parametrize("recorder", [False, True], ids=["bare", "recorder"])
    def test_a_dropped_engine_is_freed_without_a_collection(self, text, recorder):
        """The bound reads hold no strong reference back to the engine,
        so dropping the last reference frees the engine and its tree."""
        query = parse_query(text)
        schemas = [(atom.relation, atom.variables) for atom in query.atoms]
        engines = list(twin_engines(query, schemas, seed=4, rows=20))
        while engines:
            engine = engines.pop()
            if recorder:
                engine.attach_stats()
            engine.publish_epoch()
            alive = weakref.ref(engine)
            gc.disable()
            try:
                del engine
                assert alive() is None
            finally:
                gc.enable()

    def test_a_closed_engine_raises(self):
        engine = fill_list_engine(list_query_engines()[0])
        snap = engine.snapshot()
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.lookup((1, 2, 3))
        with pytest.raises(RuntimeError, match="closed"):
            engine.lookup_snapshot((1, 2, 3), snap)
        with pytest.raises(RuntimeError, match="closed"):
            engine.lookup_snapshot((1, 2, 3))

    @pytest.mark.parametrize("recorder", [False, True], ids=["bare", "recorder"])
    def test_a_pickle_round_trip_binds_anew(self, recorder):
        engine = fill_list_engine(list_query_engines()[0])
        if recorder:
            engine.attach_stats()
        clone = pickle.loads(pickle.dumps(engine))
        clone.publish_epoch()
        assert reads(clone) == reads(engine) == LIST_READS
        if recorder:
            assert reads_generally(clone)
            assert clone.stats.point_lookups == engine.stats.point_lookups
        else:
            assert clone._probe is clone._enum_kernel.lookup
            assert clone._probe_epoch is clone._enum_kernel.lookup_epoch

    def test_a_serial_sharded_engine_pickles(self):
        """A bound variable routes lookups to the shard engines' own
        ``lookup`` (the worker's ``_cmd_lookup``), also once restored."""
        query = parse_query("Q(B, A) = R(B, A) * S(B, C)")
        db = Database()
        for atom in query.atoms:
            db.create(atom.relation, atom.variables)
        rng = random.Random(5)
        batch = [
            Update(name, (rng.randrange(6), rng.randrange(6)), 1)
            for _ in range(60)
            for name in ("R", "S")
        ]
        with ShardedEngine(query, db, shards=2) as engine:
            assert engine._base_lookup is None
            engine.apply_batch(batch)
            keys = sorted(dict(engine.enumerate())) + [(9, 9)]
            expected = [engine.lookup(k) for k in keys]
            assert any(expected)
            with pickle.loads(pickle.dumps(engine)) as clone:
                assert [clone.lookup(k) for k in keys] == expected
                assert [clone.lookup_snapshot(k) for k in keys] == expected

    def test_paths_that_keep_the_general_read(self, monkeypatch):
        """The oracle, an FD plan, an empty head and a failed enumeration
        kernel keep the walk or the scalar, and answer as the oracle."""
        generated, oracle = list_query_engines()
        assert reads_generally(oracle)
        query = parse_query("Q(A, C) = R(A, B) * S(B, C)")
        plan = plan_maintenance(query, parse_fds("A -> B"))

        def make_db():
            db = Database()
            r, s = db.create("R", ("A", "B")), db.create("S", ("B", "C"))
            for a in range(6):
                r.insert(a, a % 2)  # A -> B holds
            for b, c in ((0, 1), (1, 2), (1, 3)):
                s.insert(b, c)
            return db

        fd, fd_oracle = twin_engines(query, None, 0, plan=plan, make_db=make_db)
        scalar, scalar_oracle = twin_engines(
            parse_query("Q() = R(A, B) * S(B)"), [("R", ("A", "B")), ("S", ("B",))], seed=3
        )
        failing_enum_kernel(monkeypatch)
        query, schemas = parse_query(LIST_QUERY), LIST_SCHEMAS
        with pytest.warns(RuntimeWarning, match="injected") as caught:
            failed = ViewTreeEngine(query, seeded_db(schemas, random.Random(1), rows=0))
        assert len(caught) == 1
        assert_failed_to_oracle(failed)
        failed_oracle = ViewTreeEngine(
            query, seeded_db(schemas, random.Random(1), rows=0), generated=False
        )
        fill_list_engine(failed)
        fill_list_engine(failed_oracle)
        for engine, twin in ((fd, fd_oracle), (scalar, scalar_oracle), (failed, failed_oracle)):
            assert reads_generally(engine)
            keys = list(dict(twin.enumerate())) + [(-1,) * len(engine.head)]
            assert [engine.lookup(k) for k in keys] == [twin.lookup(k) for k in keys]
            assert [engine.lookup_snapshot(k) for k in keys] == [twin.lookup(k) for k in keys]
        assert scalar.lookup(()) == scalar.scalar() != 0

    def test_list_keys_when_a_probe_reads_the_whole_key(self):
        """``R(A, B)`` and ``S(A, B)`` are probed with the key itself: a
        list key is made a tuple first, on the live and the epoch probe."""
        text, schemas, _ = SHAPES["one-step"]
        generated, oracle = twin_engines(parse_query(text), schemas, seed=2, rows=40)
        assert ".data.get(key)" in generated._enum_kernel.source
        keys = list(dict(oracle.enumerate()))
        assert keys
        for engine in (generated, oracle):
            engine.publish_epoch()
            assert [engine.lookup(list(k)) for k in keys] == [oracle.lookup(k) for k in keys]
            assert [engine.lookup_snapshot(list(k)) for k in keys] == [
                oracle.lookup(k) for k in keys
            ]

    @pytest.mark.parametrize("key", [(1, 2), [1, 2, 3, 4], ()], ids=["short", "long", "empty"])
    def test_the_generated_probes_check_the_arity_first(self, key):
        """The kernel's own ``lookup`` / ``lookup_epoch`` raise the
        oracle's message before any probe."""
        generated, oracle = list_query_engines()
        kernel = fill_list_engine(generated)._enum_kernel
        snap = generated.snapshot()
        with pytest.raises(ValueError) as walked:
            oracle.lookup(key)
        for probe in (kernel.lookup, lambda k: kernel.lookup_epoch(k, snap)):
            with counting() as ops:
                with pytest.raises(ValueError) as raised:
                    probe(key)
            assert ops.counts == {}
            assert str(raised.value) == str(walked.value)
        assert str(walked.value) == (
            f"lookup key {tuple(key)!r} does not match head ('Y', 'X', 'Z')"
        )
