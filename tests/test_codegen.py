"""Generated source kernels (repro.viewtree.codegen).

The codegen layer must be *semantically invisible*: for any valid update
stream, any ring (exact-zero and tolerance/structural alike), any
strategy, and any shard executor, an engine running generated kernels
produces bit-identical views and enumerations (contents AND order) to
the oracle — the same engine built with ``generated=False``, which runs
the generic walk and shares no coalescing, planning or execution code
with the kernels.  An engine whose kernel generation fails must be
reported once (warning + ``codegen.fallbacks``) and be the oracle, with
the same results.  Plus the satellites: kernels share a compiled
factory exactly when they emit equal code (never by relation or anchor
names), kernels must survive pickling through process-pool shards,
`explain --kernel-source` must be deterministic, the columnar coalescer
must match `coalesce_grouped` exactly (float ring included), and the
`repro.obs/1` payload must carry the codegen block.
"""

from __future__ import annotations

import ast
import gc
import itertools
import pickle
import random
import re
import warnings
import weakref

import pytest

from repro import IVMEngine
from repro.cli import main as cli_main
from repro.constraints import parse_fds
from repro.data import Database, Update
from repro.data.columnar import coalesce_columnar
from repro.data.update import coalesce_grouped
from repro.naive import evaluate
from repro.obs import MaintenanceStats
from repro.query import parse_query, search_order
from repro.rings import (
    B,
    MIN_PLUS,
    PROVENANCE,
    CovarianceRing,
    LiftingMap,
    ProductRing,
    R,
    Z,
    moment_lifting,
)
from repro.rings.standard import FloatRing, IntegerRing
from repro.shard import ShardedEngine
from repro.viewtree import ViewTreeEngine, make_strategy
from repro.viewtree import engine as engine_module
from repro.viewtree.codegen import (
    EnumKernel,
    clear_shape_cache,
    compile_delta_kernel,
    compile_enum_kernel,
    new_codegen_info,
    shape_cache_size,
)

from tests.conftest import (
    assert_failed_to_oracle,
    assert_views_agree,
    seeded_db,
    twin_engines,
    valid_stream,
)


def ring_stream(rng, schemas, ring, count, deletes, domain=8):
    """A valid stream with ring-one payloads (negated for deletes)."""
    arities = {name: len(schema) for name, schema in schemas}
    stream = []
    for update in valid_stream(
        rng, arities, count, domain=domain,
        delete_prob=0.25 if deletes else 0.0,
    ):
        payload = ring.one if update.payload > 0 else ring.neg(ring.one)
        stream.append(Update(update.relation, update.key, payload))
    return stream


def assert_twins_agree(generated, oracle, query):
    if query.head:
        assert list(generated.enumerate()) == list(oracle.enumerate())
    else:
        assert generated.scalar() == oracle.scalar()
    assert (
        generated.output_relation().to_dict()
        == oracle.output_relation().to_dict()
    )


QUERIES = [
    # q-hierarchical, DIRECT probes only: a straight-line push, and an
    # enumeration that replays Z per X.
    ("Q(Y, X, Z) = R(Y, X) * S(Y, Z)",
     [("R", ("Y", "X")), ("S", ("Y", "Z"))]),
    # Three-relation chain with a non-leading anchor variable.
    ("Q(A, B) = R(A, B) * S(B, C) * T(B)",
     [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("B",))]),
    # Self-join: two anchors per relation, leaf updated between pushes.
    ("Q(A, B, C) = E(A, B) * E(B, C)", [("E", ("A", "B"))]),
    # Boolean triangle count: full-marginalization CROSS/INDEXED steps.
    ("Q() = R(A,B) * S(B,C) * T(C,A)",
     [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "A"))]),
    # Single atom: no sibling joins at the anchor step.
    ("Q(A, B) = R(A, B)", [("R", ("A", "B"))]),
]


class TestDifferentialFuzz:
    @pytest.mark.parametrize("text,schemas", QUERIES)
    def test_mixed_stream_bit_identical(self, text, schemas):
        query = parse_query(text)
        generated, oracle = twin_engines(query, schemas, seed=17)
        stream = ring_stream(random.Random(23), schemas, Z, 600, True)
        s_gen = generated.attach_stats()
        s_orc = oracle.attach_stats()
        # Interleave per-tuple pushes with batches of several sizes so
        # both the scalar push and the columnar push_batch paths run.
        cursor = 0
        for size in (1, 1, 7, 64, 128, 1, 200):
            chunk = stream[cursor:cursor + size]
            cursor += size
            if size == 1:
                for update in chunk:
                    generated.apply(update)
                    oracle.apply(update)
            else:
                generated.apply_batch(chunk)
                oracle.apply_batch(chunk)
        rest = stream[cursor:]
        generated.apply_batch(rest)
        oracle.apply_batch(rest)
        assert_twins_agree(generated, oracle, query)
        d_gen, d_orc = s_gen.to_dict(), s_orc.to_dict()
        assert d_gen["codegen"]["kernels_generated"] > 0
        assert d_gen["codegen"]["fallbacks"] == 0
        assert d_orc["codegen"]["kernels_generated"] == 0

    @pytest.mark.parametrize(
        "ring,deletes",
        [(Z, True), (R, True), (B, False), (MIN_PLUS, False),
         (PROVENANCE, False), (ProductRing(IntegerRing(), FloatRing()), True)],
        ids=["int", "float", "boolean", "min-plus", "provenance", "product"],
    )
    def test_ring_matrix(self, ring, deletes):
        # Non-exact-zero rings (R tolerance, PROVENANCE structural,
        # product-of-mixed) force the generated is_zero() paths; exotic
        # add/mul (min-plus) forces the method-call fallback over the
        # inlined operators.
        query = parse_query("Q(A, B) = R(A, B) * S(B, C) * T(B)")
        schemas = [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("B",))]
        generated, oracle = twin_engines(query, schemas, seed=29, ring=ring)
        stream = ring_stream(random.Random(31), schemas, ring, 300, deletes)
        for update in stream[:100]:
            generated.apply(update)
            oracle.apply(update)
        generated.apply_batch(stream[100:])
        oracle.apply_batch(stream[100:])
        assert_twins_agree(generated, oracle, query)

    def test_analytics_ring_with_lifting(self):
        ring = CovarianceRing()
        query = parse_query("Q(A) = R(A, V) * S(A)")
        lifting = LiftingMap(ring, {"V": moment_lifting("V")})
        schemas = [("R", ("A", "V")), ("S", ("A",))]
        generated, oracle = twin_engines(
            query, schemas, seed=37, ring=ring, lifting=lifting
        )
        rng = random.Random(41)
        live = []
        stream = []
        for _ in range(250):
            if rng.random() < 0.6:
                if live and rng.random() < 0.3:
                    stream.append(
                        Update("R", live.pop(rng.randrange(len(live))),
                               ring.neg(ring.one))
                    )
                else:
                    key = (rng.randrange(5), rng.randrange(1, 9))
                    live.append(key)
                    stream.append(Update("R", key, ring.one))
            else:
                stream.append(
                    Update(
                        "S", (rng.randrange(5),),
                        ring.one if rng.random() < 0.75 else ring.neg(ring.one),
                    )
                )
        for update in stream[:80]:
            generated.apply(update)
            oracle.apply(update)
        generated.apply_batch(stream[80:])
        oracle.apply_batch(stream[80:])
        assert_twins_agree(generated, oracle, query)

    @pytest.mark.parametrize("text,schemas", QUERIES[:2])
    def test_prebound_enumeration_identical(self, text, schemas):
        query = parse_query(text)
        generated, oracle = twin_engines(query, schemas, seed=43)
        for update in ring_stream(random.Random(47), schemas, Z, 300, True):
            generated.apply(update)
            oracle.apply(update)
        head = query.head
        for value in range(-1, 9):  # -1: guaranteed miss
            one = {head[0]: value}
            assert list(generated.enumerate(prebound=one)) == list(
                oracle.enumerate(prebound=one)
            )
            everything = {v: (value + i) % 8 for i, v in enumerate(head)}
            assert list(generated.enumerate(prebound=everything)) == list(
                oracle.enumerate(prebound=everything)
            )

    def test_snapshot_reads_identical(self):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        generated, oracle = twin_engines(query, schemas, seed=53)
        stream = ring_stream(random.Random(59), schemas, Z, 400, True)
        for update in stream[:200]:
            generated.apply(update)
            oracle.apply(update)
        generated.publish_epoch()
        oracle.publish_epoch()
        # Mutate past the epoch: snapshot reads must see the frozen
        # state, live reads the current one — under generated kernels
        # exactly as under the generic walk.
        generated.apply_batch(stream[200:])
        oracle.apply_batch(stream[200:])
        assert list(generated.enumerate_snapshot()) == list(
            oracle.enumerate_snapshot()
        )
        assert list(generated.enumerate()) == list(oracle.enumerate())


class TestStrategies:
    @pytest.mark.parametrize(
        "name", ["eager-fact", "eager-list", "lazy-list", "lazy-fact"]
    )
    def test_strategy_parity(self, name):
        query = parse_query("Q(B, A) = R(B, A) * S(B)")
        schemas = [("R", ("B", "A")), ("S", ("B",))]
        with_codegen = make_strategy(
            name, query, seeded_db(schemas, random.Random(61))
        )
        # ``generated`` is accepted by all four (the list strategies run
        # no view tree and discard it).
        without = make_strategy(
            name, query, seeded_db(schemas, random.Random(61)),
            generated=False,
        )
        for update in ring_stream(random.Random(67), schemas, Z, 200, True):
            with_codegen.apply(update)
            without.apply(update)
        assert sorted(with_codegen.enumerate()) == sorted(without.enumerate())


class TestSharded:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_executor_parity(self, executor):
        query = parse_query("Q(B, A) = R(B, A) * S(B)")

        def fresh():
            db = Database()
            db.create("R", ("B", "A"))
            db.create("S", ("B",))
            rng = random.Random(71)
            for _ in range(20):
                db["R"].insert(rng.randrange(8), rng.randrange(8))
                db["S"].insert(rng.randrange(8))
            return db

        stream = valid_stream(random.Random(73), {"R": 2, "S": 1}, 150)
        count = 60 if executor == "process" else 150
        with ShardedEngine(
            query, fresh(), shards=2, executor=executor
        ) as generated, ShardedEngine(
            query, fresh(), shards=2, executor=executor, generated=False
        ) as oracle:
            assert generated.generated and not oracle.generated
            generated.apply_batch(stream[:count])
            oracle.apply_batch(stream[:count])
            generated.apply(Update("R", (1, 1), 1))
            oracle.apply(Update("R", (1, 1), 1))
            assert dict(generated.enumerate()) == dict(oracle.enumerate())


class TestPickling:
    def test_engine_round_trip_keeps_kernels(self):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        generated, oracle = twin_engines(query, schemas, seed=79)
        stream = ring_stream(random.Random(83), schemas, Z, 300, True)
        for update in stream[:150]:
            generated.apply(update)
            oracle.apply(update)
        clone = pickle.loads(pickle.dumps(generated))
        assert clone.generated and set(clone._kernels) == {"R", "S"}
        assert clone._enum_kernel is not None
        for update in stream[150:]:
            clone.apply(update)
            oracle.apply(update)
        assert list(clone.enumerate()) == list(oracle.enumerate())

    def test_kernel_reduce_regenerates_identical_source(self):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        engine, _ = twin_engines(query, schemas, seed=89)
        kernel = engine._kernels["R"][0]
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone.source == kernel.source
        enum_clone = pickle.loads(pickle.dumps(engine._enum_kernel))
        assert enum_clone.source == engine._enum_kernel.source


class TestShapeCache:
    def test_same_shape_across_engines_compiles_once(self):
        clear_shape_cache()
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        first, _ = twin_engines(query, schemas, seed=97)
        r, s = first._kernels["R"][0], first._kernels["S"][0]
        assert r.push.__code__ is s.push.__code__  # one factory
        size_after_first = shape_cache_size()
        second, _ = twin_engines(query, schemas, seed=101)
        assert shape_cache_size() == size_after_first
        info = second._codegen_info
        assert info is not None and info["cache_hits"] == info["kernels"]

    def test_cache_keys_on_ring_identity_not_names(self):
        # Two engines over the SAME query and relation names but
        # different rings must never share generated code: the float
        # ring's tolerance zero test and the integer ring's exact test
        # compile to different source.
        clear_shape_cache()
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        with_int, _ = twin_engines(query, schemas, seed=103, ring=Z)
        size_int = shape_cache_size()
        with_float, _ = twin_engines(query, schemas, seed=103, ring=R)
        assert shape_cache_size() > size_int
        assert (
            with_int._kernels["R"][0].source
            != with_float._kernels["R"][0].source
        )

    def test_float_tolerances_share_a_factory_yet_zero_test_their_own(self):
        # A tolerance is instance state the env binds (``IS_ZERO``), not
        # emitted code: two FloatRings share every factory, and each
        # engine cancels within its own tolerance, as its oracle does.
        clear_shape_cache()
        query = parse_query("Q(A) = R(A, B) * S(B)")
        schemas = [("R", ("A", "B")), ("S", ("B",))]
        order = search_order(query, require_free_top=True)
        stream = [Update("S", (2,), 1.0), Update("R", (1, 2), 1.0), Update("R", (1, 2), -0.7)]
        engines, outputs = [], []
        for tolerance in (1e-12, 0.5):
            twins = twin_engines(query, schemas, 107, order, ring=FloatRing(tolerance), rows=0)
            if not engines:
                size = shape_cache_size()
            for update in stream:
                for engine in twins:
                    engine.apply(update)
            assert dict(twins[0].enumerate()) == dict(twins[1].enumerate())
            engines.append(twins[0])
            outputs.append(set(dict(twins[0].enumerate())))
        assert shape_cache_size() == size
        info = engines[1]._codegen_info
        assert info["cache_hits"] == info["kernels"] > 0
        assert engines[0]._kernels["R"][0].source == engines[1]._kernels["R"][0].source
        assert outputs == [{(1,)}, set()]

    def test_every_kernel_carries_its_own_plans_source(self):
        """Equal code compiles once (the shapes' 62 kernels to 42
        factories), yet a kernel's ``source`` is what its own plan
        emits: no comment names another plan's variable (``Q(Y, X,
        Z)``'s S kernel shows no ``# step 0 (X)``)."""
        clear_shape_cache()
        kernels = every_shape_kernels()
        assert (len(kernels), shape_cache_size()) == (62, 42)
        for kernel in kernels:
            clear_shape_cache()
            compile_kernel = (
                compile_enum_kernel if isinstance(kernel, EnumKernel) else compile_delta_kernel
            )
            assert compile_kernel(kernel.plan).source == kernel.source

    def test_fallback_counter_on_uncompilable_plan(self):
        # Generation of a malformed plan raises; the engine constructor
        # catches, counts and reports it (TestGenerationFailure).
        info = new_codegen_info()
        with pytest.raises(Exception):
            compile_delta_kernel(object(), info)
        with pytest.raises(Exception):
            compile_enum_kernel(object(), info)


class TestGenerationFailure:
    """Generation is all or nothing: an engine one of whose kernels
    raises reports it once and is the oracle — never silent, never
    half generated, never wrong."""

    QUERY = "Q(Y, X, Z) = R(Y, X) * S(Y, Z)"
    SCHEMAS = [("R", ("Y", "X")), ("S", ("Y", "Z"))]

    def twins(self, monkeypatch, target, fails):
        """``(failed, oracle)``: a generated engine for which the
        ``target`` generator raises on plans ``fails`` selects."""
        real = getattr(engine_module, target)

        def flaky(plan, info=None):
            if fails(plan):
                raise ValueError("injected generation failure")
            return real(plan, info)

        monkeypatch.setattr(engine_module, target, flaky)
        query = parse_query(self.QUERY)
        with pytest.warns(RuntimeWarning, match="^kernel generation failed for") as caught:
            failed = ViewTreeEngine(
                query, seeded_db(self.SCHEMAS, random.Random(5))
            )
        assert len(caught) == 1
        assert "injected generation failure" in str(caught[0].message)
        assert_failed_to_oracle(failed)
        oracle = ViewTreeEngine(
            query, seeded_db(self.SCHEMAS, random.Random(5)), generated=False
        )
        return failed, oracle

    def assert_reads_agree(self, failed, oracle):
        assert_views_agree(failed, oracle)
        assert list(failed.enumerate()) == list(oracle.enumerate())
        assert list(failed.enumerate(prebound={"Y": 3})) == list(
            oracle.enumerate(prebound={"Y": 3})
        )
        keys = list(dict(oracle.enumerate())) + [(-1, -1, -1)]
        for engine in (failed, oracle):
            engine.publish_epoch()
        assert [failed.lookup(k) for k in keys] == [oracle.lookup(k) for k in keys]
        assert [failed.lookup_snapshot(k) for k in keys] == [
            oracle.lookup_snapshot(k) for k in keys
        ]
        assert list(failed.enumerate_snapshot()) == list(
            oracle.enumerate_snapshot()
        )

    def test_delta_kernel_failure_runs_the_generic_walk(self, monkeypatch):
        failed, oracle = self.twins(
            monkeypatch,
            "compile_delta_kernel",
            lambda plan: plan.relation_name == "S",
        )
        stream = ring_stream(random.Random(7), self.SCHEMAS, Z, 300, True)
        for update in stream[:100]:
            failed.apply(update)
            oracle.apply(update)
        self.assert_reads_agree(failed, oracle)
        for start in (100, 200):
            failed.apply_batch(stream[start:start + 100])
            oracle.apply_batch(stream[start:start + 100])
        assert_twins_agree(failed, oracle, failed.query)
        self.assert_reads_agree(failed, oracle)
        assert failed.database["S"] == oracle.database["S"]

    def test_enum_kernel_failure_runs_the_generic_walk(self, monkeypatch):
        failed, oracle = self.twins(
            monkeypatch,
            "compile_enum_kernel",
            lambda plan: True,
        )
        stream = ring_stream(random.Random(11), self.SCHEMAS, Z, 200, True)
        failed.apply_batch(stream)
        oracle.apply_batch(stream)
        assert_twins_agree(failed, oracle, failed.query)
        self.assert_reads_agree(failed, oracle)

    def test_a_failed_engine_drops_the_indexes_its_plans_created(
        self, monkeypatch
    ):
        """No index outlives the kernels that probed it: every relation
        of a failed engine carries exactly the group indexes of its
        ``generated=False`` twin, before and after a stream.  The tables
        start empty, since building views over rows creates indexes of
        its own."""

        def fail_generation(plan, info=None):
            raise ValueError("injected generation failure")

        monkeypatch.setattr(engine_module, "compile_delta_kernel", fail_generation)
        query = parse_query("Q(A) = R(A, B) * S(B, C) * T(C, D)")
        schemas = [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))]
        with pytest.warns(RuntimeWarning, match="injected"):
            failed = ViewTreeEngine(query, seeded_db(schemas, None, rows=0))
        assert_failed_to_oracle(failed)
        oracle = ViewTreeEngine(
            query, seeded_db(schemas, None, rows=0), generated=False
        )

        def indexes(engine):
            return [
                (relation.name, sorted(relation._indexes))
                for relation in engine._snapshot_relations()
            ]

        assert indexes(failed) == indexes(oracle)
        stream = ring_stream(random.Random(13), schemas, Z, 200, True)
        for engine in (failed, oracle):
            engine.apply_batch(stream)
        assert indexes(failed) == indexes(oracle)
        assert dict(failed.enumerate()) == dict(oracle.enumerate())


class TestDroppedEngine:
    """An engine holds no cycle through a kernel generation, succeeded
    or failed: dropped with the collector off, it is freed at once."""

    @pytest.mark.parametrize(
        "text,fail",
        [
            ("Qab(A | B) = S(A, B) * T(B)", False),
            ("Q(A) = R(A)", False),
            ("Q(A, C) = R(A, B) * S(B, C)", True),
        ],
        ids=["cqap", "unary-root", "failed-generation"],
    )
    def test_is_freed_without_a_collection(self, monkeypatch, text, fail):
        query = parse_query(text)
        db = Database()
        for atom in query.atoms:
            db.create(atom.relation, atom.variables)

        def fail_generation(plan, info=None):
            raise ValueError("injected generation failure")

        if fail:
            monkeypatch.setattr(engine_module, "compile_delta_kernel", fail_generation)
            with pytest.warns(RuntimeWarning, match="injected"):
                engine = IVMEngine(query, db)
        else:
            engine = IVMEngine(query, db)
        assert engine.generated is not fail
        alive = weakref.ref(engine)
        gc.disable()
        try:
            del engine
            assert alive() is None
        finally:
            gc.enable()


#: ``(query, fds, insert_only)``: shapes with an atom alone under a free
#: root, a CQAP whose fracture has one, and the 20 shapes EXPERIMENTS.md's
#: byte-identity script compares.
EVERY_SHAPE = [
    ("Q(A) = R(A)", (), False),
    ("Q(B) = T(B)", (), False),
    ("Q(A, B) = R(A) * S(B)", (), False),
    ("Q(A, B, C) = R(A, C) * S(B)", (), False),
    ("Q(B, C) = R(B, A) * S(B) * T(C)", (), False),
    ("Qab(A | B) = S(A, B) * T(B)", (), False),
    ("Q(Y, X, Z) = R(Y, X) * S(Y, Z)", (), False),
    ("Q(A, C) = R(A, B) * S(B, C)", (), False),
    ("Q(A) = R(A, B) * S(B)", (), False),
    ("Q(A) = R(A, B) * S(B, C) * T(C, D)", (), False),
    ("Q(A, B) = R(A, B) * S(B, C) * T(B)", (), False),
    ("Q(A, C, D) = R(A, B) * S(B, C) * T(B, D)", (), False),
    ("Q() = R(A, B) * S(B, C) * T(C, A)", (), False),
    ("Q(A, B, C) = R(A, B) * S(B, C) * T(C, A)", (), False),
    ("Q(A, C) = E(A, B) * E(B, C)", (), False),
    ("Q(A, B, C) = E(A, B) * E(B, C)", (), False),
    ("Q(A, B) = R(A, B)", (), False),
    ("Q(A) = R(A, B)", (), False),
    ("Q() = R(A, B) * S(B)", (), False),
    ("Q(Z, Y, X, W) = R(X, W) * S(X, Y) * T(Y, Z)", ("X -> Y", "Y -> Z"), False),
    ("Q(A, C) = R(A, B) * S(B, C)", ("A -> B",), False),
    ("Q(A, C) = R(A, B) * S(B, C) * T(C, D)", (), True),
    ("Q(A, B) = R(A, B) * S@s(B)", (), False),
    ("Q(A, C) = R(A, B) * S@s(B, C)", (), False),
    ("Q(B, A) = R(B, A) * S(B)", (), False),
]
EVERY_SHAPE_IDS = [
    text + "".join(f" fd {fd}" for fd in fds) + (" insert-only" if ins else "")
    for text, fds, ins in EVERY_SHAPE
]


def shape_engine(query, fds, insert_only, generated=True, ring=Z):
    """An ``IVMEngine`` over ``query`` on fresh ``ring`` tables, its
    static ones filled."""
    db = Database(ring=ring)
    for atom in query.atoms:
        if atom.relation not in db:
            db.create(atom.relation, atom.variables)
    for atom in query.static_atoms:
        for key in itertools.product(range(3), repeat=len(atom.variables)):
            db[atom.relation].add(key, ring.one)
    return IVMEngine(query, db, fds, insert_only, generated=generated)


def shape_kernels(engine) -> list:
    """Every generated kernel of ``engine``: delta kernels, then the
    enumeration kernel (none for a backend that generates none)."""
    backend = engine.backend
    kernels = [k for each in getattr(backend, "_kernels", {}).values() for k in each]
    enum = getattr(backend, "_enum_kernel", None)
    return kernels + ([enum] if enum is not None else [])


def every_shape_kernels() -> list:
    """The kernels of one generated engine per :data:`EVERY_SHAPE` row,
    built in order (later ones hit the factory cache)."""
    return [
        kernel
        for text, fd_texts, insert_only in EVERY_SHAPE
        for kernel in shape_kernels(
            shape_engine(parse_query(text), parse_fds(*fd_texts), insert_only)
        )
    ]


def shape_stream(query, fds, insert_only, rng, count=240, domain=4):
    """A valid insert/delete stream over ``query``'s dynamic relations
    (inserts only under ``insert_only``) whose keys keep ``fds``: each
    dependent value is a function of its determinant's values."""
    atoms = {atom.relation: atom for atom in query.dynamic_atoms}
    live = {name: [] for name in atoms}
    stream = []
    for _ in range(count):
        name = rng.choice(sorted(atoms))
        if live[name] and not insert_only and rng.random() < 0.3:
            key = live[name].pop(rng.randrange(len(live[name])))
            stream.append(Update(name, key, -1))
            continue
        variables = atoms[name].variables
        values = {v: rng.randrange(domain) for v in variables}
        for fd in fds:
            if fd.dependent in values and set(fd.determinant) <= set(values):
                seed = sum(values[v] for v in fd.determinant)
                values[fd.dependent] = (seed * 3 + 1) % domain
        key = tuple(values[v] for v in variables)
        live[name].append(key)
        stream.append(Update(name, key, 1))
    return stream


class TestEveryShapeGenerates:
    """Every planned shape generates all of its kernels — no warning, no
    fallback — derives each free root's view, and maintains what the
    oracle and ``repro.naive`` compute."""

    @pytest.mark.parametrize(
        "text,fd_texts,insert_only",
        EVERY_SHAPE,
        ids=EVERY_SHAPE_IDS,
    )
    def test_builds_derives_and_agrees(self, text, fd_texts, insert_only):
        query, fds = parse_query(text), parse_fds(*fd_texts)
        engines = []
        for generated in (True, False):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                engine = shape_engine(query, fds, insert_only, generated)
            assert [str(w.message) for w in caught] == []
            assert engine.attach_stats().codegen_fallbacks == 0
            engines.append(engine)
        engine, oracle = engines
        backend = engine.backend
        if isinstance(backend, ViewTreeEngine):
            assert backend.generated
            free_roots = [
                line for line in backend.describe().splitlines()
                if line.startswith("V_") and "*(" in line
            ]
            assert len(free_roots) == sum(root.is_free for root in backend.roots)
            for line in free_roots:
                assert " = index " in line, line
        stream = shape_stream(query, fds, insert_only, random.Random(41))
        for each in engines:
            for update in stream[:60]:
                each.apply(update)
            each.apply_batch(stream[60:180])
            for update in stream[180:]:
                each.apply(update)
        full = evaluate(query, engine.database).to_dict()
        if query.input_variables:
            head, inputs = query.head, query.input_variables
            for values in itertools.product(range(4), repeat=len(inputs)):
                request = dict(zip(inputs, values))
                expected = {
                    tuple(k for v, k in zip(head, key) if v not in request): payload
                    for key, payload in full.items()
                    if all(key[head.index(v)] == request[v] for v in inputs)
                }
                assert dict(engine.answer(request)) == expected
                assert dict(oracle.answer(request)) == expected
        else:
            assert dict(engine.enumerate()) == dict(oracle.enumerate()) == full


def unread_names(source: str) -> set[str]:
    """Names a factory ``source`` binds from its env that no function
    loads, and names a function assigns (``=`` or ``+=``; loop targets
    aside) that none of its lines loads."""
    make = ast.parse(source).body[0]
    functions = [node for node in make.body if isinstance(node, ast.FunctionDef)]

    def names(tree, ctx) -> set[str]:
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ctx)}

    loaded = [names(function, ast.Load) for function in functions]
    bound = {t.id for node in make.body if isinstance(node, ast.Assign) for t in node.targets}
    unread = bound - set().union(*loaded)
    for function, loads in zip(functions, loaded):
        for node in ast.walk(function):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                unread |= {n for t in targets for n in names(t, ast.Store)} - loads
    return unread


class TestNoUnreadState:
    """A kernel builds no state no later line reads: no ``ck = dk`` after
    an unguarded support step (the only step of ``Q(A) = R(A)``); no
    ``out_k`` / ``out_p`` lists or ``cks = dks`` tail after the last
    written step (``V_B`` on ``Q(A, C)``, whose ``G_A`` flips ride its
    postings), and no ``dks`` / ``dps`` lists there when only their
    length is read; no ``gget`` for a guard, whose writes are flips; no
    ``payload`` or slot local in a drained-bucket walk that reads
    neither (``Q(A, C)``'s ``buckets``)."""

    @pytest.mark.parametrize(
        "text,relation",
        [("Q(A) = R(A)", "R"), ("Q(A, C) = R(A, B) * S(B, C)", "R"),
         ("Q(A, C) = R(A, B) * S(B, C)", "S"), ("Q(Y, X, Z) = R(Y, X) * S(Y, Z)", "R")],
    )
    def test_generated_source(self, text, relation):
        query = parse_query(text)
        db = Database()
        for atom in query.atoms:
            db.create(atom.relation, atom.variables)
        source = IVMEngine(query, db).backend._kernels[relation][0].source
        for line in ("ck = dk", "cks = dks", "out_k", "out_p", "dks = []", "gget"):
            assert line not in source, line

    @pytest.mark.parametrize("text,fd_texts,insert_only", EVERY_SHAPE, ids=EVERY_SHAPE_IDS)
    def test_every_binding_and_delta_local_is_read(self, text, fd_texts, insert_only):
        """Every env name a factory binds is read; every local a delta
        or enumeration kernel assigns is read (``Q(Y, X, Z)``'s ``gget``
        and ``MUL`` included)."""
        engine = shape_engine(parse_query(text), parse_fds(*fd_texts), insert_only)
        for kernel in shape_kernels(engine):
            assert unread_names(kernel.source) == set()


class TestExplainCLI:
    def test_kernel_source_deterministic(self, capsys):
        args = [
            "explain", "Q(Y, X, Z) = R(Y, X) * S(Y, Z)", "--kernel-source"
        ]
        assert cli_main(args) == 0
        first = capsys.readouterr().out
        assert cli_main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "-- delta kernel R[0] --" in first
        assert "-- delta kernel S[0] --" in first
        assert "-- enum kernel --" in first
        assert "def push(" in first
        assert "def push_batch(" in first
        assert "def iterate(" in first

    @pytest.mark.parametrize(
        "text",
        ["Q(A, C) = R(A, B) * S(B, C)", "Q(A) = R(A, B) * S(B)",
         "Q(Y, X, Z) = R(Y, X) * S(Y, Z)", "Q(A) = R(A, B) * S(B, C) * T(C, D)",
         "Q() = R(A, B) * S(B, C) * T(C, A)"],
        ids=["hier", "scalar-hier", "list", "chain", "triangle"],
    )
    def test_every_bound_getter_is_read(self, capsys, text):
        """A delta kernel's env binds an itemgetter (``PG_s_j``, ``OG_s``)
        only where a generated body maps it over the delta keys."""
        assert cli_main(["explain", text, "--kernel-source"]) == 0
        out = capsys.readouterr().out
        for block in out.split("-- delta kernel ")[1:]:
            bindings, body = block.split("\n\n", 1)
            for name in re.findall(r"^    ([OP]G_\w+) = env\[", bindings, re.M):
                assert f"map({name}, dks)" in body, (text, name)

    def test_cqap_dumps_the_one_tree(self, capsys):
        """A CQAP's fracture components are roots of one tree: every
        anchor of E is that tree's, with no per-component prefix."""
        args = [
            "explain", "Q(. | A, B, C) = E(A,B) * E(B,C) * E(C,A)",
            "--kernel-source",
        ]
        assert cli_main(args) == 0
        out = capsys.readouterr().out
        assert "plan:  cqap" in out
        for anchor in range(3):
            assert f"-- delta kernel E[{anchor}] --" in out
        assert out.count("-- enum kernel --") == 1
        assert "component" not in out

    def test_view_tree_marks_base_and_copied_leaves(self, capsys):
        assert cli_main(["explain", "Q(Y, X, Z) = R(Y, X) * S(Y, Z)"]) == 0
        out = capsys.readouterr().out
        assert "leaf R(Y, X) = base" in out and "leaf S(Y, Z) = base" in out
        assert "def push(" not in out  # kernel source only on request
        assert cli_main(["explain", "Q(A, B, C) = E(A, B) * E(B, C)"]) == 0
        out = capsys.readouterr().out
        assert "leaf E(A, B) copy (self-join)" in out
        assert "leaf E(B, C) copy (renamed)" in out

    def test_plan_without_codegen_says_so(self, capsys):
        assert cli_main(
            ["explain", "Q() = R(A,B) * S(B,C) * T(C,A)", "--insert-only",
             "--kernel-source"]
        ) == 0
        out = capsys.readouterr().out
        # Triangle count routes to IVM^eps: no codegen in that plan.
        assert "no generated kernels" in out


class TestObsBlock:
    def test_codegen_block_and_render(self):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        engine, _ = twin_engines(query, schemas, seed=107)
        stats = engine.attach_stats()
        payload = stats.to_dict()["codegen"]
        assert payload["kernels_generated"] == 3  # 2 delta + 1 enum
        assert payload["codegen_time_ms"] >= 0.0
        assert payload["fallbacks"] == 0
        assert "codegen:" in stats.render()

    def test_reattach_does_not_double_count(self):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        schemas = [("R", ("Y", "X")), ("S", ("Y", "Z"))]
        engine, _ = twin_engines(query, schemas, seed=109)
        first = engine.attach_stats()
        generated = first.to_dict()["codegen"]["kernels_generated"]
        assert generated > 0
        engine.detach_stats()
        second = engine.attach_stats()
        assert second.to_dict()["codegen"]["kernels_generated"] == 0

    def test_shard_merge_rolls_up_codegen(self):
        query = parse_query("Q(B, A) = R(B, A) * S(B)")
        db = Database()
        db.create("R", ("B", "A"))
        db.create("S", ("B",))
        with ShardedEngine(query, db, shards=2, executor="serial") as engine:
            engine.apply_batch(
                valid_stream(random.Random(113), {"R": 2, "S": 1}, 80)
            )
            merged = engine.merged_stats()
        payload = merged.to_dict()["codegen"]
        assert payload["kernels_generated"] > 0
        for summary in merged.to_dict()["shards"].values():
            assert "kernels_generated" in summary

    def test_merges_add_codegen_counts(self):
        shard = MaintenanceStats()
        shard.record_codegen(3, 1.5, 2, 1)
        left = MaintenanceStats()
        right = MaintenanceStats()
        left.merge(shard, label="shard0")
        right.merge(shard, label="shard0")
        assert left.kernels_generated == 3
        # Unlabelled coordinator-level merge: same-label summaries add
        # their count keys, top-level codegen totals add too.
        left.merge(right)
        assert left.kernels_generated == 6
        assert left.codegen_time_ms == 3.0
        assert left.shard_summaries["shard0"]["kernels_generated"] == 6
        assert left.shard_summaries["shard0"]["codegen_fallbacks"] == 2


class TestColumnarCoalesce:
    def make_batch(self, rng, count, payload):
        batch = []
        for _ in range(count):
            name = rng.choice(["R", "S"])
            key = (rng.randrange(6), rng.randrange(6))
            batch.append(Update(name, key, payload(rng)))
        return batch

    def assert_matches_grouped(self, batch, ring):
        columnar = coalesce_columnar(batch, ring)
        grouped = coalesce_grouped(batch, ring)
        assert list(columnar) == list(grouped)  # relation order
        for name, (keys, payloads) in columnar.items():
            assert keys == list(grouped[name])  # key order
            assert payloads == list(grouped[name].values())  # bit-identity

    def test_pure_python_path_matches_grouped(self):
        rng = random.Random(127)
        batch = self.make_batch(rng, 40, lambda r: r.choice([1, 2, -1]))
        self.assert_matches_grouped(batch, Z)

    @pytest.mark.parametrize("count", [63, 64, 300])
    def test_float_ring_matches_grouped(self, count):
        # Sizes either side of 64: the coalescer has no size threshold.
        rng = random.Random(131)
        batch = self.make_batch(
            rng, count, lambda r: r.choice([0.5, 1.25, -0.5, -1.25, 3.0])
        )
        self.assert_matches_grouped(batch, R)

    def test_float_cancellation_filtered(self):
        # Keys whose payloads sum to (tolerance-band) zero are dropped.
        batch = []
        for i in range(64):
            batch.append(Update("R", (i % 4, 0), 1.5))
            batch.append(Update("R", (i % 4, 0), -1.5))
        batch.append(Update("R", (9, 9), 2.0))
        assert coalesce_columnar(batch, R) == {"R": ([(9, 9)], [2.0])}
