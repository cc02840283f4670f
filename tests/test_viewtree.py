"""View-tree engine: construction, maintenance, enumeration, and the
complexity contract of Theorem 4.1 (asserted via operation counts)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.data import Database, Update, counting
from repro.naive import evaluate, evaluate_scalar
from repro.query import canonical_order, parse_query, search_order
from repro.rings import Z, LiftingMap, identity_lifting
from repro.viewtree import ViewTreeEngine

FIG3 = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")


def seeded_db(schemas, rng, rows=120, domain=12):
    db = Database()
    for name, schema in schemas:
        rel = db.create(name, schema)
        for _ in range(rows):
            rel.insert(*(rng.randrange(domain) for _ in schema))
    return db


def leaves_of(engine):
    """``{str(atom): leaf}`` over the whole tree."""
    return {
        str(atom): leaf
        for root in engine.roots
        for node in root.walk()
        for atom, leaf in node.leaves
    }


class TestConstruction:
    def test_leaf_contract_base_or_private_copy(self, rng):
        # A leaf is its base relation when nothing makes it differ ...
        db = seeded_db([("R", ("Y", "X")), ("S", ("Y", "Z"))], rng)
        engine = ViewTreeEngine(FIG3, db)
        leaves = leaves_of(engine)
        assert leaves["R(Y, X)"] is db["R"] and leaves["S(Y, Z)"] is db["S"]
        assert engine._aliased == {"R", "S"}
        text = engine.describe()
        assert "leaf R(Y, X) = base" in text and "copy" not in text

        # ... and a private copy for a self-join ...
        q = parse_query("Q(A, B, C) = E(A, B) * E(B, C)")
        db = seeded_db([("E", ("A", "B"))], rng, rows=30, domain=6)
        engine = ViewTreeEngine(q, db, search_order(q, require_free_top=True))
        for leaf in leaves_of(engine).values():
            assert leaf is not db["E"] and leaf.data == db["E"].data
        assert engine._aliased == frozenset()
        text = engine.describe()
        assert "leaf E(A, B) copy (self-join)" in text
        assert "leaf E(B, C) copy (renamed)" in text

        # ... for atom variables other than the base schema ...
        db = seeded_db([("R", ("A", "B")), ("S", ("Y", "Z"))], rng)
        engine = ViewTreeEngine(FIG3, db)
        leaves = leaves_of(engine)
        assert leaves["R(Y, X)"] is not db["R"] and leaves["S(Y, Z)"] is db["S"]
        assert "leaf R(Y, X) copy (renamed)" in engine.describe()

        # ... and for a leaf filter (one shard of the base).
        db = seeded_db([("R", ("Y", "X")), ("S", ("Y", "Z"))], rng)
        engine = ViewTreeEngine(FIG3, db, leaf_filter=lambda name, key: key[0] % 2)
        for leaf in leaves_of(engine).values():
            assert leaf is not db["R"] and leaf is not db["S"]
            assert all(key[0] % 2 for key in leaf.data)
        assert engine.describe().count("copy (filter)") == 2

    def test_base_relations_are_written_once_through_the_engine(self, rng):
        from tests.conftest import applied_once, valid_stream

        db = seeded_db([("R", ("Y", "X")), ("S", ("Y", "Z"))], rng)
        engine = ViewTreeEngine(FIG3, db)
        stream = valid_stream(rng, {"R": 2, "S": 2}, 200, domain=12)
        expected = applied_once(db, stream)
        for update in stream[:100]:
            engine.apply(update)
        engine.apply_batch(stream[100:])
        assert {rel.name: rel.data for rel in db} == expected
        assert engine.output_relation() == evaluate(FIG3, db)

    def test_guard_only_when_multiple_sources(self, rng):
        db = seeded_db([("R", ("Y", "X")), ("S", ("Y", "Z"))], rng)
        engine = ViewTreeEngine(FIG3, db)
        root = engine.roots[0]
        assert root.guard is not None  # two child views meet at Y
        for child in root.children:
            assert child.guard is None  # single anchored leaf

    def test_describe_renders(self, rng):
        db = seeded_db([("R", ("Y", "X")), ("S", ("Y", "Z"))], rng)
        text = ViewTreeEngine(FIG3, db).describe()
        assert "V_Y" in text and "leaf R(Y, X)" in text

    def test_total_view_size_positive(self, rng):
        db = seeded_db([("R", ("Y", "X")), ("S", ("Y", "Z"))], rng)
        assert ViewTreeEngine(FIG3, db).total_view_size() > 0

    def test_arity_mismatch_raises(self):
        db = Database()
        db.create("R", ("A",))
        db.create("S", ("Y", "Z"))
        with pytest.raises(ValueError):
            ViewTreeEngine(FIG3, db)

    def test_order_for_other_query_rejected(self, rng):
        db = seeded_db([("R", ("Y", "X")), ("S", ("Y", "Z"))], rng)
        other = parse_query("P(A) = U(A, B) * V(B)")
        order = search_order(other)
        with pytest.raises(ValueError):
            ViewTreeEngine(FIG3, db, order)


class TestOneWriter:
    """A base relation has one writing engine; a second is a typed error."""

    Q = parse_query("Q(A, B, C) = R(A, B) * S(B, C)")

    def db(self, schemas=(("A", "B"), ("B", "C"))):
        db = Database()
        db.create("R", schemas[0])
        db.create("S", schemas[1])
        return db

    @pytest.mark.parametrize("schemas", [(("A", "B"), ("B", "C")), (("X", "Y"),) * 2])
    @pytest.mark.parametrize("batched", [False, True])
    def test_second_engine_raises_before_any_write(self, schemas, batched):
        from repro.data import SharedBaseError

        # Aliased leaves or renamed copies: the second engine would write
        # the base either way.
        db = self.db(schemas)
        first, second = ViewTreeEngine(self.Q, db), ViewTreeEngine(self.Q, db)
        updates = [Update("R", (1, 2), 1), Update("S", (2, 3), 1)]
        for update in updates:
            first.apply(update)
        views = second.total_view_size()
        with pytest.raises(SharedBaseError, match="'R'"):
            if batched:
                second.apply_batch(updates)
            else:
                second.apply(updates[0])
        assert db["R"].data == {(1, 2): 1} and db["S"].data == {(2, 3): 1}
        assert second.total_view_size() == views
        assert first.output_relation() == evaluate(self.Q, db)
        assert dict(first.enumerate()) == {(1, 2, 3): 1}

    def test_claim_is_lazy_and_lapses_with_its_engine(self):
        db = self.db()
        reader = ViewTreeEngine(self.Q, db)  # never writes: claims nothing
        first = ViewTreeEngine(self.Q, db)
        first.apply(Update("R", (1, 2), 1))
        del first
        second = ViewTreeEngine(self.Q, db)
        second.apply(Update("R", (4, 2), 1))
        second.apply(Update("S", (2, 3), 1))
        assert dict(second.enumerate()) == {(1, 2, 3): 1, (4, 2, 3): 1}
        assert reader._written == set()

    def test_update_base_false_claims_nothing(self):
        # A coordinator (a shard host, a MultiQueryEngine) writes the base
        # itself and pushes into several engines.
        db = self.db()
        engines = [ViewTreeEngine(self.Q, db) for _ in range(2)]
        for update in (Update("R", (1, 2), 1), Update("S", (2, 3), 1)):
            db[update.relation].add(update.key, update.payload)
            for engine in engines:
                engine.apply(update, update_base=False)
        for engine in engines:
            assert engine.output_relation() == evaluate(self.Q, db)

    def test_pickled_copy_claims_its_own_relations(self):
        import pickle

        db = self.db()
        engine = ViewTreeEngine(self.Q, db)
        engine.apply(Update("R", (1, 2), 1))
        copy = pickle.loads(pickle.dumps(engine))
        assert copy.database["R"]._writer is None and not copy._written
        copy.apply(Update("S", (2, 3), 1))
        copy.apply(Update("R", (5, 2), 1))
        assert dict(copy.enumerate()) == {(1, 2, 3): 1, (5, 2, 3): 1}
        assert db["R"].data == {(1, 2): 1}  # the original is untouched


class TestClose:
    """close() releases the view tree, never the base relations."""

    Q = parse_query("Q(A, C) = R(A, B) * S(B, C)")

    def test_close_releases_the_tree_and_the_claims(self):
        from repro import IVMEngine
        from repro.data.relation import Relation

        db = Database()
        db.create("R", ("A", "B"))  # aliased: the leaf is the base
        db.create("S", ("X", "Y"))  # renamed: the leaf is a private copy
        engine = IVMEngine(self.Q, db)
        for a, b, c in [(1, 2, 3), (1, 2, 4), (5, 2, 3), (6, 7, 8)]:
            engine.apply(Update("R", (a, b), 1))
            engine.apply(Update("S", (b, c), 1))
        tree = engine.backend
        leaves = leaves_of(tree)
        assert leaves["R(A, B)"] is db["R"] and leaves["S(B, C)"] is not db["S"]
        owned = [leaves["S(B, C)"]] + [
            relation
            for root in tree.roots
            for node in root.walk()
            for relation in (node.view, node.guard)
            if type(relation) is Relation
        ]
        assert all(len(relation) for relation in owned)
        bases = {name: dict(db[name].data) for name in ("R", "S")}
        indexed = {gv: dict(ix.groups) for gv, ix in db["R"]._indexes.items()}
        snap = tree.publish_epoch()
        engine.close()
        engine.close()  # idempotent
        for relation in owned:
            assert not relation.data
            assert all(not index.groups for index in relation._indexes.values())
        assert {name: dict(db[name].data) for name in ("R", "S")} == bases
        assert {gv: dict(ix.groups) for gv, ix in db["R"]._indexes.items()} == indexed
        # The snapshot's maps are detached from the bases, and reading it raises.
        assert not db["R"]._maps and not db["S"]._maps
        with pytest.raises(RuntimeError, match="not covered"):
            snap.data_of(db["R"])
        # The claims lapse with close, not with the last reference.
        assert db["R"]._writer is None and db["S"]._writer is None
        second = IVMEngine(self.Q, db)
        second.apply(Update("R", (9, 7), 1))
        assert dict(second.enumerate()) == evaluate(self.Q, db).to_dict()
        for call in (
            lambda: engine.apply(Update("R", (1, 1), 1)),
            lambda: engine.apply_batch([Update("R", (1, 1), 1)]),
            lambda: list(engine.enumerate()),
            lambda: engine.lookup((1, 3)),
            lambda: engine.publish_epoch(),
            lambda: list(engine.enumerate_snapshot()),
            lambda: engine.changes_since(0),
        ):
            with pytest.raises(RuntimeError, match="is closed"):
                call()


class TestMaintenance:
    QUERIES = [
        ("Q(Y, X, Z) = R(Y, X) * S(Y, Z)", [("R", ("Y", "X")), ("S", ("Y", "Z"))]),
        ("Q(A, B, C) = R(A, B) * S(B, C)", [("R", ("A", "B")), ("S", ("B", "C"))]),
        (
            "Q(A) = R(A, B) * S(B, C) * T(C, D)",
            [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))],
        ),
        (
            "Q() = R(A,B) * S(B,C) * T(C,A)",
            [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "A"))],
        ),
    ]

    @pytest.mark.parametrize("text,schemas", QUERIES)
    def test_differential_against_naive(self, text, schemas, rng):
        from tests.conftest import valid_stream

        query = parse_query(text)
        db = seeded_db(schemas, rng, rows=80, domain=8)
        order = None
        if not query.head:
            order = search_order(query, prefer_free_top=False)
        engine = ViewTreeEngine(query, db, order)
        stream = valid_stream(
            rng, {name: len(schema) for name, schema in schemas}, 300
        )
        for step, update in enumerate(stream):
            engine.apply(update)
            if step % 75 == 74:
                if query.head:
                    assert engine.output_relation() == evaluate(query, db)
                else:
                    assert engine.scalar() == evaluate_scalar(query, db)

    def test_update_base_false_leaves_database(self, rng):
        db = seeded_db([("R", ("Y", "X")), ("S", ("Y", "Z"))], rng)
        engine = ViewTreeEngine(FIG3, db)
        size = len(db["R"])
        engine.apply(Update("R", (50, 51), 1), update_base=False)
        assert len(db["R"]) == size

    # R and S anchor at different nodes in FIG3 and at the same node in
    # CO_ANCHORED, where each push joins its delta with the other leaf.
    CO_ANCHORED = parse_query("Q(A, B) = R(A, B) * S(A, B)")

    @pytest.mark.parametrize("generated", [True, False])
    @pytest.mark.parametrize(
        "query,schemas",
        [
            (FIG3, [("R", ("Y", "X")), ("S", ("Y", "Z"))]),
            (CO_ANCHORED, [("R", ("A", "B")), ("S", ("A", "B"))]),
        ],
    )
    def test_update_base_false_after_the_caller_wrote_the_base(
        self, rng, query, schemas, generated
    ):
        # The coordinator contract: the caller writes the base just before
        # each call — one update, or one relation's batch — and a leaf
        # that is the base relation is not written again.
        from repro.data.columnar import coalesce_columnar
        from tests.conftest import applied_once, valid_stream

        db = seeded_db(schemas, rng, rows=60, domain=6)
        engine = ViewTreeEngine(query, db, generated=generated)
        engine.batch_compile_threshold = 1  # kernels for every batch
        assert engine._aliased == {"R", "S"}
        stream = valid_stream(rng, {"R": 2, "S": 2}, 300, domain=6)
        expected = applied_once(db, stream)
        for update in stream[:100]:
            db[update.relation].add(update.key, update.payload)
            engine.apply(update, update_base=False)
        for part in (stream[100:200], stream[200:]):
            for name, (keys, payloads) in coalesce_columnar(part, Z).items():
                db[name].add_delta(zip(keys, payloads))
                engine.apply_coalesced_batch(
                    {name: (keys, payloads)}, update_base=False
                )
        assert {rel.name: rel.data for rel in db} == expected
        assert engine.output_relation() == evaluate(query, db)

    @pytest.mark.parametrize("generated", [True, False])
    def test_co_anchored_deltas_are_joined_once(self, generated):
        # Q(1, 1) = R(1, 1) · S(1, 1) = 1: the cross term ΔR·ΔS must be
        # counted by exactly one of the two pushes, on every path.
        from repro.data.columnar import coalesce_columnar

        query = self.CO_ANCHORED
        batch = [Update("R", (1, 1), 1), Update("S", (1, 1), 1)]

        def empty_engine():
            db = Database()
            db.create("R", ("A", "B"))
            db.create("S", ("A", "B"))
            engine = ViewTreeEngine(query, db, generated=generated)
            engine.batch_compile_threshold = 1
            return engine, db

        engine, _db = empty_engine()
        engine.apply_batch(batch)  # the engine writes the base
        assert engine.output_relation().to_dict() == {(1, 1): 1}

        engine, db = empty_engine()
        for update in batch:  # per update, base written just before
            db[update.relation].add(update.key, update.payload)
            engine.apply(update, update_base=False)
        assert engine.output_relation().to_dict() == {(1, 1): 1}

        # A whole pre-written multi-relation batch cannot be pushed over
        # base leaves: both pushes would see the other's post-batch leaf.
        engine, db = empty_engine()
        for update in batch:
            db[update.relation].add(update.key, update.payload)
        with pytest.raises(ValueError, match="one relation per batch"):
            engine.apply_coalesced_batch(
                coalesce_columnar(batch, Z), update_base=False
            )
        assert engine.output_relation().to_dict() == {}

    def test_self_join_within_one_tree(self, rng):
        from tests.conftest import valid_stream

        q = parse_query("Q(A, B, C) = E(A, B) * E(B, C)")
        db = Database()
        db.create("E", ("A", "B"))
        order = search_order(q, require_free_top=True)
        engine = ViewTreeEngine(q, db, order)
        for update in valid_stream(rng, {"E": 2}, 200, domain=6):
            engine.apply(update)
        assert engine.output_relation() == evaluate(q, db)

    def test_lifted_aggregate_maintenance(self, rng):
        q = parse_query("Q(A) = R(A, V) * S(A)")
        db = Database()
        db.create("R", ("A", "V"))
        db.create("S", ("A",))
        lifting = LiftingMap(Z, {"V": identity_lifting(Z)})
        engine = ViewTreeEngine(q, db, lifting=lifting)
        for _ in range(120):
            if rng.random() < 0.7:
                engine.apply(Update("R", (rng.randrange(5), rng.randrange(1, 9)), 1))
            else:
                engine.apply(Update("S", (rng.randrange(5),), rng.choice([1, -1])))
        assert engine.output_relation() == evaluate(q, db, lifting)

    @given(st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_insert_then_inverse_restores_views(self, seed):
        local = random.Random(seed)
        db = Database()
        db.create("R", ("Y", "X"))
        db.create("S", ("Y", "Z"))
        engine = ViewTreeEngine(FIG3, db)
        updates = [
            Update(
                local.choice(["R", "S"]),
                (local.randrange(4), local.randrange(4)),
                1,
            )
            for _ in range(20)
        ]
        for update in updates:
            engine.apply(update)
        for update in reversed(updates):
            engine.apply(Update(update.relation, update.key, -1))
        assert len(engine.output_relation()) == 0
        for root in engine.roots:
            for node in root.walk():
                assert len(node.view) == 0


class TestEnumeration:
    def test_prebound_lookup(self, rng):
        db = seeded_db([("R", ("Y", "X")), ("S", ("Y", "Z"))], rng)
        engine = ViewTreeEngine(FIG3, db)
        full = dict(engine.enumerate())
        some_y = next(iter(full))[0]
        filtered = dict(engine.enumerate(prebound={"Y": some_y}))
        assert filtered == {k: v for k, v in full.items() if k[0] == some_y}

    def test_prebound_missing_value(self, rng):
        db = seeded_db([("R", ("Y", "X")), ("S", ("Y", "Z"))], rng)
        engine = ViewTreeEngine(FIG3, db)
        assert dict(engine.enumerate(prebound={"Y": "nope"})) == {}

    def test_non_free_top_enumeration_raises(self, rng):
        q = FIG3.with_head(("X",))
        db = seeded_db([("R", ("Y", "X")), ("S", ("Y", "Z"))], rng)
        engine = ViewTreeEngine(q, db, canonical_order(q))
        with pytest.raises(ValueError):
            list(engine.enumerate())

    def test_boolean_enumerate_yields_scalar(self, rng):
        q = parse_query("Q() = R(A) * S(A)")
        db = Database()
        db.create("R", ("A",)).insert(1)
        db.create("S", ("A",)).insert(1)
        engine = ViewTreeEngine(q, db)
        assert list(engine.enumerate()) == [((), 1)]

    def test_empty_output(self):
        db = Database()
        db.create("R", ("Y", "X"))
        db.create("S", ("Y", "Z"))
        engine = ViewTreeEngine(FIG3, db)
        assert list(engine.enumerate()) == []


class TestTheorem41Complexity:
    """Operation-count checks for the q-hierarchical upper bounds."""

    def _engine_of_size(self, n, seed=0):
        local = random.Random(seed)
        db = Database()
        r = db.create("R", ("Y", "X"))
        s = db.create("S", ("Y", "Z"))
        for _ in range(n):
            r.insert(local.randrange(n), local.randrange(n))
            s.insert(local.randrange(n), local.randrange(n))
        return ViewTreeEngine(FIG3, db), local

    def test_single_tuple_update_is_constant(self):
        """Update cost does not grow with N for q-hierarchical queries."""
        costs = []
        for n in (100, 400, 1600):
            engine, local = self._engine_of_size(n)
            with counting() as ops:
                for _ in range(20):
                    engine.apply(
                        Update("R", (local.randrange(n), local.randrange(n)), 1)
                    )
            costs.append(ops.total() / 20)
        assert costs[-1] <= costs[0] * 2 + 10  # flat, modulo noise

    def test_enumeration_delay_is_constant(self):
        """Total enumeration ops scale linearly with the output size."""
        ratios = []
        for n in (200, 800):
            engine, _ = self._engine_of_size(n)
            out_size = sum(1 for _ in engine.enumerate())
            with counting() as ops:
                for _ in engine.enumerate():
                    pass
            ratios.append(ops.total() / max(out_size, 1))
        assert ratios[-1] <= ratios[0] * 2 + 10

    def test_non_q_hierarchical_updates_grow(self):
        """For Q(A) = R(A,B) * S(B) under a free-top order, S-updates on a
        heavy B value must touch O(N) entries — the flip side of the
        dichotomy."""
        q = parse_query("Q(A) = R(A, B) * S(B)")
        costs = []
        for n in (100, 400):
            db = Database()
            r = db.create("R", ("A", "B"))
            s = db.create("S", ("B",))
            for a in range(n):
                r.insert(a, 0)  # B = 0 is heavy
            engine = ViewTreeEngine(q, db, search_order(q, require_free_top=True))
            with counting() as ops:
                engine.apply(Update("S", (0,), 1))
            costs.append(ops.total())
        assert costs[1] > costs[0] * 2  # grows linearly with N
