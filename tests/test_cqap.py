"""CQAPs: fractures, the tractability dichotomy, and access requests."""

import pytest

from repro import IVMEngine
from repro.backend import NotSupported
from repro.cqap import fracture, is_tractable_cqap
from repro.data import Database, Update
from repro.naive import evaluate
from repro.query import parse_query
from repro.staticdyn import StaticRelationUpdateError
from repro.viewtree import ViewTreeEngine
from tests.conftest import valid_stream

TRIANGLE_CHECK = parse_query("Qt(. | A, B, C) = E(A,B) * E(B,C) * E(C,A)")
EDGE_LISTING = parse_query("Ql(C | A, B) = E(A,B) * E(B,C) * E(C,A)")
LOOKUP = parse_query("Qab(A | B) = S(A,B) * T(B)")


class TestFracture:
    def test_triangle_check_fracture_has_three_components(self):
        f = fracture(TRIANGLE_CHECK)
        assert len(f.components) == 3
        for component in f.components:
            assert len(component.atoms) == 1
            assert len(component.input_variables) == 2

    def test_input_origin_mapping(self):
        f = fracture(TRIANGLE_CHECK)
        origins = sorted(set(f.input_origin.values()))
        assert origins == ["A", "B", "C"]

    def test_edge_listing_fracture_structure(self):
        f = fracture(EDGE_LISTING)
        # E(A,B) splits off; E(B,C) * E(C,A) stay connected through C.
        sizes = sorted(len(c.atoms) for c in f.components)
        assert sizes == [1, 2]

    def test_same_input_merged_within_component(self):
        q = parse_query("Q(. | A) = R(A, X) * S(X, A)")
        f = fracture(q)
        assert len(f.components) == 1
        component = f.components[0]
        # Two occurrences of A merge back into one fresh input variable.
        assert len(component.input_variables) == 1

    def test_output_variables_kept(self):
        f = fracture(LOOKUP)
        all_outputs = [v for c in f.components for v in c.head
                       if v not in c.input_variables]
        assert all_outputs == ["A"]

    def test_combined_query(self):
        combined = fracture(TRIANGLE_CHECK).combined()
        assert len(combined.atoms) == 3
        assert len(combined.input_variables) == 6


class TestTractability:
    def test_paper_examples(self):
        assert is_tractable_cqap(TRIANGLE_CHECK)
        assert not is_tractable_cqap(EDGE_LISTING)
        assert is_tractable_cqap(LOOKUP)

    def test_q_hierarchical_is_tractable_with_trivial_inputs(self):
        # q-hierarchical queries are the tractable CQAPs without inputs;
        # adding all free variables as inputs keeps tractability here.
        q = parse_query("Q(. | Y) = R(Y, X) * S(Y, Z)")
        assert is_tractable_cqap(q)

    def test_non_hierarchical_fracture_intractable(self):
        q = parse_query("Q(X, Y | W) = R(X) * S(X, Y) * T(Y) * U(W)")
        assert not is_tractable_cqap(q)


class TestCQAPEngine:
    """A tractable CQAP through the facade: one ``ViewTreeEngine`` over
    the combined fracture, access requests as prebound enumerations."""

    def test_rejects_intractable(self):
        """Theorem 4.8 fails: no access requests, the delta engine runs."""
        db = Database()
        db.create("E", ("X", "Y"))
        engine = IVMEngine(EDGE_LISTING, db)
        assert engine.plan.strategy == "delta"
        with pytest.raises(NotSupported):
            engine.answer({"A": 1, "B": 2})

    def test_rejects_no_inputs(self):
        db = Database()
        db.create("R", ("A", "B"))
        with pytest.raises(NotSupported, match="access requests"):
            IVMEngine(parse_query("Q(A) = R(A, B)"), db).answer(())

    def test_enumerate_and_lookup_name_the_plan_and_answer(self):
        """Regression: these raised a bare ``AttributeError`` (the old
        wrapper engine had no ``enumerate`` attribute)."""
        db = Database()
        db.create("S", ("A", "B"))
        db.create("T", ("B",))
        engine = IVMEngine(LOOKUP, db)
        for read in (
            engine.enumerate,
            engine.enumerate_snapshot,
            engine.subscribe,
            lambda: engine.lookup((1,)),
            lambda: engine.lookup_snapshot((1,)),
        ):
            with pytest.raises(NotSupported, match=r"'cqap'.*answer\(\)"):
                read()
        assert not engine.supports_changes

    @pytest.mark.parametrize(
        "text,schemas",
        [
            ("Q(A | B) = S(A,B) * T(B)", {"S": 2, "T": 1}),
            ("Q(. | A, B, C) = E(A,B) * E(B,C) * E(C,A)", {"E": 2}),
            ("Q(. | Y) = R(Y, X) * S(Y, Z)", {"R": 2, "S": 2}),
            ("Q(X | A, B) = R(A, X) * S(B)", {"R": 2, "S": 1}),
            ("Q(X, Z | A, B) = R(A, X) * S(B, Z) * T(A)", {"R": 2, "S": 2, "T": 1}),
        ],
    )
    def test_every_binding_matches_naive_and_oracle(self, rng, text, schemas):
        """Five tractable CQAPs (1-3 fracture components): the kernels,
        the ``generated=False`` oracle and ``repro.naive`` agree on every
        input binding, live and against a published epoch."""
        import itertools

        query = parse_query(text)
        engines = []
        for generated in (True, False):
            db = Database()
            for atom in query.atoms:
                if atom.relation not in db:
                    db.create(atom.relation, atom.variables)
            engine = IVMEngine(query, db, generated=generated)
            assert engine.plan.strategy == "cqap"
            assert type(engine.backend) is ViewTreeEngine
            assert len(engine.backend.roots) == len(fracture(query).components)
            engines.append(engine)
        stream = valid_stream(rng, schemas, 200, domain=4)
        for engine in engines:
            for update in stream[:100]:
                engine.apply(update)
            engine.apply_batch(stream[100:])
            engine.publish_epoch()
        full = evaluate(query, engines[0].database).to_dict()
        head, inputs = query.head, query.input_variables
        for values in itertools.product(range(4), repeat=len(inputs)):
            request = dict(zip(inputs, values))
            expected = {
                tuple(k for v, k in zip(head, key) if v not in request): payload
                for key, payload in full.items()
                if all(key[head.index(v)] == request[v] for v in inputs)
            }
            for engine in engines:
                assert dict(engine.answer(request)) == expected
                assert dict(engine.answer_snapshot(values)) == expected

    def test_answer_against_a_published_epoch(self):
        db = Database()
        db.create("S", ("A", "B"))
        db.create("T", ("B",))
        engine = IVMEngine(LOOKUP, db)
        assert engine.supports_snapshots
        engine.apply_batch([Update("S", (1, 2), 1), Update("T", (2,), 1)])
        engine.publish_epoch()
        engine.apply(Update("S", (3, 2), 1))
        # The epoch is frozen; the live state has moved on.
        assert list(engine.answer_snapshot((2,))) == [((1,), 1)]
        assert sorted(engine.answer((2,))) == [((1,), 1), ((3,), 1)]
        engine.publish_epoch()
        assert list(engine.answer_snapshot((2,))) == list(engine.answer((2,)))

    def test_triangle_check_differential(self, rng):
        db = Database()
        db.create("E", ("X", "Y"))
        engine = IVMEngine(TRIANGLE_CHECK, db)
        edges: dict[tuple, int] = {}
        for update in valid_stream(rng, {"E": 2}, 250, domain=10):
            engine.apply(update)
            edges[update.key] = edges.get(update.key, 0) + update.payload
            if edges[update.key] == 0:
                del edges[update.key]
        for _ in range(200):
            a, b, c = (rng.randrange(10) for _ in range(3))
            expected = (
                (a, b) in edges and (b, c) in edges and (c, a) in edges
            )
            assert bool(list(engine.answer({"A": a, "B": b, "C": c}))) == expected

    def test_answer_payload_is_product(self):
        db = Database()
        db.create("E", ("X", "Y"))
        engine = IVMEngine(TRIANGLE_CHECK, db)
        engine.apply(Update("E", (1, 2), 2))
        engine.apply(Update("E", (2, 3), 3))
        engine.apply(Update("E", (3, 1), 5))
        answers = list(engine.answer({"A": 1, "B": 2, "C": 3}))
        assert answers == [((), 30)]

    def test_lookup_join_positional_inputs(self, rng):
        db = Database()
        db.create("S", ("A", "B"))
        db.create("T", ("B",))
        engine = IVMEngine(LOOKUP, db)
        for update in valid_stream(rng, {"S": 2}, 120, domain=8):
            engine.apply(update)
        for b in range(0, 8, 2):
            engine.apply(Update("T", (b,), 1))
        for b in range(8):
            got = sorted(key[0] for key, _ in engine.answer((b,)))
            s_data = db["S"].to_dict()
            expected = sorted(
                {a for (a, bb) in s_data if bb == b}
            ) if (b,) in db["T"].data else []
            assert got == expected

    def test_answer_input_validation(self):
        db = Database()
        db.create("S", ("A", "B"))
        db.create("T", ("B",))
        engine = IVMEngine(LOOKUP, db)
        with pytest.raises(ValueError):
            list(engine.answer(()))  # wrong arity
        with pytest.raises(ValueError):
            list(engine.answer({"Z": 1}))  # wrong name

    def test_update_unknown_relation(self):
        db = Database()
        db.create("S", ("A", "B"))
        db.create("T", ("B",))
        engine = IVMEngine(LOOKUP, db)
        with pytest.raises(KeyError):
            engine.apply(Update("X", (1,), 1))

    @pytest.mark.parametrize("generated", [True, False], ids=["kernels", "oracle"])
    def test_apply_batch_matches_per_tuple(self, rng, generated):
        """One coalesced batch through every fracture component (three
        anchors of the same base relation here) lands what the per-tuple
        path lands, on the views and on the shared base."""
        stream = valid_stream(rng, {"E": 2}, 240, domain=7)
        engines = []
        for _ in range(2):
            db = Database()
            db.create("E", ("X", "Y"))
            engines.append(IVMEngine(TRIANGLE_CHECK, db, generated=generated))
        batched, per_tuple = engines
        for start in range(0, len(stream), 60):
            batched.apply_batch(stream[start:start + 60])
        for update in stream:
            per_tuple.apply(update)
        assert batched.database["E"] == per_tuple.database["E"]
        for a in range(7):
            for b in range(7):
                for c in range(7):
                    inputs = {"A": a, "B": b, "C": c}
                    assert list(batched.answer(inputs)) == list(
                        per_tuple.answer(inputs)
                    )

    def test_batch_with_unknown_relation_changes_nothing(self):
        db = Database()
        db.create("S", ("A", "B"))
        db.create("T", ("B",))
        db.create("X", ("A",))
        engine = IVMEngine(LOOKUP, db)
        engine.apply_batch([Update("S", (1, 2), 1), Update("T", (2,), 1)])
        before = list(engine.answer((2,)))
        assert before == [((1,), 1)]
        with pytest.raises(KeyError):
            engine.apply_batch(
                [Update("S", (3, 2), 1), Update("X", (1,), 1), Update("T", (2,), 1)]
            )
        # The check runs before any write: base and views are untouched.
        assert db["S"].to_dict() == {(1, 2): 1}
        assert db["T"].to_dict() == {(2,): 1}
        assert len(db["X"]) == 0
        assert list(engine.answer((2,))) == before

    def test_batch_with_static_relation_changes_nothing(self):
        query = parse_query("Q(A | B) = S(A,B) * T@s(B)")
        db = Database()
        db.create("S", ("A", "B"))
        db.create("T", ("B",)).insert(2)
        engine = IVMEngine(query, db)
        assert engine.plan.strategy == "cqap"
        with pytest.raises(StaticRelationUpdateError):
            engine.apply_batch([Update("S", (1, 2), 1), Update("T", (3,), 1)])
        assert len(db["S"]) == 0 and db["T"].to_dict() == {(2,): 1}
        assert list(engine.answer((2,))) == []

    def test_constant_access_cost(self):
        """Access requests cost O(1) regardless of the graph size
        (Theorem 4.8's upper bound for the triangle-check CQAP)."""
        from repro.data import counting

        costs = []
        for n in (100, 400):
            db = Database()
            db.create("E", ("X", "Y"))
            engine = IVMEngine(TRIANGLE_CHECK, db)
            for i in range(n):
                engine.apply(Update("E", (i, (i + 1) % n), 1))
            with counting() as ops:
                for probe in range(20):
                    list(engine.answer(
                        {"A": probe, "B": probe + 1, "C": probe + 2}
                    ))
            costs.append(ops.total())
        assert costs[1] <= costs[0] * 2 + 10
