"""Cascading q-hierarchical queries (Section 4.2)."""

import pytest

from repro.cascade import CascadeEngine, StaleCascadeError
from repro.data import Database, Update
from repro.naive import evaluate
from repro.query import parse_query, rewrite_using, find_embedding
from tests.conftest import applied_once, valid_stream

Q1 = parse_query("Q1(A,B,C,D) = R(A,B) * S(B,C) * T(C,D)")
Q2 = parse_query("Q2(A,B,C) = R(A,B) * S(B,C)")


def fresh_db():
    db = Database()
    for name in ("R", "S", "T"):
        db.create(name, ("X", "Y"))
    return db


class TestRewriting:
    def test_embedding_found(self):
        mapping = find_embedding(Q2, Q1)
        assert mapping == {"A": "A", "B": "B", "C": "C"}

    def test_renamed_embedding(self):
        pattern = parse_query("P(U,V,W) = R(U,V) * S(V,W)")
        mapping = find_embedding(pattern, Q1)
        assert mapping == {"U": "A", "V": "B", "W": "C"}

    def test_no_embedding(self):
        pattern = parse_query("P(A,B) = R(A,B) * U(B)")
        assert find_embedding(pattern, Q1) is None

    def test_rewriting_is_equivalent_on_data(self, rng):
        db = fresh_db()
        for update in valid_stream(rng, {"R": 2, "S": 2, "T": 2}, 150, delete_prob=0.0):
            db[update.relation].add(update.key, update.payload)
        rewriting = rewrite_using(Q1, Q2)
        # Materialize Q2, install it as a relation, evaluate the rewriting.
        q2_out = evaluate(Q2, db)
        db2 = Database()
        q2_rel = db2.create("Q2", ("A", "B", "C"))
        for key, payload in q2_out.items():
            q2_rel.add(key, payload)
        db2.add_relation(db["T"])
        assert evaluate(rewriting, db2) == evaluate(Q1, db)

    def test_unsound_rewriting_rejected(self):
        # The view projects away a variable the rest still needs.
        view = parse_query("V(A) = R(A,B) * S(B,C)")
        assert rewrite_using(Q1, view) is None

    def test_rewriting_of_unrelated_query(self):
        view = parse_query("V(A,B) = U(A,B)")
        assert rewrite_using(Q1, view) is None


class TestCascadeEngine:
    def test_rejects_non_q_hierarchical_view(self):
        db = fresh_db()
        bad_q2 = parse_query("Q2(A,C) = R(A,B) * S(B,C)")  # projection breaks q
        with pytest.raises(ValueError):
            CascadeEngine(Q1, bad_q2, db)

    def test_rejects_when_no_rewriting(self):
        db = fresh_db()
        db.create("U", ("X", "Y"))
        unrelated = parse_query("Q2(A,B) = U(A,B)")
        with pytest.raises(ValueError):
            CascadeEngine(Q1, unrelated, db)

    def test_stale_enforcement_and_refresh(self, rng):
        db = fresh_db()
        engine = CascadeEngine(Q1, Q2, db)
        engine.apply(Update("R", (1, 2), 1))
        with pytest.raises(StaleCascadeError):
            list(engine.enumerate_q1())
        list(engine.enumerate_q2())
        list(engine.enumerate_q1())  # now fine

    def test_updates_to_rest_do_not_stale(self):
        db = fresh_db()
        engine = CascadeEngine(Q1, Q2, db)
        engine.apply(Update("T", (1, 2), 1))
        list(engine.enumerate_q1())  # T is not in Q2: no staleness

    def test_non_strict_auto_refreshes(self):
        db = fresh_db()
        engine = CascadeEngine(Q1, Q2, db)
        engine.apply(Update("R", (1, 2), 1))
        engine.apply(Update("S", (2, 3), 1))
        engine.apply(Update("T", (3, 4), 1))
        out = dict(engine.enumerate_q1(strict=False))
        assert out == {(1, 2, 3, 4): 1}

    def test_differential_with_inserts_and_deletes(self, rng):
        db = fresh_db()
        engine = CascadeEngine(Q1, Q2, db)
        stream = valid_stream(rng, {"R": 2, "S": 2, "T": 2}, 300, domain=7)
        for i, update in enumerate(stream):
            engine.apply(update)
            if i % 60 == 59:
                q2_out = dict(engine.enumerate_q2())
                assert q2_out == evaluate(Q2, db).to_dict()
                q1_out = dict(engine.enumerate_q1())
                assert q1_out == evaluate(Q1, db).to_dict()

    def test_vanished_q2_tuples_are_retracted(self):
        db = fresh_db()
        engine = CascadeEngine(Q1, Q2, db)
        for update in [
            Update("R", (1, 2), 1),
            Update("S", (2, 3), 1),
            Update("T", (3, 4), 1),
        ]:
            engine.apply(update)
        list(engine.enumerate_q2())
        assert dict(engine.enumerate_q1()) == {(1, 2, 3, 4): 1}
        engine.apply(Update("S", (2, 3), -1))  # Q2's only tuple vanishes
        list(engine.enumerate_q2())
        assert dict(engine.enumerate_q1()) == {}

    def test_unknown_relation_rejected_before_any_write(self):
        db = fresh_db()
        engine = CascadeEngine(Q1, Q2, db)
        with pytest.raises(KeyError, match="Nope"):
            engine.apply(Update("Nope", (1, 2), 1))
        with pytest.raises(KeyError, match="Nope"):
            engine.apply_batch([Update("R", (1, 2), 1), Update("Nope", (1, 2), 1)])
        assert all(len(relation) == 0 for relation in db)
        list(engine.enumerate_q1())  # nothing reached Q2: not stale

    def test_refresh_is_equivalent_to_enumerate_drain(self):
        db = fresh_db()
        engine = CascadeEngine(Q1, Q2, db)
        engine.apply(Update("R", (0, 0), 1))
        engine.refresh()
        list(engine.enumerate_q1())  # no StaleCascadeError

    def test_aliased_leaves_see_each_update_once(self, rng):
        # Schemas equal to the atoms: every leaf of both trees is a base
        # relation (V_Q2 included), which the cascade writes itself before
        # calling apply(update, update_base=False).
        db = Database()
        for name, schema in (("R", "AB"), ("S", "BC"), ("T", "CD")):
            db.create(name, tuple(schema))
        engine = CascadeEngine(Q1, Q2, db)
        assert engine.q2_engine._aliased == {"R", "S"}
        assert engine.q1_engine._aliased == {"Q2", "T"}
        stream = valid_stream(rng, {"R": 2, "S": 2, "T": 2}, 300, domain=6)
        expected = applied_once(db, stream)
        for i, update in enumerate(stream):
            engine.apply(update)
            if i % 75 == 74:
                assert dict(engine.enumerate_q2()) == evaluate(Q2, db).to_dict()
                assert dict(engine.enumerate_q1()) == evaluate(Q1, db).to_dict()
        assert {rel.name: rel.data for rel in db} == expected
