"""Multi-query planning and maintenance (Section 4.2 for query sets)."""

import itertools
import random

import pytest

from repro.cascade import MultiQueryEngine
from repro.data import Database, SharedBaseError, Update
from repro.naive import evaluate
from repro.query import parse_query
from repro.staticdyn import StaticRelationUpdateError
from repro.viewtree import ViewTreeEngine
from tests.conftest import applied_once, valid_stream

Q1 = parse_query("Q1(A,B,C,D) = R(A,B) * S(B,C) * T(C,D)")
Q2 = parse_query("Q2(A,B,C) = R(A,B) * S(B,C)")
Q3 = parse_query("Q3(A,B) = U(A,B)")


def fresh_db():
    db = Database()
    for name in ("R", "S", "T", "U"):
        db.create(name, ("X", "Y"))
    return db


class TestPlanning:
    def test_cascade_detected(self):
        engine = MultiQueryEngine([Q1, Q2, Q3], fresh_db())
        assert engine.assignments["Q1"].mode == "cascade-rider"
        assert engine.assignments["Q1"].via == "Q2"
        assert engine.assignments["Q2"].mode == "cascade-host"
        assert engine.assignments["Q3"].mode == "direct"

    def test_no_host_falls_back_to_direct(self):
        engine = MultiQueryEngine([Q1, Q3], fresh_db())
        assert engine.assignments["Q1"].mode == "direct"

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            MultiQueryEngine([Q1, Q1], fresh_db())

    def test_plan_report(self):
        engine = MultiQueryEngine([Q1, Q2], fresh_db())
        report = engine.plan_report()
        assert "Q1: cascades over Q2" in report

    def test_unknown_query_enumeration(self):
        engine = MultiQueryEngine([Q3], fresh_db())
        with pytest.raises(KeyError):
            list(engine.enumerate("Q9"))


class TestMaintenance:
    def test_all_queries_track_naive(self, rng):
        db = fresh_db()
        engine = MultiQueryEngine([Q1, Q2, Q3], db)
        stream = valid_stream(
            rng, {"R": 2, "S": 2, "T": 2, "U": 2}, 300, domain=7
        )
        for i, update in enumerate(stream):
            engine.apply(update)
            if i % 100 == 99:
                for q in (Q1, Q2, Q3):
                    got = dict(engine.enumerate(q.name))
                    assert got == evaluate(q, db).to_dict(), q.name

    def test_host_enumeration_served_by_cascade(self, rng):
        db = fresh_db()
        engine = MultiQueryEngine([Q1, Q2], db)
        for update in valid_stream(rng, {"R": 2, "S": 2, "T": 2}, 120, domain=6):
            engine.apply(update)
        q2_out = dict(engine.enumerate("Q2"))
        assert q2_out == evaluate(Q2, db).to_dict()
        # After enumerating the host, the rider is fresh (not stale).
        q1_out = dict(engine.enumerate("Q1"))
        assert q1_out == evaluate(Q1, db).to_dict()

    def test_updates_to_unrelated_relation(self, rng):
        db = fresh_db()
        db.create("Z", ("X", "Y"))
        engine = MultiQueryEngine([Q3], db)
        engine.apply(Update("Z", (1, 2), 1))  # no engine consumes Z
        assert db["Z"].get((1, 2)) == 1

    def test_unknown_relation_rejected_before_any_write(self):
        db = fresh_db()
        engine = MultiQueryEngine([Q1, Q2, Q3], db)
        batch = [Update("R", (1, 2), 1), Update("Nope", (1, 2), 1)]
        with pytest.raises(KeyError, match="Nope"):
            engine.apply_batch(batch)
        with pytest.raises(KeyError, match="Nope"):
            engine.apply(batch[1])
        assert all(len(relation) == 0 for relation in db)
        engine.apply(Update("S", (2, 3), 1))
        engine.apply(Update("T", (3, 4), 1))
        assert dict(engine.enumerate("Q1")) == {}

    def test_static_relation_rejected_before_any_write(self):
        db = Database()
        db.create("U", ("A", "B"))
        db.create("V", ("B",))
        engine = MultiQueryEngine([parse_query("P(A,B) = U(A,B) * V@s(B)")], db)
        with pytest.raises(StaticRelationUpdateError):
            engine.apply_batch([Update("U", (1, 2), 1), Update("V", (2,), 1)])
        assert len(db["U"]) == 0 and len(db["V"]) == 0

    def test_engine_behind_the_set_is_a_second_writer(self):
        db = fresh_db()
        engine = MultiQueryEngine([Q1, Q2], db)
        engine.apply(Update("R", (1, 2), 1))
        behind = ViewTreeEngine(Q2, db)
        with pytest.raises(SharedBaseError):
            behind.apply(Update("R", (5, 2), 1))
        assert db["R"].data == {(1, 2): 1}


# One database for a query set.  Every relation's schema is its atoms'
# variables, so every leaf whose atom is its relation's only atom can be
# the base relation itself.
SCHEMAS = {
    "R": ("A", "B"),
    "S": ("B", "C"),
    "T": ("C", "D"),
    "U": ("D", "E"),
    "V": ("A", "F"),
    "W": ("C", "E"),
}
HOST = Q2
RIDER_T = Q1
RIDER_W = parse_query("Q4(A,B,C,E) = R(A,B) * S(B,C) * W(C,E)")
DIRECT = parse_query("Q3(A,B,F) = R(A,B) * V(A,F)")  # shares R with the host
DELTA = parse_query("Q5(B,C,D,E) = S(B,C) * T(C,D) * U(D,E)")
WORKLOAD = [RIDER_T, HOST, DIRECT, RIDER_W, DELTA]


def shared_db(rng, rows=25, domain=6):
    db = Database()
    for name, schema in SCHEMAS.items():
        relation = db.create(name, schema)
        for _ in range(rows):
            relation.insert(*(rng.randrange(domain) for _ in schema))
    return db


def tree_of(member):
    """The view tree behind a member engine (``None``: not a view tree)."""
    tree = getattr(member, "backend", member)
    return tree if isinstance(tree, ViewTreeEngine) else None


class TestOneDatabase:
    def test_members_share_leaves_and_one_tree_maintains_the_host(self, rng):
        db = shared_db(rng)
        engine = MultiQueryEngine(WORKLOAD, db)
        assert engine.plan_report().splitlines() == [
            "Q1: cascades over Q2",
            "Q2: cascade-host",
            "Q3: direct",
            "Q4: cascades over Q2",
            "Q5: direct",
        ]
        host_view = engine._hosts["Q2"].view
        trees = {}
        for name, member in engine._members.items():
            tree = tree_of(member)
            if tree is None:  # the delta plan keeps a private copy
                assert engine.assignments[name].query is DELTA
                private = member.backend.database
                assert all(private[r] is not db[r] for r in ("S", "T", "U"))
                continue
            trees[name] = tree
            for root in tree.roots:
                for node in root.walk():
                    for atom, leaf in node.leaves:
                        base = db.relations.get(atom.relation, host_view)
                        assert leaf is base, (name, atom)
        # One tree maintains Q2: its own member, read by both riders' V_Q2.
        readers = {id(t) for ts in engine._trees.values() for t in ts}
        q2_trees = [t for t in trees.values() if t.query is HOST]
        assert len(q2_trees) == 1 and id(q2_trees[0]) in readers
        assert engine._hosts["Q2"].riders == [trees["Q1"], trees["Q4"]]

        stream = valid_stream(rng, {name: 2 for name in SCHEMAS}, 400, domain=6)
        expected = applied_once(db, stream)
        engine.apply_batch(stream[:150])
        for update in stream[150:]:
            engine.apply(update)
        assert {rel.name: rel.data for rel in db} == expected
        # Riders first: each enumerates the host, refreshing both riders.
        for query in (RIDER_W, RIDER_T, HOST, DIRECT, DELTA):
            got = dict(engine.enumerate(query.name))
            assert got == evaluate(query, db).to_dict(), query.name

    @pytest.mark.parametrize("seed", range(4))
    def test_random_interleaving_matches_naive(self, seed):
        rng = random.Random(seed)
        db = shared_db(rng)
        engine = MultiQueryEngine(WORKLOAD, db)
        stream = iter(
            valid_stream(rng, {name: 2 for name in SCHEMAS}, 600, domain=5)
        )
        names = [query.name for query in WORKLOAD]
        for _ in range(120):
            op = rng.choice(["apply", "apply", "batch", "read", "peek"])
            if op == "apply":
                update = next(stream, None)
                if update is not None:
                    engine.apply(update)
            elif op == "batch":
                size = rng.randrange(1, 30)
                engine.apply_batch(list(itertools.islice(stream, size)))
            elif op == "peek":  # an abandoned enumeration refreshes part way
                list(itertools.islice(engine.enumerate(rng.choice(names)), 3))
            else:
                query = rng.choice(WORKLOAD)
                got = dict(engine.enumerate(query.name))
                assert got == evaluate(query, db).to_dict(), (seed, query.name)
        for query in WORKLOAD:
            got = dict(engine.enumerate(query.name))
            assert got == evaluate(query, db).to_dict(), (seed, query.name)
