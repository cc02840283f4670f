"""The four Fig. 4 strategies: agreement and characteristic behaviour."""

import pytest

from repro.data import Database, Update, counting
from repro.naive import evaluate
from repro.query import parse_query
from repro.viewtree import (
    STRATEGIES,
    EagerFact,
    EagerList,
    LazyFact,
    LazyList,
    make_strategy,
)
from tests.conftest import applied_once, valid_stream

QUERY = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
SCHEMAS = {"R": 2, "S": 2}


def fresh_db():
    db = Database()
    db.create("R", ("Y", "X"))
    db.create("S", ("Y", "Z"))
    return db


class TestAgreement:
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_strategy_matches_naive(self, name, rng):
        db = fresh_db()
        strategy = make_strategy(name, QUERY, db)
        stream = valid_stream(rng, SCHEMAS, 250, domain=7)
        for i, update in enumerate(stream):
            strategy.apply(update)
            if i % 60 == 59:
                got = {}
                for key, payload in strategy.enumerate():
                    got[key] = got.get(key, 0) + payload
                assert got == evaluate(QUERY, db).to_dict(), name

    def test_all_four_agree(self, rng):
        stream = valid_stream(rng, SCHEMAS, 200, domain=6)
        outputs = []
        for name in sorted(STRATEGIES):
            db = fresh_db()
            strategy = make_strategy(name, QUERY, db)
            for update in stream:
                strategy.apply(update)
            outputs.append(dict(strategy.enumerate()))
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            make_strategy("eager-magic", QUERY, fresh_db())


class TestCharacteristics:
    def test_lazy_defers_all_output_work(self, rng):
        db = fresh_db()
        strategy = LazyList(QUERY, db)
        with counting() as ops:
            for update in valid_stream(rng, SCHEMAS, 50, delete_prob=0.0):
                strategy.apply(update)
        assert ops.total() <= 60 * 3  # inputs only: O(1) per update

    def test_eager_fact_updates_cheaper_than_eager_list_on_fanout(self):
        """A single R-update touching many output tuples: eager-list pays
        per affected tuple, eager-fact pays O(1) — the Fig. 4 gap."""
        def loaded_db():
            db = fresh_db()
            for z in range(300):
                db["S"].insert(0, z)
            return db

        db_fact = loaded_db()
        fact = EagerFact(QUERY, db_fact)
        with counting() as ops:
            fact.apply(Update("R", (0, 1), 1))
        fact_cost = ops.total()

        db_list = loaded_db()
        lst = EagerList(QUERY, db_list)
        with counting() as ops:
            lst.apply(Update("R", (0, 1), 1))
        list_cost = ops.total()
        assert list_cost > 10 * fact_cost

    def test_enumeration_from_list_is_scan(self, rng):
        db = fresh_db()
        strategy = EagerList(QUERY, db)
        for update in valid_stream(rng, SCHEMAS, 100, delete_prob=0.0):
            strategy.apply(update)
        count = strategy.enumerate_count()
        with counting() as ops:
            strategy.enumerate_count()
        assert ops.total() <= count + 5  # one enum step per tuple

    def test_lazy_fact_rebuilds_only_when_dirty(self, rng):
        db = fresh_db()
        strategy = LazyFact(QUERY, db)
        for update in valid_stream(rng, SCHEMAS, 80, delete_prob=0.0):
            strategy.apply(update)
        strategy.enumerate_count()
        with counting() as ops:
            strategy.enumerate_count()  # no updates since: no rebuild
        second = ops.total()
        strategy.apply(Update("R", (0, 0), 1))
        with counting() as ops:
            strategy.enumerate_count()
        third = ops.total()
        assert third > second

    def test_lazy_fact_writes_the_base_its_rebuilt_leaves_alias(self, rng):
        # LazyFact writes the base itself and rebuilds its engine on read;
        # every rebuilt tree's leaves are those base relations.
        db = fresh_db()
        strategy = LazyFact(QUERY, db)
        stream = valid_stream(rng, SCHEMAS, 240, domain=6)
        expected = applied_once(db, stream)
        for i, update in enumerate(stream):
            strategy.apply(update)
            if i % 60 == 59:
                assert dict(strategy.enumerate()) == evaluate(QUERY, db).to_dict()
                assert strategy._engine._aliased == {"R", "S"}
        assert {rel.name: rel.data for rel in db} == expected
