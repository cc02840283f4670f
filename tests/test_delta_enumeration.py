"""Delta enumeration (footnote 2): yield only the change to the output."""

from repro.data import Database, Update
from repro.delta import DeltaQueryEngine
from repro.query import parse_query

QUERY = parse_query("Q(A) = R(A, B) * S(B)")


def make_engine():
    db = Database()
    db.create("R", ("A", "B"))
    db.create("S", ("B",))
    return DeltaQueryEngine(QUERY, db), db


class TestDeltaEnumeration:
    def test_reports_net_change(self):
        engine, _ = make_engine()
        engine.apply(Update("R", (1, 10), 1))
        engine.apply(Update("S", (10,), 1))
        delta = dict(engine.enumerate_delta())
        assert delta == {(1,): 1}

    def test_resets_after_drain(self):
        engine, _ = make_engine()
        engine.apply(Update("R", (1, 10), 1))
        engine.apply(Update("S", (10,), 1))
        assert dict(engine.enumerate_delta()) == {(1,): 1}
        assert dict(engine.enumerate_delta()) == {}

    def test_retraction_is_negative(self):
        engine, _ = make_engine()
        engine.apply(Update("R", (1, 10), 1))
        engine.apply(Update("S", (10,), 1))
        list(engine.enumerate_delta())
        engine.apply(Update("S", (10,), -1))
        assert dict(engine.enumerate_delta()) == {(1,): -1}

    def test_cancelling_changes_not_reported(self):
        engine, _ = make_engine()
        engine.apply(Update("S", (10,), 1))
        engine.apply(Update("R", (1, 10), 1))
        engine.apply(Update("R", (1, 10), -1))
        assert dict(engine.enumerate_delta()) == {}

    def test_delta_accumulates_across_updates(self):
        engine, _ = make_engine()
        engine.apply(Update("S", (10,), 1))
        for a in range(5):
            engine.apply(Update("R", (a, 10), 1))
        delta = dict(engine.enumerate_delta())
        assert delta == {(a,): 1 for a in range(5)}

    def test_lazy_mode_delta(self):
        db = Database()
        db.create("R", ("A", "B"))
        db.create("S", ("B",))
        engine = DeltaQueryEngine(QUERY, db, eager=False)
        engine.apply(Update("R", (1, 10), 1))
        engine.apply(Update("S", (10,), 1))
        # refresh happens inside enumerate_delta
        assert dict(engine.enumerate_delta()) == {(1,): 1}

    def test_full_enumeration_unaffected(self):
        engine, _ = make_engine()
        engine.apply(Update("R", (1, 10), 1))
        engine.apply(Update("S", (10,), 1))
        list(engine.enumerate_delta())
        assert dict(engine.enumerate()) == {(1,): 1}
