"""The validity assumption (Section 2), exercised from both sides.

The paper assumes update batches are *valid*: they map databases with
all-positive multiplicities to databases with all-positive
multiplicities.  These tests pin down exactly what the library promises:

* mid-batch negative multiplicities are fine — engines stay correct once
  the batch completes (commutativity);
* scalar/aggregate results are correct even for invalid final states;
* factorized *enumeration* over an invalid final state may legitimately
  skip cancelled branches — the documented limitation;
* a point lookup multiplies the tuple's own probes, so it returns the
  naive payload even there, while the enumeration walk may not.
"""

from repro.data import Database, Update, permuted
from repro.delta import DeltaQueryEngine
from repro.naive import evaluate, evaluate_scalar
from repro.query import parse_query
from repro.viewtree import ViewTreeEngine

FIG3 = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")


def fresh_db():
    db = Database()
    db.create("R", ("Y", "X"))
    db.create("S", ("Y", "Z"))
    return db


class TestMidBatchInconsistency:
    def test_out_of_order_delete_then_insert(self):
        """A delete arriving before its insert leaves a transient -1 and
        resolves to the correct state."""
        db = fresh_db()
        engine = ViewTreeEngine(FIG3, db)
        engine.apply(Update("R", (1, 2), -1))  # not inserted yet!
        assert db["R"].get((1, 2)) == -1
        engine.apply(Update("R", (1, 2), 1))
        assert len(db["R"]) == 0
        assert list(engine.enumerate()) == []

    def test_any_permutation_converges(self, rng):
        batch = [
            Update("R", (1, 2), 1),
            Update("S", (1, 3), 1),
            Update("R", (1, 2), -1),
            Update("R", (1, 4), 1),
            Update("S", (1, 3), -1),
            Update("S", (1, 5), 1),
        ]
        reference = None
        for seed in range(6):
            db = fresh_db()
            engine = ViewTreeEngine(FIG3, db)
            for update in permuted(batch, seed):
                engine.apply(update)
            result = engine.output_relation().to_dict()
            if reference is None:
                reference = result
            assert result == reference
        assert reference == {(1, 4, 5): 1}


class TestInvalidFinalStates:
    def test_aggregates_still_correct(self):
        """Scalar maintenance is ring arithmetic: negative multiplicities
        are handled exactly (no validity needed)."""
        q = parse_query("Q() = R(A,B) * S(B,C) * T(C,A)")
        db = Database()
        for name in ("R", "S", "T"):
            db.create(name, ("X", "Y"))
        engine = DeltaQueryEngine(q, db)
        engine.apply(Update("R", (1, 2), -3))  # permanently negative
        engine.apply(Update("S", (2, 3), 2))
        engine.apply(Update("T", (3, 1), 1))
        assert engine.scalar() == -6 == evaluate_scalar(q, db)

    def test_factorized_enumeration_documented_limitation(self):
        """With cancel-to-zero aggregates, the factorized walk skips
        branches whose individual outputs are non-zero.  This is the
        documented boundary of the Section 2 validity assumption — the
        test asserts the behaviour so a future change is noticed."""
        db = fresh_db()
        engine = ViewTreeEngine(FIG3, db)
        engine.apply(Update("S", (1, 7), 1))
        engine.apply(Update("S", (1, 8), -1))  # invalid: negative tuple
        engine.apply(Update("R", (1, 2), 1))
        # V_Z(1) = 1 + (-1) = 0, so the y=1 branch is pruned ...
        assert dict(engine.enumerate()) == {}
        # ... although the naive evaluator sees two non-zero outputs.
        naive = evaluate(FIG3, db).to_dict()
        assert naive == {(1, 2, 7): 1, (1, 2, 8): -1}

    def test_point_lookup_returns_the_naive_payload(self):
        """A generated engine's lookup is the product of the tuple's own
        leaf probes (``R(1, 2) * S(1, 7)``): the cancelled ``V_Z(1)`` is
        never read, so on the invalid state above the lookup equals
        ``repro.naive`` — live and at a snapshot — while enumeration and
        the oracle's walk (``generated=False``) skip the tuple."""
        updates = [
            Update("S", (1, 7), 1),
            Update("S", (1, 8), -1),  # invalid: negative tuple
            Update("R", (1, 2), 1),
        ]
        db, walk_db = fresh_db(), fresh_db()
        engine = ViewTreeEngine(FIG3, db)
        walker = ViewTreeEngine(FIG3, walk_db, generated=False)
        for update in updates:
            engine.apply(update)
            walker.apply(update)
        naive = evaluate(FIG3, db).to_dict()
        assert naive == {(1, 2, 7): 1, (1, 2, 8): -1}
        assert {key: engine.lookup(key) for key in naive} == naive
        snap = engine.publish_epoch()
        assert {key: engine.lookup_snapshot(key, snap) for key in naive} == naive
        assert dict(engine.enumerate()) == {}
        assert {key: walker.lookup(key) for key in naive} == {
            (1, 2, 7): 0, (1, 2, 8): 0
        }

    def test_flat_representations_not_affected(self):
        """The list representation has no such caveat: the delta engine's
        materialized output is exact even on invalid states."""
        db = fresh_db()
        engine = DeltaQueryEngine(FIG3, db)
        engine.apply(Update("S", (1, 7), 1))
        engine.apply(Update("S", (1, 8), -1))
        engine.apply(Update("R", (1, 2), 1))
        assert engine.result().to_dict() == {(1, 2, 7): 1, (1, 2, 8): -1}
