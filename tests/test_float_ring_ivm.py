"""IVM over the float ring: SUM aggregates with rounding tolerance."""

import random
import subprocess
import sys

import pytest

from repro.data import Database, Update
from repro.data.update import coalesce_grouped
from repro.naive import evaluate
from repro.query import parse_query
from repro.rings import MIN_PLUS, FloatRing, LiftingMap, identity_lifting
from repro.shard import ShardedEngine
from repro.viewtree import ViewTreeEngine


class TestFloatRingMaintenance:
    def test_sum_of_revenue_per_store(self):
        ring = FloatRing()
        db = Database(ring=ring)
        sales = db.create("Sales", ("store", "amount"))
        open_stores = db.create("Open", ("store",))
        q = parse_query("Q(store) = Sales(store, amount) * Open(store)")
        lifting = LiftingMap(ring, {"amount": identity_lifting(ring)})
        engine = ViewTreeEngine(q, db, lifting=lifting)

        engine.apply(Update("Open", ("zurich",), 1.0))
        engine.apply(Update("Sales", ("zurich", 19.99), 1.0))
        engine.apply(Update("Sales", ("zurich", 5.01), 1.0))
        out = dict(engine.enumerate())
        assert out[("zurich",)] == pytest.approx(25.0)

    def test_cancellation_cleans_entries(self):
        ring = FloatRing()
        db = Database(ring=ring)
        db.create("R", ("A",))
        q = parse_query("Q(A) = R(A)")
        engine = ViewTreeEngine(q, db)
        engine.apply(Update("R", (1,), 0.1))
        engine.apply(Update("R", (1,), 0.2))
        engine.apply(Update("R", (1,), -0.30000000000000004))
        assert dict(engine.enumerate()) == {}
        assert len(db["R"]) == 0

    def test_random_float_stream_tracks_naive(self):
        ring = FloatRing()
        db = Database(ring=ring)
        db.create("R", ("Y", "X"))
        db.create("S", ("Y", "Z"))
        q = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        engine = ViewTreeEngine(q, db)
        rng = random.Random(1)
        for _ in range(200):
            relation = rng.choice(["R", "S"])
            key = (rng.randrange(6), rng.randrange(6))
            engine.apply(Update(relation, key, round(rng.uniform(0.1, 2.0), 3)))
        got = dict(engine.enumerate())
        expected = evaluate(q, db).to_dict()
        assert set(got) == set(expected)
        for key, value in got.items():
            assert value == pytest.approx(expected[key])


class TestPayloadsKeepTheirType:
    """Only the ring's own ``+`` and ``*`` touch a payload: ``int`` payloads
    fed to a ``FloatRing`` engine stay ``int`` whatever the batch size and
    whichever shard holds them."""

    @staticmethod
    def fresh_db():
        db = Database(ring=FloatRing())
        db.create("R", ("Y", "X"))
        db.create("S", ("Y", "Z"))
        return db

    @staticmethod
    def int_batch(count, relations=("R", "S")):
        return [
            Update(relations[i % len(relations)], (i % 5, i % 7), 1 + i % 3)
            for i in range(count)
        ]

    @pytest.mark.parametrize("count", [63, 64, 200])
    @pytest.mark.parametrize(
        "query, relations",
        [
            ("Q(Y, X, Z) = R(Y, X) * S(Y, Z)", ("R", "S")),
            ("Q(Y, X, Z) = R(Y, X) * R(Y, Z)", ("R",)),
            ("Q(A, C) = R(A, B) * S(B, C)", ("R", "S")),
        ],
        ids=["base-leaves", "copied-leaves", "payload-plan"],
    )
    def test_base_and_leaves(self, query, relations, count):
        db = self.fresh_db()
        engine = ViewTreeEngine(parse_query(query), db)
        batch = self.int_batch(count, relations)
        engine.apply_batch(batch)
        expected = coalesce_grouped(batch, db.ring)
        leaves = [
            (atom.relation, leaf) for root in engine.roots
            for node in root.walk() for atom, leaf in node.leaves
        ]
        for name, relation in [(name, db[name]) for name in relations] + leaves:
            assert relation.data == expected[name]
            assert {type(p) for p in relation.data.values()} == {int}

    def test_worker_shard_holds_what_shard_zero_holds(self):
        query = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")
        engine = ShardedEngine(query, self.fresh_db(), shards=2, executor="process")
        try:
            engine.apply_batch(self.int_batch(40))
            types = [
                {name: {type(p) for _k, p in items}
                 for name, _var, _schema, items in reply.payload}
                for reply in engine._broadcast(("views",))
            ]
        finally:
            engine.close()
        assert types[0] == types[1]
        assert all(types[0][name] == {int} for name in ("V_X", "V_Z", "V_Y"))


def test_the_program_does_not_load_numpy():
    script = (
        "import sys; sys.path.insert(0, 'src'); "
        "import repro, repro.shard.worker, repro.viewtree.changes, "
        "repro.data.columnar; "
        "print('numpy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=__file__.rsplit("/tests/", 1)[0],
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


class TestMinPlusStatic:
    def test_two_hop_shortest_path(self):
        """Tropical semiring: the join computes path lengths, the
        projection takes the minimum — static evaluation only (no
        additive inverse), exactly the §2/§4.6 boundary."""
        db = Database(ring=MIN_PLUS)
        e1 = db.create("E1", ("src", "mid"))
        e2 = db.create("E2", ("mid", "dst"))
        e1.add(("a", "b"), 3.0)
        e1.add(("a", "c"), 1.0)
        e2.add(("b", "d"), 1.0)
        e2.add(("c", "d"), 5.0)
        q = parse_query("Q(src, dst) = E1(src, mid) * E2(mid, dst)")
        out = evaluate(q, db)
        assert out.get(("a", "d")) == 4.0  # min(3+1, 1+5)
