"""The planner ladder (Section 6) and the IVMEngine facade."""

import pytest

from repro import Database, IVMEngine, parse_query, plan_maintenance
from repro.backend import NotSupported
from repro.constraints import parse_fds
from repro.data import Update, counting
from repro.naive import evaluate, evaluate_scalar
from repro.rings import MIN_PLUS, Z
from repro.shard import ShardedEngine
from repro.viewtree import ViewTreeEngine
from tests.conftest import fd_satisfying_db, valid_stream


class TestPlannerLadder:
    def test_q_hierarchical(self):
        plan = plan_maintenance(parse_query("Q(Y,X,Z) = R(Y,X) * S(Y,Z)"))
        assert plan.strategy == "viewtree"
        assert plan.update_time == "O(1)"

    def test_fd_rescue(self):
        q = parse_query("Q(Z, Y, X, W) = R(X, W) * S(X, Y) * T(Y, Z)")
        fds = parse_fds("X -> Y", "Y -> Z")
        assert plan_maintenance(q).strategy == "delta"
        assert plan_maintenance(q, fds).strategy == "fd-viewtree"

    def test_static_dynamic(self):
        q = parse_query("Q(A,B,C) = R(A,D) * S(A,B) * T@s(B,C)")
        assert plan_maintenance(q).strategy == "static-dynamic"

    def test_cqap(self):
        q = parse_query("Q(. | A, B, C) = E(A,B) * E(B,C) * E(C,A)")
        assert plan_maintenance(q).strategy == "cqap"

    def test_intractable_cqap_falls_back(self):
        q = parse_query("Q(C | A, B) = E(A,B) * E(B,C) * E(C,A)")
        assert plan_maintenance(q).strategy == "delta"

    def test_insert_only(self):
        q = parse_query("Q(A,B,C,D) = R(A,B) * S(B,C) * T(C,D)")
        assert plan_maintenance(q).strategy == "delta"
        assert plan_maintenance(q, insert_only=True).strategy == "insert-only"

    def test_triangle(self):
        q = parse_query("Q() = R(A,B) * S(B,C) * T(C,A)")
        assert plan_maintenance(q).strategy == "ivm-eps-triangle"

    def test_triangle_over_another_ring_takes_the_delta_rung(self):
        # IVM^eps counts in Z: over any other ring the triangle is the
        # delta rung's, and the facade's answer is repro.naive's.
        q = parse_query("Q() = R(A,B) * S(B,C) * T(C,A)")
        assert plan_maintenance(q, ring=Z).strategy == "ivm-eps-triangle"
        assert plan_maintenance(q, ring=MIN_PLUS).strategy == "delta"
        db = Database(ring=MIN_PLUS)
        for name in ("R", "S", "T"):
            db.create(name, ("X", "Y"))
        engine = IVMEngine(q, db)
        assert engine.plan.strategy == "delta"
        for a, b, cost in ((1, 2, 1.0), (2, 3, 0.5), (3, 1, 1.5), (2, 1, 4.0)):
            for name in ("R", "S", "T"):
                engine.apply(Update(name, (a, b), cost))
        assert engine.scalar() == evaluate_scalar(q, db) == 3.0

    def test_hierarchical_not_q(self):
        q = parse_query("Q(A) = R(A,B) * S(B)")
        assert plan_maintenance(q).strategy == "viewtree-hierarchical"

    def test_plan_renders(self):
        plan = plan_maintenance(parse_query("Q(Y,X,Z) = R(Y,X) * S(Y,Z)"))
        assert "Theorem 4.1" in str(plan)


class TestFacade:
    def test_viewtree_path(self, rng):
        db = Database()
        db.create("R", ("Y", "X"))
        db.create("S", ("Y", "Z"))
        q = parse_query("Q(Y,X,Z) = R(Y,X) * S(Y,Z)")
        engine = IVMEngine(q, db)
        for update in valid_stream(rng, {"R": 2, "S": 2}, 200):
            engine.apply(update)
        assert dict(engine.enumerate()) == evaluate(q, db).to_dict()

    def test_triangle_path(self, rng):
        db = Database()
        for name in ("R", "S", "T"):
            db.create(name, ("X", "Y"))
        q = parse_query("Q() = R(A,B) * S(B,C) * T(C,A)")
        engine = IVMEngine(q, db)
        for update in valid_stream(rng, {"R": 2, "S": 2, "T": 2}, 300):
            engine.apply(update)
        assert engine.scalar() == evaluate_scalar(q, db)

    def test_fd_path(self, rng):
        db = fd_satisfying_db(rng)
        q = parse_query("Q(Z, Y, X, W) = R(X, W) * S(X, Y) * T(Y, Z)")
        fds = parse_fds("X -> Y", "Y -> Z")
        engine = IVMEngine(q, db, fds=fds)
        assert engine.plan.strategy == "fd-viewtree"
        for _ in range(100):
            engine.apply(Update("R", (rng.randrange(12), rng.randrange(20)), 1))
        assert dict(engine.enumerate()) == evaluate(q, db).to_dict()

    def test_cqap_path(self):
        db = Database()
        db.create("E", ("X", "Y"))
        q = parse_query("Q(. | A, B, C) = E(A,B) * E(B,C) * E(C,A)")
        engine = IVMEngine(q, db)
        engine.insert("E", 1, 2)
        engine.insert("E", 2, 3)
        engine.insert("E", 3, 1)
        assert list(engine.answer({"A": 1, "B": 2, "C": 3}))

    def test_boolean_fd_plan_answers_scalar(self, rng):
        """A Boolean query under FDs has a scalar output like any other
        (was: ``TypeError: plan 'fd-viewtree' has no scalar output``)."""
        q = parse_query("Q() = R(A,B) * S(B,C) * T(C)")
        db = Database()
        db.create("R", ("A", "B"))
        db.create("S", ("B", "C"))
        db.create("T", ("C",))
        engine = IVMEngine(q, db, fds=parse_fds("B -> C"))
        assert engine.plan.strategy == "fd-viewtree"
        for b in range(6):
            engine.insert("S", b, b % 3)  # B -> C holds
        for update in valid_stream(rng, {"R": 2, "T": 1}, 150, domain=6):
            engine.apply(update)
        expected = evaluate_scalar(q, db)
        assert expected
        assert engine.scalar() == expected
        assert engine.lookup(()) == expected
        engine.publish_epoch()
        engine.insert("T", 0)
        assert engine.scalar_snapshot() == expected
        assert engine.lookup_snapshot(()) == expected
        assert engine.scalar() == evaluate_scalar(q, db) != expected

    @pytest.mark.parametrize("strategy", ["fd-viewtree", "static-dynamic"])
    def test_lookup_cost_is_independent_of_size(self, strategy):
        """Theorem 4.11 / Section 4.5 promise O(1) lookups: the probe
        count (not wall time) is the same at N and 10·N.  The facade
        used to scan ``enumerate()`` for these plans."""
        costs = []
        for n in (200, 2000):
            db = Database()
            if strategy == "fd-viewtree":
                q = parse_query("Q(Z, Y, X, W) = R(X, W) * S(X, Y) * T(Y, Z)")
                fds = parse_fds("X -> Y", "Y -> Z")
                r = db.create("R", ("X", "W"))
                s = db.create("S", ("X", "Y"))
                t = db.create("T", ("Y", "Z"))
                for i in range(n):
                    r.insert(i % (n // 4), i)
                    s.insert(i % (n // 4), i % 50)  # X -> Y holds
                    t.insert(i % 50, i % 5)  # Y -> Z holds
                keys = [
                    (i % 5, i % 50, i % (n // 4), i) for i in range(0, n, n // 20)
                ]
            else:
                q = parse_query("Q(A,B,C) = R(A,D) * S(A,B) * T@s(B,C)")
                fds = ()
                r = db.create("R", ("A", "D"))
                s = db.create("S", ("A", "B"))
                t = db.create("T", ("B", "C"))
                for i in range(n):
                    r.insert(i, i)
                    s.insert(i, i % 50)
                    t.insert(i % 50, i % 7)
                keys = [(i, i % 50, i % 7) for i in range(0, n, n // 20)]
            engine = IVMEngine(q, db, fds=fds)
            assert engine.plan.strategy == strategy
            expected = evaluate(q, db).to_dict()
            with counting() as ops:
                found = [engine.lookup(key) for key in keys]
            assert found == [expected[key] for key in keys]
            costs.append(ops.total())
        assert costs[0] == costs[1] > 0

    def test_answer_rejected_for_non_cqap(self):
        db = Database()
        db.create("R", ("Y", "X"))
        db.create("S", ("Y", "Z"))
        engine = IVMEngine(parse_query("Q(Y,X,Z) = R(Y,X) * S(Y,Z)"), db)
        with pytest.raises(NotSupported):
            engine.answer({"Y": 1})

    def test_insert_only_path(self, rng):
        db = Database()
        for name in ("R", "S", "T"):
            rel = db.create(name, ("X", "Y"))
            for _ in range(20):
                rel.set((rng.randrange(5), rng.randrange(5)), 1)
        q = parse_query("Q(A,B,C,D) = R(A,B) * S(B,C) * T(C,D)")
        engine = IVMEngine(q, db, insert_only=True)
        assert engine.plan.strategy == "insert-only"
        engine.insert("R", 0, 0)
        got = sorted(key for key, _ in engine.enumerate())
        assert got == sorted(evaluate(q, db).keys())

    def test_insert_only_projected_head_enumerates_the_head(self, rng):
        """The insert-only engine enumerates the full join, so a projected
        head takes the next rung and reads ``repro.naive``'s result."""
        db = Database()
        for name in ("R", "S", "T"):
            db.create(name, ("X", "Y"))
        q = parse_query("Q(A, C) = R(A, B) * S(B, C) * T(C, D)")
        engine = IVMEngine(q, db, insert_only=True)
        assert engine.plan.strategy != "insert-only"
        for _ in range(120):
            name = rng.choice("RST")
            engine.insert(name, rng.randrange(5), rng.randrange(5))
        expected = evaluate(q, db).to_dict()
        assert expected
        assert dict(engine.enumerate()) == expected

    def test_delta_fallback_path(self, rng):
        db = Database()
        for name in ("R", "S", "T"):
            db.create(name, ("X", "Y"))
        q = parse_query("Q(A,B,C,D) = R(A,B) * S(B,C) * T(C,D)")
        engine = IVMEngine(q, db)
        assert engine.plan.strategy == "delta"
        for update in valid_stream(rng, {"R": 2, "S": 2, "T": 2}, 150, domain=5):
            engine.apply(update)
        assert dict(engine.enumerate()) == evaluate(q, db).to_dict()

    def test_static_dynamic_path(self, rng):
        db = Database()
        db.create("R", ("A", "D"))
        db.create("S", ("A", "B"))
        t = db.create("T", ("B", "C"))
        for _ in range(50):
            t.insert(rng.randrange(6), rng.randrange(6))
        q = parse_query("Q(A,B,C) = R(A,D) * S(A,B) * T@s(B,C)")
        engine = IVMEngine(q, db)
        assert engine.plan.strategy == "static-dynamic"
        for update in valid_stream(rng, {"R": 2, "S": 2}, 150, domain=6):
            engine.apply(update)
        assert dict(engine.enumerate()) == evaluate(q, db).to_dict()

    def test_insert_delete_helpers(self):
        db = Database()
        db.create("R", ("Y", "X"))
        db.create("S", ("Y", "Z"))
        engine = IVMEngine(parse_query("Q(Y,X,Z) = R(Y,X) * S(Y,Z)"), db)
        engine.insert("R", 1, 2)
        engine.insert("S", 1, 3)
        assert dict(engine.enumerate()) == {(1, 2, 3): 1}
        engine.delete("R", 1, 2)
        assert dict(engine.enumerate()) == {}

    def test_explicit_plan_override(self):
        from repro.core import Plan

        db = Database()
        db.create("R", ("Y", "X"))
        db.create("S", ("Y", "Z"))
        q = parse_query("Q(Y,X,Z) = R(Y,X) * S(Y,Z)")
        plan = Plan("delta", "forced", "O(N)", "O(1)", "O(N)")
        engine = IVMEngine(q, db, plan=plan)
        assert engine.plan.strategy == "delta"
        engine.insert("R", 1, 2)
        engine.insert("S", 1, 3)
        assert dict(engine.enumerate()) == {(1, 2, 3): 1}


class TestGeneratedFlag:
    """``generated`` reaches every view-tree-backed backend: the facade
    reports what runs, and the oracle builds no kernel."""

    CASES = {
        "viewtree": ("Q(Y,X,Z) = R(Y,X) * S(Y,Z)", {}),
        "viewtree-hierarchical": ("Q(A) = R(A,B) * S(B)", {}),
        "sharded-viewtree": (
            "Q(B,A) = R(B,A) * S(B)",
            {"shards": 2, "shard_executor": "serial"},
        ),
        "fd-viewtree": (
            "Q(Z, Y, X, W) = R(X, W) * S(X, Y) * T(Y, Z)",
            {"fds": parse_fds("X -> Y", "Y -> Z")},
        ),
        "static-dynamic": ("Q(A,B,C) = R(A,D) * S(A,B) * T@s(B,C)", {}),
        "cqap": ("Q(A | B) = R(A,B) * S(B)", {}),
    }

    @pytest.mark.parametrize("generated", [True, False], ids=["kernels", "oracle"])
    @pytest.mark.parametrize("strategy", sorted(CASES))
    def test_flag_reaches_the_backend_and_matches_naive(
        self, strategy, generated, rng
    ):
        text, kwargs = self.CASES[strategy]
        query = parse_query(text)
        if strategy == "fd-viewtree":
            # Inserts into R keep X -> Y and Y -> Z satisfied.
            db = fd_satisfying_db(rng)
            stream = [
                Update("R", (rng.randrange(12), rng.randrange(20)), 1)
                for _ in range(120)
            ]
        else:
            db = Database()
            dynamic = {}
            for atom in query.atoms:
                relation = db.create(atom.relation, atom.variables)
                if atom in query.static_atoms:
                    for _ in range(40):
                        relation.insert(*(rng.randrange(6) for _ in atom.variables))
                else:
                    dynamic[atom.relation] = len(atom.variables)
            stream = valid_stream(rng, dynamic, 160, domain=6)

        engine = IVMEngine(query, db, generated=generated, **kwargs)
        assert engine.plan.strategy == strategy
        assert engine.generated is generated
        # One engine runs every view-tree-family plan: no wrapper.
        assert type(engine.backend) is (
            ShardedEngine if strategy == "sharded-viewtree" else ViewTreeEngine
        )
        assert engine.supports_snapshots
        assert engine.supports_changes is (strategy != "cqap")
        stats = engine.attach_stats()
        for update in stream[:80]:
            engine.apply(update)
        engine.apply_batch(stream[80:])
        if strategy == "sharded-viewtree":
            stats = engine.backend.merged_stats()
        kernels = stats.to_dict()["codegen"]["kernels_generated"]
        assert (kernels > 0) is generated

        if strategy == "cqap":
            joined = evaluate(parse_query("Q(A, B) = R(A,B) * S(B)"), db)
            for b in range(6):
                expected = {
                    (a,): payload
                    for (a, bound), payload in joined.to_dict().items()
                    if bound == b
                }
                assert dict(engine.answer({"B": b})) == expected
        else:
            assert dict(engine.enumerate()) == evaluate(query, db).to_dict()
        engine.close()
