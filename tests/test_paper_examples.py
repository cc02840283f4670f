"""Every worked example of the paper as an executable check.

One test (or class) per figure/example: Fig. 2's tables, Example 3.2's
view, Section 3.3's skew-aware deltas, Section 3.4's OuMv table,
Example 4.4's view tree, Example 4.5's rewriting, Example 4.6's CQAPs,
Examples 4.10/4.12's FDs, Example 4.13's PK-FK amortization,
Example 4.14's static/dynamic trio, and Example 5.1's trade-off.
"""

import pytest

from repro.cascade import CascadeEngine
from repro.constraints import (
    FunctionalDependency,
    StarJoinCounter,
    parse_fds,
    q_hierarchical_under_fds,
    sigma_reduct,
)
from repro.cqap import is_tractable_cqap
from repro.data import Database, Relation, Update
from repro.delta import DeltaQueryEngine
from repro.ivme import TriangleCounter
from repro.lowerbounds import paper_example_instance, solve_oumv_via_ivm
from repro.naive import evaluate, evaluate_scalar
from repro.query import (
    canonical_order,
    is_hierarchical,
    is_q_hierarchical,
    parse_query,
    rewrite_using,
)
from repro.staticdyn import is_static_dynamic_tractable
from repro.viewtree import ViewTreeEngine
from tests.conftest import fig2_database

TRIANGLE = parse_query("Q() = R(A,B) * S(B,C) * T(C,A)")


class TestFig2Example31:
    """Fig. 2 / Example 3.1: the triangle database under dR."""

    def test_initial_join_output_has_three_tuples(self):
        db = fig2_database()
        join = parse_query("J(A,B,C) = R(A,B) * S(B,C) * T(C,A)")
        out = evaluate(join, db)
        assert len(out) == 3

    def test_join_multiplicity_is_product(self):
        # "the multiplicity of (a2, b1, c2) ... is the product of the
        # multiplicities of R(a2,b1), S(b1,c2), and T(c2,a2)".
        db = fig2_database()
        join = parse_query("J(A,B,C) = R(A,B) * S(B,C) * T(C,A)")
        out = evaluate(join, db)
        expected = (
            db["R"].get(("a2", "b1"))
            * db["S"].get(("b1", "c2"))
            * db["T"].get(("c2", "a2"))
        )
        assert out.get(("a2", "b1", "c2")) == expected == 6

    def test_delete_updates_r_to_one(self):
        # "(a2, b1) is now mapped to 3 - 2 = 1".
        db = fig2_database()
        engine = DeltaQueryEngine(TRIANGLE, db)
        engine.apply(Update("R", ("a2", "b1"), -2))
        assert db["R"].get(("a2", "b1")) == 1

    def test_only_one_join_tuple_changes(self):
        db = fig2_database()
        join = parse_query("J(A,B,C) = R(A,B) * S(B,C) * T(C,A)")
        before = evaluate(join, db).to_dict()
        db["R"].add(("a2", "b1"), -2)
        after = evaluate(join, db).to_dict()
        changed = {k for k in before if before[k] != after.get(k, 0)}
        assert changed == {("a2", "b1", "c2")}

    def test_delta_equals_single_lookup_formula(self):
        # dQ = dR(a2,b1) * SUM_C S(b1,C) * T(C,a2)
        db = fig2_database()
        inner = sum(
            db["S"].get(("b1", c)) * db["T"].get((c, "a2"))
            for c in ("c1", "c2")
        )
        assert -2 * inner == -4
        engine = DeltaQueryEngine(TRIANGLE, db)
        engine.apply(Update("R", ("a2", "b1"), -2))
        assert engine.scalar() == 9 - 4


class TestExample32MaterializedView:
    """Example 3.2: V_ST(B, A) = SUM_C S(B,C) * T(C,A)."""

    def test_view_contents(self):
        db = fig2_database()
        v_st = evaluate(parse_query("V(B, A) = S(B, C) * T(C, A)"), db)
        # dQ for dR(a2,b1) is one lookup into V_ST.
        assert v_st.get(("b1", "a2")) == 2
        assert -2 * v_st.get(("b1", "a2")) == -4

    def test_view_speeds_up_delta_r_but_not_delta_s(self):
        # The view answers dR in one lookup; dS must touch O(N) entries.
        db = fig2_database()
        v_st = evaluate(parse_query("V(B, A) = S(B, C) * T(C, A)"), db)
        # dS(b1, c2) -> delta view touches every A paired with c2 in T.
        affected = [key for key in db["T"].group(("C",), ("c2",))]
        assert len(affected) == 2  # (c2,a2) and (c2,a1)


class TestSection34OuMv:
    def test_paper_example_table(self):
        # The 3x3 worked example: u^T M v = 1, witnessed by
        # R(a,2), S(2,1), T(1,a).
        instance, expected = paper_example_instance()
        assert instance.solve_naive() == [expected]
        assert solve_oumv_via_ivm(instance) == [expected]

    def test_reduction_database_size(self):
        # The reduction constructs a database of size N = O(n^2).
        instance, _ = paper_example_instance()
        engine = TriangleCounter()
        answers = solve_oumv_via_ivm(instance, lambda: engine)
        assert answers == [True]
        assert engine.size() <= 4 * instance.n + instance.n**2


class TestExample44ViewTree:
    """Example 4.4 / Fig. 3: maintenance of Q(Y,X,Z) = R(Y,X) * S(Y,Z)."""

    QUERY = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")

    def make_db(self):
        db = Database()
        r = db.create("R", ("Y", "X"))
        s = db.create("S", ("Y", "Z"))
        for y in range(4):
            for x in range(3):
                r.insert(y, 10 + x)
            for z in range(2):
                s.insert(y, 20 + z)
        return db

    def test_view_tree_matches_fig3(self):
        engine = ViewTreeEngine(self.QUERY, self.make_db())
        root = engine.roots[0]
        assert root.variable == "Y"
        children = sorted(c.variable for c in root.children)
        assert children == ["X", "Z"]
        # V_R(Y) and V_S(Y) have schema (Y,), V_RS is over ().
        for child in root.children:
            assert child.view.schema.variables == ("Y",)

    def test_update_propagates_via_projection(self):
        # "dV_R projects away x from dR and dV_RS requires one lookup".
        db = self.make_db()
        engine = ViewTreeEngine(self.QUERY, db)
        x_node = next(c for c in engine.roots[0].children if c.variable == "X")
        before = x_node.view.get((0,))
        engine.apply(Update("R", (0, 99), 1))
        assert x_node.view.get((0,)) == before + 1

    def test_factorized_enumeration_matches_naive(self):
        db = self.make_db()
        engine = ViewTreeEngine(self.QUERY, db)
        assert engine.output_relation() == evaluate(self.QUERY, db)

    def test_payload_is_product_of_r_and_s(self):
        # "The payload of an output tuple (y,x,z) is the product of the
        # payloads of R(y,x) and S(y,z)."
        db = self.make_db()
        db["R"].add((0, 10), 2)  # multiplicity 3 now
        engine = ViewTreeEngine(self.QUERY, db)
        out = dict(engine.enumerate())
        assert out[(0, 10, 20)] == db["R"].get((0, 10)) * db["S"].get((0, 20))


class TestExample45Cascade:
    Q1 = parse_query("Q1(A,B,C,D) = R(A,B) * S(B,C) * T(C,D)")
    Q2 = parse_query("Q2(A,B,C) = R(A,B) * S(B,C)")

    def test_rewriting_exists_and_is_q_hierarchical(self):
        rewriting = rewrite_using(self.Q1, self.Q2)
        assert rewriting is not None
        assert is_q_hierarchical(rewriting)
        assert not is_q_hierarchical(self.Q1)
        assert is_q_hierarchical(self.Q2)

    def test_rewriting_structure(self):
        rewriting = rewrite_using(self.Q1, self.Q2)
        relations = [a.relation for a in rewriting.atoms]
        assert relations == ["Q2", "T"]


class TestExample46CQAP:
    def test_triangle_detection_tractable(self):
        q = parse_query("Q(. | A, B, C) = E(A,B) * E(B,C) * E(C,A)")
        assert is_tractable_cqap(q)

    def test_edge_triangle_listing_not_tractable(self):
        q = parse_query("Q(C | A, B) = E(A,B) * E(B,C) * E(C,A)")
        assert not is_tractable_cqap(q)

    def test_lookup_join_tractable(self):
        q = parse_query("Q(A | B) = S(A,B) * T(B)")
        assert is_tractable_cqap(q)


class TestExample410RetailerFDs:
    def test_fd_makes_query_hierarchical(self):
        from repro.workloads import retailer_fd_query

        q, fds = retailer_fd_query()
        assert not is_hierarchical(q)
        assert is_hierarchical(sigma_reduct(q, fds))
        assert q_hierarchical_under_fds(q, fds)


class TestExample412FDViewTree:
    QUERY = parse_query("Q(Z, Y, X, W) = R(X, W) * S(X, Y) * T(Y, Z)")
    FDS = parse_fds("X -> Y", "Y -> Z")

    def test_not_hierarchical_without_fds(self):
        assert not is_hierarchical(self.QUERY)

    def test_reduct_is_q_hierarchical(self):
        reduct = sigma_reduct(self.QUERY, self.FDS)
        assert is_q_hierarchical(reduct)
        # R'(X, Y, Z, W): the closure extends R with Y and Z.
        r_atom = reduct.atom_for_relation("R")
        assert set(r_atom.variables) == {"X", "W", "Y", "Z"}

    def test_closure_example(self):
        # C_Sigma({A,B}) = {A,B,C,D} for A->C, BC->D (Section 4.4's text).
        from repro.constraints import closure

        fds = (
            FunctionalDependency(("A",), "C"),
            FunctionalDependency(("B", "C"), "D"),
        )
        assert closure({"A", "B"}, fds) == {"A", "B", "C", "D"}


class TestExample413PKFK:
    def test_amortized_insert_account(self):
        """n facts referencing a missing company each cost O(1); the one
        company insert that resolves them costs O(n)."""
        from repro.constraints import Dimension
        from repro.data import counting

        counter = StarJoinCounter(
            "M", ("movie", "company"), [Dimension("C", "company")]
        )
        for movie in range(50):
            counter.apply(Update("M", (movie, 7), 1))
        assert not counter.is_consistent()
        assert counter.count == 0
        with counting() as ops:
            counter.apply(Update("C", (7, "acme"), 1))
        expensive = ops.total()
        assert counter.count == 50
        assert counter.is_consistent()
        with counting() as ops:
            counter.apply(Update("M", (99, 7), 1))
        cheap = ops.total()
        assert expensive > 10 * cheap  # O(n) vs O(1)


class TestExample414StaticDynamic:
    def test_first_query(self):
        q = parse_query("Q(A,B,C) = R(A,D) * S(A,B) * T@s(B,C)")
        assert not is_q_hierarchical(
            parse_query("Q(A,B,C) = R(A,D) * S(A,B) * T(B,C)")
        )
        assert is_static_dynamic_tractable(q)

    def test_second_query(self):
        q = parse_query("Q(A,C,D) = R(A,D) * S@s(A,B) * T@s(B,C) * U(D)")
        assert is_static_dynamic_tractable(q)

    def test_third_query_beyond_view_trees(self):
        # Needs exponential preprocessing; out of scope for view trees.
        q = parse_query("Q(A,B) = R(A) * S@s(A,B) * T(B)")
        assert not is_static_dynamic_tractable(q)

    def test_all_dynamic_variant_intractable(self):
        q = parse_query("Q(A,B,C) = R(A,D) * S(A,B) * T(B,C)")
        assert not is_static_dynamic_tractable(q)


class TestExample51Tradeoff:
    QUERY = parse_query("Q(A) = R(A, B) * S(B)")

    def test_simplest_non_q_hierarchical(self):
        assert is_hierarchical(self.QUERY)
        assert not is_q_hierarchical(self.QUERY)

    def test_extremes_and_midpoint_agree_on_output(self, rng):
        from repro.ivme import TradeoffEngine

        db = Database()
        r = db.create("R", ("A", "B"))
        s = db.create("S", ("B",))
        updates = []
        for _ in range(300):
            if rng.random() < 0.7:
                updates.append(Update("R", (rng.randrange(20), rng.randrange(10)), 1))
            else:
                updates.append(Update("S", (rng.randrange(10),), rng.choice([1, -1])))
        results = []
        for eps in (0.0, 0.5, 1.0):
            engine = TradeoffEngine(epsilon=eps)
            for update in updates:
                engine.apply(update)
            results.append(engine.result().to_dict())
        assert results[0] == results[1] == results[2]
        for update in updates:
            db[update.relation].add(update.key, update.payload)
        assert results[0] == evaluate(self.QUERY, db).to_dict()
