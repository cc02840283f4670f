"""Provenance polynomials (the K-relations backdrop of Section 2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.data import Database
from repro.insertonly import InsertOnlyEngine
from repro.naive import evaluate
from repro.query import parse_query
from repro.rings import PROVENANCE, Polynomial


class TestPolynomial:
    def test_variable_and_str(self):
        p = Polynomial.variable("r1")
        assert str(p) == "r1"

    def test_constants(self):
        assert str(Polynomial.constant(0)) == "0"
        assert str(Polynomial.constant(3)) == "3*1"
        with pytest.raises(ValueError):
            Polynomial.constant(-1)

    def test_addition_merges_monomials(self):
        r = Polynomial.variable("r")
        two_r = PROVENANCE.add(r, r)
        assert two_r.coefficient({"r": 1}) == 2

    def test_multiplication_builds_monomials(self):
        r = Polynomial.variable("r")
        s = Polynomial.variable("s")
        rs = PROVENANCE.mul(r, s)
        assert rs.coefficient({"r": 1, "s": 1}) == 1
        assert str(rs) == "r*s"

    def test_squares(self):
        r = Polynomial.variable("r")
        r2 = PROVENANCE.mul(r, r)
        assert str(r2) == "r^2"
        assert r2.degree() == 2

    def test_distribution(self):
        r, s, t = (Polynomial.variable(x) for x in "rst")
        left = PROVENANCE.mul(r, PROVENANCE.add(s, t))
        right = PROVENANCE.add(PROVENANCE.mul(r, s), PROVENANCE.mul(r, t))
        assert left == right

    def test_evaluate_recovers_counts(self):
        r, s = Polynomial.variable("r"), Polynomial.variable("s")
        poly = PROVENANCE.add(PROVENANCE.mul(r, s), PROVENANCE.mul(r, r))
        # r has multiplicity 2, s multiplicity 3: rs + r^2 = 6 + 4.
        assert poly.evaluate({"r": 2, "s": 3}) == 10

    def test_evaluate_hypothetical_deletion(self):
        r, s = Polynomial.variable("r"), Polynomial.variable("s")
        poly = PROVENANCE.mul(r, s)
        assert poly.evaluate({"r": 1, "s": 1}) == 1
        assert poly.evaluate({"r": 1, "s": 0}) == 0  # deleting s kills it

    def test_variables(self):
        r, s = Polynomial.variable("r"), Polynomial.variable("s")
        assert PROVENANCE.mul(r, s).variables() == {"r", "s"}

    @given(st.lists(st.sampled_from("abc"), min_size=1, max_size=4))
    @settings(max_examples=40)
    def test_product_degree_is_length(self, names):
        poly = PROVENANCE.one
        for name in names:
            poly = PROVENANCE.mul(poly, Polynomial.variable(name))
        assert poly.degree() == len(names)


class TestProvenanceQueries:
    def test_join_lineage(self):
        db = Database(ring=PROVENANCE)
        r = db.create("R", ("A", "B"))
        s = db.create("S", ("B", "C"))
        r.add((1, 2), Polynomial.variable("r1"))
        r.add((3, 2), Polynomial.variable("r2"))
        s.add((2, 4), Polynomial.variable("s1"))
        q = parse_query("Q(A, C) = R(A,B) * S(B,C)")
        out = evaluate(q, db)
        assert str(out.get((1, 4))) == "r1*s1"
        assert str(out.get((3, 4))) == "r2*s1"

    def test_projection_unions_derivations(self):
        db = Database(ring=PROVENANCE)
        r = db.create("R", ("A", "B"))
        r.add((1, 10), Polynomial.variable("x"))
        r.add((1, 20), Polynomial.variable("y"))
        q = parse_query("Q(A) = R(A, B)")
        out = evaluate(q, db)
        poly = out.get((1,))
        assert poly.coefficient({"x": 1}) == 1
        assert poly.coefficient({"y": 1}) == 1

    def test_why_provenance_of_triangle(self):
        db = Database(ring=PROVENANCE)
        names = {}
        for rel, keys in (
            ("R", [(1, 2)]),
            ("S", [(2, 3)]),
            ("T", [(3, 1)]),
        ):
            relation = db.create(rel, ("X", "Y"))
            for key in keys:
                identifier = f"{rel}{key}"
                relation.add(key, Polynomial.variable(identifier))
                names[rel] = identifier
        q = parse_query("Q() = R(A,B) * S(B,C) * T(C,A)")
        out = evaluate(q, db)
        poly = out.get(())
        assert poly.degree() == 3
        assert poly.variables() == set(names.values())

    def test_insert_only_semiring_compatibility(self):
        # The insert-only engine is payload-agnostic (set semantics);
        # provenance-aware evaluation handles lineage on the side.
        q = parse_query("Q(A,B,C) = R(A,B) * S(B,C)")
        engine = InsertOnlyEngine(q)
        engine.insert("R", (1, 2))
        engine.insert("S", (2, 3))
        assert list(engine.enumerate()) == [((1, 2, 3), 1)]
