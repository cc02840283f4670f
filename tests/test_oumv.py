"""OuMv and the Theorem 3.4 reduction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.data import Update
from repro.delta import DeltaQueryEngine
from repro.lowerbounds import (
    OuMvInstance,
    paper_example_instance,
    solve_oumv_via_ivm,
)
from repro.naive import evaluate_scalar


class TestOuMvInstance:
    def test_random_shape(self):
        instance = OuMvInstance.random(8, seed=1)
        assert instance.n == 8
        assert len(instance.matrix) == 8
        assert len(instance.pairs) == 8

    def test_rounds_override(self):
        instance = OuMvInstance.random(6, seed=1, rounds=2)
        assert len(instance.pairs) == 2

    def test_naive_solver_simple(self):
        matrix = [[True]]
        assert OuMvInstance(1, matrix, [([True], [True])]).solve_naive() == [True]
        assert OuMvInstance(1, matrix, [([False], [True])]).solve_naive() == [False]

    def test_all_zero_matrix(self):
        instance = OuMvInstance.random(5, density=0.0, seed=0)
        assert instance.solve_naive() == [False] * 5


class TestReduction:
    def test_paper_example(self):
        instance, expected = paper_example_instance()
        assert solve_oumv_via_ivm(instance) == [expected]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_random(self, seed):
        instance = OuMvInstance.random(12, density=0.15, seed=seed, rounds=6)
        assert solve_oumv_via_ivm(instance) == instance.solve_naive()

    def test_dense_instance(self):
        instance = OuMvInstance.random(10, density=0.6, seed=3, rounds=5)
        assert solve_oumv_via_ivm(instance) == instance.solve_naive()

    @given(st.integers(0, 10_000), st.floats(0.05, 0.5))
    @settings(max_examples=15, deadline=None)
    def test_property_agreement(self, seed, density):
        instance = OuMvInstance.random(7, density=density, seed=seed, rounds=4)
        assert solve_oumv_via_ivm(instance) == instance.solve_naive()

    def test_reduction_with_alternate_engine(self):
        """The reduction is engine-agnostic: a first-order delta engine
        maintaining the Boolean triangle query works too (just slower)."""
        from repro.data import Database
        from repro.query import parse_query

        class DeltaTriangle:
            def __init__(self):
                db = Database()
                for name in ("R", "S", "T"):
                    db.create(name, ("X", "Y"))
                self.engine = DeltaQueryEngine(
                    parse_query("Q() = R(A,B) * S(B,C) * T(C,A)"), db
                )

            def apply(self, update):
                self.engine.apply(update)

            def detect(self):
                return self.engine.scalar() > 0

        instance = OuMvInstance.random(8, density=0.2, seed=9, rounds=4)
        assert (
            solve_oumv_via_ivm(instance, DeltaTriangle)
            == instance.solve_naive()
        )
