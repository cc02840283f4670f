"""Integrity constraints: FDs (closure, reducts, the rewrite) and PK-FK."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import IVMEngine
from repro.constraints import (
    Dimension,
    FunctionalDependency,
    StarJoinCounter,
    closure,
    fd_guided_order,
    parse_fds,
    q_hierarchical_under_fds,
    sigma_reduct,
)
from repro.data import Update, counting, permuted
from repro.naive import evaluate
from repro.query import is_q_hierarchical, parse_query
from tests.conftest import fd_satisfying_db


class TestFDBasics:
    def test_parse(self):
        fd = FunctionalDependency.parse("A, B -> C")
        assert fd.determinant == ("A", "B") and fd.dependent == "C"
        assert str(fd) == "A, B -> C"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            FunctionalDependency.parse("A B C")
        with pytest.raises(ValueError):
            FunctionalDependency.parse("-> C")

    def test_closure_chain(self):
        fds = parse_fds("A -> B", "B -> C", "C -> D")
        assert closure({"A"}, fds) == {"A", "B", "C", "D"}
        assert closure({"B"}, fds) == {"B", "C", "D"}

    def test_closure_multi_attribute(self):
        fds = parse_fds("A -> C", "B, C -> D")
        assert closure({"A", "B"}, fds) == {"A", "B", "C", "D"}
        assert closure({"A"}, fds) == {"A", "C"}

    def test_closure_no_fds(self):
        assert closure({"A"}, ()) == {"A"}


class TestSigmaReduct:
    QUERY = parse_query("Q(Z, Y, X, W) = R(X, W) * S(X, Y) * T(Y, Z)")
    FDS = parse_fds("X -> Y", "Y -> Z")

    def test_atom_extension(self):
        reduct = sigma_reduct(self.QUERY, self.FDS)
        assert set(reduct.atom_for_relation("R").variables) == {"X", "W", "Y", "Z"}
        assert set(reduct.atom_for_relation("S").variables) == {"X", "Y", "Z"}
        assert set(reduct.atom_for_relation("T").variables) == {"Y", "Z"}

    def test_restricted_to_query_variables(self):
        fds = parse_fds("X -> Q9")  # Q9 not in the query
        reduct = sigma_reduct(self.QUERY, fds)
        assert "Q9" not in reduct.variables()

    def test_q_hierarchical_under_fds(self):
        assert q_hierarchical_under_fds(self.QUERY, self.FDS)
        assert not q_hierarchical_under_fds(self.QUERY, ())

    def test_head_extension(self):
        q = parse_query("Q(X) = R(X, W) * S(X, Y)")
        reduct = sigma_reduct(q, parse_fds("X -> Y"))
        assert set(reduct.head) == {"X", "Y"}


class TestFDEngine:
    QUERY = parse_query("Q(Z, Y, X, W) = R(X, W) * S(X, Y) * T(Y, Z)")
    FDS = parse_fds("X -> Y", "Y -> Z")

    def test_order_reanchors_original_atoms(self):
        order = fd_guided_order(self.QUERY, self.FDS)
        anchored = [a for n in order.walk() for a in n.atoms]
        assert len(anchored) == 3
        assert {a.relation for a in anchored} == {"R", "S", "T"}

    def test_rejects_without_applicable_fds(self):
        with pytest.raises(ValueError):
            fd_guided_order(self.QUERY, ())

    def test_initial_output_matches(self, rng):
        db = fd_satisfying_db(rng)
        engine = IVMEngine(self.QUERY, db, self.FDS)
        assert engine.plan.strategy == "fd-viewtree"
        assert engine.backend.output_relation() == evaluate(self.QUERY, db)

    def test_maintenance_matches(self, rng):
        db = fd_satisfying_db(rng)
        engine = IVMEngine(self.QUERY, db, self.FDS)
        for _ in range(150):
            engine.apply(
                Update("R", (rng.randrange(12), rng.randrange(20)), rng.choice([1, 1, -1]))
            )
        assert engine.backend.output_relation() == evaluate(self.QUERY, db)

    def test_constant_update_cost(self, rng):
        """Fig. 6's point: R-updates cost O(1) thanks to the FDs."""
        costs = []
        for x_domain in (50, 200):
            local_db = fd_satisfying_db(rng, x_domain=x_domain)
            engine = IVMEngine(self.QUERY, local_db, self.FDS)
            with counting() as ops:
                for _ in range(20):
                    engine.apply(
                        Update("R", (rng.randrange(x_domain), rng.randrange(20)), 1)
                    )
            costs.append(ops.total() / 20)
        assert costs[1] <= costs[0] * 2 + 10

    def test_enumeration_projects_extended_head(self, rng):
        db = fd_satisfying_db(rng)
        engine = IVMEngine(self.QUERY, db, self.FDS)
        for key, _payload in engine.enumerate():
            assert len(key) == 4  # original head (Z, Y, X, W)


class TestStarJoinCounter:
    def make_counter(self):
        return StarJoinCounter(
            "M",
            ("movie", "company", "note"),
            [Dimension("T", "movie"), Dimension("C", "company")],
        )

    def naive_count(self, facts, titles, companies):
        total = 0
        for (m, c, _note), payload in facts.items():
            total += payload * titles.get(m, 0) * companies.get(c, 0)
        return total

    def test_matches_naive_on_random_stream(self, rng):
        counter = self.make_counter()
        facts: dict[tuple, int] = {}
        titles: dict[int, int] = {}
        companies: dict[int, int] = {}
        for _ in range(400):
            roll = rng.random()
            if roll < 0.5:
                key = (rng.randrange(10), rng.randrange(8), rng.randrange(3))
                m = rng.choice([1, 1, -1])
                counter.apply(Update("M", key, m))
                facts[key] = facts.get(key, 0) + m
            elif roll < 0.75:
                movie = rng.randrange(10)
                m = rng.choice([1, -1])
                counter.apply(Update("T", (movie, "t"), m))
                titles[movie] = titles.get(movie, 0) + m
            else:
                company = rng.randrange(8)
                m = rng.choice([1, -1])
                counter.apply(Update("C", (company, "c"), m))
                companies[company] = companies.get(company, 0) + m
        assert counter.count == self.naive_count(facts, titles, companies)

    def test_order_invariance_of_valid_batches(self, rng):
        from repro.workloads import job_star_counter, valid_insert_batch

        batch = valid_insert_batch(6, 5, 40, seed=3, out_of_order=False)

        def run(updates):
            counter = job_star_counter()
            counter.apply_batch(updates)
            return counter.count, counter.is_consistent()

        base = run(batch)
        for seed in range(4):
            assert run(permuted(batch, seed)) == base
        assert base[1]  # consistent at the end

    def test_dangling_references_reported(self):
        counter = self.make_counter()
        counter.apply(Update("M", (1, 2, 0), 1))
        dangling = counter.dangling_references()
        assert dangling == {"T": {1}, "C": {2}}

    def test_dimension_key_validation(self):
        with pytest.raises(ValueError):
            StarJoinCounter("M", ("a",), [Dimension("D", "zzz")])

    def test_unknown_relation(self):
        with pytest.raises(KeyError):
            self.make_counter().apply(Update("X", (1,), 1))

    def test_delete_batch_restores_empty(self, rng):
        from repro.workloads import (
            job_star_counter,
            valid_delete_batch,
            valid_insert_batch,
        )

        counter = job_star_counter()
        counter.apply_batch(valid_insert_batch(5, 4, 30, seed=1))
        assert counter.count > 0
        counter.apply_batch(valid_delete_batch(counter, seed=2))
        assert counter.count == 0
        assert counter.is_consistent()
