"""Enumeration-delay profiles, measured between consecutive yields.

The paper's delay definition (Section 1) is a *maximum* over three gaps:
start-to-first, between consecutive tuples, and last-to-end.  These tests
instrument the generators with the operation counter and assert the
maximum gap — not just the average — stays flat as the database grows.
"""

import random

from repro.data import COUNTER, Database, Update
from repro.query import parse_query
from repro.viewtree import ViewTreeEngine


def delay_profile(iterator):
    """Ops consumed before the first yield, between yields, and after
    the last yield, using the global counter."""
    gaps = []
    COUNTER.reset()
    COUNTER.enabled = True
    try:
        last = 0
        for _ in iterator:
            now = COUNTER.total()
            gaps.append(now - last)
            last = now
        gaps.append(COUNTER.total() - last)  # the closing gap
    finally:
        COUNTER.enabled = False
    return gaps


def build_engine(n, seed=0):
    rng = random.Random(seed)
    db = Database()
    r = db.create("R", ("Y", "X"))
    s = db.create("S", ("Y", "Z"))
    for _ in range(n):
        r.insert(rng.randrange(max(2, n // 8)), rng.randrange(n))
        s.insert(rng.randrange(max(2, n // 8)), rng.randrange(n))
    return ViewTreeEngine(parse_query("Q(Y,X,Z) = R(Y,X) * S(Y,Z)"), db)


def build_star(n, seed=0):
    """Three siblings under Y: the walk replays Z·W per X and W per Z."""
    rng = random.Random(seed)
    db = Database()
    for name, child in (("R", "X"), ("S", "Z"), ("T", "W")):
        relation = db.create(name, ("Y", child))
        for _ in range(n):
            relation.insert(rng.randrange(max(2, n // 6)), rng.randrange(n))
    query = parse_query("Q(Y,X,Z,W) = R(Y,X) * S(Y,Z) * T(Y,W)")
    return ViewTreeEngine(query, db)


class TestConstantDelay:
    def test_max_gap_flat_for_q_hierarchical(self):
        maxima = []
        for n in (200, 800, 3200):
            engine = build_engine(n)
            gaps = delay_profile(engine.enumerate())
            assert len(gaps) > 10  # enumeration actually produced tuples
            maxima.append(max(gaps))
        assert maxima[-1] <= maxima[0] * 2 + 5

    def test_first_tuple_gap_constant(self):
        firsts = []
        for n in (200, 3200):
            engine = build_engine(n)
            gaps = delay_profile(engine.enumerate())
            firsts.append(gaps[0])
        assert firsts[-1] <= firsts[0] * 2 + 5

    def test_gap_profile_has_no_outliers(self):
        engine = build_engine(1000)
        gaps = delay_profile(engine.enumerate())
        inner = gaps[1:-1]
        assert inner
        assert max(inner) <= 12  # every step is a handful of lookups

    def test_prebound_enumeration_also_constant(self):
        engine = build_engine(1000, seed=3)
        some_y = next(iter(engine.enumerate()))[0][0]
        gaps = delay_profile(engine.enumerate(prebound={"Y": some_y}))
        assert max(gaps) <= 15


class TestReplayedSiblingsKeepConstantDelay:
    """Rows are filled while the first pass yields, never prefetched."""

    def test_max_gap_flat_for_a_three_sibling_star(self):
        maxima = []
        for n in (200, 800, 3200):
            engine = build_star(n)
            assert engine.describe().splitlines()[-2].endswith(
                "(Z replayed per X, W replayed per Z)"
            )
            gaps = delay_profile(engine.enumerate())
            assert len(gaps) > 10
            maxima.append(max(gaps))
        assert maxima[-1] <= maxima[0] * 2 + 5

    def test_first_tuple_gap_constant_for_a_three_sibling_star(self):
        firsts = []
        for n in (200, 3200):
            engine = build_star(n)
            gaps = delay_profile(engine.enumerate())
            firsts.append(gaps[0])
        assert firsts[-1] <= firsts[0] * 2 + 5


class TestDelayAfterUpdates:
    def test_delay_unchanged_by_update_history(self):
        """A long update history must not degrade enumeration (views stay
        calibrated; no tombstones accumulate)."""
        engine = build_engine(500, seed=5)
        rng = random.Random(6)
        inserted = []
        for _ in range(2000):
            if inserted and rng.random() < 0.5:
                relation, key = inserted.pop(rng.randrange(len(inserted)))
                engine.apply(Update(relation, key, -1))
            else:
                relation = rng.choice(["R", "S"])
                key = (rng.randrange(60), rng.randrange(500))
                engine.apply(Update(relation, key, 1))
                inserted.append((relation, key))
        gaps = delay_profile(engine.enumerate())
        assert max(gaps) <= 15
