"""Section 4.2: cascading q-hierarchical queries.

Example 4.5 / Fig. 5: the path query Q1 is not q-hierarchical, but its
rewriting over the q-hierarchical Q2 is.  The experiments cited by the
paper show the cascading Q1' achieving higher throughput than standalone
Q1, provided both outputs are enumerated with Q2 first.

The bench replays one update+enumeration workload through (a) the
cascade engine and (b) a standalone first-order delta engine for Q1, and
reports throughput.
"""

from __future__ import annotations

import random

from repro.bench import Table, time_call
from repro.cascade import CascadeEngine
from repro.data import Database, Update
from repro.delta import DeltaQueryEngine
from repro.query import parse_query

from _util import report

Q1 = parse_query("Q1(A,B,C,D) = R(A,B) * S(B,C) * T(C,D)")
Q2 = parse_query("Q2(A,B,C) = R(A,B) * S(B,C)")
UPDATES = 1500
ENUM_EVERY = 250


def _stream(seed=0, domain=40):
    rng = random.Random(seed)
    return [
        Update(
            rng.choice(["R", "S", "T"]),
            (rng.randrange(domain), rng.randrange(domain)),
            1,
        )
        for _ in range(UPDATES)
    ]


def _fresh_db():
    db = Database()
    for name in ("R", "S", "T"):
        db.create(name, ("X", "Y"))
    return db


def bench_cascade_table(benchmark):
    benchmark.pedantic(_cascade_table, rounds=1, iterations=1)


def _cascade_table():
    stream = _stream()

    def run_cascade():
        engine = CascadeEngine(Q1, Q2, _fresh_db())
        tuples = 0
        for i, update in enumerate(stream):
            engine.apply(update)
            if i % ENUM_EVERY == ENUM_EVERY - 1:
                tuples += sum(1 for _ in engine.enumerate_q2())
                tuples += sum(1 for _ in engine.enumerate_q1())
        return tuples

    def run_standalone():
        db = _fresh_db()
        q1_engine = DeltaQueryEngine(Q1, db)
        db2 = _fresh_db()
        q2_engine = DeltaQueryEngine(Q2, db2)
        tuples = 0
        for i, update in enumerate(stream):
            q1_engine.apply(update)
            if update.relation in ("R", "S"):
                q2_engine.apply(update)
            if i % ENUM_EVERY == ENUM_EVERY - 1:
                tuples += sum(1 for _ in q2_engine.enumerate())
                tuples += sum(1 for _ in q1_engine.enumerate())
        return tuples

    cascade_seconds, cascade_tuples = time_call(run_cascade)
    standalone_seconds, standalone_tuples = time_call(run_standalone)
    assert cascade_tuples == standalone_tuples  # same outputs enumerated

    table = Table(
        "Section 4.2 -- cascading Q1' vs standalone Q1 (+ standalone Q2)",
        ["approach", "updates/s", "tuples enumerated"],
    )
    table.add("cascade (Fig. 5 view tree)", UPDATES / cascade_seconds, cascade_tuples)
    table.add("standalone delta engines", UPDATES / standalone_seconds, standalone_tuples)
    report(table, "cascade.txt")

    # Paper shape: the cascade achieves higher throughput.
    assert UPDATES / cascade_seconds > UPDATES / standalone_seconds


def bench_cascade_update(benchmark):
    engine = CascadeEngine(Q1, Q2, _fresh_db())
    rng = random.Random(3)

    def one_update():
        engine.apply(
            Update(
                rng.choice(["R", "S", "T"]),
                (rng.randrange(40), rng.randrange(40)),
                1,
            )
        )

    benchmark(one_update)
