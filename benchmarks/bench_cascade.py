"""Section 4.2: cascading q-hierarchical queries.

Example 4.5 / Fig. 5: the path query Q1 is not q-hierarchical, but its
rewriting over the q-hierarchical Q2 is.  The experiments cited by the
paper show the cascading Q1' achieving higher throughput than standalone
Q1, provided both outputs are enumerated with Q2 first.

The bench replays one update+enumeration workload through (a) the
cascade engine, (b) standalone first-order delta engines for Q1 and Q2,
and (c) a ``MultiQueryEngine`` whose two riders, Q1 and Q4, share one
Q2 tree; it reports throughput and the elementary operations
(``repro.data.counting``) per update and per enumerated tuple.
"""

from __future__ import annotations

import random
from contextlib import nullcontext

from repro.bench import Table, time_call
from repro.cascade import CascadeEngine, MultiQueryEngine
from repro.data import Database, OpCounter, Update, counting
from repro.delta import DeltaQueryEngine
from repro.query import parse_query

from _util import report

Q1 = parse_query("Q1(A,B,C,D) = R(A,B) * S(B,C) * T(C,D)")
Q2 = parse_query("Q2(A,B,C) = R(A,B) * S(B,C)")
#: A second rider over Q2, reading T the other way round.
Q4 = parse_query("Q4(A,B,C,D) = R(A,B) * S(B,C) * T(D,C)")
UPDATES = 1500
ENUM_EVERY = 250
#: The cascade's counts on this stream when every rider kept a private
#: Q2 tree over private relation copies; sharing must not raise them.
OPS_PER_UPDATE_BOUND = 5.784
OPS_PER_TUPLE_BOUND = 2.939
_NO_OPS = OpCounter()


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


def _cascade():
    engine = CascadeEngine(Q1, Q2, _fresh_db())
    return engine.apply, (engine.enumerate_q2, engine.enumerate_q1)


def _standalone():
    q1_engine = DeltaQueryEngine(Q1, _fresh_db())
    q2_engine = DeltaQueryEngine(Q2, _fresh_db())

    def apply(update):
        q1_engine.apply(update)
        if update.relation in ("R", "S"):
            q2_engine.apply(update)

    return apply, (q2_engine.enumerate, q1_engine.enumerate)


def _two_riders():
    engine = MultiQueryEngine([Q1, Q2, Q4], _fresh_db())
    assert engine.plan_report().splitlines() == [
        "Q1: cascades over Q2", "Q2: cascade-host", "Q4: cascades over Q2"
    ]
    reads = tuple(
        (lambda name=name: engine.enumerate(name)) for name in ("Q2", "Q1", "Q4")
    )
    return engine.apply, reads


def _replay(make, stream, count=False):
    """Replay ``stream`` through ``make()``'s ``(apply, reads)``, running
    every read each ``ENUM_EVERY`` updates.  Returns the tuples read and,
    with ``count``, the ops spent on updates and on reads."""
    apply, reads = make()
    tuples = update_ops = read_ops = 0
    for i, update in enumerate(stream):
        with counting() if count else nullcontext(_NO_OPS) as ops:
            apply(update)
        update_ops += ops.total()
        if i % ENUM_EVERY == ENUM_EVERY - 1:
            with counting() if count else nullcontext(_NO_OPS) as ops:
                for read in reads:
                    tuples += sum(1 for _ in read())
            read_ops += ops.total()
    return tuples, update_ops, read_ops


def bench_cascade_table(benchmark):
    benchmark.pedantic(_cascade_table, rounds=1, iterations=1)


def _cascade_table():
    stream = _stream()
    table = Table(
        "Section 4.2 -- cascading Q1' vs standalone Q1 (+ standalone Q2)",
        [
            "approach",
            "updates/s",
            "tuples enumerated",
            "ops/update",
            "ops/enumerated tuple",
        ],
    )
    rows = {}
    for label, make in (
        ("cascade (Fig. 5 view tree)", _cascade),
        ("standalone delta engines", _standalone),
        ("two riders over one host (MultiQueryEngine)", _two_riders),
    ):
        seconds, tuples = time_call(lambda: _replay(make, stream)[0])
        counted, update_ops, read_ops = _replay(make, stream, count=True)
        assert counted == tuples
        rows[label] = row = (
            UPDATES / seconds, tuples, update_ops / UPDATES, read_ops / tuples
        )
        table.add(label, *row)
    report(table, "cascade.txt")

    cascade = rows["cascade (Fig. 5 view tree)"]
    standalone = rows["standalone delta engines"]
    assert cascade[1] == standalone[1]  # same outputs enumerated
    # Paper shape: the cascade achieves higher throughput.
    assert cascade[0] > standalone[0]
    # One shared database costs no operation the private copies did not.
    assert cascade[2] <= OPS_PER_UPDATE_BOUND
    assert cascade[3] <= OPS_PER_TUPLE_BOUND


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
