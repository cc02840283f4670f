"""Batch propagation against recomputation (the paper's opening trade-off).

The engine has one batch path: coalesce, then push (or per tuple below
``batch_compile_threshold``).  Recomputing — a fresh tree over the
post-batch database — is the alternative a large batch is measured
against, here and in ``benchmarks/bench_ablation_batch_rebuild.py``.
"""

import random

from repro.data import Database, Update, counting
from repro.data.columnar import coalesce_columnar
from repro.naive import evaluate
from repro.query import parse_query
from repro.rings import Z
from repro.viewtree import ViewTreeEngine
from tests.conftest import assert_matches_rebuild, valid_stream

QUERY = parse_query("Q(Y, X, Z) = R(Y, X) * S(Y, Z)")


def fresh_engine(rng, rows=150, **kwargs):
    db = Database()
    r = db.create("R", ("Y", "X"))
    s = db.create("S", ("Y", "Z"))
    for _ in range(rows):
        r.insert(rng.randrange(12), rng.randrange(12))
        s.insert(rng.randrange(12), rng.randrange(12))
    return ViewTreeEngine(QUERY, db, **kwargs), db


class TestRebuild:
    def test_rebuild_preserves_state(self, rng):
        """A tree rebuilt over the maintained database holds what the
        maintained tree holds, after single updates and batches."""
        engine, db = fresh_engine(rng)
        stream = valid_stream(rng, {"R": 2, "S": 2}, 400, domain=12)
        for update in stream[:100]:
            engine.apply(update)
        engine.apply_batch(stream[100:])
        assert_matches_rebuild(engine)
        assert engine.output_relation() == evaluate(QUERY, db)


class TestBatchApplication:
    def test_equivalence_across_modes(self, rng):
        """Per-tuple kernels, batch kernels, the oracle and a rebuild
        over the post-batch database land on one output."""
        batch = valid_stream(rng, {"R": 2, "S": 2}, 200, domain=10)
        outputs = []
        for kwargs, threshold in (
            ({}, len(batch) + 1),
            ({}, 2),
            ({"generated": False}, 2),
        ):
            engine, db = fresh_engine(random.Random(1), **kwargs)
            engine.batch_compile_threshold = threshold
            engine.apply_batch(batch)
            outputs.append(engine.output_relation().to_dict())
        rebuilt = ViewTreeEngine(QUERY, db.copy())
        outputs.append(rebuilt.output_relation().to_dict())
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]

    def test_rebuild_cheaper_for_database_sized_batches(self):
        """The paper's opening paragraph, inverted: when the change is
        NOT small, recomputing the tree from scratch over the post-batch
        base beats *per-tuple* propagation (the oracle) — and the
        generated batch kernel, which coalesces the 3000 updates down to
        the ~144 distinct keys they touch, costs fewer ops still."""
        local = random.Random(2)
        batch = [
            Update("R", (local.randrange(12), local.randrange(12)), 1)
            for _ in range(3000)
        ]

        oracle, _ = fresh_engine(random.Random(2), rows=50, generated=False)
        with counting() as ops:
            oracle.apply_batch(batch)
        per_tuple_cost = ops.total()

        engine, db = fresh_engine(random.Random(2), rows=50)
        base = db.copy()
        with counting() as ops:
            engine.apply_batch(batch)
        batch_kernel_cost = ops.total()

        # The recompute writes the coalesced batch to the base, as
        # apply_batch does, then builds every view from it.
        (keys, payloads), = coalesce_columnar(batch, Z).values()
        with counting() as ops:
            base["R"].add_delta(zip(keys, payloads))
            rebuilt = ViewTreeEngine(QUERY, base)
        rebuild_cost = ops.total()

        assert rebuild_cost < per_tuple_cost
        assert batch_kernel_cost < rebuild_cost
        expected = oracle.output_relation()
        assert engine.output_relation() == expected
        assert rebuilt.output_relation() == expected
