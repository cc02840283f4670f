"""Write only what a read multiplies: ``V_C`` derived from ``V_B``'s index.

On ``Q(A, C) = R(A, B) * S(B, C)`` no read multiplies ``V_C(A)``'s payload
and ``V_B``'s ``(A,)`` index (the one the drain keeps for step ``C``)
already holds its keys, so a generated engine derives ``V_C`` and ``V_A``,
and the ``A`` candidates are a members-only guard ``G_A(A)`` flipped when
a ``V_B`` bucket is created or emptied.  Under test: the write count on
the ``engine_mixed`` stream, epoch isolation of the derived root (order
included), the oracle fallback and pickling.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro import IVMEngine
from repro.data import Database, Update, counting
from repro.naive import evaluate
from repro.query import parse_query, search_order
from repro.viewtree import ViewTreeEngine
from repro.viewtree import engine as engine_module
from repro.viewtree.compile import DerivedView

from tests.conftest import assert_failed_to_oracle, assert_twins_agree, valid_stream

HIER = "Q(A, C) = R(A, B) * S(B, C)"


def hier_db() -> Database:
    db = Database()
    db.create("R", ("A", "B"))
    db.create("S", ("B", "C"))
    return db


def nodes(engine) -> dict:
    return {node.variable: node for root in engine.roots for node in root.walk()}


def zipf_stream(seed: int, domain=5_000, window=4_000, tuples=80_000):
    """The ``engine_mixed`` closed cycle: ``R(A, B)`` and ``S(B, C)``
    alternate, the join key ``B`` zipf(1) and the others uniform over
    ``domain``; the prefill inserts the first ``window`` tuples, and step
    ``j`` inserts tuple ``window + j`` and deletes tuple ``j``."""
    np = pytest.importorskip("numpy")
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, domain + 1, dtype=np.float64)
    weights /= weights.sum()
    uniform = lambda n: rng.integers(0, domain, size=n)  # noqa: E731
    zipf = lambda n: rng.choice(domain, size=n, p=weights)  # noqa: E731
    half = tuples // 2
    columns = {"R": (uniform, zipf), "S": (zipf, uniform)}
    drawn = {
        name: list(zip(*(sample(half).tolist() for sample in samplers)))
        for name, samplers in columns.items()
    }
    keys = [("RS"[i % 2], drawn["RS"[i % 2]][i // 2]) for i in range(tuples)]
    prefill = [Update(name, key, 1) for name, key in keys[:window]]
    cycle = []
    for step in range(tuples):
        cycle.append(Update(*keys[(window + step) % tuples], 1))
        cycle.append(Update(*keys[step], -1))
    return prefill, cycle


class TestWriteCount:
    def test_engine_mixed_stream_writes_no_v_c(self):
        """After a 20 000-update prefix, an ``apply`` writes the base, its
        ``V_B`` entries and the rare ``G_A`` flip: 38.5 entries where
        writing ``V_C`` too took 57.2, for the same enum and lookup
        counts (37.18 and 1.0 per apply)."""
        prefill, cycle = zipf_stream(1)
        db = hier_db()
        engine = IVMEngine(parse_query(HIER), db)
        for update in prefill + cycle[:20_000]:
            engine.apply(update)
        oracle = IVMEngine(parse_query(HIER), db.copy(), generated=False)
        window = cycle[20_000:24_000]
        with counting() as ops:
            for update in window:
                engine.apply(update)
        with counting() as oracle_ops:
            for update in window:
                oracle.apply(update)
        n = len(window)
        assert ops["write"] / n <= 39
        assert (ops["enum"], ops["lookup"]) == (148_706, n)
        # The oracle writes every view: V_C for each joined V_B entry.
        tree, walked = nodes(engine.backend), nodes(oracle.backend)
        assert isinstance(tree["C"].view, DerivedView)
        assert not isinstance(walked["C"].view, DerivedView)
        assert oracle_ops["write"] - ops["write"] > 18 * n
        assert tree["C"].view.to_dict() == walked["C"].view.to_dict()
        output = dict(engine.enumerate())
        assert output == dict(oracle.enumerate())
        naive = evaluate(parse_query(HIER), db)
        assert output == naive.to_dict()


def hier_twins(seed=3, rows=25):
    """``(generated, oracle)`` over equal seeded databases."""
    query = parse_query(HIER)
    order = search_order(query, require_free_top=True)
    engines = []
    for generated in (True, False):
        rng = random.Random(seed)
        db = hier_db()
        for _ in range(rows):
            db["R"].add((rng.randrange(6), rng.randrange(4)), 1)
            db["S"].add((rng.randrange(4), rng.randrange(6)), 1)
        engines.append(ViewTreeEngine(query, db, order, generated=generated))
    return engines


def emptying_stream(seed=5, count=400):
    """A valid stream on a small domain: deletes keep emptying ``V_B``'s
    ``(A,)`` buckets, and inserts re-create them."""
    return valid_stream(random.Random(seed), {"R": 2, "S": 2}, count, domain=5, delete_prob=0.45)


def root_order(engine) -> list:
    """The ``A`` candidates in the order the live walk visits them."""
    node = nodes(engine)["A"]
    relation = node.guard if node.guard is not None else node.children[0].view
    return list(relation.index_on(()).groups.get((), ()))


class TestEpochIsolation:
    def test_live_order_equals_the_written_root_bucket(self):
        """``G_A``'s bucket lists the ``A`` values in the order the
        oracle's written ``V_C`` root bucket does, through deletes that
        empty ``V_B`` buckets; the walks agree tuple for tuple."""
        generated, oracle = hier_twins(rows=0)
        emptied = 0
        for update in emptying_stream():
            before = len(nodes(generated)["A"].guard)
            for engine in (generated, oracle):
                engine.apply(update)
            emptied += len(nodes(generated)["A"].guard) < before
            assert root_order(generated) == root_order(oracle)
        assert emptied > 5
        assert list(generated.enumerate()) == list(oracle.enumerate())
        assert_twins_agree(generated, oracle)

    def test_snapshot_read_after_later_commits(self):
        """A published epoch reads, in order, what a serialized read at
        that epoch read, however many commits land after it."""
        generated, oracle = hier_twins(seed=7, rows=4)
        stream = emptying_stream(seed=9)
        published = []
        for start in range(0, len(stream), 50):
            for engine in (generated, oracle):
                for update in stream[start:start + 40]:
                    engine.apply(update)
                engine.apply_batch(stream[start + 40:start + 50])
            published.append((generated.publish_epoch(), list(generated.enumerate())))
            assert list(oracle.enumerate()) == published[-1][1]
            for snap, expected in published[-3:]:
                assert list(generated.enumerate_snapshot(snap=snap)) == expected
                assert list(generated._enum_kernel.iterate_epoch(None, None, snap)) == expected
                for key, payload in expected[:5]:
                    assert generated.lookup_snapshot(key, snap) == payload

    def test_patched_view_equals_a_fresh_drain(self):
        generated, _ = hier_twins(seed=11)
        view = generated.subscribe(ratio_threshold=100.0)
        stream = emptying_stream(seed=13)
        for start in range(0, len(stream), 25):
            for update in stream[start:start + 25]:
                generated.apply(update)
            generated.publish_epoch()
            view.refresh()
            assert dict(view.items()) == dict(generated.enumerate())
        assert view.full_refreshes == 0


class TestDerivation:
    def test_explain_reads_v_c_from_v_b(self):
        engine = IVMEngine(parse_query(HIER), hier_db()).backend
        lines = engine.describe().splitlines()
        assert lines[0].startswith("V_A*() = index G_A() ")
        assert lines[1].strip().startswith("V_C*(A) = index V_B(A) ")
        assert lines[-2:] == ["enum: A · C (C drained per A bucket)", "lookup: V_B(A, C)"]

    def test_a_failed_generation_writes_v_c_and_v_a(self, monkeypatch):
        def fail(plan, info=None):
            raise RuntimeError("injected")

        monkeypatch.setattr(engine_module, "compile_delta_kernel", fail)
        with pytest.warns(RuntimeWarning, match="injected"):
            failed, _ = hier_twins(seed=17)
        monkeypatch.undo()
        assert_failed_to_oracle(failed)
        tree = nodes(failed)
        assert tree["A"].guard is None
        # V_C is written again, with only the () index the walk reads.
        assert not tree["C"].view._indexes.keys() - {()}
        _, oracle = hier_twins(seed=17)
        for update in emptying_stream(seed=19):
            failed.apply(update)
            oracle.apply(update)
        assert list(failed.enumerate()) == list(oracle.enumerate())
        assert_twins_agree(failed, oracle)

    def test_a_pickled_engine_re_derives_both(self):
        generated, oracle = hier_twins(seed=23)
        stream = emptying_stream(seed=29)
        for update in stream[:200]:
            generated.apply(update)
            oracle.apply(update)
        copy = pickle.loads(pickle.dumps(generated))
        tree = nodes(copy)
        assert isinstance(tree["C"].view, DerivedView)
        assert isinstance(tree["A"].view, DerivedView)
        assert tree["C"].view.base is tree["B"].view
        assert tree["A"].view.base is tree["A"].guard
        for update in stream[200:]:
            copy.apply(update)
            oracle.apply(update)
        assert list(copy.enumerate()) == list(oracle.enumerate())
        assert_twins_agree(copy, oracle)
