"""Versioned relations: pre-image maps for snapshots, change streams and
rollback (`repro.data.relation` versions + `repro.viewtree.epoch`).

Writes go in place; each live snapshot keeps one pre-image map per
relation it covers.  Under test: a snapshot reads exactly its publish
state whatever happens afterwards (property and threads), the maps stay
bounded and cost nothing without a snapshot, and a commit that raises
midway leaves base, views and the published epoch as they were.
"""

import asyncio
import copy
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import IVMEngine
from repro.data import Database, Relation, Update
from repro.data.relation import GroupIndex
from repro.data.schema import Schema
from repro.naive import evaluate
from repro.query import search_order
from repro.query.parser import parse_query
from repro.rings import FloatRing, Z
from repro.serve import AsyncIVMServer, update_stream
from repro.viewtree.compile import DerivedView
from repro.viewtree.engine import ViewTreeEngine
from repro.viewtree.epoch import SnapshotRegistry

# ----------------------------------------------------------------------
# Property: every live snapshot reads its publish state
# ----------------------------------------------------------------------

INDEXES = [(), ("A",), ("B", "A")]
UNIVERSE = [(a, b) for a in range(3) for b in range(3)]

_key = st.sampled_from(UNIVERSE)
_pay = st.integers(-2, 2)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _key, _pay),
        st.tuples(st.just("delta"), st.lists(st.tuples(_key, _pay), max_size=6)),
        st.tuples(st.just("set"), _key, _pay),
        st.tuples(st.just("clear")),
        st.tuples(st.just("restore")),
        st.tuples(st.just("publish")),
        st.tuples(st.just("drop"), st.integers(0, 7)),
    ),
    max_size=40,
)


def _groups(rel, variables):
    project = rel.schema.projector(variables)
    return dict.fromkeys(project(key) for key in UNIVERSE)


def _buckets(rel, variables):
    """``rel``'s index on ``variables`` as sets: a rollback restores
    contents, not member order."""
    return {
        group_key: set(bucket)
        for group_key, bucket in rel._indexes[variables].groups.items()
    }


def _assert_reads(snap, rel, frozen):
    view = snap.view(rel)
    for key in UNIVERSE:
        assert view.get(key) == frozen.data.get(key)
        assert (key in view) == (key in frozen.data)
    for variables in INDEXES:
        buckets = snap.view(rel, variables)
        expected = frozen._indexes[variables].groups
        for group_key in _groups(rel, variables):
            got = buckets.get(group_key)
            want = expected.get(group_key)
            # Member order included: snapshot iteration walks buckets.
            assert (None if got is None else list(got)) == (
                None if want is None else list(want)
            )


class TestSnapshotsReadTheirPublishState:
    @pytest.mark.parametrize("ring", [Z, FloatRing()], ids=["Z", "float"])
    @given(ops=_ops)
    @settings(max_examples=120, deadline=None)
    def test_interleaved_writes_publishes_and_drops(self, ring, ops):
        # FloatRing declares no exact_zero: add_delta takes the generic
        # loop; Z takes the numeric one.
        rel = Relation("R", ("A", "B"), ring)
        for variables in INDEXES:
            rel.index_on(variables)
        registry = SnapshotRegistry()
        held = []
        for number, op in enumerate(ops):
            kind = op[0]
            if kind == "add":
                rel.add(op[1], ring.add(ring.zero, op[2]))
            elif kind == "delta":
                rel.add_delta([(k, ring.add(ring.zero, p)) for k, p in op[1]])
            elif kind == "set":
                rel.set(op[1], ring.add(ring.zero, op[2]))
            elif kind == "clear":
                rel.clear()
            elif kind == "restore":
                if held:
                    snap, frozen = held[-1]
                    snap.restore()
                    assert rel.data == frozen.data
                    for variables in INDEXES:
                        assert _buckets(rel, variables) == _buckets(frozen, variables)
            elif kind == "publish":
                snap = registry.capture(number, [rel])
                registry.prune()
                held.append((snap, copy.deepcopy(rel)))
                # Every map belongs to a held snapshot (dropped ones are
                # pruned).
                assert len(rel._maps) <= len(held)
            elif held:
                del held[op[1] % len(held)]
            for snap, frozen in held:
                _assert_reads(snap, rel, frozen)
        # Deep copies and pickles carry no maps.
        assert copy.deepcopy(rel)._maps == []


# ----------------------------------------------------------------------
# Threads: a reader racing the writer reads exact epochs
# ----------------------------------------------------------------------


LIST = "Q(Y,X,Z) = R(Y,X) * S(Y,Z)"
#: Bound ``B`` under the free-top order: an ``R`` update fans out over
#: ``S``'s ``B`` group.
HIER = "Q(A,C) = R(A,B) * S(B,C)"


def _engine(text=LIST, generated=True, schemas=None):
    query = parse_query(text)
    db = Database()
    for atom in query.atoms:
        if atom.relation not in db:
            variables = (schemas or {}).get(atom.relation, atom.variables)
            db.create(atom.relation, variables)
    return query, ViewTreeEngine(query, db, generated=generated)


class TestConcurrentReaders:
    @pytest.mark.parametrize("generated", [True, False], ids=["kernels", "oracle"])
    def test_reads_equal_serial_replay_at_their_epoch(self, generated):
        query, engine = _engine(generated=generated)
        engine.track_changes()
        updates = list(update_stream(query, 1600, domain=6, seed=71))
        batches = [updates[i : i + 20] for i in range(0, len(updates), 20)]
        probes = [(y, x, z) for y in range(3) for x in range(3) for z in range(2)]
        reads = []
        done = threading.Event()

        def reader():
            while not done.is_set():
                snap = engine._epoch_snapshot
                rows = sorted(engine.enumerate_snapshot(snap=snap))
                hits = [engine.lookup_snapshot(key, snap) for key in probes]
                reads.append((snap.number, rows, hits))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        # More threads than the two cores the suite runs on.
        threads = [threading.Thread(target=reader) for _ in range(3)]
        try:
            for thread in threads:
                thread.start()
            for batch in batches:
                engine.apply_batch(batch)
                engine.publish_epoch()
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=60.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

        # Serial replay: the epoch numbered n has the first n - 1 batches
        # (epoch 1 is track_changes' baseline, before any write).
        _, twin = _engine(generated=generated)
        expected = {1: sorted(twin.enumerate())}
        for n, batch in enumerate(batches, start=2):
            twin.apply_batch(batch)
            expected[n] = sorted(twin.enumerate())
        assert len({number for number, _, _ in reads}) > 3
        zero = engine.ring.zero
        for number, rows, hits in reads:
            assert rows == expected[number], number
            state = dict(expected[number])
            assert hits == [state.get(key, zero) for key in probes]

    @pytest.mark.parametrize("generated", [True, False], ids=["kernels", "oracle"])
    @pytest.mark.parametrize("read", ["lookup", "enumerate"])
    def test_write_landing_between_a_readers_two_probes(
        self, generated, read, monkeypatch
    ):
        """The race the live-then-map order exists for, made
        deterministic: a whole commit lands right after the reader's
        first probe of ``R`` — whichever dict that probe reads — and the
        read still returns the published payloads."""
        pending = []

        class Interleaved(dict):
            """Runs the pending write right after the first probe."""

            def _probed(self, found):
                if pending:
                    pending.pop()()
                return found

            def get(self, key, default=None):
                return self._probed(dict.get(self, key, default))

            def __contains__(self, key):
                return self._probed(dict.__contains__(self, key))

            def __getitem__(self, key):
                return self._probed(dict.__getitem__(self, key))

        share = Relation.share_version

        def interleaved_share(rel):
            data, undo, groups = share(rel)
            if rel.name == "R":
                rel._maps[-1] = undo = Interleaved()
            return data, undo, groups

        monkeypatch.setattr(Relation, "share_version", interleaved_share)
        query, engine = _engine(generated=generated)
        engine.apply_batch(list(update_stream(query, 300, domain=4, seed=3)))
        base = engine.database["R"]
        base.data = Interleaved(base.data)
        engine.publish_epoch()
        published = sorted(engine.enumerate())
        # One output tuple per R key: each write deletes its R tuple.
        firsts = {key[:2]: (key, payload) for key, payload in reversed(published)}
        for (y, x, z), payload in list(firsts.values())[:8]:
            pending.append(lambda k=(y, x), p=base.data[(y, x)]: engine.apply(
                Update("R", k, -p)
            ))
            if read == "lookup":
                assert engine.lookup_snapshot((y, x, z)) == payload
            else:
                assert sorted(engine.enumerate_snapshot()) == published
            assert not pending  # the write did land mid-read
        assert sorted(engine.enumerate()) != published


# ----------------------------------------------------------------------
# Bounds
# ----------------------------------------------------------------------


def _maps_per_relation(engine):
    counts = []
    for rel in engine._snapshot_relations():
        counts.append(len(rel._maps))
        counts.extend(len(index._maps) for index in rel._indexes.values())
    return counts


class TestBounds:
    def test_publishes_without_holders_keep_one_map(self):
        query, engine = _engine()
        engine.track_changes()
        updates = list(update_stream(query, 2000, domain=8, seed=5))
        for i in range(100):
            engine.apply_batch(updates[20 * i : 20 * i + 20])
            engine.publish_epoch()
            assert max(_maps_per_relation(engine)) <= 1

    def test_held_snapshot_reads_its_epoch_after_later_writes(self):
        query, engine = _engine()
        updates = list(update_stream(query, 1400, domain=8, seed=6))
        engine.apply_batch(updates[:400])
        held = engine.publish_epoch()
        frozen = sorted(engine.enumerate_snapshot(snap=held))
        assert frozen == sorted(engine.enumerate())
        for i in range(400, 1400, 50):
            engine.apply_batch(updates[i : i + 50])
            engine.publish_epoch()
        assert sorted(engine.enumerate_snapshot(snap=held)) == frozen
        for key, payload in frozen[:10]:
            assert engine.lookup_snapshot(key, held) == payload
        # The held snapshot and the newest one: two maps, no more.
        assert max(_maps_per_relation(engine)) == 2
        del held
        engine.publish_epoch()
        assert max(_maps_per_relation(engine)) == 1

    @pytest.mark.parametrize("generated", [True, False], ids=["kernels", "oracle"])
    def test_engine_that_never_publishes_does_no_undo_work(
        self, generated, monkeypatch
    ):
        calls = []

        def spy(original):
            def wrapper(*args):
                calls.append(original.__name__)
                return original(*args)

            return wrapper

        monkeypatch.setattr(Relation, "_record", spy(Relation._record))
        monkeypatch.setattr(GroupIndex, "_preserve", spy(GroupIndex._preserve))
        query, engine = _engine(generated=generated)
        updates = list(update_stream(query, 600, domain=8, seed=7))
        engine.apply_batch(updates[:300])
        for update in updates[300:400]:
            engine.apply(update)
        engine.apply_batch(updates[400:])
        assert calls == []
        assert max(_maps_per_relation(engine)) == 0

    def test_a_churned_bucket_is_copied_in_order_with_its_pre_image_kept(self):
        """A bucket with deleted slots (churned before the publish) is
        copied at its first write after it: the copy keeps insertion
        order, and the pre-image map records the untouched original."""
        index = GroupIndex(Schema(("A", "B")), ("A",))
        for b in range(50):
            index.add((0, b))
        for b in range(0, 50, 3):
            index.remove((0, b))
        bucket = index.groups[(0,)]
        before = list(bucket)
        _, undo = index.share_version()
        index.add((0, 999))
        index.remove((0, 1))
        assert undo[(0,)] is bucket and list(bucket) == before
        copy_ = index.groups[(0,)]
        assert copy_ is not bucket
        assert list(copy_) == [key for key in before if key != (0, 1)] + [(0, 999)]

    @pytest.mark.parametrize("n", [2000, 20000])
    def test_small_commit_after_publish_copies_no_table(self, n):
        query = parse_query(LIST)
        db = Database()
        rng = random.Random(8)
        for atom in query.atoms:
            rel = db.create(atom.relation, atom.variables)
            for _ in range(n):
                rel.add((rng.randrange(n), rng.randrange(n)), 1)
        engine = ViewTreeEngine(query, db)
        snap = engine.publish_epoch()
        relations = list(engine._snapshot_relations())
        tables = [id(rel.data) for rel in relations]
        buckets = [
            id(index.groups) for rel in relations for index in rel._indexes.values()
        ]
        commit = list(update_stream(query, 15, domain=n, seed=9, deletes_ok=False))
        written = {}
        for update in commit:
            written.setdefault(update.relation, set()).add(update.key)
        engine.apply_batch(commit)
        assert [id(rel.data) for rel in relations] == tables
        assert [
            id(index.groups) for rel in relations for index in rel._indexes.values()
        ] == buckets
        for name, keys in written.items():
            assert set(snap.data_of(engine.database[name])[1]) == keys
        # Every other map holds at most one key per written base key.
        for rel in relations:
            assert len(snap.data_of(rel)[1]) <= len(commit)


# ----------------------------------------------------------------------
# Rollback: a commit that raises midway changes nothing
# ----------------------------------------------------------------------


#: (query, base schemas): the list query's leaves are its base
#: relations; the renamed one keeps a base relation apart from its leaf.
ROLLBACK_CASES = [
    (LIST, None),
    ("Q(A,B) = R(A,B) * S(B)", {"R": ("U", "V")}),
]


def _state(engine):
    """Every relation the engine writes, by role, as plain dicts."""
    out = {}
    for root in engine.roots:
        for node in root.walk():
            out[f"V_{node.variable}"] = dict(node.view.data)
            if node.guard is not None:
                out[f"G_{node.variable}"] = dict(node.guard.data)
            for atom, leaf in node.leaves:
                out[f"leaf {atom}"] = dict(leaf.data)
    for rel in engine.database:
        out[f"base {rel.name}"] = dict(rel.data)
    return out


def _fail_second_relation(engine, monkeypatch):
    """Make the push of ``S`` (the batch's second relation) raise."""
    def boom(*args, **kwargs):
        raise RuntimeError("injected fault")

    if engine.generated:
        kernel = engine._kernels["S"][0]
        monkeypatch.setattr(kernel, "push_batch", boom)
        monkeypatch.setattr(kernel, "push", boom)
    else:
        leaf = engine._anchors["S"][0][2]
        original = engine._propagate

        def propagate(node, delta, exclude):
            if exclude is leaf:
                boom()
            return original(node, delta, exclude)

        monkeypatch.setattr(engine, "_propagate", propagate)


def _batches(query, seed):
    updates = list(update_stream(query, 500, domain=6, seed=seed))
    prefix, rest = updates[:300], updates[300:]
    # R first, then S: the fault hits after R's whole delta has landed.
    failing = sorted(rest[:60], key=lambda u: u.relation != "R")
    assert failing[0].relation == "R" and failing[-1].relation == "S"
    return prefix, failing, rest[60:]


def _indexed(engine):
    """:func:`_state` with each relation's index buckets, as sets: a
    rollback restores contents, not order."""
    relations = {}
    for root in engine.roots:
        for node in root.walk():
            relations[f"V_{node.variable}"] = node.view
            if node.guard is not None:
                relations[f"G_{node.variable}"] = node.guard
            for atom, leaf in node.leaves:
                relations[f"leaf {atom}"] = leaf
    for rel in engine.database:
        relations[f"base {rel.name}"] = rel
    return {
        role: (
            dict(rel.data),
            {gv: {gk: set(b) for gk, b in ix.groups.items()} for gv, ix in rel._indexes.items()},
        )
        for role, rel in relations.items()
    }


class _SecondProductFails(int):
    """A payload whose second product raises, after its first landed."""

    def __mul__(self, other):
        self.products = getattr(self, "products", 0) + 1
        if self.products == 2:
            self.hook()
            raise RuntimeError("injected fault")
        return int(self) * other


class TestRollback:
    @pytest.mark.parametrize("text,schemas", ROLLBACK_CASES)
    @pytest.mark.parametrize("generated", [True, False], ids=["kernels", "oracle"])
    def test_failed_batch_leaves_state_and_epoch_untouched(
        self, text, schemas, generated, monkeypatch
    ):
        query, engine = _engine(text, generated, schemas)
        prefix, failing, after = _batches(query, 11)
        engine.apply_batch(prefix)
        engine.publish_epoch()
        before = _state(engine)
        expected = evaluate(query, engine.database).to_dict()
        with monkeypatch.context() as patch:
            _fail_second_relation(engine, patch)
            with pytest.raises(RuntimeError, match="injected"):
                engine.apply_batch(failing)
        assert _state(engine) == before
        assert dict(engine.enumerate()) == expected
        assert dict(engine.enumerate_snapshot()) == expected
        assert evaluate(query, engine.database).to_dict() == expected
        # The next commit lands on the restored state.
        engine.apply_batch(failing + after)
        engine.publish_epoch()
        _, fresh = _engine(text, generated, schemas)
        fresh.apply_batch(prefix + failing + after)
        assert _state(engine) == _state(fresh)
        assert dict(engine.enumerate_snapshot()) == dict(fresh.enumerate())

    @pytest.mark.parametrize("generated", [True, False], ids=["kernels", "oracle"])
    def test_float_epoch_published_before_a_failure_keeps_its_order(
        self, generated, monkeypatch
    ):
        """Rollback restores contents exactly but not insertion order (a
        key the failed commit deleted returns at the end of its dict);
        the epoch published before the failure still enumerates bit for
        bit, in its order."""
        query = parse_query(LIST)
        db = Database(ring=FloatRing())
        for atom in query.atoms:
            db.create(atom.relation, atom.variables)
        engine = ViewTreeEngine(query, db, generated=generated)
        prefix, failing, _ = (
            [Update(u.relation, u.key, u.payload * 0.1) for u in part]
            for part in _batches(query, 15)
        )
        assert any(u.payload < 0 for u in failing)
        engine.apply_batch(prefix)
        snap = engine.publish_epoch()
        published = list(engine.enumerate_snapshot())
        before = _state(engine)
        with monkeypatch.context() as patch:
            _fail_second_relation(engine, patch)
            with pytest.raises(RuntimeError, match="injected"):
                engine.apply_batch(failing)
        assert _state(engine) == before
        assert list(engine.enumerate_snapshot(snap=snap)) == published

    @pytest.mark.parametrize("generated", [True, False], ids=["kernels", "oracle"])
    def test_unpublished_writes_survive_a_failed_commit(
        self, generated, monkeypatch
    ):
        """Writes since the publish are kept: the rollback restores the
        pre-commit state (from a checkpoint), not the published epoch."""
        query, engine = _engine(generated=generated)
        prefix, failing, after = _batches(query, 12)
        engine.apply_batch(prefix[:150])
        engine.publish_epoch()
        published = dict(engine.enumerate())
        engine.apply_batch(prefix[150:])
        for update in after[:5]:
            engine.apply(update)
        before = _state(engine)
        with monkeypatch.context() as patch:
            _fail_second_relation(engine, patch)
            with pytest.raises(RuntimeError, match="injected"):
                engine.apply_batch(failing)
            with pytest.raises(RuntimeError, match="injected"):
                engine.apply(failing[-1])
        assert _state(engine) == before
        assert dict(engine.enumerate_snapshot()) == published
        # The checkpoints' maps are released again.
        assert max(_maps_per_relation(engine)) == 1

    @pytest.mark.parametrize("text", [HIER, LIST], ids=["fan-out", "guard-flip"])
    def test_fault_after_the_inline_leaf_write_rolls_back(self, text, monkeypatch):
        """A single-tuple ``apply`` whose generated push raises after its
        inline leaf write — and after a ``V_B`` entry (``Q(A, C)``) or a
        ``G_Y`` flip (``Q(Y, X, Z)``) landed — under a live snapshot
        leaves the leaf, the base, the views and every index bucket at
        their pre-commit state."""
        query = parse_query(text)
        db = Database()
        for atom in query.atoms:
            db.create(atom.relation, atom.variables)
        order = search_order(query, require_free_top=True) if text == HIER else None
        engine = ViewTreeEngine(query, db, order)
        prefix, _, _ = _batches(query, 17)
        engine.apply_batch(prefix + [Update("S", (77, 1), 1)])
        engine.publish_epoch()
        expected = evaluate(query, db).to_dict()  # indexes the bases first
        before = _indexed(engine)
        leaf = engine._anchors["R"][0][2]
        assert leaf is db["R"]
        reached = []
        if text == HIER:
            partners = {}
            for b, _c in db["S"].keys():
                partners[b] = partners.get(b, 0) + 1
            key = (99, max(partners, key=partners.get))
            payload = _SecondProductFails(1)
            view_b = next(n.view for n in engine.roots[0].walk() if n.variable == "B")
            payload.hook = lambda: reached.append(
                (key in leaf.data, view_b.data != before["V_B"][0])
            )
        else:
            key, payload = (77, 99), 1
            stats = engine.attach_stats()
            guard = next(n.guard for n in engine.roots[0].walk() if n.guard is not None)

            def record_delta(view, size):
                if view == "G_Y":
                    reached.append((key in leaf.data, (77,) in guard.data))
                    raise RuntimeError("injected fault")

            monkeypatch.setattr(stats, "record_delta", record_delta)
        with pytest.raises(RuntimeError, match="injected"):
            engine.apply(Update("R", key, payload))
        monkeypatch.undo()
        assert reached == [(True, True)]
        assert _indexed(engine) == before
        assert dict(engine.enumerate()) == dict(engine.enumerate_snapshot()) == expected
        engine.apply(Update("R", key, 1))
        assert dict(engine.enumerate()) == evaluate(query, db).to_dict() != expected

    @pytest.mark.parametrize("generated", [True, False], ids=["kernels", "oracle"])
    def test_single_tuple_fan_out_push_rolls_back(self, generated, monkeypatch):
        """A single-tuple ``apply`` on ``Q(A,C)`` whose push raises midway —
        its fan-out already on ``V_B``, and the kernels' ``G_A`` flipped,
        the oracle's ``V_A`` not yet written — under a live snapshot
        restores base, views, guards and the epoch exactly."""
        query = parse_query(HIER)
        db = Database()
        for atom in query.atoms:
            db.create(atom.relation, atom.variables)
        engine = ViewTreeEngine(
            query, db, search_order(query, require_free_top=True),
            generated=generated,
        )
        prefix, _, _ = _batches(query, 16)
        engine.apply_batch(prefix)
        engine.publish_epoch()
        before = _state(engine)
        expected = evaluate(query, db).to_dict()
        partners = {}
        for b, _c in db["S"].keys():
            partners[b] = partners.get(b, 0) + 1
        b = max(partners, key=partners.get)
        assert partners[b] >= 2
        update = Update("R", (99, b), 1)
        view_b = next(n.view for n in engine.roots[0].walk() if n.variable == "B")
        stats = engine.attach_stats()
        reached = []

        def record_delta(view, size):
            # The kernels derive V_C: the guard flips are their next record.
            if view in ("V_C", "G_A"):
                reached.append(dict(view_b.data) != before["V_B"])
                raise RuntimeError("injected fault")

        with monkeypatch.context() as patch:
            patch.setattr(stats, "record_delta", record_delta)
            with pytest.raises(RuntimeError, match="injected"):
                engine.apply(update)
        assert reached == [True]
        assert _state(engine) == before
        assert dict(engine.enumerate()) == expected
        assert dict(engine.enumerate_snapshot()) == expected
        engine.apply(update)
        engine.publish_epoch()
        assert dict(engine.enumerate_snapshot()) == evaluate(query, db).to_dict()

    @pytest.mark.parametrize("generated", [True, False], ids=["kernels", "oracle"])
    def test_single_tuple_fan_out_chain_rolls_back(self, generated, monkeypatch):
        """An ``S`` update on ``Q(A,C)`` writes ``V_B`` and ``V_C`` in one
        loop; a fault after that loop, ``V_A`` not yet written, under a
        live snapshot restores base, views and the epoch exactly."""
        query = parse_query(HIER)
        db = Database()
        for atom in query.atoms:
            db.create(atom.relation, atom.variables)
        engine = ViewTreeEngine(
            query, db, search_order(query, require_free_top=True),
            generated=generated,
        )
        prefix, _, _ = _batches(query, 17)
        engine.apply_batch(prefix)
        engine.publish_epoch()
        before = _state(engine)
        expected = evaluate(query, db).to_dict()
        partners = {}
        for _a, b in db["R"].keys():
            partners[b] = partners.get(b, 0) + 1
        b = max(partners, key=partners.get)
        assert partners[b] >= 2
        update = Update("S", (b, 99), 1)
        stats = engine.attach_stats()
        reached = []

        def record_delta(view, size):
            if view == "V_B":
                reached.append(_state(engine) != before)
                raise RuntimeError("injected fault")

        with monkeypatch.context() as patch:
            patch.setattr(stats, "record_delta", record_delta)
            with pytest.raises(RuntimeError, match="injected"):
                engine.apply(update)
        assert reached == [True]
        assert _state(engine) == before
        assert dict(engine.enumerate()) == expected
        assert dict(engine.enumerate_snapshot()) == expected
        engine.apply(update)
        engine.publish_epoch()
        assert dict(engine.enumerate_snapshot()) == evaluate(query, db).to_dict()

    def test_failed_rebuild_restores_cleared_views(self, monkeypatch):
        """A commit that clears views under the live snapshot, as a
        recompute would before refilling them, and faults midway is
        restored: ``clear()`` deletes key by key and records each."""
        query, engine = _engine()
        prefix, failing, _ = _batches(query, 13)
        engine.apply_batch(prefix)
        engine.publish_epoch()
        before = _state(engine)
        expected = dict(engine.enumerate())
        original = engine._apply_columns

        def clear_then_fail(*args):
            original(*args)
            for root in engine.roots:
                for node in root.walk():
                    if not isinstance(node.view, DerivedView):
                        node.view.clear()
                    if node.guard is not None:
                        node.guard.clear()
            raise RuntimeError("injected fault")

        monkeypatch.setattr(engine, "_apply_columns", clear_then_fail)
        with pytest.raises(RuntimeError, match="injected"):
            engine.apply_batch(failing)
        monkeypatch.undo()
        assert _state(engine) == before
        assert dict(engine.enumerate()) == expected
        assert dict(engine.enumerate_snapshot()) == expected
        engine.apply_batch(failing)
        engine.publish_epoch()
        assert dict(engine.enumerate_snapshot()) == evaluate(
            query, engine.database
        ).to_dict()

    @pytest.mark.parametrize("generated", [True, False], ids=["kernels", "oracle"])
    def test_checkpoint_copies_no_preserved_bucket_and_detaches(
        self, generated, monkeypatch
    ):
        """Under a written snapshot, a commit that writes only index groups
        the snapshot already preserved copies no bucket (the checkpoint
        holds payload pre-images alone), and every relation's and index's
        maps end as the commit found them, on success and on a fault."""
        query, engine = _engine(generated=generated)
        prefix, failing, _ = _batches(query, 18)
        engine.apply_batch(prefix)
        engine.publish_epoch()
        y, x = next(iter(engine.database["R"].keys()))
        insert = Update("R", (y, 999), 1)
        engine.apply(insert)  # the snapshot preserves every group it writes
        copies = []
        preserve = GroupIndex._preserve

        def counted(index, group_key, bucket):
            copies.append(bucket is not None)
            return preserve(index, group_key, bucket)

        monkeypatch.setattr(GroupIndex, "_preserve", counted)

        def maps():
            return [
                [id(m) for m in rel._maps]
                + [[id(m) for m in index._maps] for index in rel._indexes.values()]
                for rel in engine._snapshot_relations()
            ]

        opened = maps()
        engine.apply(Update("R", insert.key, -1))  # the same groups again
        assert copies == [] and maps() == opened
        before = _state(engine)
        with monkeypatch.context() as patch:
            _fail_second_relation(engine, patch)
            with pytest.raises(RuntimeError, match="injected"):
                engine.apply_batch(failing)
        assert maps() == opened
        assert _state(engine) == before

    @pytest.mark.parametrize("written", [False, True], ids=["published", "checkpoint"])
    def test_index_created_mid_commit_rolls_back_with_its_data(
        self, written, monkeypatch
    ):
        """The oracle's ``join_pair`` indexes ``V_X`` on ``Y`` the first time
        an ``S`` delta probes it (the tree was built with the smaller
        ``V_X`` probing ``V_Z``).  When that happens inside a commit that
        then raises, the rollback's postings leave the new index agreeing
        with ``V_X``'s restored keys."""
        query = parse_query(LIST)
        db = Database()
        rng = random.Random(19)
        for atom in query.atoms:
            rel = db.create(atom.relation, atom.variables)
            ys = 4 if atom.relation == "R" else 8
            for _ in range(40):
                rel.add((rng.randrange(ys), rng.randrange(8)), 1)
        engine = ViewTreeEngine(query, db, generated=False)
        view_x = next(n.view for n in engine.roots[0].walk() if n.variable == "X")
        engine.publish_epoch()
        if written:
            engine.apply(Update("R", (0, 99), 1))
        assert ("Y",) not in view_x._indexes
        before = _state(engine)
        seen = []
        original = engine._propagate

        def propagate(node, delta, exclude):
            if len(seen) == 2:
                seen.append(dict(view_x._indexes[("Y",)].groups))
                raise RuntimeError("injected fault")
            seen.append(None)
            return original(node, delta, exclude)

        monkeypatch.setattr(engine, "_propagate", propagate)
        with pytest.raises(RuntimeError, match="injected"):
            engine.apply_batch([
                Update("R", (50, 1), 1),
                Update("S", (50, 1), 1),
                Update("S", (0, 98), 1),
            ])
        monkeypatch.undo()
        assert (50,) in seen[-1]  # indexed mid-commit, after R wrote Y = 50
        assert _state(engine) == before
        for rel in engine._snapshot_relations():
            for group_vars, index in rel._indexes.items():
                project = rel.schema.projector(group_vars)
                expected = {}
                for key in rel.data:
                    expected.setdefault(project(key), set()).add(key)
                assert {g: set(b) for g, b in index.groups.items()} == expected
        assert dict(engine.enumerate()) == evaluate(query, db).to_dict()

    def test_server_serves_the_restored_state_after_a_failed_commit(
        self, monkeypatch
    ):
        query = parse_query(LIST)
        db = Database()
        for atom in query.atoms:
            db.create(atom.relation, atom.variables)
        engine = IVMEngine(query, db)
        backend = engine.backend
        prefix, failing, after = _batches(query, 14)
        engine.apply_batch(prefix)
        kernel = backend._kernels["S"][0]
        inner = kernel.push_batch
        armed = [True]

        def flaky(*args, **kwargs):
            if armed[0]:
                armed[0] = False
                raise RuntimeError("injected fault")
            return inner(*args, **kwargs)

        monkeypatch.setattr(kernel, "push_batch", flaky)

        async def run():
            server = AsyncIVMServer(
                engine, max_batch=len(failing), max_delay=0.0
            )
            stats = server.attach_stats()
            await server.start()
            committed = dict(await server.enumerate())
            for update in failing:
                await server.submit(update)
            with pytest.raises(RuntimeError, match="injected"):
                await server.drain()
            after_failure = dict(await server.enumerate())
            for update in failing + after:
                await server.submit(update)
            await server.drain()
            final = dict(await server.enumerate())
            await server.stop()
            return committed, after_failure, final, stats

        committed, after_failure, final, stats = asyncio.run(run())
        assert after_failure == committed
        assert stats.commit_errors == 1
        replay = Database()
        for atom in query.atoms:
            replay.create(atom.relation, atom.variables)
        for update in prefix + failing + after:
            replay[update.relation].add(update.key, update.payload)
        assert final == evaluate(query, replay).to_dict()
        assert evaluate(query, db).to_dict() == final
