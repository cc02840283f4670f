"""Relations, group indexes, databases, updates: the Section 2 contract."""

import copy
import dataclasses
import multiprocessing
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.data import (
    Database,
    Relation,
    Schema,
    Update,
    apply_batch,
    batches_of,
    counting,
    delta_relation,
    insert,
    measure_ops,
    permuted,
)
from repro.rings import B, MIN_PLUS, Z, ProductRing


class TestSchema:
    def test_basic(self):
        schema = Schema.of("A", "B", "C")
        assert len(schema) == 3
        assert "A" in schema and "D" not in schema
        assert schema.position("B") == 1
        assert schema.positions(("C", "A")) == (2, 0)

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Schema(("A", "A"))

    def test_project(self):
        schema = Schema.of("A", "B", "C")
        assert schema.project((1, 2, 3), ("C", "A")) == (3, 1)

    def test_projector_identity_fast_path(self):
        schema = Schema.of("A", "B")
        project = schema.projector(("A", "B"))
        key = (1, 2)
        assert project(key) is key

    @pytest.mark.parametrize(
        "variables,expected",
        [
            ((), ()),
            (("B",), (2,)),
            (("B", "C"), (2, 3)),
            (("A", "C"), (1, 3)),
            (("C", "A"), (3, 1)),
            (("A", "B", "C"), (1, 2, 3)),
        ],
    )
    def test_projector_returns_tuples_and_pickles(self, variables, expected):
        project = Schema.of("A", "B", "C").projector(variables)
        assert project((1, 2, 3)) == expected
        assert type(project((1, 2, 3))) is tuple
        assert pickle.loads(pickle.dumps(project))((1, 2, 3)) == expected

    def test_set_operations(self):
        a = Schema.of("A", "B")
        b = Schema.of("B", "C")
        assert a.union(b).variables == ("A", "B", "C")
        assert a.intersect(b).variables == ("B",)
        assert a.without(("B",)).variables == ("A",)
        assert a.covers(("A",)) and not a.covers(("C",))

    def test_equality_hash(self):
        assert Schema.of("A", "B") == Schema.of("A", "B")
        assert Schema.of("A", "B") != Schema.of("B", "A")
        assert hash(Schema.of("A")) == hash(Schema.of("A"))


class TestRelation:
    def test_insert_lookup_delete(self):
        rel = Relation("R", ("A", "B"))
        rel.insert(1, 2)
        assert rel.get((1, 2)) == 1
        assert len(rel) == 1
        rel.delete(1, 2)
        assert rel.get((1, 2)) == 0
        assert len(rel) == 0
        assert (1, 2) not in rel

    def test_multiplicity_accumulates(self):
        rel = Relation("R", ("A",))
        rel.insert(1, payload=3)
        rel.insert(1, payload=2)
        assert rel.get((1,)) == 5

    def test_zero_payload_entries_removed(self):
        rel = Relation("R", ("A",))
        rel.add((1,), 2)
        rel.add((1,), -2)
        assert len(rel) == 0
        assert list(rel.items()) == []

    def test_add_zero_is_noop(self):
        rel = Relation("R", ("A",))
        rel.add((1,), 0)
        assert len(rel) == 0

    def test_set_overwrites(self):
        rel = Relation("R", ("A",))
        rel.set((1,), 7)
        assert rel.get((1,)) == 7
        rel.set((1,), 0)
        assert len(rel) == 0

    def test_negative_multiplicity_allowed(self):
        # Out-of-order updates may transiently go negative (Section 2).
        rel = Relation("R", ("A",))
        rel.delete(1)
        assert rel.get((1,)) == -1
        rel.insert(1)
        assert len(rel) == 0

    def test_group_index(self):
        rel = Relation("R", ("A", "B"))
        rel.insert(1, 10)
        rel.insert(1, 20)
        rel.insert(2, 30)
        assert sorted(rel.group(("A",), (1,))) == [(1, 10), (1, 20)]
        assert rel.group_size(("A",), (1,)) == 2
        assert rel.group_size(("A",), (9,)) == 0
        assert sorted(rel.distinct(("A",))) == [(1,), (2,)]

    def test_index_maintained_under_updates(self):
        rel = Relation("R", ("A", "B"))
        rel.index_on(("A",))
        rel.insert(1, 10)
        rel.insert(1, 20)
        rel.delete(1, 10)
        assert list(rel.group(("A",), (1,))) == [(1, 20)]
        rel.delete(1, 20)
        assert rel.group_size(("A",), (1,)) == 0

    def test_index_on_unknown_variable(self):
        rel = Relation("R", ("A",))
        with pytest.raises(KeyError):
            rel.index_on(("Z",))

    def test_empty_group_vars_groups_everything(self):
        rel = Relation("R", ("A",))
        rel.insert(1)
        rel.insert(2)
        assert rel.group_size((), ()) == 2

    def test_project_onto(self):
        rel = Relation("R", ("A", "B"))
        rel.insert(1, 10)
        rel.insert(1, 20)
        projected = rel.project_onto(("A",))
        assert projected.get((1,)) == 2

    def test_scale(self):
        rel = Relation("R", ("A",), data={(1,): 2})
        assert rel.scale(3).get((1,)) == 6

    def test_copy_is_independent(self):
        rel = Relation("R", ("A",), data={(1,): 1})
        clone = rel.copy()
        clone.insert(2)
        assert len(rel) == 1 and len(clone) == 2

    def test_apply_delta(self):
        rel = Relation("R", ("A",), data={(1,): 1})
        delta = Relation("d", ("A",), data={(1,): -1, (2,): 5})
        rel.apply(delta)
        assert rel.to_dict() == {(2,): 5}

    def test_apply_self_doubles_payloads(self):
        # Regression: the delta used to be iterated lazily, so
        # rel.apply(rel) raised "dictionary changed size during iteration".
        rel = Relation("R", ("A", "B"), data={(1, 2): 3, (4, 5): -1})
        rel.apply(rel)
        assert rel.to_dict() == {(1, 2): 6, (4, 5): -2}

    def test_apply_accepts_plain_mapping(self):
        rel = Relation("R", ("A",), data={(1,): 1})
        rel.apply({(1,): 2, (3,): 4})
        assert rel.to_dict() == {(1,): 3, (3,): 4}

    def test_set_noop_counts_no_write(self):
        # Regression: a zero payload on an absent key used to bump the
        # "write" count, skewing complexity assertions.
        rel = Relation("R", ("A",), data={(1,): 1})
        with counting() as counter:
            rel.set((99,), 0)
        assert counter["write"] == 0
        with counting() as counter:
            rel.set((1,), 0)  # a real removal still counts
        assert counter["write"] == 1

    def test_pretty_renders(self):
        rel = Relation("R", ("A", "B"), data={(1, 2): 3})
        text = rel.pretty()
        assert "A B" in text and "1 2 | 3" in text

    def test_pretty_heterogeneous_key_types(self):
        # Regression: sorting mixed int/str keys raised TypeError
        # (int < str is unordered); pretty() must render regardless.
        rel = Relation("R", ("A", "B"), data={(1, "x"): 1, ("a", 2): 2})
        text = rel.pretty()
        assert "1 x | 1" in text and "a 2 | 2" in text

    def test_copy_carries_group_indexes(self):
        # Regression: copy() used to drop the group indexes, so the
        # clone silently repaid an O(n) rebuild on its next group().
        rel = Relation("R", ("A", "B"), data={(1, 2): 1, (1, 3): 1, (2, 4): 1})
        rel.index_on(("A",))
        clone = rel.copy()
        assert ("A",) in clone._indexes
        # The carried index stays incrementally maintained on the clone
        clone.insert(1, 9)
        assert sorted(clone.group(("A",), (1,))) == [(1, 2), (1, 3), (1, 9)]
        # ... and stays independent of the original's.
        assert sorted(rel.group(("A",), (1,))) == [(1, 2), (1, 3)]

    def test_copy_counts_writes(self):
        # Regression: copy() bumped no op counters, so COUNTER-based
        # complexity assertions saw copies as free.
        rel = Relation("R", ("A", "B"), data={(1, 2): 1, (1, 3): 1, (2, 4): 1})
        rel.index_on(("A",))
        with counting() as counter:
            rel.copy()
        # one write per tuple plus one posting per (index, tuple) pair
        assert counter["write"] == 2 * len(rel.data)

    def test_product_ring_payloads(self):
        ring = ProductRing(Z, Z)
        rel = Relation("R", ("A",), ring)
        rel.add((1,), (1, 10))
        rel.add((1,), (1, 5))
        assert rel.get((1,)) == (2, 15)
        rel.add((1,), (-2, -15))
        assert len(rel) == 0

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-2, 2)),
            max_size=60,
        )
    )
    @settings(max_examples=60)
    def test_matches_reference_counter(self, ops):
        """Random insert/delete streams agree with a plain dict oracle,
        and the group index stays consistent throughout."""
        rel = Relation("R", ("A", "B"))
        rel.index_on(("A",))
        oracle: dict[tuple, int] = {}
        for a, b, m in ops:
            if m == 0:
                continue
            rel.add((a, b), m)
            oracle[(a, b)] = oracle.get((a, b), 0) + m
            if oracle[(a, b)] == 0:
                del oracle[(a, b)]
        assert rel.to_dict() == oracle
        for a in range(6):
            expected = sorted(k for k in oracle if k[0] == a)
            assert sorted(rel.group(("A",), (a,))) == expected


#: Index positions over the schema ("A", "B", "C"): empty, single,
#: non-contiguous and out-of-order projections.
INDEXED = [(), ("A",), ("B",), ("A", "C"), ("B", "A")]

_entry = st.tuples(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
    st.sampled_from([-2, -1, 0, 1, 2]),
)


def _indexed(prefill):
    rel = Relation("R", ("A", "B", "C"), data=dict(prefill))
    for variables in INDEXED:
        rel.index_on(variables)
    return rel


def _ordered(groups_by_vars):
    """``{variables: groups}`` as lists: group and member order included."""
    return {
        variables: [(gk, list(bucket)) for gk, bucket in groups.items()]
        for variables, groups in groups_by_vars.items()
    }


def _buckets(rel):
    return _ordered({v: index.groups for v, index in rel._indexes.items()})


def _maps(rel):
    """Every pre-image map of ``rel`` and its indexes, in order; a bucket
    pre-image as its member list."""
    return [list(undo.items()) for undo in rel._maps], {
        v: [
            [(gk, None if b is None else list(b)) for gk, b in undo.items()]
            for undo in index._maps
        ]
        for v, index in rel._indexes.items()
    }


#: Every key of the ``_entry`` domain.
UNIVERSE = [(a, b, c) for a in range(3) for b in range(3) for c in range(2)]


def _frozen(rel):
    """What a snapshot of ``rel`` must read from now on (a bucket's
    member order included; snapshots probe groups, never list them)."""
    return dict(rel.data), {
        v: {gk: list(bucket) for gk, bucket in index.groups.items()}
        for v, index in rel._indexes.items()
    }


def _read(snap, rel):
    """What ``snap`` reads of ``rel``: payloads, and each index's buckets
    over every group the key domain projects to."""
    view = snap.view(rel)
    payloads = {key: view.get(key) for key in UNIVERSE if key in view}
    buckets = {}
    for variables in rel._indexes:
        project = rel.schema.projector(variables)
        groups = snap.view(rel, variables)
        buckets[variables] = {
            project(key): list(groups.get(project(key)))
            for key in UNIVERSE
            if project(key) in groups
        }
    return payloads, buckets


def _assert_indexes_consistent(rel):
    for variables, index in rel._indexes.items():
        project = rel.schema.projector(variables)
        expected: dict = {}
        for key in rel.data:
            expected.setdefault(project(key), []).append(key)
        assert {gk: list(b) for gk, b in index.groups.items()} == expected


class TestAddDeltaFastLoop:
    """``add_delta``'s numeric loop (exact-zero ``+`` rings such as Z)
    against one :meth:`Relation.add` per entry."""

    @given(
        st.dictionaries(_entry.map(lambda e: e[0]), st.integers(1, 2), max_size=8),
        st.lists(
            st.tuples(st.lists(_entry, max_size=14), st.booleans()), max_size=6
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_entry_add(self, prefill, chunks):
        from repro.viewtree.epoch import SnapshotRegistry

        assert Z.exact_zero and Z.add_operator == "+"
        fast, slow = _indexed(prefill), _indexed(prefill)
        registries = SnapshotRegistry(), SnapshotRegistry()
        published = []
        for number, (entries, publish) in enumerate(chunks):
            if publish:
                snaps = [
                    registry.capture(number, [rel])
                    for registry, rel in zip(registries, (fast, slow))
                ]
                published.append((snaps[0], _frozen(fast)))
            # Exact cancellations: every third entry comes back negated.
            entries = entries + [(key, -p) for key, p in entries[::3]]
            with counting() as fused:
                writes = fast.add_delta(iter(entries))
            with counting() as single:
                for key, payload in entries:
                    slow.add(key, payload)
            assert writes == fused["write"] == single["write"]
            assert list(fast.data.items()) == list(slow.data.items())
            assert _buckets(fast) == _buckets(slow)
            # Same pre-images, recorded in the same order; buckets are
            # preserved at the first posting, as add/remove do.
            assert _maps(fast) == _maps(slow)
        for snap, (data, buckets) in published:
            payloads, read_buckets = _read(snap, fast)
            assert payloads == data
            assert read_buckets == buckets
        _assert_indexes_consistent(fast)

        # Copies and pickles keep maintaining their indexes, and carry
        # no pre-image map.
        more = [((0, 1, 0), 1), ((2, 2, 1), 1), ((0, 1, 0), -1)]
        more += [(key, -p) for key, p in list(fast.data.items())[:3]]
        expected = slow.copy()
        for key, payload in more:
            expected.add(key, payload)
        for clone in (fast.copy(), pickle.loads(pickle.dumps(fast))):
            assert _maps(clone) == ([], {v: [] for v in INDEXED})
            clone.add_delta(more)
            assert list(clone.data.items()) == list(expected.data.items())
            assert _buckets(clone) == _buckets(expected)
            _assert_indexes_consistent(clone)


class TestOpCounter:
    def test_counts_only_when_enabled(self):
        rel = Relation("R", ("A",), data={(1,): 1})
        rel.get((1,))  # not counted
        with counting() as counter:
            rel.get((1,))
            rel.get((2,))
        assert counter["lookup"] == 2

    def test_measure_ops(self):
        rel = Relation("R", ("A",))
        ops = measure_ops(lambda: rel.insert(1))
        assert ops >= 1

    def test_nested_state_restored(self):
        from repro.data import COUNTER

        assert not COUNTER.enabled
        with counting():
            assert COUNTER.enabled
        assert not COUNTER.enabled

    def test_nested_counting_preserves_outer_counts(self):
        # Regression: entering a nested counting() block used to reset
        # the shared counter, destroying the outer block's counts.
        rel = Relation("R", ("A",), data={(1,): 1})
        with counting() as outer:
            rel.get((1,))
            with counting() as inner:
                rel.get((1,))
                rel.get((2,))
            assert inner["lookup"] == 2
            # Outer keeps its own count and absorbs the inner block's.
            assert outer["lookup"] == 3
            rel.get((1,))
        assert outer["lookup"] == 4
        assert inner["lookup"] == 2  # inner scope unchanged after exit

    def test_inner_scope_readable_after_exit(self):
        rel = Relation("R", ("A",), data={(1,): 1})
        with counting() as counter:
            rel.get((1,))
        assert counter.total() == 1


class TestDatabase:
    def test_create_and_size(self):
        db = Database()
        r = db.create("R", ("A",))
        r.insert(1)
        r.insert(2)
        s = db.create("S", ("B",))
        s.insert(1)
        assert len(db) == 3
        assert "R" in db and "X" not in db

    def test_duplicate_name_rejected(self):
        db = Database()
        db.create("R", ("A",))
        with pytest.raises(ValueError):
            db.create("R", ("B",))

    def test_ring_mismatch_rejected(self):
        db = Database()
        foreign = Relation("R", ("A",), ProductRing(Z, Z))
        with pytest.raises(ValueError):
            db.add_relation(foreign)

    def test_copy_independent(self):
        db = Database()
        db.create("R", ("A",)).insert(1)
        clone = db.copy()
        clone["R"].insert(2)
        assert len(db["R"]) == 1 and len(clone["R"]) == 2

    def test_insert_delete_helpers(self):
        db = Database()
        db.create("R", ("A",))
        db.insert("R", 1)
        assert db["R"].get((1,)) == 1
        db.delete("R", 1)
        assert len(db["R"]) == 0


class TestUpdates:
    def test_insert_delete_constructors(self):
        from repro.data import delete

        up = insert("R", 1, 2)
        assert up.key == (1, 2) and up.payload == 1 and up.is_insert
        down = delete("R", 1, 2)
        assert down.payload == -1 and not down.is_insert

    def test_inverted(self):
        up = Update("R", (1,), 3)
        assert up.inverted(Z) == Update("R", (1,), -3)

    @pytest.mark.parametrize("ring", [B, MIN_PLUS], ids=["boolean", "min-plus"])
    def test_delete_without_negation_is_a_type_error(self, ring):
        """A semiring has no additive inverses: every delete entry point
        raises a TypeError naming the ring, before it writes anything."""
        from repro import IVMEngine, parse_query
        from repro.data import delete

        db = Database(ring=ring)
        db.create("R", ("A", "B"))
        db.create("S", ("B",))
        engine = IVMEngine(parse_query("Q(A) = R(A, B) * S(B)"), db)
        engine.insert("R", 1, 2, payload=ring.one)
        engine.insert("S", 2, payload=ring.one)

        def state():
            return db["R"].to_dict(), db["S"].to_dict(), list(engine.enumerate())

        before = state()
        assert before[2] == [((1,), ring.one)]
        for attempt in (
            lambda: engine.delete("R", 1, 2, payload=ring.one),
            lambda: db["R"].delete(1, 2),
            lambda: delete("R", 1, 2, payload=ring.one, ring=ring),
            lambda: Update("R", (1, 2), ring.one).inverted(ring),
        ):
            with pytest.raises(TypeError, match=type(ring).__name__):
                attempt()
        assert state() == before

    def test_value_semantics_survive_slots(self):
        up = Update("R", (1, 2), 3)
        assert up == Update("R", (1, 2), 3) and up != Update("R", (1, 2), 4)
        assert hash(up) == hash(Update("R", (1, 2), 3))
        assert len({up, Update("R", (1, 2), 3), Update("S", (1, 2), 3)}) == 2
        assert Update("R", (1,)).payload == 1
        assert dataclasses.replace(up, payload=5) == Update("R", (1, 2), 5)
        assert not hasattr(up, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            up.key = (9,)
        with pytest.raises((AttributeError, TypeError)):
            up.extra = 1

    def test_pickles_at_every_protocol_and_across_spawn(self):
        up = Update("R", (1, "a"), -2)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(up, protocol)) == up
        assert copy.deepcopy(up) == up
        # Both directions of a spawned worker's pipe, as a process pool
        # would ship a batch.
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            assert pool.apply(copy.copy, (up,)) == up

    def test_batches_of(self):
        updates = [Update("R", (i,), 1) for i in range(5)]
        batches = list(batches_of(updates, 2))
        assert [len(b) for b in batches] == [2, 2, 1]
        with pytest.raises(ValueError):
            list(batches_of(updates, 0))

    def test_delta_relation(self):
        delta = delta_relation("d", ("A",), [((1,), 1), ((1,), -1), ((2,), 3)])
        assert delta.to_dict() == {(2,): 3}

    @given(
        st.lists(
            st.tuples(st.sampled_from(["R", "S"]), st.integers(0, 4), st.integers(-2, 2)),
            max_size=40,
        ),
        st.integers(0, 1000),
    )
    @settings(max_examples=50)
    def test_batch_commutativity(self, raw, seed):
        """Section 2's optimization benefit: any permutation of a batch
        yields the same database."""
        batch = [Update(rel, (key,), m) for rel, key, m in raw if m != 0]

        def run(updates):
            db = Database()
            db.create("R", ("A",))
            db.create("S", ("A",))
            apply_batch(db, updates)
            return db["R"].to_dict(), db["S"].to_dict()

        assert run(batch) == run(permuted(batch, seed))
