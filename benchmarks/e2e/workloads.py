"""Seeded input generation for the end-to-end benchmark.

Everything the program under test receives is built here from ``--seed``:
lists of ``Update`` objects and lookup keys.  Nothing in this file calls
into the engines, and ``repro.serve.loadgen`` (program code) is not used.

A stream is a *closed cycle* over ``N`` tuples ``T_0 .. T_{N-1}`` with a
sliding window of ``W`` live tuples.  The prefill inserts ``T_0 ..
T_{W-1}``; step ``j`` of the cycle inserts ``T_{(W+j) mod N}`` and then
deletes ``T_j``.  After ``N`` steps the live window is again ``T_0 ..
T_{W-1}``, so the cycle can be replayed for as long as a run lasts, every
pass is identical, and every delete retracts a tuple that the same stream
inserted and has not yet deleted (validity by construction).  After ``u``
updates of a pass the tuples ``ceil(u/2) .. floor(u/2)+W-1 (mod N)`` are
live, which lets lookup keys be generated as known hits or known misses
without simulating the window.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.data.update import Update


@dataclass(frozen=True)
class Stream:
    """One closed-cycle sliding-window update stream."""

    relations: tuple[str, ...]
    window: int
    #: Key of ``T_i``, which belongs to ``relations[i % len(relations)]``.
    keys: list[tuple]
    prefill: list[Update]
    cycle: list[Update]


def uniform_sampler(rng: np.random.Generator, domain: int):
    """``sample(n)`` draws ``n`` values uniformly from ``0 .. domain-1``."""
    return lambda n: rng.integers(0, domain, size=n)


def zipf_sampler(rng: np.random.Generator, domain: int, s: float = 1.0):
    """``sample(n)`` draws ``n`` values ``k`` in ``0 .. domain-1``, p(k) ∝ 1/(k+1)^s."""
    weights = 1.0 / np.arange(1, domain + 1, dtype=np.float64) ** s
    weights /= weights.sum()
    return lambda n: rng.choice(domain, size=n, p=weights)


def closed_cycle(
    relations: tuple[str, ...],
    samplers: tuple[tuple, ...],
    window: int,
    updates: int,
) -> Stream:
    """Build a stream of ``updates`` updates per pass (one insert and one delete per step).

    ``samplers[r][c]`` draws column ``c`` of relation ``r``.  Tuples
    alternate between the relations, so with ``window`` a multiple of the
    relation count each relation keeps the same number of live tuples.
    """
    count = len(relations)
    tuples = updates // 2
    if window % count or tuples % count:
        raise ValueError("window and updates/2 must be multiples of the relation count")
    if tuples <= window:
        raise ValueError("a cycle needs more tuples than the window holds")
    per_relation = [
        list(zip(*(sample(tuples // count).tolist() for sample in columns)))
        for columns in samplers
    ]
    keys = [per_relation[i % count][i // count] for i in range(tuples)]
    inserts = [Update(relations[i % count], key, 1) for i, key in enumerate(keys)]
    deletes = [Update(relations[i % count], key, -1) for i, key in enumerate(keys)]
    cycle: list[Update] = []
    for step in range(tuples):
        cycle.append(inserts[(window + step) % tuples])
        cycle.append(deletes[step])
    return Stream(relations, window, keys, inserts[:window], cycle)


class LiveIndex:
    """Finds a tuple of one relation, with a given column value, inside a live range.

    ``by_value[v]`` is the sorted list of tuple indexes of the relation
    whose ``column`` equals ``v``; a bisect into a circular index range
    answers in O(log n) with no per-step state.
    """

    def __init__(self, stream: Stream, relation: int, column: int):
        self.tuples = len(stream.keys)
        self.by_value: dict[int, list[int]] = {}
        for index in range(relation, self.tuples, len(stream.relations)):
            self.by_value.setdefault(stream.keys[index][column], []).append(index)

    def find(self, value: int, low: int, span: int) -> int | None:
        """A tuple index in ``[low, low+span) (mod N)`` with the value, if any."""
        indexes = self.by_value.get(value)
        if not indexes:
            return None
        low %= self.tuples
        at = bisect_left(indexes, low)
        if at < len(indexes) and indexes[at] < low + span:
            return indexes[at]
        if indexes[0] < low + span - self.tuples:  # the range wraps around
            return indexes[0]
        return None


def list_query_reads(
    rng: np.random.Generator,
    stream: Stream,
    domain: int,
    ends: list[tuple[int, int]],
    margin: int = 0,
) -> list[list[tuple[tuple, bool]]]:
    """Lookup keys for ``Q(Y, X, Z) = R(Y, X) * S(Y, Z)``, as ``(key, is_hit)`` pairs.

    ``ends`` lists ``(u, n)``: ``n`` keys that are valid once ``u``
    (even) updates of a pass have been applied.  Half of the draws aim at
    a hit — a live ``R`` tuple joined on ``Y`` with a live ``S`` tuple —
    and fall back to a miss when no live ``S`` tuple shares the ``Y``.
    Misses carry an ``X`` outside the domain, so they are absent whatever
    the window holds.  ``margin`` keeps hits that many steps away from
    both edges of the window, for readers that do not know exactly how
    far the stream has been applied.
    """
    s_by_y = LiveIndex(stream, relation=1, column=0)
    tuples, span = len(stream.keys), stream.window - 2 * margin
    total = sum(n for _, n in ends)
    picks = iter(rng.integers(0, span // 2, size=total).tolist())
    coins = iter(rng.integers(0, 2, size=total).tolist())
    reads = []
    for applied, n in ends:
        low = applied // 2 + margin
        group = []
        for _ in range(n):
            pick = next(picks)
            # R sits at the even tuple indexes; stay inside [low, low+span).
            r_index = (low + low % 2 + 2 * pick) % tuples
            y, x = stream.keys[r_index]
            s_index = s_by_y.find(y, low, span) if next(coins) else None
            if s_index is None:
                group.append(((y, domain + pick, 0), False))
            else:
                group.append(((y, x, stream.keys[s_index][1]), True))
        reads.append(group)
    return reads


def hier_query_reads(
    stream: Stream, domain: int, join_sampler
) -> list[list[tuple[tuple, bool]]]:
    """One lookup key per update for ``Q(A, C) = R(A, B) * S(B, C)``.

    Entry ``i`` is valid once ``i+1`` updates of a pass have been
    applied.  Each draw samples the join value ``b`` from ``join_sampler``
    — the skew the writes have — and is a hit when both relations hold a
    live tuple with that ``b``; otherwise the key carries an ``A``
    outside the domain and is a certain miss.
    """
    r_by_b = LiveIndex(stream, relation=0, column=1)
    s_by_b = LiveIndex(stream, relation=1, column=0)
    joins = join_sampler(len(stream.cycle)).tolist()
    reads = []
    for i, b in enumerate(joins):
        low = (i + 2) // 2  # ceil((i+1)/2): the oldest tuple certainly live
        r_index = r_by_b.find(b, low, stream.window - 1)
        s_index = s_by_b.find(b, low, stream.window - 1)
        if r_index is None or s_index is None:
            reads.append([((domain + b, b), False)])
        else:
            reads.append(
                [((stream.keys[r_index][0], stream.keys[s_index][1]), True)]
            )
    return reads
