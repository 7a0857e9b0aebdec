"""Ground-truth head-set solvers: an exact MILP oracle, a greedy reference
and a lower bound.

The exact oracle solves the binary covering program min 1·x subject to
closed_neighborhood_matrix · x >= 1 with HiGHS, and returns a result only
when HiGHS proves it optimal within a fixed branch-and-bound node budget.
The lower bound is a greedy 2-packing and needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NodeLimitError
from .geomgraph import Topology

# HiGHS branch-and-bound nodes per exact solve. Nodes, not seconds, so the
# answer does not depend on the machine's speed. Every instance of the
# default sweep grid is proven at the root node.
NODE_BUDGET = 1000


@dataclass(frozen=True)
class OracleResult:
    optimum_size: int
    witness: frozenset[int]


def exact_min_dominating_set(t: Topology) -> OracleResult:
    """Minimum dominating set from a binary covering program solved by HiGHS.

    The search may use NODE_BUDGET (1000) branch-and-bound nodes. Raises
    NodeLimitError unless HiGHS proves the witness optimal within them.
    """
    # scipy takes about 0.6 s to import; only this solver needs it
    from scipy import sparse
    from scipy.optimize import LinearConstraint, milp

    cover = LinearConstraint(sparse.csr_array(t.closed_neighborhood_matrix.astype(np.float64)), lb=1)
    res = milp(np.ones(t.n), constraints=cover, integrality=np.ones(t.n), bounds=(0, 1),
               options={"node_limit": NODE_BUDGET})
    found = None if res.x is None else int(np.count_nonzero(res.x > 0.5))
    lower = None if found is None else math.ceil(res.mip_dual_bound - 1e-6)
    # status 0 alone is not a proof: HiGHS also stops at a relative gap of 1e-4
    if res.status != 0 or lower < found:
        best = "no head set found" if found is None else f"best set found: {found} heads, lower bound {lower}"
        raise NodeLimitError(f"optimality not proven within {NODE_BUDGET} branch-and-bound nodes ({best})")
    witness = frozenset(np.flatnonzero(res.x > 0.5).tolist())
    return OracleResult(optimum_size=len(witness), witness=witness)


def greedy_min_dominating_set(t: Topology) -> set[int]:
    """Greedy reference: repeatedly head the uncovered node that newly covers
    the most nodes (ties to the lower id) until everything is covered."""
    closed = t.closed_neighborhood_matrix
    # gains[v] = uncovered nodes v would newly cover, kept up to date
    gains = (t.degrees + 1).astype(np.int64)
    covered = np.zeros(t.n, dtype=bool)
    heads: list[int] = []
    while not covered.all():
        # uncovered nodes gain >= 1 (themselves); first max: lowest id on ties
        pick = int(np.argmax(np.where(covered, -1, gains)))
        heads.append(pick)
        newly = closed[pick] & ~covered
        covered[newly] = True
        gains -= closed[np.flatnonzero(newly)].sum(axis=0)
    return set(heads)


def packing_lower_bound(t: Topology) -> int:
    """Size of a greedy 2-packing: a lower bound on every dominating set.

    Nodes are visited by ascending degree (ties to the lower id); a node is
    taken unless an earlier pick lies within 2 hops of it. The picks'
    closed neighbourhoods are pairwise disjoint, so each needs a head of
    its own, and no dominating set has fewer heads than there are picks.
    """
    closed = t.closed_neighborhood_matrix
    near_pick = np.zeros(t.n, dtype=bool)
    picks = 0
    for v in np.argsort(t.degrees, kind="stable"):
        if not near_pick[v]:
            picks += 1
            near_pick |= closed[closed[v]].any(axis=0)
    return picks
