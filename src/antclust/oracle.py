"""Ground-truth head-set solvers: an exact MILP oracle, a greedy reference
and two lower bounds.

The exact oracle solves the binary covering program min 1·x subject to
closed_neighborhood_matrix · x >= 1 with HiGHS, and returns a result only
when HiGHS proves it optimal within a fixed branch-and-bound node budget.
The lower bounds need numpy only: a greedy 2-packing (fractions of a
millisecond) and the ceiled value of a feasible solution of the packing
LP max 1·y subject to closed_neighborhood_matrix · y <= 1, y >= 0, which is
the dual of the covering LP (milliseconds at n = 200).
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

# simplex pivots per LP bound. The default sweep grid's LPs take at most
# about 1,300; a simplex cut short still gives a valid, weaker bound.
PIVOT_BUDGET = 5000


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


def lp_lower_bound(t: Topology) -> int:
    """Ceiled value of a feasible packing-LP solution: a lower bound on every
    dominating set.

    Any y >= 0 with closed · y <= 1 satisfies 1·y <= the covering LP's value
    <= the optimum. A dense primal simplex solves the packing LP on a reduced
    matrix: node u's variable goes when some N[u'] is a subset of N[u] (u'
    can carry its weight), a node's constraint goes when its restricted
    N[w] is a subset of another's. The right-hand side is perturbed to
    1 + 1e-7·i/m, which keeps Dantzig's rule from stalling on this
    degenerate LP. The certificate trusts none of that: y is clipped at 0
    and divided by max(1, max(closed · y)) over the full matrix, so the
    bound holds however the simplex ends (at most PIVOT_BUDGET pivots).
    """
    closed = t.closed_neighborhood_matrix
    cols = np.flatnonzero(~_dominated(closed, by_subset=True))
    rows = np.flatnonzero(~_dominated(closed[:, cols], by_subset=False))
    y = np.zeros(t.n)
    y[cols] = _packing_simplex(closed[np.ix_(rows, cols)])
    y = np.maximum(y, 0.0)
    support = np.flatnonzero(y)
    load = y[support] @ closed[support]  # closed · y: the matrix is symmetric
    scale = max(1.0, float(load.max()))
    return math.ceil(float(y.sum()) / scale - 1e-6)


def _dominated(sets: np.ndarray, by_subset: bool) -> np.ndarray:
    """Which rows of the boolean matrix ``sets`` another row dominates.

    Row a is dominated by a row b that is a subset of it (``by_subset``) or
    a superset of it (otherwise); of equal rows, all but the lowest id are.
    """
    counts = sets.astype(np.float32)  # small integer counts are exact in float32
    size = counts.sum(axis=1)
    inside = (counts @ counts.T) == size[:, None]  # inside[a, b]: row a is a subset of row b
    by = inside.T if by_subset else inside  # by[a, b]: row b dominates row a
    ids = np.arange(len(sets))
    equal = inside & inside.T
    return (by & (~equal | (ids[None, :] < ids[:, None]))).any(axis=1)


def _packing_simplex(a: np.ndarray) -> np.ndarray:
    """A y >= 0 with a · y <= 1 + 1e-7·i/m for row i, and 1·y as large as the
    simplex gets it in PIVOT_BUDGET pivots (a has m rows of 0s and 1s)."""
    m, k = a.shape
    # tableau: constraint rows [a | slack identity | rhs], then the reduced costs
    tab = np.zeros((m + 1, k + m + 1))
    tab[:m, :k] = a
    tab[np.arange(m), k + np.arange(m)] = 1.0
    tab[:m, -1] = 1.0 + 1e-7 * np.arange(m) / m
    tab[m, :k] = -1.0
    basis = np.arange(k, k + m)
    for _ in range(PIVOT_BUDGET):
        enter = int(np.argmin(tab[m, :-1]))
        if tab[m, enter] > -1e-9:
            break
        column = tab[:m, enter]
        ratios = np.full(m, np.inf)
        up = column > 1e-9
        ratios[up] = tab[:m, -1][up] / column[up]
        leave = int(np.argmin(ratios))
        if ratios[leave] == np.inf:
            break
        pivot_row = tab[leave] / tab[leave, enter]
        tab -= np.outer(tab[:, enter], pivot_row)
        tab[leave] = pivot_row
        basis[leave] = enter
    y = np.zeros(k)
    structural = basis < k
    y[basis[structural]] = tab[:m, -1][structural]
    return y
