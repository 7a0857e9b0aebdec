"""Ground-truth head-set solvers: exhaustive minimum and a greedy reference.

The exhaustive search enumerates node subsets in increasing size (and, within
a size, lexicographic) order, so the first dominating subset found is a true
minimum and the witness is deterministic.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .clustering import domination_number_lower_bound
from .errors import NodeLimitError
from .geomgraph import Topology

DEFAULT_NODE_LIMIT = 14


@dataclass(frozen=True)
class OracleResult:
    optimum_size: int
    witness: frozenset[int]


def exact_min_dominating_set(t: Topology, node_limit: int = DEFAULT_NODE_LIMIT) -> OracleResult:
    """Exhaustive minimum dominating set; refuses instances above node_limit."""
    if t.n > node_limit:
        raise NodeLimitError(
            f"exhaustive search refused: {t.n} nodes exceeds the node limit of {node_limit}"
        )
    if node_limit > DEFAULT_NODE_LIMIT:
        warnings.warn(
            f"node_limit {node_limit} above {DEFAULT_NODE_LIMIT}: runtime grows exponentially",
            stacklevel=2,
        )
    n = t.n
    masks = [0] * n
    for v in range(n):
        m = 1 << v
        for u in t.neighbors(v):
            m |= 1 << u
        masks[v] = m
    full = (1 << n) - 1
    # starting at the degree-based lower bound skips only sizes that provably
    # cannot dominate, so the first hit is still a true optimum
    for size in range(max(1, domination_number_lower_bound(t)), n + 1):
        for subset in itertools.combinations(range(n), size):
            acc = 0
            for v in subset:
                acc |= masks[v]
            if acc == full:
                return OracleResult(optimum_size=size, witness=frozenset(subset))
    raise AssertionError("unreachable: the full node set always dominates")


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
