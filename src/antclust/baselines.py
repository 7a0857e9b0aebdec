"""Classical deterministic cluster-head election schemes.

All four share the same sequential skeleton: among the still-undecided
nodes, the one with the best priority becomes a head and claims its
undecided neighbors as members; this repeats until every node is decided.
Consequently no two heads are ever adjacent (except for the k-hop scheme,
whose heads are non-adjacent within k hops).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .clustering import Clustering, compute_roles
from .errors import ConfigurationError
from .geomgraph import Topology


@dataclass(frozen=True)
class WcaParams:
    """Weighted election tunables.

    The four weighting factors must sum to 1. ``ideal_degree`` is the target
    degree a head should have; ``mobility`` and ``head_tenure`` are optional
    per-node maps (average speed, cumulative time served as head) that
    default to 0 on static snapshots.
    """

    w1: float = 0.7
    w2: float = 0.2
    w3: float = 0.05
    w4: float = 0.05
    ideal_degree: float = 10.0
    mobility: Mapping[int, float] | None = None
    head_tenure: Mapping[int, float] | None = None

    def validate(self) -> None:
        for name in ("w1", "w2", "w3", "w4"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        total = self.w1 + self.w2 + self.w3 + self.w4
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"w1 + w2 + w3 + w4 must equal 1 (got {total!r})")
        if self.ideal_degree < 0:
            raise ConfigurationError(f"ideal_degree must be >= 0, got {self.ideal_degree!r}")


def wca_node_weight(t: Topology, v, p: WcaParams) -> float:
    """Combined election weight: degree deviation, neighbor distances, mobility, tenure."""
    p.validate()
    v = t._check_id(v)
    degree_diff = abs(t.degree(v) - p.ideal_degree)
    x, y = t.positions[v]
    dist_sum = sum(math.dist((x, y), t.positions[u]) for u in t.neighbors(v))
    mobility = float(p.mobility.get(v, 0.0)) if p.mobility else 0.0
    tenure = float(p.head_tenure.get(v, 0.0)) if p.head_tenure else 0.0
    return p.w1 * degree_diff + p.w2 * dist_sum + p.w3 * mobility + p.w4 * tenure


def _elect(t: Topology, priority: Callable[[int], tuple], reach: Callable[[int], frozenset[int]], hops: int = 1) -> Clustering:
    """Sequential election: best-priority undecided node becomes a head and
    claims the undecided nodes it reaches."""
    undecided = set(range(t.n))
    heads: list[int] = []
    assignment: dict[int, int] = {}
    while undecided:
        h = min(undecided, key=priority)
        undecided.discard(h)
        heads.append(h)
        for m in sorted(reach(h) & undecided):
            assignment[m] = h
        undecided -= reach(h)
    head_set = frozenset(heads)
    return Clustering(heads=head_set, assignment=assignment, roles=compute_roles(t, head_set), hops=hops)


def lowest_id(t: Topology) -> Clustering:
    """The undecided node with the smallest id wins its neighborhood."""
    return _elect(t, priority=lambda v: (v,), reach=t.neighbors)


def highest_degree(t: Topology) -> Clustering:
    """The undecided node with the most neighbors wins; ties go to the lower id."""
    return _elect(t, priority=lambda v: (-t.degree(v), v), reach=t.neighbors)


def kconid(t: Topology, k: int = 1) -> Clustering:
    """Election by (k-hop connectivity, lower id); members sit within k hops.

    For k=1 the connectivity equals the node degree, so the head set matches
    highest_degree exactly.
    """
    if not isinstance(k, int) or k < 1:
        raise ConfigurationError(f"k must be an integer >= 1, got {k!r}")
    reach = [t.k_hop_neighborhood(v, k) for v in range(t.n)]
    connectivity = [len(r) for r in reach]
    return _elect(t, priority=lambda v: (-connectivity[v], v), reach=lambda v: reach[v], hops=k)


def wca(t: Topology, p: WcaParams | None = None) -> Clustering:
    """The undecided node with the minimum combined weight wins; ties go to the lower id."""
    p = p if p is not None else WcaParams()
    p.validate()
    weights = [wca_node_weight(t, v, p) for v in range(t.n)]
    return _elect(t, priority=lambda v: (weights[v], v), reach=t.neighbors)
