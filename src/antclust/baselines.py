"""Classical deterministic cluster-head election schemes.

All four are one claim walk (``Topology.claim_walk``), the walk that
``oracle.packing_lower_bound`` also runs: the nodes are ranked once by the
scheme's key (id, degree, k-hop connectivity or combined weight; ties go to
the lower id), and each node that is still unclaimed when its turn comes
becomes a head and claims the unclaimed nodes of its reach row as members.
Consequently no two heads are ever adjacent (except for the k-hop scheme,
whose heads are non-adjacent within k hops).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .clustering import Clustering, compute_roles
from .errors import ConfigurationError
from .geomgraph import Topology, _is_finite, _is_int


@dataclass(frozen=True)
class WcaParams:
    """Weighted election tunables.

    The four weighting factors must sum to 1. ``ideal_degree`` is the target
    degree a head should have; ``mobility`` and ``head_tenure`` are optional
    per-node maps (average speed, cumulative time served as head) that
    default to 0 on static snapshots. Valid by construction: ``__post_init__``
    checks every field and keeps the maps as read-only copies.
    """

    w1: float = 0.7
    w2: float = 0.2
    w3: float = 0.05
    w4: float = 0.05
    ideal_degree: float = 10.0
    mobility: Mapping[int, float] | None = None
    head_tenure: Mapping[int, float] | None = None

    def __post_init__(self) -> None:
        for name in ("mobility", "head_tenure"):
            m = getattr(self, name)
            if m is not None:
                object.__setattr__(self, name, MappingProxyType(dict(m)))
        for name in ("w1", "w2", "w3", "w4", "ideal_degree"):
            value = getattr(self, name)
            if not _is_finite(value):
                raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
        for name in ("mobility", "head_tenure"):
            for v, x in (getattr(self, name) or {}).items():
                if not (_is_int(v) and v >= 0):
                    raise ConfigurationError(f"{name} keys must be node ids (integers >= 0), got {v!r}")
                if not _is_finite(x):
                    raise ConfigurationError(f"{name}[{v!r}] must be a finite number, got {x!r}")
        for name in ("w1", "w2", "w3", "w4"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        total = self.w1 + self.w2 + self.w3 + self.w4
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"w1 + w2 + w3 + w4 must equal 1 (got {total!r})")
        if self.ideal_degree < 0:
            raise ConfigurationError(f"ideal_degree must be >= 0, got {self.ideal_degree!r}")


def wca_weights(t: Topology, p: WcaParams) -> np.ndarray:
    """Combined election weight of every node: degree deviation, summed
    neighbour distances, mobility and tenure."""
    x, y = np.array(t.positions).T
    # the closed matrix adds each node's self-pair at distance 0.0, which adds nothing
    u, w = np.nonzero(t.closed_neighborhood_matrix)
    dist_sum = np.bincount(u, weights=np.hypot(x[u] - x[w], y[u] - y[w]), minlength=t.n)
    mobility = _per_node(t, "mobility", p.mobility)
    tenure = _per_node(t, "head_tenure", p.head_tenure)
    return p.w1 * np.abs(t.degrees - p.ideal_degree) + p.w2 * dist_sum + p.w3 * mobility + p.w4 * tenure


def _per_node(t: Topology, name: str, m: Mapping[int, float] | None) -> np.ndarray:
    """A per-node map as an array; nodes the map leaves out read 0."""
    m = m or {}
    strays = sorted(v for v in m if v >= t.n)
    if strays:
        raise ConfigurationError(f"{name} keys {strays} are not node ids of this topology (0..{t.n - 1})")
    return np.array([m.get(v, 0.0) for v in range(t.n)], dtype=float)


def _elect(t: Topology, order: Iterable[int], reach: np.ndarray, hops: int = 1) -> Clustering:
    """``Topology.claim_walk`` over ``order`` with ``reach`` rows as balls:
    each node still unclaimed at its turn becomes a head of what it claims."""
    heads: list[int] = []
    assignment: dict[int, int] = {}
    for h, claimed in t.claim_walk(order, reach.__getitem__):
        heads.append(h)
        assignment.update((m, h) for m in claimed.tolist() if m != h)
    head_set = frozenset(heads)
    return Clustering(heads=head_set, assignment=assignment, roles=compute_roles(t, head_set), hops=hops)


def _ranked(key) -> list[int]:
    """Node ids by ascending key; a stable sort sends ties to the lower id."""
    return np.argsort(key, kind="stable").tolist()


def lowest_id(t: Topology) -> Clustering:
    """The undecided node with the smallest id wins its neighborhood."""
    return _elect(t, range(t.n), t.reach(1))


def highest_degree(t: Topology) -> Clustering:
    """The undecided node with the most neighbors wins; ties go to the lower id."""
    return _elect(t, _ranked(-t.degrees), t.reach(1))


def kconid(t: Topology, k: int = 1) -> Clustering:
    """Election by (k-hop connectivity, lower id); members sit within k hops.

    For k=1 the connectivity equals the node degree, so the head set matches
    highest_degree exactly.
    """
    if not _is_int(k) or k < 1:
        raise ConfigurationError(f"k must be an integer >= 1, got {k!r}")
    reach = t.reach(k)
    return _elect(t, _ranked(-reach.sum(axis=1)), reach, hops=k)


def wca(t: Topology, p: WcaParams | None = None) -> Clustering:
    """The undecided node with the minimum combined weight wins; ties go to the lower id."""
    p = p if p is not None else WcaParams()
    return _elect(t, _ranked(wca_weights(t, p)), t.reach(1))
