"""Shared topology builders and independent brute-force references."""

import collections
import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import antclust
from antclust.geomgraph import Topology, TopologyConfig, generate

# CLI tests start `python -m antclust` in a subprocess: let it import the
# same package these tests import
_SRC = str(Path(antclust.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

# property tests draw their examples from a fixed seed and keep no example
# database, so every run of the suite tries the same examples
settings.register_profile("antclust", derandomize=True, deadline=None, database=None)
settings.load_profile("antclust")


def make_topology(points, radio_range, area_side=None):
    """Topology from explicit positions (seed None marks it as hand-built)."""
    if area_side is None:
        flat = [abs(c) for p in points for c in p]
        area_side = max(flat + [1.0]) * 2 + 1.0
    cfg = TopologyConfig(n=len(points), area_side=area_side, range=radio_range, seed=None)
    return Topology(cfg, points)


def path_topology(n):
    """0 - 1 - ... - (n-1): unit spacing on a line, range 1.5."""
    return make_topology([(float(i), 0.0) for i in range(n)], 1.5)


def star_topology(leaves=4):
    """True star: center id 0 at (1, 1), pairwise non-adjacent leaves (max 5
    in the plane)."""
    assert 1 <= leaves <= 5
    pts = [(1.0, 1.0)]
    for i in range(leaves):
        angle = 2 * math.pi * i / max(leaves, 3)
        pts.append((1.0 + 0.95 * math.cos(angle), 1.0 + 0.95 * math.sin(angle)))
    t = make_topology(pts, 1.0)
    closed = closed_sets(t)
    assert closed[0] == set(range(leaves + 1)) and all(closed[v] == {0, v} for v in range(1, leaves + 1))
    return t


def hub_topology(leaves=7):
    """Center id 0 at (1, 1) with `leaves` nodes packed close: center degree
    = leaves.

    The leaves are mutually adjacent; use star_topology when leaf
    independence matters.
    """
    pts = [(1.0, 1.0)]
    for i in range(leaves):
        angle = 2 * math.pi * i / leaves
        pts.append((1.0 + 0.3 * math.cos(angle), 1.0 + 0.3 * math.sin(angle)))
    return make_topology(pts, 1.0)


def cycle_topology(n):
    """0 - 1 - ... - (n-1) - 0 on a circle of radius 1: the range lies between
    the side and the next chord, so only neighbours on the cycle are linked."""
    assert n >= 4
    pts = [(1.0 + math.cos(2 * math.pi * i / n), 1.0 + math.sin(2 * math.pi * i / n)) for i in range(n)]
    return make_topology(pts, math.sin(math.pi / n) + math.sin(2 * math.pi / n))


def complete_topology(n):
    pts = [(0.01 * i, 0.0) for i in range(n)]
    return make_topology(pts, 10.0)


def edgeless_topology(n):
    pts = [(10.0 * i, 0.0) for i in range(n)]
    return make_topology(pts, 1.0)


def random_topology(n, area_side, radio_range, seed):
    return generate(TopologyConfig(n=n, area_side=area_side, range=radio_range, seed=seed))


def closed_sets(t):
    """Each node's closed neighbourhood (itself and the nodes in its range)
    as a set of ids, read from the rows of the closed-neighbourhood matrix."""
    return [set(np.flatnonzero(row).tolist()) for row in t.closed_neighborhood_matrix]


def brute_min_dominating_size(t):
    """Reference optimum by plain set enumeration in increasing subset size."""
    nodes = list(range(t.n))
    closed = closed_sets(t)
    for size in range(1, t.n + 1):
        for subset in itertools.combinations(nodes, size):
            covered = set()
            for v in subset:
                covered |= closed[v]
            if len(covered) == t.n:
                return size
    raise AssertionError("unreachable")


def greedy_reference(t):
    """Greedy dominating set by plain sets: head the uncovered node that
    newly covers the most nodes, lowest id on ties."""
    closed = closed_sets(t)
    uncovered = set(range(t.n))
    heads = set()
    while uncovered:
        pick = max(sorted(uncovered), key=lambda v: len(closed[v] & uncovered))  # first max: lowest id
        heads.add(pick)
        uncovered -= closed[pick]
    return heads


def two_for_one_reference(t, heads):
    """The 2-for-1 step by plain sets: the first head pair (a, b) in id order
    for which some node covers everything the other heads leave uncovered
    is replaced by the lowest such node (or dropped when the other heads
    cover everything); repeat until no pair qualifies."""
    closed = closed_sets(t)
    hs = sorted(set(heads))
    while len(hs) >= 2:
        for a, b in itertools.combinations(hs, 2):
            lost = set(range(t.n))
            for h in hs:
                if h not in (a, b):
                    lost -= closed[h]
            if not lost:
                hs = sorted(set(hs) - {a, b})
                break
            v = next((v for v in range(t.n) if lost <= closed[v]), None)
            if v is not None:
                hs = sorted(set(hs) - {a, b} | {v})
                break
        else:
            break
    return set(hs)


def wca_weight_reference(t, v, p):
    """WCA weight of node v by a plain loop over its neighbours."""
    x, y = t.positions[v]
    neighbors = sorted(closed_sets(t)[v] - {v})
    dist_sum = sum(math.dist((x, y), t.positions[u]) for u in neighbors)
    mobility = (p.mobility or {}).get(v, 0.0)
    tenure = (p.head_tenure or {}).get(v, 0.0)
    return p.w1 * abs(len(neighbors) - p.ideal_degree) + p.w2 * dist_sum + p.w3 * mobility + p.w4 * tenure


def roulette_reference(t, ph, params, covered, u):
    """The colony's roulette pick by plain arithmetic: the candidates are the
    nodes that would newly cover a node outside ``covered``, in id order, and
    the pick is the first whose cumulative share of the scores
    alpha * gain + beta * pheromone exceeds the draw ``u`` in [0, 1)."""
    closed = closed_sets(t)
    cand = [v for v in range(t.n) if closed[v] - covered]
    scores = [params.alpha * len(closed[v] - covered) + params.beta * float(ph[v]) for v in cand]
    total = sum(scores)
    cumulative = 0.0
    for v, s in zip(cand, scores):
        cumulative += s / total
        if cumulative > u:
            return v
    return cand[-1]  # u above a total that rounded below 1


def bfs_within(t, v, k):
    """Nodes at most k hops from v (v included), by plain breadth-first search."""
    closed = closed_sets(t)
    dist = {v: 0}
    queue = collections.deque([v])
    while queue:
        u = queue.popleft()
        if dist[u] == k:
            continue
        for w in closed[u] - {u}:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return set(dist)


@pytest.fixture
def path4():
    return path_topology(4)


@pytest.fixture
def path3():
    return path_topology(3)
