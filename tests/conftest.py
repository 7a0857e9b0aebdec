"""Shared topology builders and an independent brute-force reference solver."""

import itertools
import math
import os
from pathlib import Path

import pytest

import antclust
from antclust.geomgraph import Topology, TopologyConfig, generate

# CLI tests start `python -m antclust` in a subprocess: let it import the
# same package these tests import
_SRC = str(Path(antclust.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


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
    """True star: center id 0, pairwise non-adjacent leaves (max 5 in the plane)."""
    assert 1 <= leaves <= 5
    pts = [(0.0, 0.0)]
    for i in range(leaves):
        angle = 2 * math.pi * i / max(leaves, 3)
        pts.append((0.95 * math.cos(angle), 0.95 * math.sin(angle)))
    t = make_topology(pts, 1.0)
    assert t.degree(0) == leaves and all(t.degree(v) == 1 for v in range(1, leaves + 1))
    return t


def hub_topology(leaves=7):
    """Center id 0 with `leaves` nodes packed close: center degree = leaves.

    The leaves are mutually adjacent; use star_topology when leaf
    independence matters.
    """
    pts = [(0.0, 0.0)]
    for i in range(leaves):
        angle = 2 * math.pi * i / leaves
        pts.append((0.3 * math.cos(angle), 0.3 * math.sin(angle)))
    return make_topology(pts, 1.0)


def complete_topology(n):
    pts = [(0.01 * i, 0.0) for i in range(n)]
    return make_topology(pts, 10.0)


def edgeless_topology(n):
    pts = [(10.0 * i, 0.0) for i in range(n)]
    return make_topology(pts, 1.0)


def random_topology(n, area_side, radio_range, seed):
    return generate(TopologyConfig(n=n, area_side=area_side, range=radio_range, seed=seed))


def brute_min_dominating_size(t):
    """Reference optimum by plain set enumeration in increasing subset size."""
    nodes = list(range(t.n))
    closed = {v: set(t.closed_neighborhood(v)) for v in nodes}
    for size in range(1, t.n + 1):
        for subset in itertools.combinations(nodes, size):
            covered = set()
            for v in subset:
                covered |= closed[v]
            if len(covered) == t.n:
                return size
    raise AssertionError("unreachable")


@pytest.fixture
def path4():
    return path_topology(4)


@pytest.fixture
def path3():
    return path_topology(3)
