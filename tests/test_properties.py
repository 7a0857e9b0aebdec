"""Property tests on small generated point sets: the topology build, its two
walks and every solver.

Point sets have 1 to 20 nodes, often with several nodes at one position,
mostly in a 1000 x 1000 square but also anywhere in the finite floats. The
build's own test takes any positive float as the range, from subnormal to
the largest finite one; the other properties take a share of the points'
largest distance, so that most of their graphs are neither edgeless nor
complete.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from antclust.aco import AcoParams
from antclust.clustering import is_dominating, validate_clustering
from antclust.errors import ConfigurationError
from antclust.experiments import ALGORITHMS, ExperimentSpec, elect
from antclust.geomgraph import Topology, TopologyConfig, generate
from antclust.oracle import lp_lower_bound, packing_lower_bound

from conftest import brute_min_dominating_size

coordinate = st.one_of(st.floats(0.0, 1000.0), st.floats(allow_nan=False, allow_infinity=False))
any_range = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def point_sets(draw):
    """1 to 20 points drawn from a pool of at most 20, so that some coincide."""
    pool = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=20))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=20))
    return [pool[i] for i in picks]


def build(points, radio_range):
    return Topology(TopologyConfig(n=len(points), range=radio_range, seed=None), points)


@st.composite
def topologies(draw):
    """A point set and a range of 5 % to 100 % of the points' largest
    distance; any positive range where that product is 0, not finite or has
    a square that underflows."""
    points = draw(point_sets())
    spread = max(math.dist(p, q) for p in points for q in points)
    radio_range = draw(st.floats(0.05, 1.0)) * spread
    if not (radio_range * radio_range > 0 and math.isfinite(radio_range)):
        radio_range = draw(any_range)
        assume(radio_range * radio_range > 0)
    return build(points, radio_range)


@given(point_sets(), any_range)
def test_closed_matrix_is_the_squared_distance_rule(points, radio_range):
    r2 = radio_range * radio_range
    if r2 == 0:
        with pytest.raises(ConfigurationError, match="range"):
            build(points, radio_range)
        return
    t = build(points, radio_range)
    # the build's own arithmetic in Python floats; math.dist rounds
    # differently at the boundary
    expected = [[(xu - xv) * (xu - xv) + (yu - yv) * (yu - yv) < r2 for xv, yv in points] for xu, yu in points]
    closed = t.closed_neighborhood_matrix
    assert np.array_equal(closed, np.array(expected))
    assert (closed == closed.T).all()
    assert list(t.degrees) == [int(row.sum()) - 1 for row in closed]


@given(topologies(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**16))
def test_every_solver_dominates_validates_and_repeats(t, k, ants, iterations, seed):
    spec = ExperimentSpec(kconid_k=k, aco=AcoParams(ants=ants, iterations=iterations, seed=seed))
    results = {name: elect(t, name, spec) for name in ALGORITHMS}
    optimum = results["exact"][0].head_count
    for name, (c, used) in results.items():
        assert is_dominating(t, c.heads, c.hops), name
        assert validate_clustering(t, c) == [], name
        assert elect(t, name, spec) == (c, used), name
        if c.hops == 1:
            assert c.head_count >= optimum, name


@given(topologies())
def test_packing_lower_bound_never_exceeds_the_optimum(t):
    assert 1 <= packing_lower_bound(t) <= brute_min_dominating_size(t)


@given(topologies())
def test_lp_lower_bound_lies_between_the_packing_bound_and_the_optimum(t):
    assert packing_lower_bound(t) <= lp_lower_bound(t) <= brute_min_dominating_size(t)


@given(topologies(), st.data())
def test_cover_walk_starts_with_the_forced_heads_and_picks_only_positive_gains(t, data):
    forced = data.draw(st.lists(st.integers(0, t.n - 1), unique=True, max_size=t.n))
    closed = t.closed_neighborhood_matrix
    picked_gains = []

    def greedy(gains, covered):
        # the incremental gains equal a recount over the uncovered nodes
        assert np.array_equal(gains, closed[:, ~covered].sum(axis=1))
        v = int(np.argmax(np.where(covered, -1, gains)))
        picked_gains.append(int(gains[v]))
        return v

    heads = t.cover_walk(forced, greedy)
    assert heads[:len(forced)] == forced
    assert len(picked_gains) == len(heads) - len(forced)
    assert all(g > 0 for g in picked_gains)
    assert is_dominating(t, heads)


@given(topologies(), st.data())
def test_claim_walk_partitions_the_nodes_into_balls(t, data):
    order = data.draw(st.permutations(range(t.n)))
    reach = t.reach(2)
    claimed_all = []
    for v, claimed in t.claim_walk(order, reach.__getitem__):
        assert v in claimed and reach[v, claimed].all()
        claimed_all.extend(claimed.tolist())
    assert sorted(claimed_all) == list(range(t.n))


# 1-hop and 2-hop balls agree on most drawn graphs; the examples are graphs
# where they do not
@given(topologies())
@example(build([(0, 0), (1, 0), (2, 0)], 1.5))
@example(generate(TopologyConfig(n=60, range=200.0, seed=1)))
def test_packing_lower_bound_is_the_claim_walk_over_reach_2(t):
    walk = t.claim_walk(np.argsort(t.degrees, kind="stable"), t.reach(2).__getitem__)
    assert packing_lower_bound(t) == sum(1 for _ in walk)
