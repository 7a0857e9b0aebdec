"""Property tests on small generated point sets: the topology build and every solver.

Point sets have 1 to 20 nodes, often with several nodes at one position,
mostly in a 1000 x 1000 square but also anywhere in the finite floats; the
range is any positive float, from subnormal to the largest finite one.
"""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from antclust.aco import AcoParams
from antclust.clustering import is_dominating, validate_clustering
from antclust.errors import ConfigurationError
from antclust.experiments import ALGORITHMS, ExperimentSpec, elect
from antclust.geomgraph import Topology, TopologyConfig
from antclust.oracle import lp_lower_bound, packing_lower_bound

from conftest import brute_min_dominating_size

coordinate = st.one_of(st.floats(0.0, 1000.0), st.floats(allow_nan=False, allow_infinity=False))
any_range = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# ranges of the scale of the square, so that graphs are neither all edgeless nor all complete
useful_range = st.one_of(st.floats(1.0, 1500.0), any_range)


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
    points, radio_range = draw(point_sets()), draw(useful_range)
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
