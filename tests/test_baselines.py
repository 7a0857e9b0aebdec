import hashlib
import json

import numpy as np
import pytest

from antclust.baselines import WcaParams, highest_degree, kconid, lowest_id, wca, wca_weights
from antclust.clustering import clustering_to_dict, is_dominating, validate_clustering
from antclust.errors import ConfigurationError

from conftest import (
    closed_sets,
    edgeless_topology,
    make_topology,
    path_topology,
    random_topology,
    star_topology,
    wca_weight_reference,
)


def heads_independent(t, heads):
    heads, closed = sorted(heads), closed_sets(t)
    return all(v not in closed[u] for i, u in enumerate(heads) for v in heads[i + 1:])


class TestLowestId:
    def test_path3(self, path3):
        c = lowest_id(path3)
        assert c.heads == frozenset({0, 2})
        assert c.assignment == {1: 0}

    def test_star_center_zero(self):
        c = lowest_id(star_topology(4))
        assert c.heads == frozenset({0})
        assert set(c.assignment) == {1, 2, 3, 4}

    def test_edgeless(self):
        c = lowest_id(edgeless_topology(5))
        assert c.heads == frozenset(range(5))

    def test_head_id_below_member_ids(self):
        for seed in range(8):
            t = random_topology(40, 150, 40, seed=seed)
            c = lowest_id(t)
            for m, h in c.assignment.items():
                assert h < m


class TestHighestDegree:
    def test_star_center_wins(self):
        c = highest_degree(star_topology(5))
        assert c.heads == frozenset({0})
        assert set(c.assignment.values()) == {0}

    def test_disjoint_edges_tie_break(self):
        t = make_topology([(0, 0), (1, 0), (10, 0), (11, 0)], 1.5)
        c = highest_degree(t)
        assert c.heads == frozenset({0, 2})

    def test_edgeless(self):
        assert highest_degree(edgeless_topology(4)).heads == frozenset(range(4))


class TestKconid:
    def test_k1_matches_highest_degree(self):
        for seed in range(10):
            t = random_topology(35, 150, 45, seed=seed)
            assert kconid(t, 1).heads == highest_degree(t).heads

    def test_equal_connectivity_prefers_lower_id(self):
        t = make_topology([(0, 0), (1, 0)], 1.5)
        assert kconid(t, 1).heads == frozenset({0})

    def test_path5_k2_single_head(self):
        t = path_topology(5)
        c = kconid(t, 2)
        assert c.heads == frozenset({2})
        assert c.hops == 2
        assert set(c.assignment) == {0, 1, 3, 4}
        assert is_dominating(t, c.heads, 2)

    def test_k_dominating_on_random_graphs(self):
        for seed in range(5):
            t = random_topology(40, 200, 40, seed=seed)
            for k in (1, 2, 3):
                c = kconid(t, k)
                assert is_dominating(t, c.heads, k)

    def test_invalid_k(self, path3):
        with pytest.raises(ConfigurationError):
            kconid(path3, 0)


class TestWcaWeight:
    def test_zero_degree_difference(self, path3):
        p = WcaParams(w1=1, w2=0, w3=0, w4=0, ideal_degree=2)
        assert wca_weights(path3, p)[1] == 0.0

    def test_distance_sum(self):
        t = make_topology([(0, 0), (3, 0), (0, 4)], 4.5)
        p = WcaParams(w1=0, w2=1, w3=0, w4=0)
        assert wca_weights(t, p)[0] == pytest.approx(7.0)

    def test_mobility_and_tenure(self, path3):
        p = WcaParams(w1=0, w2=0, w3=0.5, w4=0.5, mobility={1: 2.0}, head_tenure={1: 4.0})
        assert wca_weights(path3, p)[1] == pytest.approx(3.0)

    def test_matches_loop_reference(self):
        # the array sums distances in another order than the loop, so the
        # two may differ in the last bits of a float64
        for seed in range(12):
            t = random_topology(60, 300, 90, seed=seed)
            p = WcaParams(mobility={v: 0.5 * v for v in range(0, 60, 4)}, head_tenure={3: 2.0})
            expected = [wca_weight_reference(t, v, p) for v in range(t.n)]
            np.testing.assert_allclose(wca_weights(t, p), expected, rtol=1e-12)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigurationError, match="w1"):
            WcaParams(w1=0.5, w2=0.2, w3=0.1, w4=0.1)

    @pytest.mark.parametrize("kwargs", [
        {"w1": True, "w2": 0, "w3": 0, "w4": 0},
        {"ideal_degree": True},
        {"mobility": {0: True}},
        {"mobility": {"0": 1.0}},
        {"head_tenure": {True: 1.0}},
        {"head_tenure": {1.0: 1.0}},
        {"head_tenure": {-1: 1.0}},
        {"w1": 10**400},
        {"mobility": {0: 10**400}},
    ])
    def test_rejected_when_built(self, kwargs):
        with pytest.raises(ConfigurationError):
            WcaParams(**kwargs)

    def test_map_keys_outside_the_topology_rejected(self):
        t = random_topology(60, 300, 90, seed=0)
        p = WcaParams(head_tenure={3: 2.0, 70: 1.0})
        with pytest.raises(ConfigurationError, match=r"head_tenure keys \[70\]"):
            wca_weights(t, p)
        with pytest.raises(ConfigurationError, match="head_tenure"):
            wca(t, p)

    def test_maps_are_copied(self, path3):
        mobility = {1: 2.0}
        p = WcaParams(w1=0, w2=0, w3=1, w4=0, mobility=mobility)
        mobility[1] = float("nan")
        mobility[0] = 5.0
        assert dict(p.mobility) == {1: 2.0}
        assert wca_weights(path3, p).tolist() == [0.0, 2.0, 0.0]
        with pytest.raises(TypeError):
            p.mobility[1] = 3.0


class TestWca:
    def test_edgeless(self):
        assert wca(edgeless_topology(4)).heads == frozenset(range(4))

    def test_star_ideal_degree_selects_center(self):
        t = star_topology(4)
        c = wca(t, WcaParams(w1=1, w2=0, w3=0, w4=0, ideal_degree=4))
        assert c.heads == frozenset({0})

    def test_no_two_heads_adjacent(self):
        for seed in range(8):
            t = random_topology(40, 150, 45, seed=seed)
            c = wca(t)
            assert heads_independent(t, c.heads)


class TestAllBaselines:
    @pytest.mark.parametrize("solver", [lowest_id, highest_degree, lambda t: kconid(t, 1), wca])
    def test_dominating_and_valid(self, solver):
        for seed in range(6):
            t = random_topology(30, 150, 50, seed=seed)
            c = solver(t)
            assert is_dominating(t, c.heads)
            assert validate_clustering(t, c) == []

    @pytest.mark.parametrize("solver", [lowest_id, highest_degree, lambda t: kconid(t, 2), wca])
    def test_deterministic(self, solver):
        t = random_topology(30, 150, 40, seed=99)
        a, b = solver(t), solver(t)
        assert a.heads == b.heads
        assert a.assignment == b.assignment

    @pytest.mark.parametrize("solver", [lowest_id, highest_degree, wca])
    def test_heads_independent(self, solver):
        for seed in range(6):
            t = random_topology(35, 150, 50, seed=seed)
            assert heads_independent(t, solver(t).heads)


# sha256 of the sorted-key JSON of clustering_to_dict (heads, assignment,
# roles, hops) for n=60, R=150 in a 1000-side square, seeds 0-2; recorded
# from the set-based election sweep that the matrix sweep replaced
GOLDEN = {
    0: {
        "lowest_id": "18be801838dde28b5cafd8a4f74e7e016670c98fd270f79ddbd63f7092d119ff",
        "highest_degree": "e099601ec4d77aaffc8281a8ec95195013dfb1c28c8c3ef3339aba7482a21fe7",
        "kconid1": "e099601ec4d77aaffc8281a8ec95195013dfb1c28c8c3ef3339aba7482a21fe7",
        "kconid2": "4ed68fb8bc78955c7b6559c7918fe2056f0f8af36f806ed92587415b4df59ce3",
        "kconid3": "6bdaaaa0b86f9fd752b331d58d3ac8eb21bade00e8e73eb61ce00a89d4ece384",
        "wca": "a25b6358c60b3834c6c78af285304324d0061f18a43fa60787f9c61ede917347",
    },
    1: {
        "lowest_id": "45e187c8955fbee18fed1beb9d6678591c89b1ba4cc26e762ff3711cda35a2b3",
        "highest_degree": "d72b75fe3f22a85bb733de8472be583239e0b0ad31fb0cfef5deabd665ddd5b2",
        "kconid1": "d72b75fe3f22a85bb733de8472be583239e0b0ad31fb0cfef5deabd665ddd5b2",
        "kconid2": "3738f4d14dc01cfbe851c46d0b340459f328aebdf5c1e98b636c95fadb325a30",
        "kconid3": "2e1261d51a25604ea77d07dcd0915266b9f7bd83b07722c461a1c21e588601c2",
        "wca": "ba56ba65f0cf8ee666e34c8dbb75bbb3e25b25994d6c59eeb545a39f4c200fd8",
    },
    2: {
        "lowest_id": "e7c48447a58c960b5602bed24dd524e4d90f9e1d0b44033a8fc9a12cf99874d0",
        "highest_degree": "3b91b8e4233b20307b60d9c072d281ab356a38cbf3bf675d4d20fde4ac10c775",
        "kconid1": "3b91b8e4233b20307b60d9c072d281ab356a38cbf3bf675d4d20fde4ac10c775",
        "kconid2": "365f0bc2d7b8801185b7a8fb8a9fbf8939ec24a7c4bd6e6cbc495caab83fce91",
        "kconid3": "c016b6393288d4ca1a9b2009c2c19a8f77b8b048f5b335fb70b86464db547272",
        "wca": "63e39f39d71a66d13e2e404eedea86f1c4306501d0b2b50fedf65da16707a7f2",
    },
}
GOLDEN_SOLVERS = {
    "lowest_id": lowest_id,
    "highest_degree": highest_degree,
    "kconid1": lambda t: kconid(t, 1),
    "kconid2": lambda t: kconid(t, 2),
    "kconid3": lambda t: kconid(t, 3),
    "wca": wca,
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
@pytest.mark.parametrize("name", sorted(GOLDEN_SOLVERS))
def test_golden_clusterings(seed, name):
    t = random_topology(60, 1000, 150, seed=seed)
    doc = json.dumps(clustering_to_dict(GOLDEN_SOLVERS[name](t)), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == GOLDEN[seed][name]
