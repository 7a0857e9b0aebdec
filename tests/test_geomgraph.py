import json
import math
import tracemalloc

import numpy as np
import pytest

from antclust.errors import ConfigurationError, NodeNotFoundError, ParseError
from antclust.geomgraph import Topology, TopologyConfig, generate, load, save

from conftest import (
    bfs_within,
    complete_topology,
    edgeless_topology,
    hub_topology,
    make_topology,
    path_topology,
    random_topology,
    star_topology,
)

# every topology builder of the test suite, at a few sizes
TEST_BUILDERS = {
    "path5": lambda: path_topology(5),
    "complete4": lambda: complete_topology(4),
    "edgeless3": lambda: edgeless_topology(3),
    "random30": lambda: random_topology(30, 100, 30, seed=1),
    **{f"star{k}": (lambda k=k: star_topology(k)) for k in range(1, 6)},
    **{f"hub{k}": (lambda k=k: hub_topology(k)) for k in (1, 4, 7)},
}


class TestConfig:
    def test_invalid_n(self):
        with pytest.raises(ConfigurationError, match="n"):
            TopologyConfig(n=0).validate()

    def test_invalid_area(self):
        with pytest.raises(ConfigurationError, match="area_side"):
            TopologyConfig(n=3, area_side=0).validate()

    def test_invalid_range(self):
        with pytest.raises(ConfigurationError, match="range"):
            TopologyConfig(n=3, range=-1).validate()

    def test_range_whose_square_underflows_rejected(self):
        # the build compares squared distances with range², and a node's own
        # distance 0 must stay in range
        with pytest.raises(ConfigurationError, match="range"):
            TopologyConfig(n=3, range=1e-170)
        assert Topology(TopologyConfig(n=2, range=1e-150, seed=None), [(0, 0), (0, 0)]).degree(0) == 1

    @pytest.mark.parametrize("field", ["n", "area_side", "range", "seed"])
    def test_bool_rejected(self, field):
        with pytest.raises(ConfigurationError, match=field):
            TopologyConfig(**{"n": 3, field: True}).validate()

    @pytest.mark.parametrize("field", ["area_side", "range"])
    def test_int_too_large_for_a_float_rejected(self, field):
        with pytest.raises(ConfigurationError, match=field):
            TopologyConfig(**{"n": 3, field: 10**400})

    def test_generate_requires_seed(self):
        with pytest.raises(ConfigurationError, match="seed"):
            generate(TopologyConfig(n=3, seed=None))


class TestGenerate:
    def test_single_node(self):
        t = generate(TopologyConfig(n=1, area_side=50, range=10, seed=7))
        assert t.n == 1
        assert t.edge_count() == 0
        assert t.neighbors(0) == frozenset()

    def test_structural_200_nodes(self):
        # 200 nodes, range 200 over a 1000-side square: a well-connected
        # mid-density network
        t = generate(TopologyConfig(n=200, area_side=1000, range=200, seed=42))
        assert t.n == 200
        assert all(0 <= x <= 1000 and 0 <= y <= 1000 for x, y in t.positions)
        assert t.edge_count() > 0
        assert 10 < t.mean_degree() < 45

    def test_determinism(self):
        cfg = TopologyConfig(n=60, area_side=500, range=100, seed=123)
        assert generate(cfg).positions == generate(cfg).positions

    def test_different_seeds_differ(self):
        a = generate(TopologyConfig(n=30, area_side=100, range=20, seed=1))
        b = generate(TopologyConfig(n=30, area_side=100, range=20, seed=2))
        assert a.positions != b.positions


class TestNeighbors:
    def test_strict_boundary_excluded(self):
        t = make_topology([(0, 0), (3, 4)], 5.0)
        assert t.neighbors(0) == frozenset()

    def test_just_inside_included(self):
        t = make_topology([(0, 0), (3, 4)], 5.01)
        assert t.neighbors(0) == frozenset({1})
        assert t.neighbors(1) == frozenset({0})

    def test_isolated(self):
        t = make_topology([(0, 0), (100, 100)], 5.0)
        assert t.neighbors(0) == frozenset()

    def test_unknown_id(self):
        t = path_topology(3)
        for bad in (-1, 3, "x"):
            with pytest.raises(NodeNotFoundError):
                t.neighbors(bad)

    def test_degree_matches_neighbors(self):
        t = random_topology(40, 100, 30, seed=5)
        for v in range(t.n):
            assert t.degree(v) == len(t.neighbors(v))


class TestClosedNeighborhood:
    def test_isolated(self):
        t = make_topology([(0, 0), (50, 50)], 1.0)
        assert t.closed_neighborhood(0) == frozenset({0})

    def test_star_center(self):
        t = star_topology(3)
        assert t.closed_neighborhood(0) == frozenset({0, 1, 2, 3})

    def test_path_middle(self, path3):
        assert path3.closed_neighborhood(1) == frozenset({0, 1, 2})

    def test_unknown_id(self, path3):
        with pytest.raises(NodeNotFoundError):
            path3.closed_neighborhood(9)


def _within(t, v, k):
    return set(np.flatnonzero(t.reach(k)[v]).tolist())


class TestKHop:
    def test_path_two_hops(self, path4):
        assert _within(path4, 0, 2) == {0, 1, 2}

    def test_k1_equals_neighbors(self):
        t = random_topology(35, 100, 25, seed=9)
        for v in range(t.n):
            assert _within(t, v, 1) == t.closed_neighborhood(v)

    def test_complete_graph(self):
        t = complete_topology(6)
        for k in (1, 2, 5):
            assert _within(t, 0, k) == set(range(6))

    def test_k_at_least_one(self, path3):
        with pytest.raises(ValueError):
            path3.reach(0)

    def test_full_depth_reaches_component(self):
        t = random_topology(30, 200, 40, seed=3)
        for v in range(t.n):
            # component of v via plain BFS
            seen = {v}
            queue = [v]
            while queue:
                u = queue.pop()
                for w in t.neighbors(u):
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
            assert _within(t, v, t.n) == seen


class TestReach:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_plain_bfs(self, seed):
        t = random_topology(45, 200, 35, seed=seed)
        for k in (1, 2, 3, 4, t.n):
            m = t.reach(k)
            assert m.shape == (t.n, t.n) and m.dtype == bool
            for v in range(t.n):
                assert _within(t, v, k) == bfs_within(t, v, k), (k, v)

    def test_k1_is_the_closed_neighborhood_matrix(self, path4):
        assert path4.reach() is path4.closed_neighborhood_matrix
        assert path4.reach(1) is path4.closed_neighborhood_matrix

    def test_cached_per_k(self, path4):
        assert path4.reach(2) is path4.reach(2)
        assert (path4.reach(3) == path4.reach(9)).all()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_read_only(self, path4, k):
        with pytest.raises(ValueError):
            path4.reach(k)[0, 3] = True

    @pytest.mark.parametrize("k", [0, -1, True, False, 2.0, "2", None])
    def test_bad_k_rejected(self, path3, k):
        with pytest.raises(ValueError):
            path3.reach(k)


class TestAdjacencyProperties:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_bruteforce_distances(self, seed):
        t = random_topology(120, 500, 120, seed=seed)
        rr = t.config.range
        for u in range(t.n):
            for v in range(t.n):
                expected = u == v or math.dist(t.positions[u], t.positions[v]) < rr
                assert bool(t.closed_neighborhood_matrix[u, v]) == expected

    def test_matches_bruteforce_distances_across_row_blocks(self):
        # the build computes 256 rows at a time: 600 nodes make three
        # blocks, the last one partial
        t = random_topology(600, 1000, 90, seed=5)
        pos = t.positions
        expected = [[u == v or math.dist(pos[u], pos[v]) < 90 for v in range(t.n)] for u in range(t.n)]
        assert np.array_equal(t.closed_neighborhood_matrix, np.array(expected))

    def test_symmetric_reflexive(self):
        t = random_topology(80, 300, 60, seed=11)
        m = t.closed_neighborhood_matrix
        assert (m == m.T).all()
        assert m.diagonal().all()

    def test_closed_neighborhoods_cover_everything(self):
        t = random_topology(50, 300, 50, seed=2)
        union = set()
        for v in range(t.n):
            union |= t.closed_neighborhood(v)
        assert union == set(range(t.n))

    def test_matrices_read_only(self):
        t = path_topology(3)
        with pytest.raises(ValueError):
            t.closed_neighborhood_matrix[0, 2] = True
        with pytest.raises(ValueError):
            t.closed_neighborhood_matrix[0, 0] = False


class TestMemory:
    def test_one_n_by_n_matrix_held(self):
        # the closed-neighbourhood matrix is the only n x n array a topology
        # keeps: n² bytes, plus n int64 degrees
        n = 1000
        tracemalloc.start()
        try:
            t = generate(TopologyConfig(n=n, area_side=1000, range=100, seed=0))
            t.closed_neighborhood_matrix, t.degrees, t.reach(1)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        assert sum(s.size for s in held.statistics("filename")) <= 1.05 * n * n


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        t = generate(TopologyConfig(n=50, area_side=400, range=90, seed=77))
        p = tmp_path / "g.json"
        save(t, p)
        back = load(p)
        assert back.positions == t.positions
        assert back.config.range == t.config.range
        assert back.config.area_side == t.config.area_side
        assert (back.closed_neighborhood_matrix == t.closed_neighborhood_matrix).all()
        assert back == t

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "area_side": 10, "range": 2,
            "nodes": [{"id": 0, "x": 1, "y": 1}, {"id": 0, "x": 2, "y": 2}],
        }))
        with pytest.raises(ParseError, match="duplicate"):
            load(p)

    def test_missing_range_is_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"area_side": 10, "nodes": [{"id": 0, "x": 1, "y": 1}]}))
        with pytest.raises(ConfigurationError, match="range"):
            load(p)

    def test_non_dense_ids_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "area_side": 10, "range": 2,
            "nodes": [{"id": 0, "x": 1, "y": 1}, {"id": 2, "x": 2, "y": 2}],
        }))
        with pytest.raises(ParseError, match="0..1"):
            load(p)

    def test_out_of_area_node_warns_but_loads(self, tmp_path):
        p = tmp_path / "odd.json"
        p.write_text(json.dumps({
            "area_side": 10, "range": 5,
            "nodes": [{"id": 0, "x": 1, "y": 1}, {"id": 1, "x": 25, "y": 3}],
        }))
        with pytest.warns(UserWarning, match="outside"):
            t = load(p)
        assert t.n == 2

    @pytest.mark.parametrize("field, error", [
        ("area_side", ConfigurationError), ("range", ConfigurationError), ("x", ParseError), ("y", ParseError),
    ])
    def test_bool_rejected(self, tmp_path, field, error):
        doc = {"area_side": 10, "range": 2, "nodes": [{"id": 0, "x": 1, "y": 0}]}
        if field in doc:
            doc[field] = True
        else:
            doc["nodes"][0][field] = True
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(error, match="number"):
            load(p)

    @pytest.mark.parametrize("field, error", [
        ("area_side", ConfigurationError), ("range", ConfigurationError), ("x", ParseError), ("y", ParseError),
    ])
    def test_int_too_large_for_a_float_rejected(self, tmp_path, field, error):
        doc = {"area_side": 10, "range": 2, "nodes": [{"id": 0, "x": 1, "y": 0}]}
        if field in doc:
            doc[field] = 10**400
        else:
            doc["nodes"][0][field] = 10**400
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(error, match="number"):
            load(p)

    @pytest.mark.parametrize("name", sorted(TEST_BUILDERS))
    def test_test_builders_round_trip_without_warning(self, tmp_path, name):
        # warnings are errors in this suite, so a builder that places a node
        # outside [0, area_side]^2 fails here
        t = TEST_BUILDERS[name]()
        p = tmp_path / "g.json"
        save(t, p)
        back = load(p)
        assert back == t
        assert (back.closed_neighborhood_matrix == t.closed_neighborhood_matrix).all()

    def test_not_json(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("definitely not json")
        with pytest.raises(ParseError):
            load(p)

    def test_save_bytes_deterministic(self, tmp_path):
        t = generate(TopologyConfig(n=20, area_side=100, range=30, seed=5))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save(t, a)
        save(t, b)
        assert a.read_bytes() == b.read_bytes()
