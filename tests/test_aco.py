import time
from dataclasses import replace

import numpy as np
import pytest

from antclust.aco import (
    AcoParams,
    construct_solution,
    improve_two_for_one,
    selection_probability,
    solve,
    update_pheromone,
)
from antclust.clustering import is_dominating
from antclust.errors import ConfigurationError, NodeNotFoundError

from conftest import (
    brute_min_dominating_size,
    complete_topology,
    edgeless_topology,
    hub_topology,
    make_topology,
    path_topology,
    random_topology,
    star_topology,
)


def rng_for(seed=0):
    return np.random.default_rng(seed)


class TestParams:
    def test_defaults_valid(self):
        AcoParams().validate()

    @pytest.mark.parametrize("kwargs", [
        {"alpha": -1}, {"beta": -0.5}, {"alpha": 0, "beta": 0}, {"ants": 0},
        {"evaporation_rate": 1.0}, {"evaporation_rate": -0.1}, {"beta": float("inf")},
        {"iterations": 0}, {"seed": -3},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            AcoParams(**kwargs).validate()


    @pytest.mark.parametrize("kwargs", [{"ants": True}, {"greedy": "no"}, {"seed": False}, {"alpha": "9"}])
    def test_rejected_when_built(self, kwargs):
        with pytest.raises(ConfigurationError):
            AcoParams(**kwargs)


class TestNodeWeight:
    """With nothing covered, a node's weight is degree + 1."""

    @staticmethod
    def weight_share(t, v):
        return selection_probability(t, np.zeros(t.n), AcoParams(alpha=1, beta=0), range(t.n))[v]

    def test_isolated(self):
        assert self.weight_share(edgeless_topology(3), 0) == pytest.approx(1 / 3, abs=1e-12)

    def test_path_middle(self, path3):
        assert self.weight_share(path3, 1) == pytest.approx(3 / 7, abs=1e-12)

    def test_seven_neighbor_hub(self):
        assert self.weight_share(hub_topology(7), 0) == pytest.approx(8 / 64, abs=1e-12)

    def test_unknown_id(self, path3):
        with pytest.raises(NodeNotFoundError):
            selection_probability(path3, np.zeros(3), AcoParams(), {11})


class TestSelectionProbability:
    def test_path_uniform_pheromone(self, path3):
        ph = np.zeros(3)
        p = selection_probability(path3, ph, AcoParams(alpha=9, beta=1), {0, 1, 2})
        assert p[1] == pytest.approx(27 / 63, abs=1e-12)
        assert p[0] == pytest.approx(18 / 63, abs=1e-12)
        assert sum(p.values()) == pytest.approx(1.0, abs=1e-9)

    def test_path_with_pheromone(self, path3):
        ph = np.array([0.0, 7.0, 0.0])
        p = selection_probability(path3, ph, AcoParams(alpha=9, beta=1), {0, 1, 2})
        assert p[1] == pytest.approx(34 / 70, abs=1e-12)

    def test_regular_graph_uniform(self):
        t = complete_topology(4)
        ph = np.array([3.0, 3.0, 3.0, 3.0])
        p = selection_probability(t, ph, AcoParams(), {0, 1, 2, 3})
        for v in range(4):
            assert p[v] == pytest.approx(0.25, abs=1e-12)

    def test_empty_candidates(self, path3):
        with pytest.raises(ValueError, match="non-empty"):
            selection_probability(path3, np.zeros(3), AcoParams(), set())

    def test_zero_denominator(self, path3):
        params = AcoParams(alpha=0, beta=1)
        with pytest.raises(ValueError, match="degenerate"):
            selection_probability(path3, np.zeros(3), params, {0, 1})

    def test_scaling_alpha_beta_leaves_probabilities_unchanged(self):
        rng = rng_for(7)
        for _ in range(20):
            t = random_topology(int(rng.integers(3, 25)), 100, float(rng.uniform(15, 60)),
                                seed=int(rng.integers(1 << 16)))
            ph = np.array(rng.uniform(0, 40, size=t.n))
            alpha, beta = float(rng.uniform(0.1, 15)), float(rng.uniform(0.1, 15))
            c = float(rng.uniform(0.01, 50))
            cand = set(int(v) for v in rng.choice(t.n, size=max(1, t.n // 2), replace=False))
            p1 = selection_probability(t, ph, AcoParams(alpha=alpha, beta=beta), cand)
            p2 = selection_probability(t, ph, AcoParams(alpha=c * alpha, beta=c * beta), cand)
            assert max(p1, key=p1.get) == max(p2, key=p2.get)
            for v in p1:
                assert p1[v] == pytest.approx(p2[v], abs=1e-12)
                assert 0.0 <= p1[v] <= 1.0


class TestCoverageGain:
    """With ``covered`` given, the gain counts only uncovered closed-neighbourhood nodes."""

    def test_nothing_covered(self):
        t = random_topology(20, 100, 30, seed=1)
        p = selection_probability(t, np.zeros(t.n), AcoParams(alpha=1, beta=0), range(t.n), covered=set())
        total = float((t.degrees + 1).sum())
        for v in range(t.n):
            assert p[v] == pytest.approx((t.degree(v) + 1) / total, abs=1e-12)

    def test_everything_covered(self, path4):
        ph = np.array([0.0, 0.0, 1.0, 3.0])
        p = selection_probability(path4, ph, AcoParams(), {2, 3}, covered=set(range(4)))
        assert p[2] == pytest.approx(0.25, abs=1e-12)

    def test_partial(self, path4):
        p = selection_probability(path4, np.zeros(4), AcoParams(alpha=1, beta=0), {1, 2}, covered={0, 1})
        assert p[2] == pytest.approx(2 / 3, abs=1e-12)

    def test_unknown_covered_id(self, path4):
        with pytest.raises(NodeNotFoundError):
            selection_probability(path4, np.zeros(4), AcoParams(), {1}, covered={9})


class TestConstruct:
    def test_star_from_center(self):
        t = star_topology(4)
        heads = construct_solution(t, np.zeros(t.n), AcoParams(), 0, rng_for())
        assert heads == {0}

    def test_star_from_leaf_greedy_adds_center(self):
        t = star_topology(4)
        heads = construct_solution(t, np.zeros(t.n), AcoParams(greedy=True), 1, rng_for())
        assert heads == {1, 0}

    def test_complete_any_start(self):
        t = complete_topology(6)
        for start in range(6):
            heads = construct_solution(t, np.zeros(6), AcoParams(), start, rng_for())
            assert heads == {start}

    @pytest.mark.parametrize("mode", [{}, {"greedy": True}])
    def test_always_dominating(self, mode):
        rng = rng_for(42)
        for seed in range(6):
            t = random_topology(30, 200, float(rng.uniform(25, 90)), seed=seed)
            heads = construct_solution(t, np.zeros(t.n), AcoParams(**mode),
                                       int(rng.integers(t.n)), rng_for(seed))
            assert is_dominating(t, heads)
            assert len(heads) <= t.n

    @pytest.mark.parametrize("ph, second", [([0.0, 0.0, 0.0, 0.0], 2), ([0.0, 0.0, 0.0, 5.0], 3)])
    def test_greedy_second_head_is_lowest_id_argmax_of_selection(self, path4, ph, second):
        ph = np.array(ph)
        params = AcoParams(greedy=True)
        p = selection_probability(path4, ph, params, {1, 2, 3}, covered=path4.closed_neighborhood(0))
        best = max(p.values())
        assert min(v for v, q in p.items() if q == best) == second
        # the start and the second head cover the path, so both are kept
        assert construct_solution(path4, ph, params, 0, rng_for()) == {0, second}

    @pytest.mark.parametrize("ph", [[0.0, -1.0, 0.0, 0.0], [0.0, np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0],
                                    [0.0, 0.0, 0.0]])
    def test_bad_pheromone_rejected(self, path4, ph):
        with pytest.raises(ConfigurationError, match="pheromone"):
            construct_solution(path4, np.array(ph), AcoParams(), 0, rng_for())

    def test_beta_zero_greedy_deterministic(self):
        t = random_topology(40, 200, 60, seed=5)
        params = AcoParams(beta=0, greedy=True)
        ph = np.array(np.linspace(0, 9, t.n))
        a = construct_solution(t, ph, params, 3, rng_for(1))
        b = construct_solution(t, ph, params, 3, rng_for(2))
        assert a == b

    def test_contains_start(self):
        t = random_topology(25, 120, 40, seed=9)
        for start in range(0, t.n, 5):
            heads = construct_solution(t, np.zeros(t.n), AcoParams(), start, rng_for(start))
            assert start in heads


class TestImproveTwoForOne:
    def test_path5_merges_two_heads(self):
        t = path_topology(5)
        heads = improve_two_for_one(t, {0, 2, 4})
        assert len(heads) == 2
        assert is_dominating(t, heads)

    def test_never_grows_and_dominates(self):
        rng = rng_for(17)
        for _ in range(25):
            n = int(rng.integers(4, 13))
            t = random_topology(n, 100, float(rng.uniform(20, 70)), seed=int(rng.integers(1 << 16)))
            optimum = brute_min_dominating_size(t)
            start = construct_solution(t, np.zeros(t.n), AcoParams(), int(rng.integers(n)),
                                       rng_for(int(rng.integers(1 << 16))))
            extra = set(int(v) for v in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
            for before in (start, start | extra, set(range(n))):
                after = improve_two_for_one(t, before)
                assert is_dominating(t, after)
                assert optimum <= len(after) <= len(before)

    def test_deterministic(self):
        t = random_topology(60, 300, 70, seed=3)
        heads = set(range(0, 60, 2)) | construct_solution(t, np.zeros(t.n), AcoParams(), 1, rng_for(5))
        first = improve_two_for_one(t, heads)
        assert improve_two_for_one(t, heads) == first
        assert improve_two_for_one(t, sorted(heads, reverse=True)) == first


class TestUpdatePheromone:
    def test_deposit_split_across_heads(self):
        ph = np.zeros(10)
        out = update_pheromone(ph, {2, 7}, AcoParams(evaporation_rate=0.0))
        assert out[2] == pytest.approx(5.0)
        assert out[7] == pytest.approx(5.0)
        assert out[0] == 0.0

    def test_evaporation(self):
        ph = np.array([10.0, 0.0])
        out = update_pheromone(ph, {1}, AcoParams(evaporation_rate=0.1))
        assert out[0] == pytest.approx(9.0)

    def test_empty_heads_rejected(self):
        with pytest.raises(ValueError):
            update_pheromone(np.zeros(3), set(), AcoParams())

    def test_values_bounded_and_non_negative(self):
        n = 12
        params = AcoParams(evaporation_rate=0.1)
        bound = n / params.evaporation_rate
        rng = rng_for(3)
        ph = np.zeros(n)
        for _ in range(1000):
            heads = set(int(v) for v in rng.choice(n, size=int(rng.integers(1, 5)), replace=False))
            ph = update_pheromone(ph, heads, params)
            assert (ph >= 0).all()
        assert ph.max() <= bound + 1e-9

    def test_original_state_not_mutated(self):
        ph = np.array([1.0, 2.0])
        update_pheromone(ph, {0}, AcoParams())
        assert ph[0] == 1.0 and ph[1] == 2.0


class TestSolve:
    def test_complete_graph_single_head(self):
        sol = solve(complete_topology(5), AcoParams(seed=1))
        assert len(sol.heads) == 1

    def test_isolated_nodes_all_heads(self):
        sol = solve(edgeless_topology(10), AcoParams(seed=1))
        assert sol.heads == frozenset(range(10))

    def test_path4_optimal(self, path4):
        assert brute_min_dominating_size(path4) == 2
        sol = solve(path4, AcoParams(seed=0))
        assert len(sol.heads) == 2
        assert is_dominating(path4, sol.heads)

    def test_reproducible(self):
        t = random_topology(30, 150, 45, seed=12)
        params = AcoParams(seed=77)
        assert solve(t, params).heads == solve(t, params).heads

    def test_seed_changes_exploration(self):
        t = random_topology(40, 400, 60, seed=2)
        a = solve(t, AcoParams(seed=1))
        b = solve(t, AcoParams(seed=2))
        assert is_dominating(t, a.heads) and is_dominating(t, b.heads)

    def test_never_below_optimum(self):
        rng = rng_for(101)
        for _ in range(30):
            n = int(rng.integers(4, 13))
            t = random_topology(n, 100, float(rng.uniform(25, 70)), seed=int(rng.integers(1 << 16)))
            optimum = brute_min_dominating_size(t)
            sol = solve(t, AcoParams(seed=int(rng.integers(1 << 16))))
            assert len(sol.heads) >= optimum
            assert is_dominating(t, sol.heads)

    def test_history_and_iteration_found(self):
        t = random_topology(20, 100, 35, seed=6)
        sol = solve(t, AcoParams(seed=3))
        assert len(sol.head_count_history) == t.n
        assert 0 <= sol.iteration_found < t.n
        assert min(sol.head_count_history) == len(sol.heads)

    def test_iterations_override(self):
        t = random_topology(25, 100, 40, seed=8)
        sol = solve(t, AcoParams(seed=3, iterations=5))
        assert len(sol.head_count_history) == 5
        assert is_dominating(t, sol.heads)

    def test_runtime_scaling(self):
        params = AcoParams(seed=0)
        times = {}
        for n in (100, 200):
            t = random_topology(n, 1000, 200, seed=0)
            t0 = time.perf_counter()
            solve(t, params)
            times[n] = time.perf_counter() - t0
        assert times[200] < 10 * times[100]
