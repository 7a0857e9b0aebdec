import itertools

import numpy as np
import pytest

from antclust.aco import AcoParams, solve
from antclust.baselines import highest_degree, lowest_id, wca
from antclust.clustering import domination_number_lower_bound, is_dominating
from antclust.errors import NodeLimitError
from antclust.oracle import exact_min_dominating_set, greedy_min_dominating_set

from conftest import (
    brute_min_dominating_size,
    complete_topology,
    edgeless_topology,
    greedy_reference,
    path_topology,
    random_topology,
    star_topology,
)


class TestExact:
    def test_star_single_head(self):
        t = star_topology(4)
        r = exact_min_dominating_set(t)
        assert r.optimum_size == 1
        assert r.witness == frozenset({0})

    def test_path4(self, path4):
        assert exact_min_dominating_set(path4).optimum_size == 2

    def test_isolated(self):
        assert exact_min_dominating_set(edgeless_topology(6)).optimum_size == 6

    def test_refuses_above_limit(self):
        t = edgeless_topology(15)
        with pytest.raises(NodeLimitError, match="14"):
            exact_min_dominating_set(t)

    def test_limit_override_warns(self):
        t = edgeless_topology(15)
        with pytest.warns(UserWarning, match="exponentially"):
            r = exact_min_dominating_set(t, node_limit=15)
        assert r.optimum_size == 15

    def test_matches_independent_bruteforce(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            n = int(rng.integers(4, 11))
            t = random_topology(n, 100, float(rng.uniform(20, 70)), seed=int(rng.integers(1 << 16)))
            r = exact_min_dominating_set(t)
            assert r.optimum_size == brute_min_dominating_size(t)
            assert is_dominating(t, r.witness)
            assert len(r.witness) == r.optimum_size
            assert r.optimum_size >= domination_number_lower_bound(t)

    def test_witness_lexicographically_smallest(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(4, 9))
            t = random_topology(n, 100, float(rng.uniform(25, 70)), seed=int(rng.integers(1 << 16)))
            r = exact_min_dominating_set(t)
            expected = next(
                frozenset(s)
                for s in itertools.combinations(range(n), r.optimum_size)
                if is_dominating(t, set(s))
            )
            assert r.witness == expected


class TestGreedy:
    def test_star(self):
        assert greedy_min_dominating_set(star_topology(4)) == {0}

    def test_complete_tie_break(self):
        assert greedy_min_dominating_set(complete_topology(7)) == {0}

    def test_path4_trace(self, path4):
        # gains (2,3,3,2) pick 1, then only node 3 remains uncovered
        assert greedy_min_dominating_set(path4) == {1, 3}

    def test_dominating_and_deterministic(self):
        for seed in range(8):
            t = random_topology(40, 200, 50, seed=seed)
            heads = greedy_min_dominating_set(t)
            assert is_dominating(t, heads)
            assert heads == greedy_min_dominating_set(t)


    def test_matches_set_based_reference(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            t = random_topology(int(rng.integers(1, 120)), 300, float(rng.uniform(20, 200)), seed=seed)
            assert greedy_min_dominating_set(t) == greedy_reference(t)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_matches_reference_where_every_gain_ties(self, n):
        for t in (complete_topology(n), edgeless_topology(n)):
            assert greedy_min_dominating_set(t) == greedy_reference(t)


class TestOrdering:
    def test_exact_never_above_any_solver(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = int(rng.integers(5, 13))
            t = random_topology(n, 100, float(rng.uniform(25, 70)), seed=int(rng.integers(1 << 16)))
            optimum = exact_min_dominating_set(t).optimum_size
            others = [
                len(greedy_min_dominating_set(t)),
                len(solve(t, AcoParams(seed=3)).heads),
                len(lowest_id(t).heads),
                len(highest_degree(t).heads),
                len(wca(t).heads),
            ]
            assert all(optimum <= k for k in others)
