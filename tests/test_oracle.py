import math
import subprocess
import sys

import numpy as np
import pytest

from antclust.aco import AcoParams, solve
from antclust.baselines import highest_degree, lowest_id, wca
from antclust import oracle
from antclust.clustering import is_dominating
from antclust.errors import NodeLimitError
from antclust.oracle import (
    OracleResult,
    exact_min_dominating_set,
    greedy_min_dominating_set,
    lp_lower_bound,
    packing_lower_bound,
)

from conftest import (
    brute_min_dominating_size,
    complete_topology,
    cycle_topology,
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

    def test_refuses_above_limit(self, monkeypatch):
        # no branch-and-bound node at all: not even the root is solved
        monkeypatch.setattr(oracle, "NODE_BUDGET", 0)
        with pytest.raises(NodeLimitError, match="not proven within 0 branch-and-bound nodes") as info:
            exact_min_dominating_set(random_topology(100, 1000, 200, seed=0))
        # the message is the package's own, not scipy's unrecognised-status text
        assert "not recognized" not in str(info.value)

    def test_solved_with_a_gap_left_is_refused(self, monkeypatch):
        # HiGHS reports status 0 once the relative gap is small; the witness
        # counts only when the dual bound rounds up to its size
        import scipy.optimize

        solve = scipy.optimize.milp

        def gap_left(gap):
            def milp(*args, **kwargs):
                res = solve(*args, **kwargs)
                res.mip_dual_bound = res.fun - gap
                return res
            return milp

        monkeypatch.setattr(scipy.optimize, "milp", gap_left(0.5))
        assert exact_min_dominating_set(path_topology(4)).optimum_size == 2
        monkeypatch.setattr(scipy.optimize, "milp", gap_left(1.0))
        with pytest.raises(NodeLimitError, match="best set found: 2 heads, lower bound 1"):
            exact_min_dominating_set(path_topology(4))

    def test_same_instance_same_result(self):
        t = random_topology(100, 1000, 200, seed=0)
        first = exact_min_dominating_set(t)
        assert isinstance(first, OracleResult)
        assert exact_min_dominating_set(t) == first

    def test_matches_independent_bruteforce(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            n = int(rng.integers(4, 11))
            t = random_topology(n, 100, float(rng.uniform(20, 70)), seed=int(rng.integers(1 << 16)))
            r = exact_min_dominating_set(t)
            assert r.optimum_size == brute_min_dominating_size(t)
            assert is_dominating(t, r.witness)
            assert len(r.witness) == r.optimum_size

    def test_witness_is_a_minimum_dominating_set(self):
        # any optimum will do: the solver's witness need not be the first in
        # lexicographic order
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(4, 9))
            t = random_topology(n, 100, float(rng.uniform(25, 70)), seed=int(rng.integers(1 << 16)))
            witness = exact_min_dominating_set(t).witness
            assert is_dominating(t, witness)
            assert len(witness) == brute_min_dominating_size(t)


class TestImport:
    def test_import_loads_no_scipy(self):
        # scipy costs about 0.6 s to import; only the exact solver may load it
        code = "import sys, antclust, antclust.cli; assert 'scipy' not in sys.modules, 'scipy imported'"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr

    def test_colony_solve_loads_no_scipy(self):
        # the colony's lower bounds are numpy only; scipy would more than double its peak memory.
        # Here iteration 1 leaves the best set unchanged, so the LP bound runs and stops the solve
        code = ("import sys; from antclust import aco, geomgraph, oracle; "
                "t = geomgraph.generate(geomgraph.TopologyConfig(n=40, area_side=400.0, range=120.0, seed=0)); "
                "lp, calls = oracle.lp_lower_bound, []; "
                "oracle.lp_lower_bound = lambda t: calls.append(t) or lp(t); "
                "sol = aco.solve(t, aco.AcoParams(iterations=3)); "
                "assert calls and sol.lower_bound > oracle.packing_lower_bound(t), 'the LP bound did not run'; "
                "assert 'scipy' not in sys.modules, 'scipy imported'")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr


class TestPackingLowerBound:
    @pytest.mark.parametrize("build, bound, optimum", [
        (lambda: star_topology(4), 1, 1),
        (lambda: complete_topology(6), 1, 1),
        (lambda: path_topology(4), 2, 2),
        (lambda: edgeless_topology(5), 5, 5),
        # every node of a 5-cycle is within 2 hops of every other: one pick, two heads needed
        (lambda: cycle_topology(5), 1, 2),
    ], ids=["star", "complete", "path4", "edgeless", "cycle5"])
    def test_small_graphs(self, build, bound, optimum):
        t = build()
        assert packing_lower_bound(t) == bound
        assert brute_min_dominating_size(t) == optimum

    def test_never_above_the_optimum(self):
        for seed in range(10):
            t = random_topology(60, 1000, 250, seed=seed)
            assert 1 <= packing_lower_bound(t) <= exact_min_dominating_set(t).optimum_size


def highs_lp_bound(t):
    """The covering LP's value from HiGHS, ceiled."""
    from scipy.optimize import linprog

    res = linprog(np.ones(t.n), A_ub=-t.closed_neighborhood_matrix.astype(np.float64), b_ub=-np.ones(t.n),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return math.ceil(res.fun - 1e-6)


class TestLpLowerBound:
    @pytest.mark.parametrize("build, bound", [
        (lambda: star_topology(4), 1),
        (lambda: complete_topology(6), 1),
        (lambda: path_topology(4), 2),
        (lambda: edgeless_topology(5), 5),
        # y = 1/3 on every node is feasible: 5/3 ceils to the optimum, 2
        (lambda: cycle_topology(5), 2),
    ], ids=["star", "complete", "path4", "edgeless", "cycle5"])
    def test_small_graphs(self, build, bound):
        assert lp_lower_bound(build()) == bound

    @pytest.mark.parametrize("n, radio_range, seed, bound", [
        # the benchmark's aco-sparse topologies of --seed 0, and one of the densest default cell
        (200, 200, 0, 11), (200, 200, 1, 11), (200, 200, 2, 10), (200, 200, 3, 11), (200, 200, 4, 11),
        (200, 200, 5, 11), (400, 400, 0, 4),
    ])
    def test_matches_highs(self, n, radio_range, seed, bound):
        t = random_topology(n, 1000, radio_range, seed=seed)
        assert lp_lower_bound(t) == highs_lp_bound(t) == bound

    def test_holds_when_the_simplex_is_cut_short(self, monkeypatch):
        # any simplex iterate is feasible; the certificate rescales whatever it gets
        t = random_topology(200, 1000, 200, seed=0)
        full = lp_lower_bound(t)
        bounds = []
        for budget in (0, 10, 50, 100):
            monkeypatch.setattr(oracle, "PIVOT_BUDGET", budget)
            bounds.append(lp_lower_bound(t))
        assert bounds[0] == 0 and bounds == sorted(bounds) and bounds[-1] < full == 11

    def test_holds_when_the_reduction_drops_needed_rows(self, monkeypatch):
        # without every other constraint the simplex overshoots; the certificate
        # measures y against the full matrix and scales it back
        dominated = oracle._dominated

        def drop_odd_rows(sets, by_subset):
            return dominated(sets, by_subset) if by_subset else np.arange(len(sets)) % 2 == 1

        t = random_topology(200, 1000, 200, seed=0)
        monkeypatch.setattr(oracle, "_dominated", drop_odd_rows)
        assert 1 <= lp_lower_bound(t) <= 11


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
