import hashlib
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from antclust import oracle
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
    two_for_one_reference,
)


def rng_for(seed=0):
    return np.random.default_rng(seed)


class TestParams:
    def test_defaults_valid(self):
        AcoParams().validate()

    @pytest.mark.parametrize("kwargs", [
        {"alpha": -1}, {"beta": -0.5}, {"alpha": 0, "beta": 0}, {"ants": 0},
        {"evaporation_rate": 1.0}, {"evaporation_rate": -0.1}, {"beta": float("inf")},
        {"iterations": 0}, {"seed": -3}, {"alpha": 10**400}, {"alpha": 0}, {"alpha": 1e-320},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            AcoParams(**kwargs).validate()


    @pytest.mark.parametrize("kwargs", [{"ants": True}, {"iterations": 2.0}, {"seed": False}, {"alpha": "9"}])
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
        # every candidate's neighbourhood is covered and carries no pheromone
        with pytest.raises(ValueError, match="degenerate"):
            selection_probability(path3, np.zeros(3), AcoParams(), {0, 1}, covered={0, 1, 2})

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

    def test_complete_any_start(self):
        t = complete_topology(6)
        for start in range(6):
            heads = construct_solution(t, np.zeros(6), AcoParams(), start, rng_for())
            assert heads == {start}

    def test_always_dominating(self):
        rng = rng_for(42)
        for seed in range(6):
            t = random_topology(30, 200, float(rng.uniform(25, 90)), seed=seed)
            heads = construct_solution(t, np.zeros(t.n), AcoParams(),
                                       int(rng.integers(t.n)), rng_for(seed))
            assert is_dominating(t, heads)
            assert len(heads) <= t.n

    @pytest.mark.parametrize("ph, u", [([0.0, 0.0, 0.0, 0.0], 0.3), ([0.0, 0.0, 0.0, 0.0], 0.7),
                                       ([0.0, 0.0, 0.0, 5.0], 0.3), ([0.0, 0.0, 0.0, 5.0], 0.6)])
    def test_roulette_second_head_follows_selection_probability(self, path4, ph, u):
        class FixedDraw:
            calls = 0

            def random(self):
                self.calls += 1
                return u

        ph = np.array(ph)
        params = AcoParams()
        p = selection_probability(path4, ph, params, {1, 2, 3}, covered=path4.closed_neighborhood(0))
        cumulative = np.cumsum([p[v] for v in (1, 2, 3)])
        second = (1, 2, 3)[int(np.argmax(cumulative > u))]
        assert second in (2, 3)
        # the start and the second head cover the path, so one draw ends the
        # construction and both heads are kept
        rng = FixedDraw()
        assert construct_solution(path4, ph, params, 0, rng) == {0, second}
        assert rng.calls == 1

    @pytest.mark.parametrize("seed, ph_scale", [(0, 0.0), (1, 0.0), (2, 3.0), (3, 40.0)])
    def test_one_draw_per_pick_matches_plain_reference(self, seed, ph_scale):
        """Replaying the same draws, a plain-set construction that picks by
        ``selection_probability`` adds the same heads; each head after the
        start takes exactly one ``random()`` draw and nothing else."""
        class CountingDraws:
            def __init__(self, seed):
                self.gen = np.random.default_rng(seed)
                self.draws = []

            def random(self):
                self.draws.append(self.gen.random())
                return self.draws[-1]

            def integers(self, *args, **kwargs):
                raise AssertionError("construction must not draw integers")

        t = random_topology(40, 300, 80, seed=seed)
        ph = rng_for(seed).uniform(0, ph_scale, size=t.n)
        params = AcoParams()
        start = seed % t.n
        rng = CountingDraws(100 + seed)
        heads = construct_solution(t, ph, params, start, rng)

        closed = {v: set(t.closed_neighborhood(v)) for v in range(t.n)}
        picks, covered = [start], set(closed[start])
        for u in rng.draws:
            cand = sorted(v for v in range(t.n) if closed[v] - covered)
            p = selection_probability(t, ph, params, cand, covered=covered)
            pick = cand[int(np.argmax(np.cumsum([p[v] for v in cand]) > u))]
            picks.append(pick)
            covered |= closed[pick]
        assert len(covered) == t.n and len(picks) == len(rng.draws) + 1
        cover_count = {w: sum(w in closed[h] for h in picks) for w in range(t.n)}
        kept = list(picks)
        for h in picks[:0:-1]:
            if all(cover_count[w] >= 2 for w in closed[h]):
                for w in closed[h]:
                    cover_count[w] -= 1
                kept.remove(h)
        assert heads == set(kept)

    @pytest.mark.parametrize("ph", [[0.0, -1.0, 0.0, 0.0], [0.0, np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0],
                                    [0.0, 0.0, 0.0]])
    def test_bad_pheromone_rejected(self, path4, ph):
        with pytest.raises(ConfigurationError, match="pheromone"):
            construct_solution(path4, np.array(ph), AcoParams(), 0, rng_for())

    @pytest.mark.parametrize("kwargs", [{"alpha": 1e308}, {"beta": 1e308}])
    def test_scores_outside_float_range_rejected(self, kwargs):
        # n * (alpha * n + beta * max(pheromone)) bounds the roulette total
        # from above; past it a pick could land outside the candidate list
        t = random_topology(60, 1000, 200, seed=0)
        ph, params = np.ones(t.n), AcoParams(**kwargs)
        with pytest.raises(ConfigurationError, match="float range"):
            construct_solution(t, ph, params, 0, rng_for(1))
        with pytest.raises(ConfigurationError, match="float range"):
            selection_probability(t, ph, params, range(t.n))

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

    def test_matches_plain_set_reference(self):
        rng = rng_for(23)
        for _ in range(50):
            n = int(rng.integers(5, 41))
            t = random_topology(n, 100, float(rng.uniform(15, 60)), seed=int(rng.integers(1 << 16)))
            built = construct_solution(t, np.zeros(n), AcoParams(), int(rng.integers(n)),
                                       rng_for(int(rng.integers(1 << 16))))
            padded = built | set(range(0, n, 3))
            # a random subset usually leaves some node uncovered
            partial = set(int(v) for v in rng.choice(n, size=int(rng.integers(2, n // 2 + 2)), replace=False))
            for heads in (built, padded, partial):
                assert improve_two_for_one(t, heads) == two_for_one_reference(t, heads)

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

    @pytest.mark.parametrize("heads", [[1.7], [True], ["2"], [3], [-1]])
    def test_non_id_rejected(self, heads):
        with pytest.raises(ValueError, match="integers"):
            update_pheromone(np.zeros(3), heads, AcoParams())

    def test_numpy_integer_ids_accepted(self):
        out = update_pheromone(np.zeros(3), [np.int64(1)], AcoParams(evaporation_rate=0.0))
        assert out.tolist() == [0.0, 3.0, 0.0]

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
        # every iteration runs, or the run stops at a certified optimum
        bound = max(oracle.packing_lower_bound(t), oracle.lp_lower_bound(t))
        assert len(sol.head_count_history) == t.n or min(sol.head_count_history) <= bound
        assert 0 <= sol.iteration_found < len(sol.head_count_history) <= t.n
        assert min(sol.head_count_history) == len(sol.heads)

    def test_iterations_override(self):
        t = random_topology(25, 100, 40, seed=8)
        sol = solve(t, AcoParams(seed=3, iterations=5))
        bound = max(oracle.packing_lower_bound(t), oracle.lp_lower_bound(t))
        assert len(sol.head_count_history) == 5 or min(sol.head_count_history) <= bound
        assert len(sol.head_count_history) <= 5
        assert is_dominating(t, sol.heads)

    def test_lower_bound_is_a_certified_gap(self):
        rng = rng_for(47)
        cases = [(random_topology(int(rng.integers(5, 61)), 1000, float(rng.uniform(150, 400)),
                                  seed=int(rng.integers(1 << 16))), AcoParams(seed=s, iterations=10)) for s in range(20)]
        # no bound reaches this one's optimum (12, ceiled LP 11): every iteration runs
        cases.append((random_topology(80, 1000, 200, seed=59), AcoParams(iterations=10)))
        stopped = []
        for t, params in cases:
            sol = solve(t, params)
            assert sol.lower_bound <= oracle.exact_min_dominating_set(t).optimum_size <= len(sol.heads)
            stopped.append(len(sol.head_count_history) < params.iterations)
            if stopped[-1]:
                assert sol.lower_bound == len(sol.heads)
        assert any(stopped) and not all(stopped)

    def test_runtime_scaling(self):
        params = AcoParams(seed=0)
        times = {}
        for n in (100, 200):
            t = random_topology(n, 1000, 200, seed=0)
            t0 = time.perf_counter()
            solve(t, params)
            times[n] = time.perf_counter() - t0
        assert times[200] < 10 * times[100]


# sha256 of json.dumps([sorted heads, iteration_found, head_count_history])
# from solve with default settings, the topology seed as the colony seed,
# n = 80 on the 1000 x 1000 area, every iteration run (no early stop). Any
# change to how an ant draws or picks, or to how an iteration's best is
# chosen, changes these digests.
GOLDEN_SOLVES = {
    (150.0, 0): "1568530032cbe04f8eecfab4496cef6f55158f274d700d48951aa72341c4a3e9",
    (150.0, 1): "de6177ad34c2713c612339f9be540e1d4f23e7288db848488c20c7ef5408c515",
    (150.0, 2): "52cf5e60bbb220f19503530ce15e41bde8c97f82d3affdaa65b9bac1591ed72c",
    (200.0, 0): "23a4c66ec7eee6049e6e18edc2620668d48246371419bc673eea2bc3dc851f1d",
    (200.0, 1): "04ea5b32c0bbc505e2a0bd6bf773b8104dbb736f2e780036d5fa82aefe434dad",
    (200.0, 2): "47e20883631d2538d6d75974154401d3252772814bf9b134465563b7622d0e5c",
}


def never_stop(monkeypatch):
    # no dominating set has fewer than 0 heads, so the early stop never fires
    monkeypatch.setattr(oracle, "packing_lower_bound", lambda t: 0)
    monkeypatch.setattr(oracle, "lp_lower_bound", lambda t: 0)


@pytest.mark.parametrize("radio_range, seed", sorted(GOLDEN_SOLVES))
def test_golden_solves(radio_range, seed, monkeypatch):
    never_stop(monkeypatch)
    sol = solve(random_topology(80, 1000, radio_range, seed=seed), AcoParams(seed=seed))
    doc = json.dumps([sorted(sol.heads), sol.iteration_found, sol.head_count_history])
    assert hashlib.sha256(doc.encode()).hexdigest() == GOLDEN_SOLVES[(radio_range, seed)]


def test_early_stop_changes_only_the_history_length(monkeypatch):
    cases = [(random_topology(80, 1000, radio_range, seed=seed), seed) for radio_range, seed in sorted(GOLDEN_SOLVES)]
    # the optimum is 12 and the ceiled LP 11: no bound certifies it, so this run never stops
    cases.append((random_topology(80, 1000, 200, seed=59), 59))
    rng = rng_for(31)
    for _ in range(30):
        n = int(rng.integers(5, 41))
        cases.append((random_topology(n, 100, float(rng.uniform(15, 90)), seed=int(rng.integers(1 << 16))),
                      int(rng.integers(1 << 16))))
    stopped = []
    for t, seed in cases:
        params = AcoParams(seed=seed)
        early = solve(t, params)
        with monkeypatch.context() as m:
            never_stop(m)
            full = solve(t, params)
        assert early.heads == full.heads
        assert early.iteration_found == full.iteration_found
        assert early.head_count_history == full.head_count_history[:len(early.head_count_history)]
        stopped.append(len(early.head_count_history) < len(full.head_count_history))
    # the comparison means something only if the stop fires on some of the cases and not on others
    assert any(stopped) and not all(stopped)
