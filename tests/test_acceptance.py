"""Acceptance suite: one test per release criterion, each printing a verdict line.

The heavy benchmark sweep (5 node counts x 3 ranges x 10 seeds) runs once and
is shared by the grid-reproduction, monotonicity, node-count independence,
recorded head-count and classical-comparison checks, which are marked
``slow``: ``pytest -m "not slow"`` leaves them out.
"""

import csv
import json
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from antclust.aco import AcoParams, construct_solution, solve
from antclust.baselines import WcaParams, highest_degree, kconid, lowest_id, wca
from antclust.clustering import is_dominating
from antclust.experiments import ExperimentSpec, elect, run
from antclust.geomgraph import TopologyConfig, generate
from antclust.oracle import exact_min_dominating_set, greedy_min_dominating_set

from conftest import closed_sets

# mean cluster counts the default benchmark grid is expected to reproduce,
# with tolerance +/-2, tightened to +/-1 for range 400.
# The source of these numbers is unknown. They match the area ratio
# A / (pi R^2) = 7.96, 3.54, 1.99 for R = 200, 300, 400 on the 1000x1000
# area, which ignores the overlap every covering needs. Exact (MILP) optima
# of the default grid's instances fall outside the band in 9 of 15 cells:
# every R=400 cell (optimum mean 3.6-4.0 against at most 3) and R=200 at
# n = 50, 100, 200, 300 (optimum mean 10.1-11.0).
REFERENCE_CLUSTER_COUNTS = {
    (50, 200): 7, (50, 300): 4, (50, 400): 2,
    (100, 200): 8, (100, 300): 4, (100, 400): 2,
    (200, 200): 8, (200, 300): 4, (200, 400): 2,
    (300, 200): 8, (300, 300): 4, (300, 400): 2,
    (400, 200): 9, (400, 300): 4, (400, 400): 2,
}


@pytest.fixture(scope="module")
def benchmark_sweep():
    spec = ExperimentSpec()  # grid defaults: alpha=9, beta=1, 20 ants, iterations=n, 10 seeds
    t0 = time.perf_counter()
    result = run(spec)
    elapsed = time.perf_counter() - t0
    assert all(r.ok for r in result.rows)
    return spec, result, elapsed


def _verdict(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {label}: {status}{(' - ' + detail) if detail else ''}")


@pytest.mark.slow
def test_criterion_1_reference_grid_reproduction(benchmark_sweep):
    spec, result, elapsed = benchmark_sweep
    misses = []
    print(f"\nbenchmark sweep: {len(result.rows)} runs in {elapsed:.0f}s")
    means = {(a.n, a.range): a.mean for a in result.aggregates() if a.algorithm == "aco"}
    for (n, rg), target in sorted(REFERENCE_CLUSTER_COUNTS.items()):
        mean = means[n, float(rg)]
        tol = 1 if rg == 400 else 2
        ok = abs(mean - target) <= tol
        print(f"  cell n={n:<3} R={rg}: mean={mean:5.2f} expected {target}+/-{tol} {'ok' if ok else 'MISS'}")
        if not ok:
            misses.append((n, rg, mean, target, tol))
    _verdict(1, "reference grid reproduction", not misses,
             f"{len(REFERENCE_CLUSTER_COUNTS) - len(misses)}/{len(REFERENCE_CLUSTER_COUNTS)} cells in band")
    assert not misses, (
        f"{len(misses)} cells outside tolerance: {misses}. "
        "The reference table's provenance is unknown; it matches the area ratio "
        "A/(pi R^2), not a minimum dominating set. At area 1000x1000 the exact "
        "(MILP) optimum lies outside the band in every R=400 cell and at R=200 "
        "for n = 50, 100, 200 and 300, so no valid head set can pass those cells."
    )


@pytest.mark.slow
def test_criterion_2_monotonic_in_range(benchmark_sweep):
    spec, result, _ = benchmark_sweep
    counts = {(r.n, r.range, r.seed): r.head_count for r in result.ok_rows() if r.algorithm == "aco"}
    pairs = [(n, s) for n in spec.node_counts for s in spec.seeds]
    monotone = sum(
        1 for (n, s) in pairs
        if counts[(n, 200.0, s)] >= counts[(n, 300.0, s)] >= counts[(n, 400.0, s)]
    )
    frac = monotone / len(pairs)
    _verdict(2, "head count non-increasing in range", frac >= 0.95, f"{monotone}/{len(pairs)} runs monotone")
    assert frac >= 0.95


# colony head counts of the default sweep, (n, R) -> seeds 0..9, recorded
# before the construction loop was merged into one pick path. A change that
# alters head counts by design updates this table and says why.
DEFAULT_GRID_HEAD_COUNTS = {
    (50, 200): (11, 9, 12, 10, 10, 10, 10, 11, 9, 10),
    (50, 300): (6, 5, 6, 5, 6, 5, 5, 6, 5, 5),
    (50, 400): (4, 3, 3, 4, 4, 3, 4, 4, 3, 4),
    (100, 200): (11, 10, 9, 10, 10, 10, 10, 11, 10, 10),
    (100, 300): (6, 5, 6, 5, 6, 5, 5, 5, 6, 5),
    (100, 400): (4, 4, 4, 4, 4, 4, 4, 4, 4, 4),
    (200, 200): (11, 11, 10, 11, 11, 12, 10, 12, 10, 11),
    (200, 300): (6, 6, 5, 6, 5, 6, 5, 6, 5, 6),
    (200, 400): (4, 4, 4, 4, 4, 4, 4, 4, 4, 4),
    (300, 200): (11, 11, 11, 11, 11, 12, 11, 11, 11, 11),
    (300, 300): (6, 6, 6, 6, 6, 6, 6, 6, 5, 6),
    (300, 400): (4, 4, 4, 4, 4, 4, 4, 4, 4, 4),
    (400, 200): (11, 11, 12, 11, 11, 11, 11, 12, 11, 11),
    (400, 300): (6, 5, 6, 6, 6, 6, 6, 6, 6, 5),
    (400, 400): (4, 4, 4, 4, 4, 4, 4, 4, 4, 4),
}


@pytest.mark.slow
def test_default_grid_head_counts_unchanged(benchmark_sweep):
    _, result, _ = benchmark_sweep
    counts = {(r.n, r.range, r.seed): r.head_count for r in result.ok_rows() if r.algorithm == "aco"}
    expected = {(n, float(rg), seed): h for (n, rg), row in DEFAULT_GRID_HEAD_COUNTS.items()
                for seed, h in enumerate(row)}
    changed = {key: (expected.get(key), counts.get(key)) for key in expected.keys() | counts.keys()
               if expected.get(key) != counts.get(key)}
    assert not changed, f"(n, R, seed): (recorded, now) for {len(changed)} runs: {sorted(changed.items())}"


def test_criterion_3_matches_exhaustive_optimum_at_desk_scale():
    rng = np.random.default_rng(20260810)
    equal = within_one = below = 0
    total = 200
    for i in range(total):
        n = int(rng.integers(4, 15))
        t = generate(TopologyConfig(n=n, area_side=100.0, range=float(rng.uniform(25, 75)),
                                    seed=int(rng.integers(0, 2 ** 32))))
        optimum = exact_min_dominating_set(t).optimum_size
        got = len(solve(t, AcoParams(seed=i)).heads)
        assert got >= optimum, f"impossible: search beat the exhaustive optimum on instance {i}"
        if got < optimum:
            below += 1
        if got == optimum:
            equal += 1
        if got <= optimum + 1:
            within_one += 1
    ok = below == 0 and equal >= 0.80 * total and within_one >= 0.99 * total
    _verdict(3, "equals exhaustive optimum at desk scale", ok,
             f"optimal {equal}/{total}, within +1 {within_one}/{total}, below {below}")
    assert below == 0
    assert equal >= 0.80 * total
    assert within_one >= 0.99 * total


def test_criterion_4_validity_suite():
    rng = np.random.default_rng(4242)
    invocations = 0
    violations = []

    def check(t, heads, independent=False, k=1):
        nonlocal invocations
        invocations += 1
        if not is_dominating(t, heads, k):
            violations.append(f"non-dominating head set (k={k})")
        if independent:
            hs, closed = sorted(heads), closed_sets(t)
            for i, u in enumerate(hs):
                if any(v in closed[u] for v in hs[i + 1:]):
                    violations.append("adjacent heads in an independent-set scheme")
                    break

    for i in range(150):
        n = int(rng.integers(5, 46))
        radio = float(rng.uniform(5, 120))
        t = generate(TopologyConfig(n=n, area_side=200.0, range=radio, seed=int(rng.integers(0, 2 ** 32))))
        check(t, lowest_id(t).heads, independent=True)
        check(t, highest_degree(t).heads, independent=True)
        check(t, kconid(t, 1).heads)
        check(t, kconid(t, 2).heads, k=2)
        w = rng.uniform(0.05, 1.0, size=4)
        w = w / w.sum()
        params = WcaParams(w1=float(w[0]), w2=float(w[1]), w3=float(w[2]), w4=float(w[3]),
                           ideal_degree=float(rng.uniform(0, 15)),
                           mobility={v: float(rng.uniform(0, 5)) for v in range(0, n, 3)},
                           head_tenure={v: float(rng.uniform(0, 9)) for v in range(0, n, 4)})
        check(t, wca(t, params).heads, independent=True)
        check(t, greedy_min_dominating_set(t))

    modes = [
        {},
        {"alpha": 1.0, "beta": 9.0},
        {"ants": 1, "evaporation_rate": 0.5},
        {"ants": 2, "beta": 0.0},
    ]
    for i in range(40):
        n = int(rng.integers(5, 36))
        t = generate(TopologyConfig(n=n, area_side=150.0, range=float(rng.uniform(20, 90)),
                                    seed=int(rng.integers(0, 2 ** 32))))
        for mode in modes:
            check(t, solve(t, AcoParams(seed=i, **mode)).heads)

    ok = invocations >= 1000 and not violations
    _verdict(4, "validity across randomized invocations", ok,
             f"{invocations} invocations, {len(violations)} violations")
    assert invocations >= 1000
    assert violations == []


def test_criterion_5_probability_normalization():
    # an ant picks each candidate with probability score / total. Scaling alpha
    # and beta by a power of two scales every score, every partial sum and the
    # drawn threshold exactly, so the same draws must pick the same heads.
    rng = np.random.default_rng(555)
    changed = 0
    for i in range(100):
        n = int(rng.integers(3, 31))
        t = generate(TopologyConfig(n=n, area_side=100.0, range=float(rng.uniform(15, 60)),
                                    seed=int(rng.integers(0, 2 ** 32))))
        ph = np.array(rng.uniform(0, 50, size=n))
        alpha, beta = float(rng.uniform(0.1, 20)), float(rng.uniform(0.1, 20))
        start = int(rng.integers(n))
        heads = construct_solution(t, ph, AcoParams(alpha=alpha, beta=beta), start, np.random.default_rng(i))
        for k in (-3, 1, 5):
            scaled = AcoParams(alpha=alpha * 2.0 ** k, beta=beta * 2.0 ** k)
            changed += construct_solution(t, ph, scaled, start, np.random.default_rng(i)) != heads
    _verdict(5, "ant picks unchanged when alpha and beta scale together", changed == 0,
             f"{changed} of 300 scaled constructions differ")
    assert changed == 0


def test_criterion_6_kconid_k1_equals_highest_degree():
    rng = np.random.default_rng(66)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(4, 61))
        t = generate(TopologyConfig(n=n, area_side=200.0, range=float(rng.uniform(20, 120)),
                                    seed=int(rng.integers(0, 2 ** 32))))
        if kconid(t, 1).heads != highest_degree(t).heads:
            mismatches += 1
    _verdict(6, "kconid(k=1) equals highest-degree", mismatches == 0, f"{mismatches} mismatches in 100")
    assert mismatches == 0


def test_criterion_7_construction_time_scaling():
    per_iteration = {}
    for n in (100, 400):
        samples = []
        for seed in range(5):
            t = generate(TopologyConfig(n=n, area_side=1000.0, range=200.0, seed=seed))
            t0 = time.perf_counter()
            sol = solve(t, AcoParams(seed=seed))
            samples.append((time.perf_counter() - t0) / len(sol.head_count_history))
        per_iteration[n] = sum(samples) / len(samples)
    ratio = per_iteration[400] / per_iteration[100]
    _verdict(7, "per-iteration time scales about quadratically", ratio < 20,
             f"n=400 vs n=100 per-iteration ratio {ratio:.1f}x (quadratic prediction 16x)")
    assert ratio < 20


def _strip_timing_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        drop = header.index("wall_time_ms")
        return [tuple(v for i, v in enumerate(row) if i != drop) for row in reader]


def _strip_timing_json(path):
    doc = json.loads(path.read_text())
    for row in doc["rows"]:
        row.pop("wall_time_ms", None)
    return doc


class TestCriterion8Determinism:
    def _cli(self, *args):
        return subprocess.run([sys.executable, "-m", "antclust", *map(str, args)],
                              capture_output=True, text=True)

    def test_repeat_runs_byte_identical(self, tmp_path):
        outputs = {}
        for tag in ("one", "two"):
            d = tmp_path / tag
            d.mkdir()
            graph = d / "g.json"
            assert self._cli("generate", "--nodes", 40, "--area", 300, "--range", 80,
                             "--seed", 11, "--out", graph).returncode == 0
            heads = d / "c.json"
            assert self._cli("solve", "--graph", graph, "--algorithm", "aco", "--ants", 5,
                             "--seed", 7, "--out", heads).returncode == 0
            spec = d / "spec.json"
            spec.write_text(json.dumps({
                "node_counts": [15, 25], "ranges": [60, 90], "area_side": 200,
                "seeds": [0, 1], "algorithms": ["aco", "hd"], "aco": {"ants": 4},
            }))
            res = d / "results"
            assert self._cli("experiment", "--spec", spec, "--out", res).returncode == 0
            outputs[tag] = d

        a, b = outputs["one"], outputs["two"]
        assert (a / "g.json").read_bytes() == (b / "g.json").read_bytes()
        assert (a / "c.json").read_bytes() == (b / "c.json").read_bytes()
        assert (a / "results" / "aggregates.csv").read_bytes() == (b / "results" / "aggregates.csv").read_bytes()
        # row files embed measured wall time; everything else must match exactly
        assert _strip_timing_rows(a / "results" / "rows.csv") == _strip_timing_rows(b / "results" / "rows.csv")
        assert _strip_timing_json(a / "results" / "results.json") == _strip_timing_json(b / "results" / "results.json")
        _verdict(8, "identical flags give identical machine-readable outputs", True,
                 "graph/clustering/aggregates byte-identical; rows identical apart from timing column")


CLASSICAL = ("lic", "hd", "kconid", "wca", "greedy")


@pytest.mark.slow
def test_colony_never_uses_more_heads_than_a_classical_scheme(benchmark_sweep):
    """The paper's comparative claim, instance by instance: on every default
    topology the colony elects no more heads than lowest id, highest degree,
    k-CONID (k=1), WCA (default weights) or the greedy reference."""
    spec, result, _ = benchmark_sweep
    colony = {(r.n, r.range, r.seed): r.head_count for r in result.ok_rows() if r.algorithm == "aco"}
    counts = {name: {} for name in CLASSICAL}
    for n, rg, seed in colony:
        t = generate(TopologyConfig(n=n, area_side=spec.area_side, range=rg, seed=seed))
        for name in CLASSICAL:
            counts[name][(n, rg, seed)] = elect(t, name, spec)[0].head_count
    print(f"\n  mean heads per cell: aco {' '.join(CLASSICAL)}")
    for n in spec.node_counts:
        for rg in spec.ranges:
            keys = [(n, float(rg), s) for s in spec.seeds]
            means = [np.mean([table[k] for k in keys]) for table in (colony, *counts.values())]
            print(f"  n={n:<3} R={rg:g}: " + " ".join(f"{m:5.2f}" for m in means))
    for rg in spec.ranges:
        keys = [k for k in colony if k[1] == rg]
        means = [np.mean([table[k] for k in keys]) for table in (colony, *counts.values())]
        print(f"  all n, R={rg:g}: " + " ".join(f"{m:5.2f}" for m in means))
    wins = {name: [k for k in colony if table[k] < colony[k]] for name, table in counts.items()}
    lost = {name: len(w) for name, w in wins.items() if w}
    ties = {name: sum(table[k] == colony[k] for k in colony) for name, table in counts.items()}
    _verdict("C", "colony uses no more heads than any classical scheme", not lost,
             f"{len(colony)} instances, ties {ties}")
    cells = sorted({k[:2] for w in wins.values() for k in w})
    assert not lost, f"instances where a classical scheme used fewer heads: {lost}, in (n, R) cells {cells}"


@pytest.mark.slow
def test_property_mean_heads_nearly_independent_of_node_count(benchmark_sweep):
    spec, result, _ = benchmark_sweep
    worst = 0.0
    cells = {(a.n, a.range): a.mean for a in result.aggregates() if a.algorithm == "aco"}
    for rg in spec.ranges:
        means = [cells[n, float(rg)] for n in spec.node_counts]
        spread = max(means) - min(means)
        worst = max(worst, spread)
        print(f"  range {rg:g}: means {['%.2f' % m for m in means]} spread {spread:.2f}")
    _verdict("P", "mean head count nearly independent of node count (spread <= 2)", worst <= 2,
             f"worst spread {worst:.2f}")
    assert worst <= 2, (
        "head-count spread across node counts exceeds 2; the exact (MILP) "
        "optimum's spread is at most 0.9 (range 200: means 10.1 to 11.0 over "
        "n=50..400 at area 1000x1000), so the search is falling short of the "
        "optimum at large n"
    )
