"""Quick tests of the benchmark itself: its checks and a tiny run of each workload.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# 0 - 1 - 2 - 3 on a line, unit spacing, range 1.5: a path; its optimum is 2
PATH = checks.closed_neighborhoods([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], 1.5)


def test_adjacency_uses_the_strict_range_rule():
    reach = checks.closed_neighborhoods([(0.0, 0.0), (3.0, 4.0), (6.0, 8.0)], 5.0)
    assert not reach[0, 1] and not reach[1, 2]  # distance exactly 5 is out of range
    assert reach.diagonal().all()


def test_a_non_dominating_set_is_rejected():
    assert checks.uncovered(PATH, {0}) != []
    assert checks.uncovered(PATH, set()) != []
    assert checks.uncovered(PATH, {7}) != []
    assert checks.uncovered(PATH, {1, 2}) == []


def test_a_set_below_the_optimum_is_rejected():
    assert checks.optimum(PATH) == 2
    assert checks.below(1, checks.optimum(PATH), "exact optimum") != []
    assert checks.below(2, checks.optimum(PATH), "exact optimum") == []
    assert checks.lp_bound(PATH) <= 2


def test_adjacent_baseline_heads_are_rejected():
    assert checks.close_heads(PATH, {0, 1}) != []
    assert checks.close_heads(PATH, {0, 2}) == []
    # k = 2: heads two hops apart are too close, three hops apart are not
    two_hops = checks.within_two_hops(PATH)
    assert checks.close_heads(two_hops, {0, 2}) != []
    assert checks.close_heads(two_hops, {0, 3}) == []


def test_members_out_of_reach_or_unassigned_are_rejected():
    assert checks.bad_assignment(PATH, {1, 2}, {0: 1, 3: 2}) == []
    assert checks.bad_assignment(PATH, {1, 2}, {0: 2, 3: 2}) != []  # 0 is not adjacent to 2
    assert checks.bad_assignment(PATH, {1, 2}, {0: 1}) != []        # 3 is unassigned
    assert checks.bad_assignment(checks.within_two_hops(PATH), {1}, {0: 1, 2: 1, 3: 1}) == []


def test_two_hop_matrix_matches_a_breadth_first_search():
    rng = np.random.default_rng(3)
    closed = checks.closed_neighborhoods(rng.uniform(0, 10, size=(40, 2)), 2.0)
    two = checks.within_two_hops(closed)
    for v in range(40):
        first = set(np.flatnonzero(closed[v]))
        second = set().union(*(set(np.flatnonzero(closed[u])) for u in first))
        assert set(np.flatnonzero(two[v])) == second


def _run(args, cwd=HERE.parent):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_a_tiny_run_prints_every_metric(workload, trace, section):
    done = _run(["--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_it_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = _run(["--workload", "aco-sparse", "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""
