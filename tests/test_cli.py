import json
import subprocess
import sys

import pytest

from antclust import cli as cli_module, oracle
from antclust.aco import AcoParams
from antclust.clustering import load_clustering
from antclust.experiments import ALGORITHMS, ExperimentSpec, run
from antclust.geomgraph import save

from conftest import edgeless_topology, path_topology, random_topology, star_topology


def cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "antclust", *map(str, args)],
        capture_output=True, text=True, cwd=cwd,
    )


@pytest.fixture
def path4_file(tmp_path):
    p = tmp_path / "path4.json"
    save(path_topology(4), p)
    return p


@pytest.fixture
def star_file(tmp_path):
    p = tmp_path / "star.json"
    save(star_topology(4), p)
    return p


class TestGenerate:
    def test_writes_graph(self, tmp_path):
        out = tmp_path / "g.json"
        r = cli("generate", "--nodes", 30, "--area", 200, "--range", 60, "--seed", 4, "--out", out)
        assert r.returncode == 0
        assert "nodes=30" in r.stdout
        doc = json.loads(out.read_text())
        assert len(doc["nodes"]) == 30

    def test_identical_flags_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli("generate", "--nodes", 20, "--range", 50, "--seed", 9, "--out", a).returncode == 0
        assert cli("generate", "--nodes", 20, "--range", 50, "--seed", 9, "--out", b).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_nodes_usage_error(self, tmp_path):
        r = cli("generate", "--nodes", 0, "--out", tmp_path / "g.json")
        assert r.returncode == 2
        assert "n must be" in r.stderr


class TestSolve:
    def test_aco_on_generated_graph(self, tmp_path):
        graph = tmp_path / "g.json"
        cli("generate", "--nodes", 40, "--area", 300, "--range", 90, "--seed", 2, "--out", graph)
        out = tmp_path / "c.json"
        r = cli("solve", "--graph", graph, "--algorithm", "aco", "--ants", 5, "--out", out)
        assert r.returncode == 0
        assert "heads=" in r.stdout and "wall_time_ms=" in r.stdout
        c = load_clustering(out)
        assert c.head_count >= 1
        v = cli("verify", "--graph", graph, "--clustering", out)
        assert v.returncode == 0, v.stdout + v.stderr

    def test_exact_on_path4(self, path4_file, tmp_path):
        r = cli("solve", "--graph", path4_file, "--algorithm", "exact")
        assert r.returncode == 0
        assert "heads=2" in r.stdout

    def test_exact_refusal_exit_3(self, tmp_path, monkeypatch, capsys):
        # in-process, so that the patched budget holds
        monkeypatch.setattr(oracle, "NODE_BUDGET", 0)
        graph = tmp_path / "big.json"
        save(random_topology(100, 1000, 200, seed=0), graph)
        assert cli_module.main(["solve", "--graph", str(graph), "--algorithm", "exact"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not proven" in err

    def test_lic_on_edgeless(self, tmp_path):
        graph = tmp_path / "e.json"
        save(edgeless_topology(3), graph)
        r = cli("solve", "--graph", graph, "--algorithm", "lic")
        assert r.returncode == 0
        assert "heads=3" in r.stdout

    def test_unknown_algorithm_usage_error(self, path4_file):
        r = cli("solve", "--graph", path4_file, "--algorithm", "magic")
        assert r.returncode == 2

    def test_aco_flag_defaults_are_the_library_defaults(self):
        args = cli_module.build_parser().parse_args(["solve", "--graph", "g", "--algorithm", "aco"])
        assert cli_module._aco_params(args) == AcoParams()

    def test_every_algorithm_matches_its_experiment_row(self, tmp_path):
        # on this graph one colony construction gives 4 heads with the
        # default scoring and 3 with static degree weights, so a CLI that
        # ran a different colony from the library would report another count
        graph = tmp_path / "g.json"
        assert cli("generate", "--nodes", 20, "--area", 200, "--range", 80, "--seed", 3,
                   "--out", graph).returncode == 0
        result = run(ExperimentSpec(node_counts=(20,), ranges=(80.0,), area_side=200.0, seeds=(3,),
                                    algorithms=ALGORITHMS, aco=AcoParams(ants=1, iterations=1)))
        expected = {r.algorithm: r.head_count for r in result.rows if r.ok}
        assert sorted(expected) == sorted(ALGORITHMS)
        for name in ALGORITHMS:
            r = cli("solve", "--graph", graph, "--algorithm", name, "--ants", 1, "--iterations", 1,
                    "--seed", 3)
            assert r.returncode == 0, r.stderr
            assert f"heads={expected[name]} " in r.stdout, (name, r.stdout)

    @pytest.mark.parametrize("algorithm, flags", [
        ("aco", ["--alpha", "nan"]),
        ("aco", ["--alpha", "inf"]),
        ("aco", ["--beta", "nan"]),
        ("aco", ["--beta", "inf"]),
        ("wca", ["--w1", "nan", "--w2", "0.2"]),
        ("wca", ["--ideal-degree", "inf"]),
    ])
    def test_non_finite_parameter_exit_2(self, path4_file, algorithm, flags):
        r = cli("solve", "--graph", path4_file, "--algorithm", algorithm, *flags)
        assert r.returncode == 2
        assert r.stderr.startswith("error:")
        assert "Traceback" not in r.stderr
        assert flags[0].lstrip("-").replace("-", "_") in r.stderr

    @pytest.mark.parametrize("algorithm, flags", [
        ("lic", ["--alpha", "nan"]),
        ("aco", ["--k", "0"]),
    ])
    def test_invalid_setting_exit_2_whatever_the_algorithm(self, path4_file, algorithm, flags):
        # every setting is checked when the CLI builds it, not only by the
        # solver that reads it
        r = cli("solve", "--graph", path4_file, "--algorithm", algorithm, *flags)
        assert r.returncode == 2
        assert r.stderr.startswith("error:")
        assert "Traceback" not in r.stderr

    def test_malformed_graph_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not a graph")
        r = cli("solve", "--graph", bad, "--algorithm", "hd")
        assert r.returncode == 2


class TestVerify:
    def test_detects_missing_head(self, tmp_path, path4_file):
        out = tmp_path / "c.json"
        cli("solve", "--graph", path4_file, "--algorithm", "greedy", "--out", out)
        doc = json.loads(out.read_text())
        doc["heads"] = doc["heads"][:1]  # drop a head: some nodes lose coverage
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        r = cli("verify", "--graph", path4_file, "--clustering", tampered)
        assert r.returncode == 1
        assert "VIOLATION" in r.stdout

    def test_detects_non_adjacent_assignment(self, tmp_path, path4_file):
        doc = {
            "heads": [0, 3],
            "assignment": {"1": 0, "2": 0},
            "roles": {"0": "head", "1": "ordinary", "2": "ordinary", "3": "head"},
            "hops": 1,
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        r = cli("verify", "--graph", path4_file, "--clustering", bad)
        assert r.returncode == 1
        assert "not within 1 hop" in r.stdout

    def test_malformed_clustering_exit_2(self, tmp_path, path4_file):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        r = cli("verify", "--graph", path4_file, "--clustering", bad)
        assert r.returncode == 2


class TestCompare:
    def test_star_all_algorithms_one_head(self, star_file):
        r = cli("compare", "--graph", star_file,
                "--algorithms", "aco,lic,hd,kconid,wca,greedy,exact", "--ants", 3)
        assert r.returncode == 0
        lines = [ln.split() for ln in r.stdout.splitlines()[1:] if ln.strip()]
        assert len(lines) == 7
        assert all(parts[1] == "1" for parts in lines), r.stdout

    def test_unknown_algorithm(self, star_file):
        r = cli("compare", "--graph", star_file, "--algorithms", "aco,nope")
        assert r.returncode == 2


class TestExperiment:
    def test_small_sweep_writes_artifacts(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "node_counts": [12, 16],
            "ranges": [60, 100],
            "area_side": 200,
            "seeds": [0, 1],
            "algorithms": ["aco", "hd"],
            "aco": {"ants": 4},
        }))
        out = tmp_path / "results"
        r = cli("experiment", "--spec", spec, "--out", out)
        assert r.returncode == 0, r.stderr
        rows = (out / "rows.csv").read_text().splitlines()
        assert rows[0] == "algorithm,n,range,seed,head_count,wall_time_ms"
        assert len(rows) == 1 + 2 * 2 * 2 * 2
        aggs = (out / "aggregates.csv").read_text().splitlines()
        assert aggs[0] == "algorithm,n,range,mean,min,max"
        assert len(aggs) == 1 + 2 * 2 * 2
        assert (out / "results.json").exists()
        assert "mean head count" in r.stdout

    def test_invalid_spec_exit_2(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seeds": []}))
        r = cli("experiment", "--spec", spec, "--out", tmp_path / "o")
        assert r.returncode == 2

    def test_every_row_failed_exit_2(self, tmp_path):
        # node 10 is not in a 6-node topology, so every wca row fails
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"node_counts": [6], "ranges": [60], "area_side": 100, "seeds": [0, 1],
                                    "algorithms": ["wca"], "wca": {"head_tenure": {"10": 1.0}}}))
        r = cli("experiment", "--spec", spec, "--out", tmp_path / "o")
        assert r.returncode == 2
        assert r.stderr.startswith("error: every run failed, first with ConfigurationError: head_tenure keys [10]")
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("doc", [
        {"seeds": ["x"]},
        {"aco": {"alpha": "x"}},
        {"aco": {"dynamic_visibility": False}},
        {"wca": {"mobility": [1]}},
        {"ranges": 5},
        {"aco": {"alpha": float("nan")}},
        {"wca": {"mobility": {"0": float("inf")}}},
        {"seeds": [1.7]},
        {"seeds": ["3"]},
        {"node_counts": [True]},
        {"kconid_k": 2.9},
        {"area_side": True},
        {"ranges": [True]},
        {"oracle_node_limit": 3.5},
        {"aco": {"ants": True}},
        {"aco": {"greedy": "no"}},
        {"wca": {"w1": True, "w2": 0, "w3": 0, "w4": 0}},
        {"aco": {"deposit_quantum": 1.0}},
        {"wca": {"head_tenure": {"-1": 1.0}}},
    ])
    def test_hostile_spec_exit_2_without_traceback(self, tmp_path, doc):
        # a tiny grid underneath, so a spec accepted by mistake fails fast
        tiny = {"node_counts": [6], "ranges": [60], "area_side": 100, "seeds": [0], "aco": {"ants": 2}}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**tiny, **doc}))
        r = cli("experiment", "--spec", spec, "--out", tmp_path / "o")
        assert r.returncode == 2
        assert r.stderr.startswith("error:")
        assert "Traceback" not in r.stderr

    def test_no_subcommand_usage_error(self):
        assert cli().returncode == 2
