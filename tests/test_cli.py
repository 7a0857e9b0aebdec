import json
import subprocess
import sys

import pytest

from antclust import baselines, cli as cli_module, oracle
from antclust.aco import AcoParams
from antclust.baselines import WcaParams, highest_degree
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
        ("aco", ["--alpha", "0"]),
        ("aco", ["--alpha", "1e-320"]),
    ])
    def test_invalid_setting_exit_2_whatever_the_algorithm(self, path4_file, algorithm, flags):
        # every setting is checked when the CLI builds it, not only by the
        # solver that reads it
        r = cli("solve", "--graph", path4_file, "--algorithm", algorithm, *flags)
        assert r.returncode == 2
        assert r.stderr.startswith("error:")
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    def test_scores_outside_float_range_exit_2(self, path4_file, flag):
        # --beta overflows only once pheromone is deposited, after iteration 0
        r = cli("solve", "--graph", path4_file, "--algorithm", "aco", flag, "1e308", "--iterations", 5)
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and "float range" in r.stderr
        assert "Traceback" not in r.stderr and "Warning" not in r.stderr

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


SOLVER_FLAGS = ["--k", "2", "--alpha", "3", "--beta", "0.5", "--ants", "4", "--evaporation-rate", "0.2",
                "--iterations", "7", "--seed", "5", "--w1", "0.4", "--w2", "0.4", "--w3", "0.1", "--w4", "0.1",
                "--ideal-degree", "6"]


@pytest.mark.parametrize("flags, expected", [
    ([], (AcoParams(), WcaParams(), 1)),
    (SOLVER_FLAGS, (AcoParams(alpha=3.0, beta=0.5, ants=4, evaporation_rate=0.2, iterations=7, seed=5),
                    WcaParams(w1=0.4, w2=0.4, w3=0.1, w4=0.1, ideal_degree=6.0), 2)),
], ids=["defaults", "all-set"])
def test_solve_and_compare_build_the_same_solver_settings(flags, expected):
    parser = cli_module.build_parser()
    solve = parser.parse_args(["solve", "--graph", "g.json", "--algorithm", "aco", *flags])
    compare = parser.parse_args(["compare", "--graph", "g.json", *flags])
    a, b = cli_module._spec(solve, ["aco"]), cli_module._spec(compare, ["aco"])
    assert (a.aco, a.wca, a.kconid_k) == (b.aco, b.wca, b.kconid_k) == expected


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

    def test_repeated_algorithm_exit_2(self, star_file):
        r = cli("compare", "--graph", star_file, "--algorithms", "aco,aco")
        assert r.returncode == 2
        assert "error: algorithms must not repeat" in r.stderr

    def test_no_algorithm_exit_2(self, star_file):
        r = cli("compare", "--graph", star_file, "--algorithms", ",")
        assert r.returncode == 2
        assert "error: algorithms must be non-empty" in r.stderr


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

    def test_every_range_prints_exactly(self, tmp_path):
        # ranges that six significant digits would merge (200.0001, 200.0002) or round (1234567)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"node_counts": [6], "ranges": [200.0001, 200.0002, 1234567], "area_side": 100,
                                    "seeds": [0], "algorithms": ["hd"]}))
        out = tmp_path / "results"
        r = cli("experiment", "--spec", spec, "--out", out)
        assert r.returncode == 0, r.stderr
        expected = ["1234567", "200.0001", "200.0002"]
        for name in ("rows.csv", "aggregates.csv"):
            lines = (out / name).read_text().splitlines()[1:]
            assert sorted(line.split(",")[2] for line in lines) == expected, name
        header = next(line for line in r.stdout.splitlines() if line.startswith("  nodes"))
        assert header.split()[1:] == ["R=200.0001", "R=200.0002", "R=1234567"]

    def test_cell_whose_runs_all_failed_prints_a_dash(self, tmp_path, monkeypatch, capsys):
        def fails_at_n8_r100(t):
            if (t.n, t.config.range) == (8, 100.0):
                raise RuntimeError("boom")
            return highest_degree(t)

        monkeypatch.setattr(baselines, "highest_degree", fails_at_n8_r100)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"node_counts": [6, 8], "ranges": [60, 100], "area_side": 100, "seeds": [0, 1],
                                    "algorithms": ["hd"]}))
        assert cli_module.main(["experiment", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[1] == "  nodes " + f"{'R=60':>10}{'R=100':>10}"
        assert table[2].split()[0] == "6" and "-" not in table[2]
        assert table[3].startswith("      8 ") and table[3].endswith(f"{'-':>10}") and "-" not in table[3][:-10]
        assert table[4] == f"2 row(s) failed; see {tmp_path / 'o' / 'results.json'}"

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
        {"area_side": 10**400},
        {"aco": {"alpha": 10**400}},
        {"wca": {"w1": 10**400}},
        {"wca": {"mobility": {" 1": 1.0}}},
        {"wca": {"head_tenure": {"0_1": 1.0}}},
        {"wca": {"mobility": {"+3": 1.0}}},
        {"seeds": [0, 0]},
        {"ranges": [60, 60.0]},
        {"aco": {"seed": 9}},
        {"ranges": [1e-170]},
        {"algorithms": "hd"},
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


def test_help_lists_the_exit_codes():
    assert "exit codes: 0 success, 1 verification failure" in cli_module.build_parser().format_help()


HOSTILE_FILES = {
    "not-utf8": b'{"nodes": [], "note": "\xff\xfe"}',
    "deeply-nested": b"[" * 100000,
    "top-level-array": b"[1, 2, 3]",
    "truncated": b'{"nodes": [{"id": 0, "x": 1.0,',
}


@pytest.mark.parametrize("doc", [
    {"area_side": 10**400, "range": 2, "nodes": [{"id": 0, "x": 1, "y": 1}]},
    {"area_side": 10, "range": 2, "nodes": [{"id": 0, "x": 10**400, "y": 1}]},
])
def test_int_too_large_for_a_float_in_graph_exit_2_without_traceback(tmp_path, doc):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(doc))
    r = cli("solve", "--graph", graph, "--algorithm", "hd")
    assert r.returncode == 2
    assert r.stderr.startswith("error:")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("key", [" 0", "0_0", "+0"])
@pytest.mark.parametrize("where", ["assignment", "roles"])
def test_misspelled_id_key_in_clustering_exit_2_without_traceback(tmp_path, path4_file, where, key):
    doc = {"heads": [1, 3], "assignment": {"0": 1, "2": 1}, "roles": {str(v): "ordinary" for v in range(4)}}
    doc["roles"].update({"1": "head", "3": "head", "2": "gateway"})
    doc[where] = {(key if k == "0" else k): v for k, v in doc[where].items()}
    clustering = tmp_path / "c.json"
    clustering.write_text(json.dumps(doc))
    r = cli("verify", "--graph", path4_file, "--clustering", clustering)
    assert r.returncode == 2
    assert r.stderr.startswith("error:")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("kind", sorted(HOSTILE_FILES))
@pytest.mark.parametrize("command", ["solve", "verify", "experiment"])
def test_hostile_file_exit_2_without_traceback(tmp_path, path4_file, command, kind):
    bad = tmp_path / "bad.json"
    bad.write_bytes(HOSTILE_FILES[kind])
    args = {
        "solve": ["solve", "--graph", bad, "--algorithm", "hd"],
        "verify": ["verify", "--graph", path4_file, "--clustering", bad],
        "experiment": ["experiment", "--spec", bad, "--out", tmp_path / "o"],
    }[command]
    r = cli(*args)
    assert r.returncode == 2
    assert r.stderr.startswith("error:")
    assert "Traceback" not in r.stderr
