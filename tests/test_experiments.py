import hashlib
import json

import pytest

from antclust import aco, oracle
from antclust.aco import AcoParams, AcoSolution
from antclust.baselines import kconid
from antclust.clustering import save_clustering
from antclust.errors import ConfigurationError
from antclust.experiments import (
    Aggregate,
    ExperimentResult,
    ExperimentSpec,
    RunRow,
    export_aggregates_csv,
    export_json,
    export_rows_csv,
    load_spec,
    run,
)
from antclust.geomgraph import TopologyConfig, generate, save


def tiny_spec(**overrides):
    defaults = dict(
        node_counts=(12,),
        ranges=(120.0, 250.0),
        area_side=400.0,
        seeds=(0, 1),
        algorithms=("aco", "lic", "hd", "kconid", "wca", "greedy", "exact"),
        aco=AcoParams(ants=5),
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestSpecValidation:
    def test_empty_seeds(self):
        with pytest.raises(ConfigurationError, match="seeds"):
            tiny_spec(seeds=()).validate()

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            tiny_spec(algorithms=("simulated-annealing",)).validate()

    def test_bad_node_count(self):
        with pytest.raises(ConfigurationError, match="node_counts"):
            tiny_spec(node_counts=(0,)).validate()

    @pytest.mark.parametrize("overrides", [
        {"node_counts": (12, 16, 12)}, {"ranges": (120, 120.0)}, {"seeds": (0, 1, 0)},
        {"algorithms": ("hd", "lic", "hd")},
    ])
    def test_repeated_value_rejected(self, overrides):
        # a repeated seed would count its runs twice in the aggregates
        field_name = next(iter(overrides))
        with pytest.raises(ConfigurationError, match=f"{field_name} must not repeat"):
            tiny_spec(**overrides)

    def test_sequences_stored_as_tuples(self):
        spec = tiny_spec(node_counts=[12], ranges=[120.0], seeds=[0, 1], algorithms=["hd"])
        assert (spec.node_counts, spec.ranges, spec.seeds, spec.algorithms) == ((12,), (120.0,), (0, 1), ("hd",))

    @pytest.mark.parametrize("overrides", [
        {"seeds": (-1,)}, {"seeds": (1.5,)}, {"ranges": (float("inf"),)}, {"area_side": float("nan")},
        {"kconid_k": True}, {"kconid_k": 0}, {"aco": {"ants": 2}}, {"area_side": 10**400}, {"ranges": (10**400,)},
        {"ranges": (1e-170,)},
    ])
    def test_rejected_when_built(self, overrides):
        with pytest.raises(ConfigurationError):
            tiny_spec(**overrides)

    @pytest.mark.parametrize("overrides", [
        {"node_counts": "12"}, {"ranges": "9"}, {"seeds": "0"}, {"algorithms": "hd"},
    ])
    def test_bare_string_rejected(self, overrides):
        # tuple("hd") would read as ("h", "d")
        field_name = next(iter(overrides))
        with pytest.raises(ConfigurationError, match=f"{field_name} must be a list, not a string"):
            tiny_spec(**overrides)

    def test_defaults_are_the_benchmark_grid(self):
        spec = ExperimentSpec()
        spec.validate()
        assert spec.node_counts == (50, 100, 200, 300, 400)
        assert spec.ranges == (200.0, 300.0, 400.0)
        assert spec.area_side == 1000.0
        assert len(spec.seeds) >= 10
        assert spec.aco.alpha == 9 and spec.aco.beta == 1 and spec.aco.ants == 20


class TestRun:
    def test_all_algorithms_small_grid(self):
        result = run(tiny_spec())
        assert len(result.rows) == 7 * 1 * 2 * 2
        assert all(r.ok for r in result.rows)
        assert all(r.head_count >= 1 for r in result.rows)
        # rows come out sorted by (algorithm, n, range, seed)
        assert [r.key for r in result.rows] == sorted(r.key for r in result.rows)

    def test_exact_over_limit_fails_row_but_run_continues(self, monkeypatch):
        monkeypatch.setattr(oracle, "NODE_BUDGET", 0)
        result = run(tiny_spec(node_counts=(100,), ranges=(200.0,), area_side=1000.0, seeds=(0,),
                               algorithms=("exact", "greedy")))
        exact_rows = [r for r in result.rows if r.algorithm == "exact"]
        greedy_rows = [r for r in result.rows if r.algorithm == "greedy"]
        assert len(exact_rows) == len(greedy_rows) == 1
        assert all(not r.ok and "not proven" in r.error for r in exact_rows)
        assert all(r.ok for r in greedy_rows)

    def test_error_keeps_the_exception_type(self, monkeypatch):
        monkeypatch.setattr(oracle, "NODE_BUDGET", 0)
        result = run(tiny_spec(node_counts=(100,), ranges=(200.0,), area_side=1000.0, seeds=(0,),
                               algorithms=("exact",)))
        assert result.rows and all(r.error.startswith("NodeLimitError: ") for r in result.rows)

    def test_exact_bounds_the_colony_at_sweep_scale(self):
        result = run(ExperimentSpec(node_counts=(60, 120), ranges=(200.0,), seeds=(0, 1),
                                    algorithms=("aco", "exact"), aco=AcoParams(iterations=5)))
        assert len(result.rows) == 2 * 2 * 2
        assert all(r.ok for r in result.rows), [r.error for r in result.rows if not r.ok]
        heads = {(r.algorithm, r.n, r.range, r.seed): r.head_count for r in result.rows}
        for (algorithm, n, rng, seed), optimum in heads.items():
            if algorithm == "exact":
                assert heads[("aco", n, rng, seed)] >= optimum

    def test_iterations_used_counts_the_iterations_that_ran(self, monkeypatch):
        def stopped_early(t, params=None):
            return AcoSolution(heads=frozenset(range(t.n)), iteration_found=0, head_count_history=[t.n] * 3,
                               lower_bound=t.n)

        monkeypatch.setattr(aco, "solve", stopped_early)
        result = run(tiny_spec(algorithms=("aco",)))
        assert result.rows and all(r.ok and r.iterations_used == 3 for r in result.rows)

    def test_deterministic_head_counts(self):
        spec = tiny_spec(algorithms=("aco", "hd"))
        a = run(spec)
        b = run(spec)
        assert [(r.key, r.head_count) for r in a.rows] == [(r.key, r.head_count) for r in b.rows]


class TestAggregates:
    def test_mean_min_max(self):
        rows = [
            RunRow("aco", 50, 200.0, s, hc, 50, 1.0) for s, hc in enumerate((7, 8, 9))
        ]
        aggs = ExperimentResult(rows).aggregates()
        assert aggs == [Aggregate("aco", 50, 200.0, 8.0, 7, 9)]

    def test_failed_rows_excluded(self):
        rows = [
            RunRow("aco", 50, 200.0, 0, 7, 50, 1.0),
            RunRow("aco", 50, 200.0, 1, 0, 0, 1.0, ok=False, error="boom"),
        ]
        aggs = ExperimentResult(rows).aggregates()
        assert aggs == [Aggregate("aco", 50, 200.0, 7.0, 7, 7)]


class TestExport:
    def test_single_row_csv(self, tmp_path):
        result = ExperimentResult([RunRow("hd", 10, 50.0, 0, 3, 1, 2.5)])
        p = tmp_path / "rows.csv"
        export_rows_csv(result, p)
        lines = p.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "algorithm,n,range,seed,head_count,wall_time_ms"
        assert lines[1].startswith("hd,10,50,0,3,")

    def test_aggregate_csv(self, tmp_path):
        rows = [RunRow("hd", 10, 50.0, s, hc, 1, 1.0) for s, hc in enumerate((7, 8, 9))]
        p = tmp_path / "agg.csv"
        export_aggregates_csv(ExperimentResult(rows), p)
        lines = p.read_text().splitlines()
        assert lines[0] == "algorithm,n,range,mean,min,max"
        assert lines[1] == "hd,10,50,8.0,7,9"

    def test_json_round_trip(self, tmp_path):
        result = run(tiny_spec(algorithms=("hd", "greedy")))
        p = tmp_path / "res.json"
        export_json(result, p)
        doc = json.loads(p.read_text())
        assert [RunRow(**r) for r in doc["rows"]] == result.rows
        assert [Aggregate(**a) for a in doc["aggregates"]] == result.aggregates()

    def test_unwritable_path(self, tmp_path):
        result = ExperimentResult([RunRow("hd", 10, 50.0, 0, 3, 1, 2.5)])
        with pytest.raises(OSError):
            export_rows_csv(result, tmp_path / "missing-dir" / "rows.csv")

    def test_empty_result_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_rows_csv(ExperimentResult([]), tmp_path / "rows.csv")


# sha256 of the files each JSON writer makes from one fixed input (wall
# times set by hand), recorded before the writers shared one JSON dump
WRITTEN_SHA256 = {
    "save": "1c0f54f397b0d7220019653a8de8e31a741f682cab5fd6111be985be0532d178",
    "save_clustering": "3703be5c0d1227093c2fb150217bf2451c8e7e4ef9b227c5f9e73fcad6e79e26",
    "export_json": "c09de47431eacd637f62a6aae68f6e0698e2a18504ea093c6952aab8e373b43e",
}


@pytest.mark.parametrize("writer", sorted(WRITTEN_SHA256))
def test_written_bytes_unchanged(tmp_path, writer):
    t = generate(TopologyConfig(n=30, area_side=300.0, range=90.0, seed=5))
    result = ExperimentResult([
        RunRow("hd", 30, 90.0, 1, 8, 1, 2.5),
        RunRow("hd", 30, 90.0, 0, 7, 1, 1.25),
        RunRow("exact", 30, 90.0, 0, 0, 0, 3.0, ok=False, error="NodeLimitError: not proven"),
    ])
    p = tmp_path / "out.json"
    {
        "save": lambda: save(t, p),
        "save_clustering": lambda: save_clustering(kconid(t, 2), p),
        "export_json": lambda: export_json(result, p),
    }[writer]()
    assert hashlib.sha256(p.read_bytes()).hexdigest() == WRITTEN_SHA256[writer]


class TestSpecFile:
    def test_load_spec(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({
            "node_counts": [10, 20],
            "ranges": [100, 150],
            "area_side": 300,
            "seeds": [0, 1, 2],
            "algorithms": ["aco", "wca"],
            "aco": {"ants": 5},
            "wca": {"w1": 0.4, "w2": 0.4, "w3": 0.1, "w4": 0.1, "ideal_degree": 6},
            "kconid_k": 2,
        }))
        spec = load_spec(p)
        assert spec.node_counts == (10, 20)
        assert spec.aco.ants == 5
        assert spec.wca.ideal_degree == 6
        assert spec.kconid_k == 2

    def test_aco_seed_rejected(self, tmp_path):
        # run seeds each colony with its topology seed, so the key would do nothing
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"aco": {"ants": 5, "seed": 9}}))
        with pytest.raises(ConfigurationError, match="aco.seed"):
            load_spec(p)

    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"node_count": [10]}))
        with pytest.raises(ConfigurationError, match="unknown spec fields"):
            load_spec(p)

    def test_empty_seeds_rejected(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"seeds": []}))
        with pytest.raises(ConfigurationError, match="seeds"):
            load_spec(p)

    @pytest.mark.parametrize("key", [" 1", "1 ", "0_1", "+1", "01"])
    @pytest.mark.parametrize("mapping", ["mobility", "head_tenure"])
    def test_wca_map_keys_spelled_as_str_writes_them(self, tmp_path, mapping, key):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"wca": {mapping: {key: 1.0}}}))
        with pytest.raises(ConfigurationError, match="plain integer"):
            load_spec(p)

    def test_wca_map_key_spellings_do_not_merge(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"wca": {"mobility": {"1": 1.0, " 1": 2.0}}}))
        with pytest.raises(ConfigurationError):
            load_spec(p)
