"""Benchmark harness: sweep (node count, range, seed, algorithm) grids,
validate and collect head counts, aggregate, and export CSV/JSON."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from statistics import fmean
from typing import Callable

from . import aco, baselines, oracle
from .clustering import Clustering, assign_members, is_dominating, is_k_dominating
from .errors import ConfigurationError, ParseError, ValidityError
from .geomgraph import Topology, TopologyConfig, generate


def _aco(t: Topology, spec: ExperimentSpec) -> tuple[Clustering, int]:
    solution = aco.solve(t, spec.aco)
    return assign_members(t, solution.heads), len(solution.head_count_history)


# name -> solver(topology, spec) -> (clustering, iterations run). Entries look
# the solver functions up on their modules at call time, so rebinding
# aco.solve (or any other solver) also changes what the table runs.
SOLVERS: dict[str, Callable[[Topology, ExperimentSpec], tuple[Clustering, int]]] = {
    "aco": _aco,
    "lic": lambda t, spec: (baselines.lowest_id(t), 1),
    "hd": lambda t, spec: (baselines.highest_degree(t), 1),
    "kconid": lambda t, spec: (baselines.kconid(t, spec.kconid_k), 1),
    "wca": lambda t, spec: (baselines.wca(t, spec.wca), 1),
    "greedy": lambda t, spec: (assign_members(t, oracle.greedy_min_dominating_set(t)), 1),
    "exact": lambda t, spec: (
        assign_members(t, oracle.exact_min_dominating_set(t, spec.oracle_node_limit).witness), 1
    ),
}
ALGORITHMS = tuple(SOLVERS)

DEFAULT_NODE_COUNTS = (50, 100, 200, 300, 400)
DEFAULT_RANGES = (200.0, 300.0, 400.0)
DEFAULT_SEEDS = tuple(range(10))


@dataclass(frozen=True)
class ExperimentSpec:
    node_counts: tuple[int, ...] = DEFAULT_NODE_COUNTS
    ranges: tuple[float, ...] = DEFAULT_RANGES
    area_side: float = 1000.0
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    algorithms: tuple[str, ...] = ("aco",)
    aco: aco.AcoParams = field(default_factory=aco.AcoParams)
    wca: baselines.WcaParams = field(default_factory=baselines.WcaParams)
    kconid_k: int = 1
    oracle_node_limit: int = oracle.DEFAULT_NODE_LIMIT

    def validate(self) -> None:
        if not self.node_counts or any(not isinstance(n, int) or n < 1 for n in self.node_counts):
            raise ConfigurationError(f"node_counts must be a non-empty list of integers >= 1, got {self.node_counts!r}")
        if not self.ranges or any(r <= 0 for r in self.ranges):
            raise ConfigurationError(f"ranges must be a non-empty list of positive numbers, got {self.ranges!r}")
        if self.area_side <= 0:
            raise ConfigurationError(f"area_side must be positive, got {self.area_side!r}")
        if not self.seeds:
            raise ConfigurationError("seeds must be non-empty")
        if not self.algorithms:
            raise ConfigurationError("algorithms must be non-empty")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ConfigurationError(f"unknown algorithm {name!r}; known: {', '.join(ALGORITHMS)}")
        if not isinstance(self.kconid_k, int) or self.kconid_k < 1:
            raise ConfigurationError(f"kconid_k must be an integer >= 1, got {self.kconid_k!r}")
        self.aco.validate()
        self.wca.validate()


@dataclass(frozen=True)
class RunRow:
    algorithm: str
    n: int
    range: float
    seed: int
    head_count: int
    iterations_used: int
    wall_time_ms: float
    ok: bool = True
    error: str = ""

    @property
    def key(self) -> tuple:
        return (self.algorithm, self.n, self.range, self.seed)


@dataclass(frozen=True)
class Aggregate:
    algorithm: str
    n: int
    range: float
    mean: float
    min: int
    max: int


@dataclass
class ExperimentResult:
    rows: list[RunRow]

    def ok_rows(self) -> list[RunRow]:
        return [r for r in self.rows if r.ok]

    def aggregates(self) -> list[Aggregate]:
        groups: dict[tuple, list[int]] = {}
        for r in self.ok_rows():
            groups.setdefault((r.algorithm, r.n, r.range), []).append(r.head_count)
        return [
            Aggregate(algorithm=a, n=n, range=rg, mean=fmean(counts), min=min(counts), max=max(counts))
            for (a, n, rg), counts in sorted(groups.items())
        ]

    def mean_heads(self, algorithm: str, n: int, rng: float) -> float:
        for agg in self.aggregates():
            if (agg.algorithm, agg.n, agg.range) == (algorithm, n, rng):
                return agg.mean
        raise KeyError(f"no aggregate for ({algorithm!r}, {n}, {rng})")


def elect(t: Topology, algorithm: str, spec: ExperimentSpec) -> tuple[Clustering, int]:
    """Run one named solver with the settings in ``spec``; returns
    (clustering, iterations run).

    Raises ValidityError unless the heads dominate the topology (within
    ``hops`` hops for a k-hop clustering).
    """
    if algorithm not in SOLVERS:
        raise ConfigurationError(f"unknown algorithm {algorithm!r}; known: {', '.join(ALGORITHMS)}")
    c, iterations = SOLVERS[algorithm](t, spec)
    valid = is_dominating(t, c.heads) if c.hops == 1 else is_k_dominating(t, c.heads, c.hops)
    if not valid:
        raise ValidityError(f"{algorithm} returned a head set that does not dominate within {c.hops} hop(s)")
    return c, iterations


def run(spec: ExperimentSpec) -> ExperimentResult:
    """Execute the sweep. Solver failures are recorded per row, never fatal.

    Each row runs ``elect`` on the topology generated from (n, range, seed),
    with the colony seeded by the same seed.
    """
    spec.validate()
    topologies: dict[tuple[int, float, int], Topology] = {}
    rows: list[RunRow] = []
    for algorithm in spec.algorithms:
        for n in spec.node_counts:
            for rng in spec.ranges:
                for seed in spec.seeds:
                    key = (n, float(rng), seed)
                    if key not in topologies:
                        topologies[key] = generate(
                            TopologyConfig(n=n, area_side=spec.area_side, range=float(rng), seed=seed)
                        )
                    t = topologies[key]
                    seeded = replace(spec, aco=replace(spec.aco, seed=seed))
                    t0 = time.perf_counter()
                    try:
                        c, iterations = elect(t, algorithm, seeded)
                        elapsed_ms = (time.perf_counter() - t0) * 1000.0
                        rows.append(
                            RunRow(algorithm, n, float(rng), seed, c.head_count, iterations, elapsed_ms)
                        )
                    except Exception as exc:  # noqa: BLE001 - failed rows are data, not crashes
                        elapsed_ms = (time.perf_counter() - t0) * 1000.0
                        rows.append(
                            RunRow(algorithm, n, float(rng), seed, 0, 0, elapsed_ms, ok=False,
                                   error=f"{type(exc).__name__}: {exc}")
                        )
    rows.sort(key=lambda r: r.key)
    return ExperimentResult(rows=rows)


# -- export -------------------------------------------------------------------

ROW_COLUMNS = ("algorithm", "n", "range", "seed", "head_count", "wall_time_ms")
AGG_COLUMNS = ("algorithm", "n", "range", "mean", "min", "max")


def export_rows_csv(result: ExperimentResult, path) -> None:
    """Per-run CSV; failed rows are omitted (they live in the JSON export)."""
    rows = sorted(result.ok_rows(), key=lambda r: r.key)
    if not rows:
        raise ValueError("nothing to export: no successful rows")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(ROW_COLUMNS) + "\n")
        for r in rows:
            fh.write(f"{r.algorithm},{r.n},{r.range:g},{r.seed},{r.head_count},{r.wall_time_ms:.3f}\n")


def export_aggregates_csv(result: ExperimentResult, path) -> None:
    aggs = result.aggregates()
    if not aggs:
        raise ValueError("nothing to export: no successful rows")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(AGG_COLUMNS) + "\n")
        for a in aggs:
            fh.write(f"{a.algorithm},{a.n},{a.range:g},{a.mean!r},{a.min},{a.max}\n")


def export_json(result: ExperimentResult, path) -> None:
    doc = {
        "rows": [asdict(r) for r in sorted(result.rows, key=lambda r: r.key)],
        "aggregates": [asdict(a) for a in result.aggregates()],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_result_json(path) -> ExperimentResult:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
        raise ParseError(f"{path}: expected an object with a 'rows' list")
    try:
        rows = [RunRow(**row) for row in doc["rows"]]
    except TypeError as exc:
        raise ParseError(f"{path}: malformed row: {exc}") from exc
    return ExperimentResult(rows=rows)


def export(result: ExperimentResult, fmt: str, path) -> None:
    """Single-file export dispatch: 'csv' writes per-run rows, 'json' writes everything."""
    if fmt == "csv":
        export_rows_csv(result, path)
    elif fmt == "json":
        export_json(result, path)
    else:
        raise ConfigurationError(f"unknown export format {fmt!r} (use 'csv' or 'json')")


# -- spec files ----------------------------------------------------------------

_SPEC_KEYS = {
    "node_counts", "ranges", "area_side", "seeds", "algorithms",
    "aco", "wca", "kconid_k", "oracle_node_limit",
}


def load_spec(path) -> ExperimentSpec:
    """Read an ExperimentSpec from JSON; keys mirror the dataclass fields."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    unknown = set(doc) - _SPEC_KEYS
    if unknown:
        raise ConfigurationError(f"{path}: unknown spec fields: {sorted(unknown)}")
    kwargs: dict = {}
    try:
        for key in ("node_counts", "seeds"):
            if key in doc:
                kwargs[key] = tuple(int(x) for x in doc[key])
        if "ranges" in doc:
            kwargs["ranges"] = tuple(float(x) for x in doc["ranges"])
        if "algorithms" in doc:
            kwargs["algorithms"] = tuple(str(x) for x in doc["algorithms"])
        if "area_side" in doc:
            kwargs["area_side"] = float(doc["area_side"])
        for key in ("kconid_k", "oracle_node_limit"):
            if key in doc:
                kwargs[key] = int(doc[key])
        if "aco" in doc:
            kwargs["aco"] = aco.AcoParams(**doc["aco"])
        if "wca" in doc:
            wca_kwargs = dict(doc["wca"])
            for mapping_key in ("mobility", "head_tenure"):
                if wca_kwargs.get(mapping_key) is not None:
                    wca_kwargs[mapping_key] = {int(k): float(v) for k, v in wca_kwargs[mapping_key].items()}
            kwargs["wca"] = baselines.WcaParams(**wca_kwargs)
        spec = ExperimentSpec(**kwargs)
        spec.validate()
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigurationError(f"{path}: bad spec: {exc}") from exc
    return spec
