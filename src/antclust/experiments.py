"""Benchmark harness: sweep (node count, range, seed, algorithm) grids,
validate and collect head counts, aggregate, and export CSV/JSON."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields, replace
from statistics import fmean
from typing import Callable

from . import aco, baselines, oracle
from .clustering import Clustering, assign_members, is_dominating
from .errors import ConfigurationError, ValidityError
from .geomgraph import (Topology, TopologyConfig, _id_key, _is_finite, _is_int, _is_range, _read_json_object,
                        _write_json, generate)


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
    "exact": lambda t, spec: (assign_members(t, oracle.exact_min_dominating_set(t).witness), 1),
}
ALGORITHMS = tuple(SOLVERS)

DEFAULT_NODE_COUNTS = (50, 100, 200, 300, 400)
DEFAULT_RANGES = (200.0, 300.0, 400.0)
DEFAULT_SEEDS = tuple(range(10))


@dataclass(frozen=True)
class ExperimentSpec:
    """A sweep grid, its solvers and their settings. Valid by construction:
    ``__post_init__`` stores the sequences as tuples and checks every field.
    ``run`` seeds each colony with its topology seed, not ``aco.seed``."""

    node_counts: tuple[int, ...] = DEFAULT_NODE_COUNTS
    ranges: tuple[float, ...] = DEFAULT_RANGES
    area_side: float = 1000.0
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    algorithms: tuple[str, ...] = ("aco",)
    aco: aco.AcoParams = field(default_factory=aco.AcoParams)
    wca: baselines.WcaParams = field(default_factory=baselines.WcaParams)
    kconid_k: int = 1

    def __post_init__(self) -> None:
        for name in ("node_counts", "ranges", "seeds", "algorithms"):
            values = getattr(self, name)
            if isinstance(values, str):  # tuple("hd") would read as ("h", "d")
                raise ConfigurationError(f"{name} must be a list, not a string, got {values!r}")
            object.__setattr__(self, name, tuple(values))
        if not self.node_counts or any(not _is_int(n) or n < 1 for n in self.node_counts):
            raise ConfigurationError(f"node_counts must be a non-empty list of integers >= 1, got {self.node_counts!r}")
        if not self.ranges or not all(map(_is_range, self.ranges)):
            raise ConfigurationError(f"ranges must be a non-empty list of finite positive numbers with nonzero "
                                     f"squares, got {self.ranges!r}")
        if not (_is_finite(self.area_side) and self.area_side > 0):
            raise ConfigurationError(f"area_side must be a finite positive number, got {self.area_side!r}")
        if not self.seeds or any(not _is_int(s) or s < 0 for s in self.seeds):
            raise ConfigurationError(f"seeds must be a non-empty list of integers >= 0, got {self.seeds!r}")
        if not self.algorithms:
            raise ConfigurationError("algorithms must be non-empty")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ConfigurationError(f"unknown algorithm {name!r}; known: {', '.join(ALGORITHMS)}")
        # a repeat would count its runs twice in the aggregates; 200 == 200.0
        for name in ("node_counts", "ranges", "seeds", "algorithms"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigurationError(f"{name} must not repeat a value, got {values!r}")
        if not _is_int(self.kconid_k) or self.kconid_k < 1:
            raise ConfigurationError(f"kconid_k must be an integer >= 1, got {self.kconid_k!r}")
        if not isinstance(self.aco, aco.AcoParams):
            raise ConfigurationError(f"aco must be an AcoParams, got {self.aco!r}")
        if not isinstance(self.wca, baselines.WcaParams):
            raise ConfigurationError(f"wca must be a WcaParams, got {self.wca!r}")


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


def elect(t: Topology, algorithm: str, spec: ExperimentSpec) -> tuple[Clustering, int]:
    """Run one named solver with the settings in ``spec``; returns
    (clustering, iterations run).

    Raises ValidityError unless the heads dominate the topology (within
    ``hops`` hops for a k-hop clustering).
    """
    if algorithm not in SOLVERS:
        raise ConfigurationError(f"unknown algorithm {algorithm!r}; known: {', '.join(ALGORITHMS)}")
    c, iterations = SOLVERS[algorithm](t, spec)
    if not is_dominating(t, c.heads, c.hops):
        raise ValidityError(f"{algorithm} returned a head set that does not dominate within {c.hops} hop(s)")
    return c, iterations


def run(spec: ExperimentSpec) -> ExperimentResult:
    """Execute the sweep. Solver failures are recorded per row, never fatal.

    Each topology is generated once from (n, range, seed); every algorithm
    runs ``elect`` on it, with the colony seeded by the same seed in place
    of ``spec.aco.seed``.
    """
    rows: list[RunRow] = []
    for n in spec.node_counts:
        for rng in spec.ranges:
            for seed in spec.seeds:
                t = generate(TopologyConfig(n=n, area_side=spec.area_side, range=float(rng), seed=seed))
                seeded = replace(spec, aco=replace(spec.aco, seed=seed))
                for algorithm in spec.algorithms:
                    t0 = time.perf_counter()
                    try:
                        c, iterations = elect(t, algorithm, seeded)
                        head_count, ok, error = c.head_count, True, ""
                    except Exception as exc:  # noqa: BLE001 - failed rows are data, not crashes
                        head_count, iterations, ok, error = 0, 0, False, f"{type(exc).__name__}: {exc}"
                    elapsed_ms = (time.perf_counter() - t0) * 1000.0
                    rows.append(RunRow(algorithm, n, float(rng), seed, head_count, iterations, elapsed_ms, ok, error))
    rows.sort(key=lambda r: r.key)
    return ExperimentResult(rows=rows)


# -- export -------------------------------------------------------------------

ROW_COLUMNS = ("algorithm", "n", "range", "seed", "head_count", "wall_time_ms")
AGG_COLUMNS = ("algorithm", "n", "range", "mean", "min", "max")


def format_range(r: float) -> str:
    """A range as CSV and table text: the shortest text that reads back as
    the same float, without a trailing ".0" (200.0 -> "200")."""
    return repr(float(r)).removesuffix(".0")


def _write_csv(path, columns, lines: list[str]) -> None:
    if not lines:
        raise ValueError("nothing to export: no successful rows")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(line + "\n" for line in lines)


def export_rows_csv(result: ExperimentResult, path) -> None:
    """Per-run CSV; failed rows are omitted (they live in the JSON export)."""
    _write_csv(path, ROW_COLUMNS, [
        f"{r.algorithm},{r.n},{format_range(r.range)},{r.seed},{r.head_count},{r.wall_time_ms:.3f}"
        for r in sorted(result.ok_rows(), key=lambda r: r.key)
    ])


def export_aggregates_csv(result: ExperimentResult, path) -> None:
    _write_csv(path, AGG_COLUMNS, [
        f"{a.algorithm},{a.n},{format_range(a.range)},{a.mean!r},{a.min},{a.max}" for a in result.aggregates()
    ])


def export_json(result: ExperimentResult, path) -> None:
    _write_json({
        "rows": [asdict(r) for r in sorted(result.rows, key=lambda r: r.key)],
        "aggregates": [asdict(a) for a in result.aggregates()],
    }, path)


# -- spec files ----------------------------------------------------------------

def load_spec(path) -> ExperimentSpec:
    """Read an ExperimentSpec from JSON; keys are the dataclass field names.
    Values pass through to the constructors, which check them, except the
    WCA map keys: JSON writes them as strings, so they are read as ids. An
    ``aco.seed`` key is refused, as ``run`` seeds the colony with the topology seed."""
    doc = _read_json_object(path)
    unknown = set(doc) - {f.name for f in fields(ExperimentSpec)}
    if unknown:
        raise ConfigurationError(f"{path}: unknown spec fields: {sorted(unknown)}")
    try:
        if "aco" in doc:
            if "seed" in doc["aco"]:
                raise ConfigurationError("aco.seed is not read: the sweep seeds the colony with the topology seed")
            doc["aco"] = aco.AcoParams(**doc["aco"])
        if "wca" in doc:
            wca_kwargs = dict(doc["wca"])
            for mapping_key in ("mobility", "head_tenure"):
                if wca_kwargs.get(mapping_key) is not None:
                    wca_kwargs[mapping_key] = {_id_key(k): v for k, v in wca_kwargs[mapping_key].items()}
            doc["wca"] = baselines.WcaParams(**wca_kwargs)
        return ExperimentSpec(**doc)
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigurationError(f"{path}: bad spec: {exc}") from exc
