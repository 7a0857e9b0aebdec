"""Benchmark of antclust's cluster-head elections.

    python3 perfbench/run.py --workload aco-sparse --seed 0 --seconds 20 --trace 0

Run it from anywhere in a checkout: it imports antclust from the checkout's
``src`` directory and refuses to run without it. The workloads, metrics and
bounds are declared in ``BENCHMARK.json`` at the checkout root; the README
beside this file says what each metric means and which layer moves it.

One run builds its inputs from ``--seed`` (set-up), then repeats whole
rounds over those inputs for about ``--seconds`` seconds (the timed phase),
then checks every head set with code that does not use antclust. An
election is one solver call on one topology that returns a head set. The
last line on stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` every public function of antclust is
wrapped in a span and the metrics are the per-layer ones, per instance.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

AREA_SIDE = 1000.0
SETUP_SAMPLES = 5  # fresh processes timed for setup_s; their median is reported
SCHEMES = ("lowest_id", "highest_degree", "kconid", "wca", "greedy")
NON_ADJACENT_HEADS = ("lowest_id", "highest_degree", "kconid", "wca")  # kconid: within its hop radius
KCONID_K = 2


@dataclass(frozen=True)
class Workload:
    kind: str            # "aco": experiments.run with the colony; "elect": the classical schemes
    n: int
    radio_range: float
    instances: int       # topologies per round; the topology seeds are seed * instances + i


WORKLOADS = {
    "full": {
        "aco-sparse": Workload("aco", 200, 200.0, 6),
        "aco-dense": Workload("aco", 400, 400.0, 5),
        "elect-large": Workload("elect", 2000, 100.0, 4),
    },
    # for the benchmark's own tests: the same code paths in about a second
    "tiny": {
        "aco-sparse": Workload("aco", 30, 200.0, 2),
        "aco-dense": Workload("aco", 40, 400.0, 2),
        "elect-large": Workload("elect", 150, 150.0, 2),
    },
}


@dataclass
class Election:
    instance: int
    scheme: str
    positions: tuple
    heads: frozenset
    assignment: dict
    hops: int
    problems: list        # what antclust's own validate_clustering or round trips reported


class Bench:
    """One run: inputs, timed rounds and everything recorded about them."""

    def __init__(self, antclust, workload: Workload, seed: int, out_dir: Path) -> None:
        self.ac = antclust
        self.w = workload
        self.seeds = [seed * workload.instances + i for i in range(workload.instances)]
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.election_ms: list[float] = []
        self.head_counts: list[int] = []
        self.first_round: list[Election] = []   # kept whole for the checks
        self.first_round_failed = 0
        self.later_heads: list[list] = []       # later rounds keep only their head sets
        self._captured: list[tuple] = []
        self.inputs = self._build_inputs()

    # -- set-up -------------------------------------------------------------

    def _build_inputs(self):
        ac, w = self.ac, self.w
        if w.kind == "aco":
            return ac.experiments.ExperimentSpec(
                node_counts=(w.n,), ranges=(w.radio_range,), area_side=AREA_SIDE,
                seeds=tuple(self.seeds), algorithms=("aco",),
            )
        return [
            ac.geomgraph.generate(ac.geomgraph.TopologyConfig(n=w.n, area_side=AREA_SIDE, range=w.radio_range, seed=s))
            for s in self.seeds
        ]

    # -- timed phase --------------------------------------------------------

    def capture_colony(self) -> None:
        """Time every aco.solve call and keep its topology and answer."""
        aco, captured, times = self.ac.aco, self._captured, self.election_ms
        solve = aco.solve

        def timed_solve(t, params=None):
            t0 = time.perf_counter()
            solution = solve(t, params)
            times.append((time.perf_counter() - t0) * 1000.0)
            captured.append((t, solution.heads))
            return solution

        aco.solve = timed_solve

    def run_round(self, first: bool) -> None:
        failed_before = self.failed
        records = self._aco_round() if self.w.kind == "aco" else self._elect_round()
        self.head_counts.extend(len(r.heads) for r in records)
        if first:
            self.first_round = records
            self.first_round_failed = self.failed - failed_before
        else:
            self.later_heads.append([r.heads for r in records])

    def _aco_round(self) -> list[Election]:
        ex, cl = self.ac.experiments, self.ac.clustering
        self._captured.clear()
        result = ex.run(self.inputs)
        self.attempted += len(result.rows)
        for row in result.rows:
            if not row.ok:
                self.failed += 1
                print(f"failed election: topology seed {row.seed}: {row.error}", file=sys.stderr)
        reported = {r.seed: r.head_count for r in result.rows if r.ok}
        records = []
        for t, heads in self._captured:
            c = cl.assign_members(t, heads)
            problems = cl.validate_clustering(t, c)
            if reported.get(t.config.seed) != len(heads):
                problems.append(f"experiments.run reported {reported.get(t.config.seed)} heads for {len(heads)}")
            records.append(Election(self.seeds.index(t.config.seed), "aco", t.positions, c.heads, c.assignment,
                                    c.hops, problems))
        ex.export_rows_csv(result, self.out_dir / "rows.csv")
        ex.export_aggregates_csv(result, self.out_dir / "aggregates.csv")
        ex.export_json(result, self.out_dir / "results.json")
        return records

    def _elect_round(self) -> list[Election]:
        """Per snapshot, the path of the generate, solve and verify commands."""
        ac = self.ac
        gg, cl = ac.geomgraph, ac.clustering
        records = []
        for i, generated in enumerate(self.inputs):
            graph_path = self.out_dir / f"graph-{i}.json"
            gg.save(generated, graph_path)
            t = gg.load(graph_path)
            for scheme in SCHEMES:
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    c = self._elect(t, scheme)
                except ac.AntclustError as exc:
                    self.failed += 1
                    print(f"failed election: snapshot {i} {scheme}: {exc}", file=sys.stderr)
                    continue
                self.election_ms.append((time.perf_counter() - t0) * 1000.0)
                if not isinstance(c, cl.Clustering):
                    c = cl.assign_members(t, c)
                clustering_path = self.out_dir / f"clustering-{i}-{scheme}.json"
                cl.save_clustering(c, clustering_path)
                loaded = cl.load_clustering(clustering_path)
                problems = cl.validate_clustering(t, loaded)
                if loaded != c:
                    problems.append("the clustering file does not read back equal")
                if t.positions != generated.positions:
                    problems.append("the graph file does not read back the generated positions")
                records.append(Election(i, scheme, generated.positions, c.heads, c.assignment, c.hops, problems))
        return records

    def _elect(self, t, scheme):
        ac = self.ac
        if scheme == "kconid":
            return ac.baselines.kconid(t, KCONID_K)
        if scheme == "greedy":
            return ac.oracle.greedy_min_dominating_set(t)
        return getattr(ac.baselines, scheme)(t)

    # -- checks -------------------------------------------------------------

    def check(self) -> list[str]:
        """Problems found by code independent of antclust; empty when all is correct."""
        import checks  # imports scipy, so only after the peak memory has been read

        problems = []
        for k, heads in enumerate(self.later_heads):
            if heads != [r.heads for r in self.first_round]:
                problems.append(f"round {k + 2} elected other heads than round 1 on the same inputs")
        per_instance = 1 if self.w.kind == "aco" else len(SCHEMES)
        if len(self.first_round) + self.first_round_failed != self.w.instances * per_instance:
            problems.append(f"round 1 returned {len(self.first_round)} head sets and "
                            f"{self.first_round_failed} failures for {self.w.instances * per_instance} elections")
        what = "exact optimum" if self.w.kind == "aco" else "ceiled LP bound"
        for instance in range(self.w.instances):
            records = [r for r in self.first_round if r.instance == instance]
            if not records:
                continue
            closed = checks.closed_neighborhoods(records[0].positions, self.w.radio_range)
            reach_by_hops = {1: closed}
            floors = {}
            for r in records:
                label = f"topology seed {self.seeds[instance]} {r.scheme}"
                if r.hops not in reach_by_hops:
                    if r.hops != 2:
                        problems.append(f"{label}: unexpected hop radius {r.hops}")
                        continue
                    reach_by_hops[2] = checks.within_two_hops(closed)
                reach = reach_by_hops[r.hops]
                found = checks.uncovered(reach, r.heads)
                if not found:
                    if r.hops not in floors:
                        floors[r.hops] = checks.optimum(closed) if self.w.kind == "aco" else checks.lp_bound(reach)
                    found += checks.below(len(r.heads), floors[r.hops], what)
                    if r.scheme in NON_ADJACENT_HEADS:
                        found += checks.close_heads(reach, r.heads)
                    found += checks.bad_assignment(reach, r.heads, r.assignment)
                problems += [f"{label}: {p}" for p in found + r.problems]
        return problems


def end_to_end(bench: Bench, timed_s: float, peak_rss_mb: float, setup_s: float) -> dict:
    completed = bench.attempted - bench.failed
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "elections_per_s": {"value": completed / timed_s, "unit": "1/s"},
        "election_p50_ms": {"value": statistics.median(bench.election_ms), "unit": "ms"},
        "heads_mean": {"value": statistics.fmean(bench.head_counts), "unit": "heads"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def cpu_seconds() -> float:
    """User and system CPU time of all threads of this process."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure_setup(args) -> float:
    """Median set-up time of fresh processes, each from its own start to its timed phase."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
               "--size", args.size, "--setup-only", repr(time.monotonic())]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS["full"]))
    p.add_argument("--seed", type=int, required=True, help="input seed, >= 0")
    p.add_argument("--seconds", type=float, required=True, help="target length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    p.add_argument("--size", choices=sorted(WORKLOADS), default="full", help="tiny: the benchmark's own tests")
    p.add_argument("--setup-only", type=float, default=None, metavar="T0",
                   help=argparse.SUPPRESS)  # monotonic time the parent started this process
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "antclust" / "__init__.py").is_file():
        print(f"error: no antclust package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import antclust

    if Path(antclust.__file__).resolve().parent != SRC / "antclust":
        print(f"error: imported antclust from {antclust.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(antclust)
    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        workload = WORKLOADS[args.size][args.workload]
        bench = Bench(antclust, workload, args.seed, out_dir)
        if args.setup_only is not None:
            print(time.monotonic() - args.setup_only)
            return 0

        if workload.kind == "aco":
            bench.capture_colony()
        cpu_start = cpu_seconds()
        timed_start = time.perf_counter()
        rounds = 0
        while True:
            round_start = time.perf_counter()
            bench.run_round(first=rounds == 0)
            rounds += 1
            now = time.perf_counter()
            # stop where the run ends nearest to --seconds, after at least one whole round
            if now - timed_start + (now - round_start) / 2 >= args.seconds:
                break
        timed_s = time.perf_counter() - timed_start
        cpu_s = cpu_seconds() - cpu_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()

        problems = bench.check()
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        if tracer is not None:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path)
            metrics = spans.layer_metrics(tracer.spans, timed_start, workload.instances, rounds)
            # above 1 when threads besides the interpreter's (numpy's BLAS) burn CPU
            metrics["process.cpu_per_wall"] = {"value": cpu_s / timed_s, "unit": "ratio"}
            print(f"traced: elections_per_s={(bench.attempted - bench.failed) / timed_s:.6g} "
                  f"rounds={rounds} spans={len(tracer.spans)} written to {trace_path}", file=sys.stderr)
        else:
            metrics = end_to_end(bench, timed_s, peak_rss_mb, measure_setup(args))
        print(json.dumps({
            "correct": not problems,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": metrics,
        }))
        return 0 if not problems else 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
