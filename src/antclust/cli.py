"""Command-line interface: generate topologies, run solvers, verify and benchmark.

Human-readable summaries go to stdout; machine-readable artifacts are only
written to paths given via --out. Exit codes: 0 success, 1 verification
failure, 2 usage/input error, 3 capability refusal.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields

from . import aco, baselines, clustering, experiments, geomgraph
from .errors import AntclustError, NodeLimitError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3

ALGORITHM_CHOICES = experiments.ALGORITHMS


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=1, help="hop radius for kconid (default %(default)s)")
    d = aco.AcoParams()
    p.add_argument("--alpha", type=float, default=d.alpha,
                   help="coverage-gain multiplier, >= 2**-1021 (default %(default)s)")
    p.add_argument("--beta", type=float, default=d.beta, help="pheromone multiplier (default %(default)s)")
    p.add_argument("--ants", type=int, default=d.ants, help="constructions per iteration (default %(default)s)")
    p.add_argument("--evaporation-rate", type=float, default=d.evaporation_rate,
                   help="pheromone decay per iteration, in [0,1) (default %(default)s)")
    p.add_argument("--iterations", type=int, default=d.iterations,
                   help="most iterations to run; a run stops sooner once its heads match "
                        "a proven lower bound (default: the node count)")
    p.add_argument("--seed", type=int, default=d.seed, help="solver RNG seed (default %(default)s)")
    w = baselines.WcaParams()
    p.add_argument("--w1", type=float, default=w.w1, help="degree-deviation weight (default %(default)s)")
    p.add_argument("--w2", type=float, default=w.w2, help="neighbor-distance weight (default %(default)s)")
    p.add_argument("--w3", type=float, default=w.w3, help="mobility weight (default %(default)s)")
    p.add_argument("--w4", type=float, default=w.w4, help="head-tenure weight (default %(default)s)")
    p.add_argument("--ideal-degree", type=float, default=w.ideal_degree,
                   help="target head degree (default %(default)s)")


def _aco_params(args: argparse.Namespace) -> aco.AcoParams:
    # the flags' argparse dest names are the AcoParams field names
    return aco.AcoParams(**{f.name: getattr(args, f.name) for f in fields(aco.AcoParams)})


def _wca_params(args: argparse.Namespace) -> baselines.WcaParams:
    return baselines.WcaParams(w1=args.w1, w2=args.w2, w3=args.w3, w4=args.w4, ideal_degree=args.ideal_degree)


def _spec(args: argparse.Namespace, algorithms: list[str]) -> experiments.ExperimentSpec:
    return experiments.ExperimentSpec(algorithms=algorithms, aco=_aco_params(args), wca=_wca_params(args),
                                      kconid_k=args.k)


def _cmd_generate(args: argparse.Namespace) -> int:
    config = geomgraph.TopologyConfig(n=args.nodes, area_side=args.area, range=args.range, seed=args.seed)
    t = geomgraph.generate(config)
    geomgraph.save(t, args.out)
    print(f"nodes={t.n} edges={t.edge_count()} mean_degree={t.mean_degree():.2f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    t = geomgraph.load(args.graph)
    t0 = time.perf_counter()
    solution, _ = experiments.elect(t, args.algorithm, _spec(args, [args.algorithm]))
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    print(f"algorithm={args.algorithm} heads={solution.head_count} wall_time_ms={elapsed_ms:.3f}")
    if args.out:
        clustering.save_clustering(solution, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    t = geomgraph.load(args.graph)
    c = clustering.load_clustering(args.clustering)
    problems = clustering.validate_clustering(t, c)
    if problems:
        for p in problems:
            print(f"VIOLATION: {p}")
        print(f"invalid: {len(problems)} violation(s)")
        return EXIT_VERIFY_FAILED
    print(f"valid: {c.head_count} head(s) dominate all {t.n} node(s)")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    t = geomgraph.load(args.graph)
    spec = _spec(args, [s.strip() for s in args.algorithms.split(",") if s.strip()])
    print(f"{'algorithm':<10} {'heads':>6} {'wall_ms':>10}")
    for name in spec.algorithms:
        t0 = time.perf_counter()
        solution, _ = experiments.elect(t, name, spec)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        print(f"{name:<10} {solution.head_count:>6} {elapsed_ms:>10.3f}")
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    spec = experiments.load_spec(args.spec) if args.spec else experiments.ExperimentSpec()
    result = experiments.run(spec)
    if not result.ok_rows():
        raise AntclustError(f"every run failed, first with {result.rows[0].error}")
    os.makedirs(args.out, exist_ok=True)
    rows_path = os.path.join(args.out, "rows.csv")
    agg_path = os.path.join(args.out, "aggregates.csv")
    json_path = os.path.join(args.out, "results.json")
    experiments.export_rows_csv(result, rows_path)
    experiments.export_aggregates_csv(result, agg_path)
    experiments.export_json(result, json_path)

    failed = [r for r in result.rows if not r.ok]
    means = {(a.algorithm, a.n, a.range): a.mean for a in result.aggregates()}
    for algorithm in sorted({a for a, _, _ in means}):
        print(f"{algorithm}: mean head count by (nodes x range)")
        ranges = sorted({rg for a, _, rg in means if a == algorithm})
        header = [f"R={experiments.format_range(rg)}" for rg in ranges]
        width = max(10, *(len(h) + 1 for h in header))  # a space between columns at any range length
        print("  nodes " + "".join(f"{h:>{width}}" for h in header))
        for n in sorted({n for a, n, _ in means if a == algorithm}):
            cells = (means.get((algorithm, n, rg)) for rg in ranges)
            print(f"  {n:>5} " + "".join(f"{'-' if m is None else f'{m:.2f}':>{width}}" for m in cells))
    if failed:
        print(f"{len(failed)} row(s) failed; see {json_path}")
    print(f"wrote {rows_path}, {agg_path}, {json_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="antclust",
                                     description="Cluster-head election toolkit for ad hoc network topologies.",
                                     epilog="exit codes: 0 success, 1 verification failure, "
                                            "2 usage/input error, 3 capability refusal")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a random topology and write it as JSON")
    p.add_argument("--nodes", type=int, required=True, help="number of nodes")
    p.add_argument("--area", type=float, default=1000.0, help="side of the square area (default %(default)s)")
    p.add_argument("--range", type=float, default=200.0, help="transmission range (default %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="placement RNG seed (default %(default)s)")
    p.add_argument("--out", required=True, help="output graph JSON path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="run one solver on a graph file")
    p.add_argument("--graph", required=True, help="input graph JSON path")
    p.add_argument("--algorithm", required=True, choices=ALGORITHM_CHOICES)
    p.add_argument("--out", default=None, help="output clustering JSON path")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a clustering file against a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--clustering", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compare", help="run several solvers on one graph and print a table")
    p.add_argument("--graph", required=True)
    p.add_argument("--algorithms", default="aco,lic,hd,kconid,wca,greedy",
                   help="comma-separated solver names (default %(default)s)")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("experiment", help="run a benchmark sweep and write row + aggregate files")
    p.add_argument("--spec", default=None, help="experiment spec JSON (default: built-in benchmark grid)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NodeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (AntclustError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
