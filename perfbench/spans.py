"""Per-layer tracing from outside the package.

A ``Tracer`` replaces every public function of antclust's modules with a
wrapper that records a span (name, start, end, parent, value) in memory.
The replacement is made in every module namespace that holds the function,
so calls between modules are traced too. ``layer_metrics`` turns the spans
into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import inspect
import json
import time
from statistics import fmean

LAYERS = ("aco", "baselines", "clustering", "experiments", "geomgraph", "oracle")


def _second_arg(args, kwargs, name):
    return args[1] if len(args) > 1 else kwargs[name]


# what a span of these functions records besides its times
OBSERVERS = {
    "aco.construct_solution": lambda args, kwargs, result: len(result),
    "aco.improve_two_for_one": lambda args, kwargs, result: len(set(_second_arg(args, kwargs, "heads"))) - len(result),
    "aco.solve": lambda args, kwargs, result: (result.iteration_found, len(result.head_count_history)),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1, value)
        self._stack: list[int] = []
        self._replaced: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, observe = self.spans, self._stack, OBSERVERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, None)
            if observe is not None:
                spans[idx] = (name, start, end, parent, observe(args, kwargs, result))
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of ``package``'s layer modules wherever they are bound."""
        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for mod in [package, *modules]:
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._replaced.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._replaced):
            setattr(mod, name, obj)
        self._replaced.clear()

    def write(self, path) -> None:
        """One JSON object per line: name, start, end (perf_counter seconds) and parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


# metric name -> (unit, how it is computed, span names it reads); the ways:
#   busy: wall time inside the named functions, nested calls counted once
#   self: the function's own time, minus the spans it caused
#   calls: number of calls; sum_value / mean_value: of what the observer recorded
#   iterations / useful: from what aco.solve returned
PER_LAYER = {
    "aco.solve_s": ("s", "busy", {"aco.solve"}),
    "aco.solve_self_s": ("s", "self", {"aco.solve"}),
    "aco.construct_s": ("s", "busy", {"aco.construct_solution"}),
    "aco.construct_calls": ("count", "calls", {"aco.construct_solution"}),
    "aco.heads_per_construction": ("heads", "mean_value", {"aco.construct_solution"}),
    "aco.improve_s": ("s", "busy", {"aco.improve_two_for_one"}),
    "aco.improve_removed": ("heads", "sum_value", {"aco.improve_two_for_one"}),
    "aco.update_pheromone_s": ("s", "busy", {"aco.update_pheromone"}),
    "aco.iterations": ("count", "iterations", {"aco.solve"}),
    "aco.useful_iteration_ratio": ("ratio", "useful", {"aco.solve"}),
    "geomgraph.generate_s": ("s", "busy", {"geomgraph.generate"}),
    "geomgraph.load_s": ("s", "busy", {"geomgraph.load"}),
    "geomgraph.save_s": ("s", "busy", {"geomgraph.save"}),
    "baselines.lowest_id_s": ("s", "busy", {"baselines.lowest_id"}),
    "baselines.highest_degree_s": ("s", "busy", {"baselines.highest_degree"}),
    "baselines.kconid_s": ("s", "busy", {"baselines.kconid"}),
    "baselines.wca_s": ("s", "busy", {"baselines.wca"}),
    "oracle.greedy_s": ("s", "busy", {"oracle.greedy_min_dominating_set"}),
    "clustering.assign_members_s": ("s", "busy", {"clustering.assign_members"}),
    "clustering.validate_clustering_s": ("s", "busy", {"clustering.validate_clustering"}),
    "clustering.domination_check_s": ("s", "busy", {
        "clustering.is_dominating", "clustering.is_k_dominating", "clustering.covered_by",
        "clustering.uncovered_nodes", "clustering.k_hop_covered_by",
    }),
    "clustering.file_io_s": ("s", "busy", {"clustering.save_clustering", "clustering.load_clustering"}),
    "experiments.run_self_s": ("s", "self", {"experiments.run"}),
    "experiments.export_s": ("s", "busy", {
        "experiments.export", "experiments.export_json", "experiments.export_rows_csv",
        "experiments.export_aggregates_csv",
    }),
}


def layer_metrics(spans, timed_start: float, instances: int, rounds: int) -> dict:
    """Per-layer metrics, per input instance.

    Spans that start before ``timed_start`` belong to set-up, which builds
    one round's inputs once; the others belong to the ``rounds`` rounds of
    the timed phase. Times, counts and sums are divided accordingly, so each
    figure is per instance (one topology of a round). Means and ratios are
    taken over the calls themselves. A layer that did not run reads 0.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def weight(start):
        return 1.0 / instances if start < timed_start else 1.0 / (instances * rounds)

    def outermost(i, names):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] in names:
                return False
            parent = spans[parent][3]
        return True

    metrics = {}
    for metric, (unit, how, names) in PER_LAYER.items():
        picked = [i for i, s in enumerate(spans) if s[0] in names]
        values = [spans[i][4] for i in picked]
        if how == "busy":
            value = sum(weight(spans[i][1]) * (spans[i][2] - spans[i][1]) for i in picked if outermost(i, names))
        elif how == "self":
            value = sum(weight(spans[i][1]) * (spans[i][2] - spans[i][1] - child_time[i]) for i in picked)
        elif how == "calls":
            value = sum(weight(spans[i][1]) for i in picked)
        elif how == "sum_value":
            value = sum(weight(spans[i][1]) * spans[i][4] for i in picked)
        elif how == "mean_value":
            value = fmean(values) if values else 0.0
        elif how == "iterations":
            value = sum(weight(spans[i][1]) * spans[i][4][1] for i in picked)
        elif how == "useful":
            value = fmean((found + 1) / ran for found, ran in values) if values else 0.0
        else:
            raise ValueError(f"unknown aggregation {how!r}")
        metrics[metric] = {"value": float(value), "unit": unit}
    return metrics
