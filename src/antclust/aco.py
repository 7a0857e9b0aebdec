"""Ant-colony search for a small cluster-head set (a small dominating set).

Each ant incrementally builds a head set: starting from a forced first head,
it repeatedly picks the next head among useful candidates (nodes that would
newly cover at least one node) with probability proportional to

    score(v) = alpha * gain(v) + beta * pheromone(v)

where gain(v) is the number of nodes v would newly cover, alpha > 0 and
beta >= 0, so every useful candidate has a positive score; pheromone is a
plain non-negative float array with one entry per node. After each
iteration the iteration's best set is improved by a deterministic 2-for-1
local search (replace two heads by one node while the set still dominates),
then it deposits pheromone on its heads; pheromone evaporates at a fixed
rate. The smallest head set seen anywhere is returned.

The search stops early once its best set is certified optimal: no larger
than a lower bound that no dominating set can undercut. The bound is
``oracle.packing_lower_bound`` (a fraction of a millisecond), raised to
``oracle.lp_lower_bound`` (milliseconds) at the first iteration that
leaves an uncertified best set unchanged. The best set is replaced only by
a strictly smaller one, so the stop changes neither the answer nor the
iteration that found it; it only shortens the history.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .errors import ConfigurationError
from .geomgraph import Topology, _is_finite, _is_int


@dataclass(frozen=True)
class AcoParams:
    """Tunables for the ant-colony solver.

    alpha (>= 2**-1021) scales the coverage gain, beta (>= 0) scales the pheromone
    concentration; every ant picks each next head by roulette-wheel
    sampling over those scores. ``iterations`` is the most iterations a
    solve runs (it stops sooner at a certified optimum) and defaults to the
    node count when None. Valid by construction: ``validate`` runs when it is built.
    """

    alpha: float = 9.0
    beta: float = 1.0
    ants: int = 20
    evaporation_rate: float = 0.1
    iterations: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for name in ("alpha", "beta", "evaporation_rate"):
            value = getattr(self, name)
            if not _is_finite(value):
                raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
        # a roulette total is at least alpha (one candidate newly covering one node); a draw
        # u * total with u in [0, 1) stays below it, inside the candidate list, only from 2**-1021 up
        if self.alpha < 2.0 ** -1021 or self.beta < 0:
            raise ConfigurationError(f"alpha must be >= 2**-1021 (about 4.5e-308) and beta >= 0, "
                                     f"got alpha={self.alpha}, beta={self.beta}")
        if not _is_int(self.ants) or self.ants < 1:
            raise ConfigurationError(f"ants must be an integer >= 1, got {self.ants!r}")
        if not 0 <= self.evaporation_rate < 1:
            raise ConfigurationError(f"evaporation_rate must be in [0, 1), got {self.evaporation_rate!r}")
        if self.iterations is not None and (not _is_int(self.iterations) or self.iterations < 1):
            raise ConfigurationError(f"iterations must be None or an integer >= 1, got {self.iterations!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class AcoSolution:
    """The answer, the iteration that found it, each iteration's best count,
    and the best lower bound the run computed: ``len(heads) - lower_bound``
    is a certified gap, 0 when the run stopped early."""

    heads: frozenset[int]
    iteration_found: int
    head_count_history: list[int]
    lower_bound: int


def _checked_pheromone(ph: np.ndarray, n: int | None = None) -> np.ndarray:
    ph = np.asarray(ph, dtype=float)
    if ph.ndim != 1:
        raise ConfigurationError("pheromone values must be one-dimensional")
    if n is not None and len(ph) != n:
        raise ConfigurationError(f"pheromone array has {len(ph)} entries for a {n}-node topology")
    if (ph < 0).any() or not np.isfinite(ph).all():
        raise ConfigurationError("pheromone values must be finite and >= 0")
    return ph


def _check_roulette_total(n: int, ph: np.ndarray, params: AcoParams) -> None:
    """The roulette total is at most n * (alpha * n + beta * max(pheromone)).
    A pick draws u * total with u in [0, 1), which stays below the total, so
    inside the candidate list, only while the total is finite; AcoParams
    bounds it from below."""
    top = float(ph.max())
    if not math.isfinite(n * (params.alpha * n + params.beta * top)):
        raise ConfigurationError(f"alpha={params.alpha!r}, beta={params.beta!r} and pheromone up to {top!r} "
                                 f"put the {n}-node selection scores outside the float range")


def _scores(params: AcoParams, gains: np.ndarray, ph_scores: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """alpha * gain + beta * pheromone over ``cand``, given ph_scores = beta * pheromone."""
    return params.alpha * gains[cand] + ph_scores[cand]


def selection_probability(t: Topology, ph: np.ndarray, params: AcoParams, candidates, covered=()) -> dict[int, float]:
    """Normalized selection probabilities over the candidate set.

    P(v) = (alpha * gain(v) + beta * pheromone(v)) / sum over candidates of
    the same, where gain(v) counts the nodes of v's closed neighbourhood
    outside ``covered`` (degree + 1 when nothing is covered). These are the
    scores ``construct_solution`` samples from.
    """
    ph = _checked_pheromone(ph, t.n)
    _check_roulette_total(t.n, ph, params)
    cand = sorted({t._check_id(v) for v in candidates})
    if not cand:
        raise ValueError("candidates must be non-empty")
    uncovered = np.ones(t.n, dtype=bool)
    uncovered[[t._check_id(v) for v in covered]] = False
    gains = t.closed_neighborhood_matrix[:, uncovered].sum(axis=1)
    scores = _scores(params, gains, params.beta * ph, np.array(cand, dtype=np.int64))
    total = float(scores.sum())
    if total <= 0:
        raise ValueError("degenerate input: all selection scores are zero")
    return {int(v): float(s) / total for v, s in zip(cand, scores)}


def update_pheromone(ph: np.ndarray, best_heads, params: AcoParams) -> np.ndarray:
    """Evaporate everywhere, then reinforce the given heads; returns a new array.

    Every value is multiplied by (1 - evaporation_rate); each head then
    receives n / |best_heads|, so smaller head sets are reinforced more
    strongly per node. (A deposit scale would be redundant: the scores only
    read beta * pheromone.)
    """
    ph = _checked_pheromone(ph)
    n = len(ph)
    heads = set(best_heads)
    if not heads:
        raise ValueError("best_heads must be non-empty")
    if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not 0 <= v < n for v in heads):
        raise ValueError(f"head ids must be integers within 0..{n - 1}, got {heads!r}")
    values = ph * (1.0 - params.evaporation_rate)
    values[list(heads)] += n / len(heads)
    return values


def construct_solution(t: Topology, ph: np.ndarray, params: AcoParams, start, rng) -> set[int]:
    """Build one dominating head set, beginning with a forced head at ``start``.

    Candidates at each step are the non-head nodes that would newly cover at
    least one node; every uncovered node qualifies, so the loop always makes
    progress and finishes within n additions. Each pick is one roulette draw,
    ``rng.random()``, over the candidates' scores.
    """
    pick = t._check_id(start)
    ph = _checked_pheromone(ph, t.n)
    _check_roulette_total(t.n, ph, params)
    closed = t.closed_neighborhood_matrix
    ph_scores = params.beta * ph

    # gains[v] = how many currently uncovered nodes v would newly cover,
    # maintained incrementally: when w becomes covered, every node that
    # reaches w loses one
    gains = (t.degrees + 1).astype(np.int64)
    covered = np.zeros(t.n, dtype=bool)
    heads: list[int] = []
    while True:
        heads.append(pick)
        newly = closed[pick] & ~covered
        covered |= newly
        gains -= closed[newly].sum(axis=0)
        if covered.all():
            break
        cand = np.flatnonzero(gains > 0)
        cs = np.cumsum(_scores(params, gains, ph_scores, cand))
        pos = int(np.searchsorted(cs, rng.random() * cs[-1], side="right"))
        pick = int(cand[pos])

    # minimalize: drop heads made redundant by later picks (never the forced
    # start), newest first so early structural picks are kept
    cover_count = closed[heads].sum(axis=0)
    for h in heads[:0:-1]:
        if (cover_count[closed[h]] >= 2).all():
            cover_count[closed[h]] -= 1
            heads.remove(h)
    return set(heads)


def improve_two_for_one(t: Topology, heads) -> set[int]:
    """Shrink a dominating head set by replacing two heads with one node.

    Each round takes the first head pair (a, b) in ascending id order for
    which some node v covers every node that only a and b cover, and
    replaces a and b by the lowest such v (or drops both when nothing
    depends on them). Rounds repeat until no pair qualifies. The result is
    never larger than the input, dominates whenever the input does, and
    depends on nothing but the input.
    """
    closed = t.closed_neighborhood_matrix
    hs = sorted({t._check_id(v) for v in heads})
    while len(hs) >= 2:
        rows = closed[hs].astype(np.int64)
        cover_count = rows.sum(axis=0)
        for i, j in itertools.combinations(range(len(hs)), 2):
            # lost[w]: w loses its last cover if heads i and j go;
            # fits[v]: v covers every such w
            lost = rows[i] + rows[j] == cover_count
            fits = closed[lost].all(axis=0)
            if fits.any():
                break
        else:
            break
        keep = [h for k, h in enumerate(hs) if k != i and k != j]
        if lost.any():
            keep.append(int(np.argmax(fits)))
        hs = sorted(set(keep))
    return set(hs)


def _ant_rng(seed: int, iteration: int, ant: int) -> np.random.Generator:
    # one stream per (seed, iteration, ant): an ant's draws depend on nothing
    # else, so a change to how many draws one ant takes leaves every other
    # ant's draws as they were
    return np.random.default_rng((seed, iteration, ant))


def solve(t: Topology, params: AcoParams | None = None) -> AcoSolution:
    """Run the full iterated search and return the smallest head set found.

    Iteration i forces start node i (wrapping past n); each iteration runs
    ``ants`` constructions, and the smallest of them (earliest on ties) is
    shrunk by ``improve_two_for_one``. That improved set is the iteration
    best: it is what ``head_count_history`` records, what deposits
    pheromone, and what competes for the overall best (earliest on ties),
    which is the answer.

    The search runs at most ``iterations`` iterations, and it returns right
    after the iteration whose best set has no more heads than the lower
    bound: that set is optimal, so no later iteration could replace it. The
    bound is ``oracle.packing_lower_bound(t)`` until the first iteration
    that leaves the best set unchanged; that iteration computes
    ``oracle.lp_lower_bound(t)`` once, and the bound is the larger of the
    two from then on.
    """
    params = params if params is not None else AcoParams()
    iterations = params.iterations if params.iterations is not None else t.n
    bound = oracle.packing_lower_bound(t)
    lp_done = False

    ph = np.zeros(t.n)
    best: set[int] | None = None
    best_iteration = 0
    history: list[int] = []
    for iteration in range(iterations):
        start = iteration % t.n
        constructions = [construct_solution(t, ph, params, start, _ant_rng(params.seed, iteration, ant))
                         for ant in range(params.ants)]
        iteration_best = improve_two_for_one(t, min(constructions, key=len))
        history.append(len(iteration_best))
        if best is None or len(iteration_best) < len(best):
            best = iteration_best
            best_iteration = iteration
        elif not lp_done:
            bound = max(bound, oracle.lp_lower_bound(t))
            lp_done = True
        if len(best) <= bound:
            break
        ph = update_pheromone(ph, iteration_best, params)
    return AcoSolution(heads=frozenset(best), iteration_found=best_iteration, head_count_history=history,
                       lower_bound=bound)
