"""Correctness checks for the benchmark's outputs, written without antclust.

Every check works on node positions and head sets only. The adjacency is
rebuilt here from the positions under the strict ``distance < range`` rule,
and the reference optima come from scipy's HiGHS solvers. Each check returns
a list of problem messages; an empty list means the output passed.

This module imports scipy, so the benchmark imports it only after it has
read the process's peak memory.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp


def closed_neighborhoods(positions, radio_range: float) -> np.ndarray:
    """Boolean n x n matrix: True where two nodes are closer than the range, and on the diagonal."""
    pts = np.asarray(positions, dtype=float)
    dx = pts[:, 0, None] - pts[None, :, 0]
    dy = pts[:, 1, None] - pts[None, :, 1]
    reach = dx * dx + dy * dy < radio_range * radio_range
    np.fill_diagonal(reach, True)
    return reach


def within_two_hops(closed: np.ndarray) -> np.ndarray:
    """Boolean matrix of node pairs at most two hops apart (closed neighborhoods that meet)."""
    m = sparse.csr_array(closed.astype(np.float64))
    return (m @ m).toarray() > 0


def optimum(closed: np.ndarray) -> int:
    """Exact minimum dominating set size from a binary program (HiGHS)."""
    n = closed.shape[0]
    res = milp(
        np.ones(n),
        constraints=LinearConstraint(sparse.csr_array(closed.astype(np.float64)), lb=1),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if res.status != 0:
        raise RuntimeError(f"MILP did not solve: {res.message}")
    return round(res.fun)


def lp_bound(reach: np.ndarray) -> int:
    """Ceiling of the LP relaxation of covering every node by ``reach`` rows (HiGHS)."""
    n = reach.shape[0]
    res = linprog(
        np.ones(n),
        A_ub=-sparse.csr_array(reach.astype(np.float64)),
        b_ub=-np.ones(n),
        bounds=(0, 1),
        method="highs-ipm",
    )
    if res.status != 0:
        raise RuntimeError(f"LP did not solve: {res.message}")
    return math.ceil(res.fun - 1e-6)


def uncovered(reach: np.ndarray, heads) -> list[str]:
    """Nodes that no head reaches."""
    heads = sorted(heads)
    if not heads:
        return ["the head set is empty"]
    strangers = [h for h in heads if not 0 <= h < reach.shape[0]]
    if strangers:
        return [f"head ids out of range: {strangers[:5]}"]
    missing = np.flatnonzero(~reach[:, heads].any(axis=1))
    return [f"{missing.size} node(s) reached by no head, first {missing[:5].tolist()}"] if missing.size else []


def below(count: int, floor: int, what: str) -> list[str]:
    """A head count smaller than a proven lower bound."""
    return [f"{count} heads is below the {what} of {floor}"] if count < floor else []


def close_heads(reach: np.ndarray, heads) -> list[str]:
    """Pairs of distinct heads that reach each other."""
    heads = sorted(heads)
    sub = reach[np.ix_(heads, heads)].copy()
    np.fill_diagonal(sub, False)
    a, b = np.nonzero(np.triu(sub))
    return [f"{a.size} head pair(s) too close, first ({heads[a[0]]}, {heads[b[0]]})"] if a.size else []


def bad_assignment(reach: np.ndarray, heads, assignment: dict[int, int]) -> list[str]:
    """Non-heads left unassigned, or assigned to a non-head or to a head out of reach."""
    heads = set(heads)
    n = reach.shape[0]
    problems = []
    unassigned = [v for v in range(n) if v not in heads and v not in assignment]
    if unassigned:
        problems.append(f"{len(unassigned)} non-head(s) unassigned, first {unassigned[:5]}")
    wrong = [m for m, h in assignment.items() if not 0 <= m < n or m in heads or h not in heads or not reach[m, h]]
    if wrong:
        problems.append(f"{len(wrong)} member(s) not within reach of a head they may join, first {sorted(wrong)[:5]}")
    return problems
