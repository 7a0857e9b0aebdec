"""Clustering solutions: head sets, member assignment, node roles, validity checks.

A head set is valid when it dominates the topology: every node is a head or
has a head within range. Members attach to an adjacent head; a non-head in
range of two or more heads is a gateway, everything else is ordinary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NodeNotFoundError, ParseError, ValidityError
from .geomgraph import Topology, _id_key, _is_int, _read_json_object, _write_json

HEAD = "head"
GATEWAY = "gateway"
ORDINARY = "ordinary"
ROLES = (HEAD, GATEWAY, ORDINARY)


@dataclass(frozen=True)
class Clustering:
    """A solved clustering: heads, member -> head assignment and node roles.

    ``hops`` is the assignment radius: 1 for one-hop clusterings, k for
    k-hop schemes whose members may sit up to k hops from their head.
    """

    heads: frozenset[int]
    assignment: dict[int, int] = field(default_factory=dict)
    roles: dict[int, str] = field(default_factory=dict)
    hops: int = 1

    @property
    def head_count(self) -> int:
        return len(self.heads)


def _checked_heads(t: Topology, heads) -> list[int]:
    return sorted({t._check_id(v) for v in heads})


def covered_by(t: Topology, heads, hops: int = 1) -> np.ndarray:
    """Boolean mask of nodes within ``hops`` hops of a head (heads included)."""
    ids = _checked_heads(t, heads)
    return t.reach(hops)[ids].any(axis=0)


def uncovered_nodes(t: Topology, heads, hops: int = 1) -> list[int]:
    return [int(v) for v in np.flatnonzero(~covered_by(t, heads, hops))]


def is_dominating(t: Topology, heads, hops: int = 1) -> bool:
    """True iff every node is a head or within ``hops`` hops of a head."""
    return bool(covered_by(t, heads, hops).all())


def compute_roles(t: Topology, heads) -> dict[int, str]:
    """Head for heads; gateway for a non-head in range of >= 2 heads; ordinary otherwise."""
    ids = _checked_heads(t, heads)
    head_set = set(ids)
    # a non-head v is not in ids, so closed[v, ids] is exactly v's adjacent heads
    adjacent_heads = t.closed_neighborhood_matrix[:, ids].sum(axis=1).tolist()
    return {
        v: HEAD if v in head_set else GATEWAY if adjacent_heads[v] >= 2 else ORDINARY
        for v in range(t.n)
    }


def assign_members(t: Topology, heads) -> Clustering:
    """Attach every non-head to its adjacent head of lowest id.

    Raises ValidityError (listing the uncovered nodes) if the heads do not
    dominate the topology.
    """
    ids = _checked_heads(t, heads)
    missing = uncovered_nodes(t, ids)
    if missing:
        raise ValidityError(f"heads do not dominate; uncovered nodes: {missing}", uncovered=missing)
    head_set = frozenset(ids)
    # the first adjacent head column in ascending id order is the lowest-id
    # head; closed[v, ids] is v's adjacent heads for every non-head v
    first = t.closed_neighborhood_matrix[:, ids].argmax(axis=1).tolist()
    assignment = {v: ids[i] for v, i in enumerate(first) if v not in head_set}
    return Clustering(heads=head_set, assignment=assignment, roles=compute_roles(t, ids), hops=1)


# -- validation against a topology ------------------------------------------


def validate_clustering(t: Topology, c: Clustering) -> list[str]:
    """Return a list of violation messages; empty means the clustering is valid."""
    problems: list[str] = []
    try:
        head_set = set(_checked_heads(t, c.heads))
    except NodeNotFoundError as exc:
        return [f"heads: {exc}"]

    missing = uncovered_nodes(t, head_set, c.hops)
    if missing:
        problems.append(f"uncovered nodes (no head within {c.hops} hop(s)): {missing}")

    reach = t.reach(c.hops)

    for member, h in sorted(c.assignment.items()):
        if not (isinstance(member, int) and 0 <= member < t.n):
            problems.append(f"assignment: unknown member id {member!r}")
            continue
        if member in head_set:
            problems.append(f"assignment: node {member} is a head but is assigned to {h}")
            continue
        if h not in head_set:
            problems.append(f"assignment: node {member} is assigned to {h}, which is not a head")
            continue
        if not reach[h, member]:
            problems.append(f"assignment: node {member} is not within {c.hops} hop(s) of its head {h}")

    for v in range(t.n):
        if v not in head_set and v not in c.assignment:
            problems.append(f"assignment: non-head node {v} is not assigned to any head")

    expected_roles = compute_roles(t, head_set)
    for v in range(t.n):
        role = c.roles.get(v)
        if role not in ROLES:
            problems.append(f"roles: node {v} has invalid role {role!r}")
        elif role != expected_roles[v]:
            problems.append(f"roles: node {v} marked {role!r} but is {expected_roles[v]!r}")
    return problems


# -- JSON round trip ---------------------------------------------------------


def clustering_to_dict(c: Clustering) -> dict:
    return {
        "heads": sorted(c.heads),
        "assignment": {str(m): h for m, h in sorted(c.assignment.items())},
        "roles": {str(v): r for v, r in sorted(c.roles.items())},
        "hops": c.hops,
    }


def save_clustering(c: Clustering, path) -> None:
    _write_json(clustering_to_dict(c), path)


def load_clustering(path) -> Clustering:
    """Read a clustering written by save_clustering(). Node ids must be JSON
    integers: a float, a string or a bool is a ParseError, not an id; the
    ``assignment`` and ``roles`` keys must spell them as ``str`` does."""
    doc = _read_json_object(path)
    heads = doc.get("heads")
    if not isinstance(heads, list) or not all(_is_int(h) for h in heads):
        raise ParseError(f"{path}: 'heads' must be a list of integers")
    assignment_raw = doc.get("assignment", {})
    roles_raw = doc.get("roles", {})
    if not isinstance(assignment_raw, dict) or not isinstance(roles_raw, dict):
        raise ParseError(f"{path}: 'assignment' and 'roles' must be objects")
    if not all(_is_int(h) for h in assignment_raw.values()):
        raise ParseError(f"{path}: 'assignment' values must be integers (head ids)")
    hops = doc.get("hops", 1)
    if not _is_int(hops) or hops < 1:
        raise ParseError(f"{path}: 'hops' must be an integer >= 1")
    try:
        assignment = {_id_key(m): h for m, h in assignment_raw.items()}
        roles = {_id_key(v): str(r) for v, r in roles_raw.items()}
    except ValueError as exc:
        raise ParseError(f"{path}: malformed assignment/roles keys: {exc}") from exc
    return Clustering(heads=frozenset(heads), assignment=assignment, roles=roles, hops=hops)
