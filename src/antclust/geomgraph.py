"""Unit-disk topology graphs: node placement, neighbourhoods and k-hop reach.

Nodes are points in a square; two nodes are linked iff their Euclidean
distance is strictly below the transmission range. Links are always
derived from positions, never stored in files.

The boolean closed-neighbourhood matrix (each node and the nodes in its
range) is the one graph representation. Every
"who is in range of whom" and "who is within k hops" question is answered
from it: ``Topology.reach(k)`` is the matrix of pairs at most k hops apart,
and ``reach(1)`` is the closed-neighbourhood matrix itself.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, NodeNotFoundError, ParseError


_BUILD_ROWS = 256


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    """An int or float that converts to a finite float; not a bool (True would read as 1)."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def _is_range(x) -> bool:
    """A finite positive number with a nonzero square: a range whose square
    underflows to 0 would leave each node out of its own range."""
    return _is_finite(x) and x > 0 and float(x) * float(x) > 0


def _id_key(s: str) -> int:
    """A node id from a JSON object key spelled as ``str`` spells it: "7",
    not " 7", "+7" or "0_7"; ValueError otherwise."""
    v = int(s)
    if str(v) != s:
        raise ValueError(f"node id key {s!r} is not a plain integer")
    return v


def _read_json_object(path) -> dict:
    """Read a UTF-8 JSON file whose top-level value is an object.

    The package's four JSON documents are the graph (``save``/``load``), the
    clustering (``save_clustering``/``load_clustering``), the experiment spec
    (``load_spec``) and the sweep results (``export_json``); every one that
    is read comes through here. Bad UTF-8, bad JSON, nesting too deep to
    parse and a non-object top level all raise ParseError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: not valid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    return doc


def _write_json(doc, path) -> None:
    """Write ``doc`` as sorted-key JSON indented by 2, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class TopologyConfig:
    """Generation parameters: node count, square side, radio range, RNG seed.

    ``seed`` is None for topologies loaded from a file (their positions were
    not generated here). Valid by construction: ``validate`` runs when it
    is built.
    """

    n: int
    area_side: float = 1000.0
    range: float = 200.0
    seed: int | None = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not _is_int(self.n) or self.n < 1:
            raise ConfigurationError(f"n must be an integer >= 1, got {self.n!r}")
        if not (_is_finite(self.area_side) and self.area_side > 0):
            raise ConfigurationError(f"area_side must be a finite positive number, got {self.area_side!r}")
        if not _is_range(self.range):
            raise ConfigurationError(f"range must be a finite positive number with a nonzero square, got {self.range!r}")
        if self.seed is not None and (not _is_int(self.seed) or self.seed < 0):
            raise ConfigurationError(f"seed must be a non-negative integer or None, got {self.seed!r}")


class Topology:
    """Immutable node positions plus the derived closed-neighbourhood matrix.

    Node ids are dense 0..n-1. Neighbourhoods, degrees and k-hop reach are
    all read from the closed-neighbourhood matrix; ``reach(k)`` matrices are
    built on first use and cached per k. Safe for concurrent read access.
    """

    def __init__(self, config: TopologyConfig, positions) -> None:
        pts = [(float(x), float(y)) for x, y in positions]
        if len(pts) != config.n:
            raise ConfigurationError(f"n={config.n} but {len(pts)} positions given")
        for i, (x, y) in enumerate(pts):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ConfigurationError(f"position of node {i} is not finite: ({x!r}, {y!r})")
        self._config = config
        self._positions = tuple(pts)
        x, y = np.array(pts).T
        r2 = float(config.range) * float(config.range)
        closed = np.empty((config.n, config.n), dtype=bool)
        # a block of rows at a time: the float64 temporaries stay at
        # 2 x _BUILD_ROWS x n values instead of 2 x n x n. A node's distance
        # to itself is exactly 0 < range, so the diagonal comes out True. A
        # squared distance too large for a float overflows to inf: out of range.
        with np.errstate(over="ignore"):
            for lo in range(0, config.n, _BUILD_ROWS):
                rows = slice(lo, lo + _BUILD_ROWS)
                d2 = np.subtract.outer(x[rows], x)
                d2 *= d2
                dy = np.subtract.outer(y[rows], y)
                dy *= dy
                d2 += dy
                np.less(d2, r2, out=closed[rows])
        closed.flags.writeable = False
        self._closed = closed
        self._reach: dict[int, np.ndarray] = {}

    # -- basic accessors ---------------------------------------------------

    @property
    def config(self) -> TopologyConfig:
        return self._config

    @property
    def n(self) -> int:
        return self._config.n

    @property
    def positions(self) -> tuple[tuple[float, float], ...]:
        return self._positions

    @property
    def closed_neighborhood_matrix(self) -> np.ndarray:
        """Boolean n x n matrix, symmetric, True on the diagonal (each node
        covers itself) and where two nodes are in range. Read-only."""
        return self._closed

    @cached_property
    def degrees(self) -> np.ndarray:
        d = self._closed.sum(axis=1, dtype=np.int64) - 1
        d.flags.writeable = False
        return d

    def _check_id(self, v) -> int:
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or not 0 <= v < self.n:
            raise NodeNotFoundError(f"unknown node id {v!r} (valid ids are 0..{self.n - 1})")
        return int(v)

    # -- queries -----------------------------------------------------------

    def neighbors(self, v) -> frozenset[int]:
        """Ids of nodes strictly within range of v, excluding v itself."""
        return self.closed_neighborhood(v) - {v}

    def closed_neighborhood(self, v) -> frozenset[int]:
        """neighbors(v) plus v itself: everything a head at v would cover."""
        v = self._check_id(v)
        return frozenset(int(u) for u in np.flatnonzero(self._closed[v]))

    def degree(self, v) -> int:
        v = self._check_id(v)
        return int(self.degrees[v])

    def reach(self, k: int = 1) -> np.ndarray:
        """Boolean n x n matrix, True where two nodes are at most k hops apart
        (diagonal included). Read-only; ``reach(1)`` is the closed
        neighbourhood matrix.

        Built hop by hop on bit-packed rows: row v of hop j+1 is the OR of
        the hop-j rows of v's closed neighbourhood. The walk stops early once
        a hop adds nothing.
        """
        if not _is_int(k) or k < 1:
            raise ValueError(f"k must be an integer >= 1, got {k!r}")
        if k == 1:
            return self.closed_neighborhood_matrix
        if k not in self._reach:
            closed = self.closed_neighborhood_matrix
            rows = np.packbits(closed, axis=1)
            for _ in range(k - 1):
                nxt = np.array([np.bitwise_or.reduce(rows[nbrs]) for nbrs in closed])
                if np.array_equal(nxt, rows):
                    break
                rows = nxt
            m = np.unpackbits(rows, axis=1, count=self.n).view(bool)
            m.flags.writeable = False
            self._reach[k] = m
        return self._reach[k]

    def edge_count(self) -> int:
        return int(self.degrees.sum()) // 2

    def mean_degree(self) -> float:
        return float(self.degrees.mean())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self._config.area_side == other._config.area_side
            and self._config.range == other._config.range
            and self._positions == other._positions
        )

    __hash__ = None  # mutable caches inside; identity comparison is never wanted

    def __repr__(self) -> str:
        c = self._config
        return f"Topology(n={c.n}, area_side={c.area_side}, range={c.range}, edges={self.edge_count()})"


def generate(config: TopologyConfig) -> Topology:
    """Place n nodes independently uniformly at random in the square.

    Deterministic: the same config (including seed) always produces the
    identical topology.
    """
    if config.seed is None:
        raise ConfigurationError("seed must be set to generate a topology")
    rng = np.random.default_rng(config.seed)
    pts = rng.uniform(0.0, config.area_side, size=(config.n, 2))
    return Topology(config, pts)


def save(t: Topology, path) -> None:
    """Write the topology as JSON: area_side, range, and node positions."""
    doc = {
        "area_side": t.config.area_side,
        "range": t.config.range,
        "nodes": [
            {"id": i, "x": x, "y": y} for i, (x, y) in enumerate(t.positions)
        ],
    }
    _write_json(doc, path)


def load(path) -> Topology:
    """Read a topology written by save(); links are recomputed, not stored.

    Positions outside [0, area_side]^2 are accepted with a warning. Node ids
    must be exactly 0..n-1.
    """
    doc = _read_json_object(path)
    for field in ("area_side", "range"):
        if field not in doc:
            raise ConfigurationError(f"{path}: missing required field {field!r}")
        if not _is_finite(doc[field]):
            raise ConfigurationError(f"{path}: field {field!r} must be a finite number")
    nodes = doc.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise ParseError(f"{path}: 'nodes' must be a non-empty list")

    by_id: dict[int, tuple[float, float]] = {}
    for idx, entry in enumerate(nodes):
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: nodes[{idx}] is not an object")
        try:
            nid, x, y = entry["id"], entry["x"], entry["y"]
        except KeyError as exc:
            raise ParseError(f"{path}: nodes[{idx}] is missing field {exc.args[0]!r}") from exc
        if not _is_int(nid):
            raise ParseError(f"{path}: nodes[{idx}].id must be an integer, got {nid!r}")
        if nid in by_id:
            raise ParseError(f"{path}: duplicate node id {nid} at nodes[{idx}]")
        if not (_is_finite(x) and _is_finite(y)):
            raise ParseError(f"{path}: nodes[{idx}] coordinates must be finite numbers")
        by_id[nid] = (float(x), float(y))

    n = len(by_id)
    if sorted(by_id) != list(range(n)):
        raise ParseError(f"{path}: node ids must be exactly 0..{n - 1}")

    area = float(doc["area_side"])
    out_of_area = [i for i, (x, y) in by_id.items() if not (0 <= x <= area and 0 <= y <= area)]
    if out_of_area:
        warnings.warn(
            f"{path}: {len(out_of_area)} node(s) lie outside [0, {area}]^2 "
            f"(first: id {min(out_of_area)}); keeping them as-is",
            stacklevel=2,
        )

    config = TopologyConfig(n=n, area_side=area, range=float(doc["range"]), seed=None)
    return Topology(config, [by_id[i] for i in range(n)])
