"""Cluster-head election toolkit for ad hoc network topologies.

Builds unit-disk topologies, elects minimal cluster-head (dominating) sets
with an ant-colony search and four classical baselines, checks results
against an exhaustive oracle, and benchmarks everything over seeded sweeps.
"""

from .aco import AcoParams, AcoSolution, construct_solution, solve
from .baselines import WcaParams, highest_degree, kconid, lowest_id, wca, wca_node_weight
from .clustering import (
    Clustering,
    assign_members,
    domination_number_lower_bound,
    is_dominating,
    is_k_dominating,
    load_clustering,
    save_clustering,
    validate_clustering,
)
from .errors import (
    AntclustError,
    ConfigurationError,
    NodeLimitError,
    NodeNotFoundError,
    ParseError,
    ValidityError,
)
from .experiments import ExperimentResult, ExperimentSpec, RunRow, run
from .geomgraph import Topology, TopologyConfig, generate, load, save
from .oracle import OracleResult, exact_min_dominating_set, greedy_min_dominating_set

__version__ = "0.1.0"

__all__ = [
    "AcoParams",
    "AcoSolution",
    "AntclustError",
    "Clustering",
    "ConfigurationError",
    "ExperimentResult",
    "ExperimentSpec",
    "NodeLimitError",
    "NodeNotFoundError",
    "OracleResult",
    "ParseError",
    "RunRow",
    "Topology",
    "TopologyConfig",
    "ValidityError",
    "WcaParams",
    "assign_members",
    "construct_solution",
    "domination_number_lower_bound",
    "exact_min_dominating_set",
    "generate",
    "greedy_min_dominating_set",
    "highest_degree",
    "is_dominating",
    "is_k_dominating",
    "kconid",
    "load",
    "load_clustering",
    "lowest_id",
    "run",
    "save",
    "save_clustering",
    "solve",
    "validate_clustering",
    "wca",
    "wca_node_weight",
]
