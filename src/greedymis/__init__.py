"""Greedy maximum-independent-set toolkit.

A family of greedy MIS algorithms parameterized by a scoring heuristic
(a: candidate-pool size, b: stability of the induced pool graph) and the
initial independent-set cardinality k, together with an exact
branch-and-bound oracle and a seeded experiment harness for failure
ratios, accuracy gaps, and workload comparisons.
"""

from .dimacs import GraphParseError, read_graph, write_graph
from .engine import (
    EngineConfig,
    Generation,
    GreedyResult,
    Heuristic,
    NoSeedSetsError,
    RunStats,
    SeedLimitError,
    expand_generation,
    initial_generation,
    run_greedy,
)
from .exact import OracleResult, OracleTimeout, brute_force_mis, exact_mis
from .experiments import (
    AccuracyReport,
    ExperimentConfig,
    FailureReport,
    WorkloadReport,
    density_grid,
    emit_csv,
    emit_plot,
    log_base,
    parse_algorithms,
    run_accuracy_experiment,
    run_failure_experiment,
    run_workload_experiment,
    tau_edgeless,
)
from .graph import Graph, GraphError, VertexSet, derive_seed, non_neighbors, random_gnm

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "EngineConfig",
    "ExperimentConfig",
    "FailureReport",
    "Generation",
    "Graph",
    "GraphError",
    "GraphParseError",
    "GreedyResult",
    "Heuristic",
    "NoSeedSetsError",
    "OracleResult",
    "OracleTimeout",
    "RunStats",
    "SeedLimitError",
    "VertexSet",
    "WorkloadReport",
    "brute_force_mis",
    "density_grid",
    "derive_seed",
    "emit_csv",
    "emit_plot",
    "exact_mis",
    "expand_generation",
    "initial_generation",
    "log_base",
    "non_neighbors",
    "parse_algorithms",
    "random_gnm",
    "read_graph",
    "run_accuracy_experiment",
    "run_failure_experiment",
    "run_greedy",
    "run_workload_experiment",
    "tau_edgeless",
    "write_graph",
]
