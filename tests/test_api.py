"""The public contract: ``greedymis.__all__`` and the engine's entry point."""

import inspect

import greedymis


# every addition to or removal from the public surface is an edit here
PUBLIC_NAMES = [
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


def test_all_is_the_pinned_list():
    assert greedymis.__all__ == PUBLIC_NAMES


def test_all_is_sorted_unique_and_resolves():
    names = greedymis.__all__
    assert names == sorted(set(names))
    for name in names:
        assert getattr(greedymis, name) is not None, name


def test_run_greedy_has_one_keyword_only_parameter():
    params = inspect.signature(greedymis.run_greedy).parameters.values()
    keyword_only = tuple(p.name for p in params if p.kind is p.KEYWORD_ONLY)
    assert keyword_only == ("target",)
