"""Two-receiver broadcast-channel coding toolkit.

Exact small-instance solvers for joint and sum success probabilities, the
linear programs for non-signaling assistance, a certified approximation for
deterministic channels through the densest-quotient-graph view, and planted
instances showing that value queries cannot find the welfare optimum.

The package imports its submodules on first use: `import bcc` loads none
of them, and `bcc.solve_ns` or `bcc.exact` imports the module that defines
it (PEP 562).  Inside the package, cli and exact do the same for single
functions through _deferred.  So a `bcc` command pays only for the solvers
it runs.
"""

import sys

_EXPORTS = {
    "approx": (
        "ApproxResult",
        "approximate_dqg",
        "degree_upper_bound",
        "derandomize_left",
        "exact_expected_edges",
        "greedy_welfare",
        "left_degree_bound",
        "random_left_partition",
    ),
    "channels": (
        "ChannelTable",
        "DeterministicChannel",
        "MarginalTable",
        "channel_graph",
        "marginals",
        "tensor_power",
        "to_deterministic",
        "validate_channel",
    ),
    "errors": (
        "BadParametersError",
        "DimensionMismatchError",
        "EnumerationCapExceededError",
        "InfeasibleError",
        "InvariantViolationError",
        "IterationLimitError",
        "NegativeProbabilityError",
        "NotDeterministicError",
        "ParseError",
        "RowNotNormalizedError",
        "SideMismatchError",
        "SizeCapExceededError",
        "ToolkitError",
        "UnboundedError",
        "ValidationError",
    ),
    "exact": (
        "Code",
        "SolveReport",
        "code_from_partitions",
        "joint_success",
        "solve_dqg",
        "solve_joint",
        "solve_ns_dec",
        "solve_sum",
        "sum_success",
    ),
    "files": (
        "channel_from_dict",
        "channel_to_dict",
        "dumps_canonical",
        "load_channel",
        "save_channel",
    ),
    "generators": (
        "random_bipartite_graph",
        "random_channel",
        "random_code",
        "random_deterministic_channel",
        "random_dyadic_channel",
        "random_feasible_lp",
    ),
    "graphs": (
        "BipartiteGraph",
        "Partition",
        "distinct_left_neighbors",
        "enumerate_partitions",
        "make_graph",
        "quotient_edge_count",
        "singleton_partition",
    ),
    "hardness": (
        "AdaptiveBisection",
        "HardnessInstance",
        "QueryLog",
        "RandomSubsets",
        "SingletonSweep",
        "build_instance",
        "chernoff_bound",
        "expected_min_poisson",
        "leak_probability",
        "materialize_channel",
        "optimal_welfare",
        "poisson_concavity_ratio",
        "random_equipartition",
        "run_query_experiment",
        "value_oracle",
        "welfare_gap",
    ),
    "nsprograms": (
        "NsSolution",
        "build_decoder_box_lp",
        "build_ns_full",
        "build_ns_joint",
        "build_ns_sum",
        "extract_ns_solution",
        "reconstruct_full_box",
        "solve_ns",
    ),
    "reporting": ("DEFAULT_CHECK_TOL", "Check", "Report", "jsonify", "make_check"),
    "simplex": (
        "EQ",
        "GE",
        "LE",
        "LpModel",
        "LpSolution",
        "certify",
        "constraint_violation",
        "lp_solve",
        "lp_write_text",
        "solve_exact",
    ),
}
"""Public names by the submodule that defines them."""

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def _load(module: str):
    """bcc.<module>, imported by __import__, which python -X importtime logs."""
    __import__(f"{__name__}.{module}")
    return sys.modules[f"{__name__}.{module}"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _load(name)
    if name in _MODULE_OF:
        return getattr(_load(_MODULE_OF[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


def _deferred(module: str, name: str):
    """A stand-in for bcc.<module>.<name> that imports the module on its first call.

    cli and exact bind the solvers they call into other modules to stand-ins,
    so that importing them loads none of those modules: a process imports
    nsprograms and simplex only when it first solves a linear program.  The
    stand-in looks the name up on every call, so a patch of
    bcc.<module>.<name> reaches every caller; a patch of the stand-in itself
    reaches only the callers in its own module.
    """
    def call(*args, **kwargs):
        return getattr(_load(module), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    call.__doc__ = f"bcc.{module}.{name}, imported on first call."
    return call
