"""Two-receiver broadcast-channel coding toolkit.

Exact small-instance solvers for joint and sum success probabilities, the
linear programs for non-signaling assistance, a certified approximation for
deterministic channels through the densest-quotient-graph view, and planted
instances showing that value queries cannot find the welfare optimum.
"""

from .channels import (
    ChannelTable,
    DeterministicChannel,
    MarginalTable,
    channel_graph,
    marginals,
    tensor_power,
    to_deterministic,
    validate_channel,
)
from .errors import (
    BadParametersError,
    DimensionMismatchError,
    EnumerationCapExceededError,
    InfeasibleError,
    InvariantViolationError,
    IterationLimitError,
    NegativeProbabilityError,
    NotDeterministicError,
    ParseError,
    RowNotNormalizedError,
    SideMismatchError,
    SizeCapExceededError,
    ToolkitError,
    UnboundedError,
    ValidationError,
)
from .exact import (
    Code,
    SolveReport,
    code_from_partitions,
    joint_success,
    solve_dqg,
    solve_joint,
    solve_ns_dec,
    solve_sum,
    sum_success,
)
from .graphs import (
    BipartiteGraph,
    Partition,
    enumerate_partitions,
    make_graph,
    quotient_edge_count,
    singleton_partition,
)
from .approx import (
    ApproxResult,
    approximate_dqg,
    degree_upper_bound,
    derandomize_left,
    exact_expected_edges,
    greedy_welfare,
    random_left_partition,
)
from .approx import left_degree_bound
from .files import (
    channel_from_dict,
    channel_to_dict,
    dumps_canonical,
    load_channel,
    save_channel,
)
from .generators import (
    random_bipartite_graph,
    random_channel,
    random_code,
    random_deterministic_channel,
    random_dyadic_channel,
    random_feasible_lp,
)
from .graphs import distinct_left_neighbors
from .hardness import (
    AdaptiveBisection,
    HardnessInstance,
    QueryLog,
    RandomSubsets,
    SingletonSweep,
    build_instance,
    chernoff_bound,
    expected_min_poisson,
    leak_probability,
    materialize_channel,
    optimal_welfare,
    poisson_concavity_ratio,
    random_equipartition,
    run_query_experiment,
    value_oracle,
    welfare_gap,
)
from .nsprograms import (
    NsSolution,
    build_decoder_box_lp,
    build_ns_full,
    build_ns_joint,
    build_ns_sum,
    extract_ns_solution,
    reconstruct_full_box,
    solve_ns,
)
from .reporting import DEFAULT_CHECK_TOL, Check, Report, jsonify, make_check
from .simplex import (
    EQ,
    GE,
    LE,
    LpModel,
    LpSolution,
    certify,
    constraint_violation,
    lp_solve,
    lp_write_text,
    solve_exact,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
