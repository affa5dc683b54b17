"""Seeded random instances for experiments and property tests."""

from __future__ import annotations

import numpy as np

from .channels import ChannelTable, DeterministicChannel, validate_channel
from .errors import BadParametersError
from .exact import Code
from .graphs import BipartiteGraph
from .simplex import LE, LpModel


def random_channel(num_inputs: int, num_outputs1: int, num_outputs2: int,
                   seed=None) -> ChannelTable:
    """Channel with rows drawn from the flat Dirichlet, uniform on the simplex."""
    if min(num_inputs, num_outputs1, num_outputs2) < 1:
        raise BadParametersError("alphabet sizes must be positive")
    rng = np.random.default_rng(seed)
    flat = rng.dirichlet([1.0] * (num_outputs1 * num_outputs2), size=num_inputs)
    return validate_channel(flat.reshape(num_inputs, num_outputs1, num_outputs2))


def random_dyadic_channel(num_inputs: int, num_outputs1: int, num_outputs2: int,
                          seed=None, denominator: int = 64) -> ChannelTable:
    """Channel whose entries are exact multiples of 1 / denominator.

    Useful for comparing float against rational solves: with a power-of-two
    denominator every entry is an exactly representable float.
    """
    if denominator < 1 or denominator & (denominator - 1):
        raise BadParametersError("denominator must be a power of two")
    rng = np.random.default_rng(seed)
    cells = num_outputs1 * num_outputs2
    counts = rng.multinomial(denominator, [1.0 / cells] * cells, size=num_inputs)
    probs = counts.astype(np.float64) / denominator
    return validate_channel(probs.reshape(num_inputs, num_outputs1, num_outputs2))


def random_deterministic_channel(num_inputs: int, num_outputs1: int,
                                 num_outputs2: int, seed=None) -> DeterministicChannel:
    rng = np.random.default_rng(seed)
    ys1 = rng.integers(num_outputs1, size=num_inputs)
    ys2 = rng.integers(num_outputs2, size=num_inputs)
    return DeterministicChannel(num_inputs, num_outputs1, num_outputs2,
                                np.stack([ys1, ys2], axis=1))


def random_bipartite_graph(left_size: int, right_size: int, edge_prob: float,
                           seed=None) -> BipartiteGraph:
    if not (0.0 <= edge_prob <= 1.0):
        raise BadParametersError("edge_prob must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    mask = rng.random((left_size, right_size)) < edge_prob
    # Row-major nonzero lists the edges sorted by (left, right) and distinct.
    return BipartiteGraph(left_size, right_size, np.nonzero(mask))


def random_code(k1: int, k2: int, num_inputs: int, num_outputs1: int,
                num_outputs2: int, seed=None) -> Code:
    rng = np.random.default_rng(seed)
    encoder = tuple(tuple(int(v) for v in row)
                    for row in rng.integers(num_inputs, size=(k1, k2)))
    decoder1 = tuple(int(v) for v in rng.integers(k1, size=num_outputs1))
    decoder2 = tuple(int(v) for v in rng.integers(k2, size=num_outputs2))
    return Code(k1, k2, encoder, decoder1, decoder2)


def random_feasible_lp(num_vars: int, num_rows: int, seed=None) -> LpModel:
    """Bounded maximization with the origin feasible.

    Rows have nonnegative right-hand sides and a final simplex-style row
    sum(x) <= cap keeps the feasible region bounded, so an optimum exists.
    """
    if num_vars < 1 or num_rows < 0:
        raise BadParametersError("need at least one variable")
    rng = np.random.default_rng(seed)
    rows = [rng.uniform(-1.0, 1.0, size=num_vars) for _ in range(num_rows)]
    rhs = [float(rng.uniform(0.0, 5.0)) for _ in range(num_rows)]
    rows.append(np.ones(num_vars))
    rhs.append(float(rng.uniform(1.0, 10.0)))
    return LpModel(num_vars=num_vars,
                   objective=rng.uniform(-1.0, 1.0, size=num_vars),
                   rows=np.array(rows),
                   relations=[LE] * (num_rows + 1),
                   rhs=np.array(rhs))
