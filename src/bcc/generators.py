"""Seeded random instances for experiments and property tests."""

from __future__ import annotations

import numpy as np

from .channels import ChannelTable, DeterministicChannel, validate_channel
from .errors import BadParametersError
from .exact import Code
from .graphs import BipartiteGraph, _as_int, _check_k
from .simplex import LE, LpModel


def _alphabet_sizes(num_inputs, num_outputs1, num_outputs2) -> tuple[int, int, int]:
    return (_as_int(num_inputs, "num_inputs"), _as_int(num_outputs1, "num_outputs1"),
            _as_int(num_outputs2, "num_outputs2"))


def random_channel(num_inputs: int, num_outputs1: int, num_outputs2: int,
                   seed=None) -> ChannelTable:
    """Channel with rows drawn from the flat Dirichlet, uniform on the simplex."""
    nx, n1, n2 = _alphabet_sizes(num_inputs, num_outputs1, num_outputs2)
    rng = np.random.default_rng(seed)
    flat = rng.dirichlet([1.0] * (n1 * n2), size=nx)
    return validate_channel(flat.reshape(nx, n1, n2))


def random_dyadic_channel(num_inputs: int, num_outputs1: int, num_outputs2: int,
                          seed=None, denominator: int = 64) -> ChannelTable:
    """Channel whose entries are exact multiples of 1 / denominator.

    Useful for comparing float against rational solves: with a power-of-two
    denominator every entry is an exactly representable float.
    """
    nx, n1, n2 = _alphabet_sizes(num_inputs, num_outputs1, num_outputs2)
    denominator = _as_int(denominator, "denominator")
    if denominator & (denominator - 1):
        raise BadParametersError("denominator must be a power of two")
    rng = np.random.default_rng(seed)
    cells = n1 * n2
    counts = rng.multinomial(denominator, [1.0 / cells] * cells, size=nx)
    probs = counts.astype(np.float64) / denominator
    return validate_channel(probs.reshape(nx, n1, n2))


def random_deterministic_channel(num_inputs: int, num_outputs1: int,
                                 num_outputs2: int, seed=None) -> DeterministicChannel:
    nx, n1, n2 = _alphabet_sizes(num_inputs, num_outputs1, num_outputs2)
    rng = np.random.default_rng(seed)
    ys1 = rng.integers(n1, size=nx)
    ys2 = rng.integers(n2, size=nx)
    return DeterministicChannel(nx, n1, n2, np.stack([ys1, ys2], axis=1))


def random_bipartite_graph(left_size: int, right_size: int, edge_prob: float,
                           seed=None) -> BipartiteGraph:
    if not (0.0 <= edge_prob <= 1.0):
        raise BadParametersError("edge_prob must lie in [0, 1]")
    left_size = _as_int(left_size, "left_size", 0)
    right_size = _as_int(right_size, "right_size", 0)
    rng = np.random.default_rng(seed)
    mask = rng.random((left_size, right_size)) < edge_prob
    # Row-major nonzero lists the edges sorted by (left, right) and distinct.
    return BipartiteGraph(left_size, right_size, np.nonzero(mask))


def random_code(k1: int, k2: int, num_inputs: int, num_outputs1: int,
                num_outputs2: int, seed=None) -> Code:
    k1, k2 = _check_k(k1, k2)
    nx, n1, n2 = _alphabet_sizes(num_inputs, num_outputs1, num_outputs2)
    rng = np.random.default_rng(seed)
    encoder = tuple(tuple(int(v) for v in row) for row in rng.integers(nx, size=(k1, k2)))
    decoder1 = tuple(int(v) for v in rng.integers(k1, size=n1))
    decoder2 = tuple(int(v) for v in rng.integers(k2, size=n2))
    return Code(k1, k2, encoder, decoder1, decoder2)


def random_feasible_lp(num_vars: int, num_rows: int, seed=None) -> LpModel:
    """Bounded maximization with the origin feasible.

    Rows have nonnegative right-hand sides and a final simplex-style row
    sum(x) <= cap keeps the feasible region bounded, so an optimum exists.
    """
    num_vars, num_rows = _as_int(num_vars, "num_vars"), _as_int(num_rows, "num_rows", 0)
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
