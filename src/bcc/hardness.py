"""Planted-block instances where value queries hide the welfare optimum.

For k1 messages take m = k1^2 items and hide a uniformly random equipartition
of the items into k1 blocks of size k1.  The planted channel rewards bundles
concentrated in one block; the flat variant replaces the block rows by a
constant and rewards nothing.  Their normalized value oracles are

    planted: v(S) = max(m^(2 delta) [S nonempty], |S| m^(delta - 1/2), max_j |T_j cap S|)
    flat:    v(S) = max(m^(2 delta) [S nonempty], |S| m^(delta - 1/2))

so a query separates the two only when some block intersection beats both
smooth branches, which for a fixed query happens with probability at most
sqrt(m) exp(-m^(3 delta) / 4) over the random blocks.  Note the block branch
is capped by k1 = m^(1/2), so for delta >= 1/4 no query can ever separate
the oracles; experiments that want separations need delta < 1/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import DEFAULT_ENTRY_CAP, ChannelTable, validate_channel
from .errors import BadParametersError, SizeCapExceededError
from .graphs import (DEFAULT_DELTA, DEFAULT_ENUM_CAP, _as_int, _as_ints, _check_cap,
                     enumerate_partitions)

PLANTED, FLAT = "planted", "flat"
_VARIANTS = (PLANTED, FLAT)


@dataclass(frozen=True)
class HardnessInstance:
    k1: int
    delta: float
    m: int
    blocks: tuple[tuple[int, ...], ...]
    seed: int

    @cached_property
    def block_of(self) -> tuple[int, ...]:
        owner = [-1] * self.m
        for j, block in enumerate(self.blocks):
            for i in block:
                owner[i] = j
        return tuple(owner)

    @property
    def normalizer(self) -> float:
        """Constant C making every channel row a distribution."""
        m = self.m
        return 1.0 / (m ** (1.0 + 2.0 * self.delta) + m ** (0.5 + self.delta) + m)

    @property
    def num_inputs(self) -> int:
        return self.m + self.k1 + 1


def random_equipartition(m: int, k1: int, rng) -> tuple[tuple[int, ...], ...]:
    """Uniform partition of range(m) into k1 ordered blocks of size m // k1."""
    m, k1 = _as_int(m, "m", 0), _as_int(k1, "k1")
    if m % k1:
        raise BadParametersError("block size must divide the ground set")
    order = np.random.default_rng(rng).permutation(m)
    size = m // k1
    return tuple(tuple(sorted(int(v) for v in order[j * size:(j + 1) * size]))
                 for j in range(k1))


def build_instance(k1: int, delta: float = DEFAULT_DELTA, seed: int = 0) -> HardnessInstance:
    k1, seed = _as_int(k1, "k1", 2), _as_int(seed, "seed", 0)
    if not (math.isfinite(delta) and delta > 0):
        raise BadParametersError("delta must be positive and finite")
    m = k1 * k1
    try:  # the largest powers of m the instance uses; m^(2 delta) is below them
        _ = m ** (3.0 * delta), m ** (1.0 + 2.0 * delta)
    except OverflowError:
        raise BadParametersError(f"delta {delta} overflows a float power of m = {m}") from None
    blocks = random_equipartition(m, k1, seed)
    return HardnessInstance(k1, float(delta), m, blocks, seed)


def _check_variant(which: str):
    if which not in _VARIANTS:
        raise BadParametersError(f"variant must be one of {_VARIANTS}")


def value_oracle(inst: HardnessInstance, which: str, subset) -> float:
    """Normalized single-receiver value of a bundle, in O(|S| + k1) time."""
    _check_variant(which)
    m, d = inst.m, inst.delta
    items = set(_as_ints(subset, "items"))
    if not items:
        return 0.0
    counts = [0] * inst.k1
    for i in items:
        if not (0 <= i < m):
            raise BadParametersError(f"item {i} outside range({m})")
        counts[inst.block_of[i]] += 1
    best = max(m ** (2.0 * d), len(items) * m ** (d - 0.5))
    if which == PLANTED:
        best = max(best, float(max(counts)))
    return best


def materialize_channel(inst: HardnessInstance, which: str = PLANTED,
                        cap: int = DEFAULT_ENTRY_CAP) -> ChannelTable:
    """Dense table of the instance channel, refused above cap entries.

    Inputs and second outputs share the alphabet [m + k1 + 1]; the second
    output cyclically shifts which input plays which role, so every column
    y2 repeats the y2 = 0 block under the translation x -> (x + y2) mod |X|.
    """
    _check_variant(which)
    m, k1, nx = inst.m, inst.k1, inst.num_inputs
    _check_cap(SizeCapExceededError, cap, (nx * m * nx, 1))
    base = np.zeros((nx, m))
    for x in range(m):
        base[x, x] = m ** (2.0 * inst.delta)
    base[m, :] = m ** (inst.delta - 0.5)
    for j in range(k1):
        if which == PLANTED:
            base[m + 1 + j, list(inst.blocks[j])] = 1.0
        else:
            base[m + 1 + j, :] = m ** -0.5
    base *= inst.normalizer
    shifts = (np.arange(nx)[:, None] + np.arange(nx)[None, :]) % nx  # (x, y2)
    table = base[shifts].transpose(0, 2, 1)  # (x, y1, y2)
    return validate_channel(table)


def optimal_welfare(inst: HardnessInstance, which: str = PLANTED,
                    method: str = "closed_form", cap: int = DEFAULT_ENUM_CAP) -> float:
    """Welfare optimum over partitions of the items into k1 bundles.

    Closed form: the planted value is m (blocks as bundles); the flat value
    is (k1 - 1) m^(2 delta) + (m - k1 + 1) m^(delta - 1/2), from k1 - 1
    singletons plus the rest.  Exhaustive mode enumerates the k1^m labelled
    partitions, refused above cap; for the planted variant with larger delta
    it can exceed the closed form, which reports the planted witness value.
    """
    _check_variant(which)
    m, k1, d = inst.m, inst.k1, inst.delta
    if method == "closed_form":
        if which == PLANTED:
            return float(m)
        return (k1 - 1) * m ** (2.0 * d) + (m - k1 + 1) * m ** (d - 0.5)
    if method != "exhaustive":
        raise BadParametersError("method must be 'closed_form' or 'exhaustive'")

    def welfare(p) -> float:
        return sum(value_oracle(inst, which, (i for i in range(m) if p.assignment[i] == j))
                   for j in range(k1))

    return max(map(welfare, enumerate_partitions(m, k1, cap)))


def welfare_gap(inst: HardnessInstance) -> float:
    """Closed-form ratio planted / flat, which grows like m^(1/2 - 2 delta)."""
    return optimal_welfare(inst, PLANTED) / optimal_welfare(inst, FLAT)


def leak_probability(inst: HardnessInstance) -> float:
    """Upper bound on P(one fixed query separates the oracles): sqrt(m) e^(-m^(3d)/4)."""
    return math.sqrt(inst.m) * math.exp(-(inst.m ** (3.0 * inst.delta)) / 4.0)


@dataclass
class QueryLog:
    queries: list  # (frozenset, planted value) per query, in order
    distinguished_at: int | None

    @property
    def num_queries(self) -> int:
        return len(self.queries)


def run_query_experiment(inst: HardnessInstance, strategy, budget: int) -> QueryLog:
    """Drive a strategy against the planted oracle until it separates or stops.

    The strategy sees planted answers only; after each query the harness
    compares against the flat oracle and records the first index where the
    two disagree.
    """
    budget = _as_int(budget, "budget", 0)
    log = QueryLog([], None)
    for step in range(budget):
        subset = frozenset(strategy.next_query(log.queries))
        planted = value_oracle(inst, PLANTED, subset)
        log.queries.append((subset, planted))
        if planted != value_oracle(inst, FLAT, subset):
            log.distinguished_at = step
            break
    return log


class SingletonSweep:
    """Queries {0}, {1}, ..., cycling; never separates the oracles."""

    def __init__(self, m: int):
        self.m = _as_int(m, "m")

    def next_query(self, history) -> frozenset:
        return frozenset({len(history) % self.m})


class RandomSubsets:
    """Independent uniform subsets of a fixed size, from an own seed."""

    def __init__(self, m: int, size: int, seed: int = 0):
        self.m, self.size = _as_int(m, "m"), _as_int(size, "size")
        if self.size > self.m:
            raise BadParametersError("size must lie in [1, m]")
        self.rng = np.random.default_rng(seed)

    def next_query(self, history) -> frozenset:
        pick = self.rng.choice(self.m, size=self.size, replace=False)
        return frozenset(int(v) for v in pick)


class AdaptiveBisection:
    """Split the ground set in two, query both halves, descend into the one
    with the larger answer, and restart from a fresh random split once the
    descent bottoms out."""

    def __init__(self, m: int, seed: int = 0):
        self.m = _as_int(m, "m")
        self.rng = np.random.default_rng(seed)
        self.stack = [tuple(range(self.m))]
        self.current = None  # (half_a, half_b) with half_a already queried
        self.value_a = None

    def next_query(self, history) -> frozenset:
        if self.current is not None:
            a, b = self.current
            if self.value_a is None:
                self.value_a = history[-1][1]
                return frozenset(b)
            value_b = history[-1][1]
            winner = a if self.value_a >= value_b else b
            self.current = self.value_a = None
            if len(winner) > 1:
                self.stack.append(winner)
        if not self.stack:
            self.stack = [tuple(range(self.m))]
        items = list(self.stack.pop())
        self.rng.shuffle(items)
        half = len(items) // 2
        a = tuple(sorted(items[:half]))
        b = tuple(sorted(items[half:]))
        self.current, self.value_a = (a, b), None
        return frozenset(a)


def chernoff_bound(p: float, n: int, eps: float) -> float:
    """Tail bound exp(-p n eps^2 / 4) for negatively associated Bernoulli(p)
    means exceeding (1 + eps) p, valid for 0 < eps <= 1/2."""
    if not (0 < p <= 1):
        raise BadParametersError("p must lie in (0, 1]")
    n = _as_int(n, "n")
    if not (0 < eps <= 0.5):
        raise BadParametersError("eps must lie in (0, 1/2]")
    return math.exp(-p * n * eps * eps / 4.0)


def poisson_concavity_ratio(k1: int) -> float:
    """1 - k1^k1 e^(-k1) / k1!, the infimum of E[min(k1, Poisson(x))] / min(k1, x).

    Computed through log-gamma so large k1 does not overflow.
    """
    k1 = _as_int(k1, "k1")
    return 1.0 - math.exp(k1 * math.log(k1) - k1 - math.lgamma(k1 + 1))


def expected_min_poisson(k: int, x: float) -> float:
    """E[min(k, N)] for N ~ Poisson(x), truncating once the tail mass is tiny.

    Sums min(k, j) P(N = j) upward and stops when the remaining mass, which
    contributes at most k per unit, is below 1e-12 / k.
    """
    k = _as_int(k, "k", 0)
    if x < 0:
        raise BadParametersError("x must be nonnegative")
    if x == 0:
        return 0.0
    term = math.exp(-x)
    mass_left = 1.0 - term
    total = 0.0
    j = 0
    while True:
        j += 1
        term *= x / j
        mass_left -= term
        total += min(k, j) * term
        if j >= x and k * max(mass_left, 0.0) < 1e-12:
            return total
