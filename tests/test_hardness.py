"""Planted-instance tests: oracle identities, welfare, query experiments, tails."""

import itertools
import math

import numpy as np
import pytest

from bcc import (
    BadParametersError,
    EnumerationCapExceededError,
    HardnessInstance,
    RandomSubsets,
    SingletonSweep,
    AdaptiveBisection,
    SizeCapExceededError,
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
from oracles import f1_from_table, poisson_min_mean, welfare_bruteforce

TINY = HardnessInstance(2, 0.25, 4, ((0, 1), (2, 3)), 0)
TINY_LOW = HardnessInstance(2, 0.1, 4, ((0, 1), (2, 3)), 0)


class FixedQuery:
    def __init__(self, subset):
        self.subset = frozenset(subset)

    def next_query(self, history):
        return self.subset


def all_subsets(m):
    items = range(m)
    for size in range(m + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, size))


def test_build_instance_validation():
    with pytest.raises(BadParametersError):
        build_instance(1)
    with pytest.raises(BadParametersError):
        build_instance(2.0)
    for delta in (0.0, -0.1, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(BadParametersError):
            build_instance(3, delta=delta)
    with pytest.raises(BadParametersError):
        build_instance(3, seed=-1)
    with pytest.raises(BadParametersError):
        random_equipartition(7, 2, 0)


def test_blocks_partition_ground_set():
    for k1 in (2, 3, 5):
        inst = build_instance(k1, seed=k1)
        assert inst.m == k1 * k1
        assert all(len(block) == k1 for block in inst.blocks)
        flat = sorted(i for block in inst.blocks for i in block)
        assert flat == list(range(inst.m))
        assert all(inst.block_of[i] == j
                   for j, block in enumerate(inst.blocks) for i in block)


def test_equipartition_is_uniform():
    k1, m, runs = 3, 9, 10_000
    member = np.zeros(k1)
    same_pair = 0
    for seed in range(runs):
        blocks = random_equipartition(m, k1, seed)
        owner = [-1] * m
        for j, block in enumerate(blocks):
            for i in block:
                owner[i] = j
        member[owner[0]] += 1
        same_pair += owner[0] == owner[1]
    p = 1 / k1
    sigma = math.sqrt(p * (1 - p) / runs)
    assert np.all(np.abs(member / runs - p) <= 4 * sigma)
    # Two fixed items share a block with probability (k1 - 1) / (m - 1).
    q = (k1 - 1) / (m - 1)
    sigma_q = math.sqrt(q * (1 - q) / runs)
    assert abs(same_pair / runs - q) <= 4 * sigma_q


def test_value_oracle_known_values():
    assert value_oracle(TINY, "planted", ()) == 0.0
    assert value_oracle(TINY, "planted", {0}) == pytest.approx(2.0)
    assert value_oracle(TINY, "planted", {0, 1}) == pytest.approx(2.0)
    assert value_oracle(TINY, "planted", {0, 1, 2, 3}) == pytest.approx(4 * 4**-0.25)
    assert value_oracle(TINY, "flat", {0, 1, 2, 3}) == pytest.approx(4 * 4**-0.25)
    # Lower delta lets the block branch win.
    assert value_oracle(TINY_LOW, "planted", {0, 1}) == pytest.approx(2.0)
    assert value_oracle(TINY_LOW, "flat", {0, 1}) == pytest.approx(4**0.2)


def test_value_oracle_validation():
    with pytest.raises(BadParametersError):
        value_oracle(TINY, "planted", {9})
    with pytest.raises(BadParametersError):
        value_oracle(TINY, "tilted", {0})


def test_oracle_matches_materialized_channel():
    for inst in (TINY, TINY_LOW):
        for which in ("planted", "flat"):
            table = materialize_channel(inst, which)
            scale = inst.normalizer
            for subset in all_subsets(inst.m):
                direct = value_oracle(inst, which, subset)
                from_table = f1_from_table(table.probs, sorted(subset)) / scale
                assert direct == pytest.approx(from_table, abs=1e-9)


def test_oracle_is_monotone_and_subadditive():
    for inst in (TINY, TINY_LOW):
        for which in ("planted", "flat"):
            vals = {s: value_oracle(inst, which, s) for s in all_subsets(inst.m)}
            for a in vals:
                for b in vals:
                    if a <= b:
                        assert vals[a] <= vals[b] + 1e-12
                    assert vals[a | b] <= vals[a] + vals[b] + 1e-12


def test_channel_shift_structure():
    inst = build_instance(3, delta=0.2, seed=1)
    table = materialize_channel(inst, "planted")
    nx = inst.num_inputs
    for y2 in range(nx):
        assert np.allclose(table.probs[:, :, y2],
                           table.probs[(np.arange(nx) + y2) % nx, :, 0])


def test_delta_whose_powers_overflow_a_float_is_bad_parameters():
    # m^(3 delta) overflows at delta = 120 for m = 9, m^(2 delta) at 200.
    for delta in (120, 200, 1e6):
        with pytest.raises(BadParametersError, match="overflows a float"):
            build_instance(3, delta=delta)
    inst = build_instance(3, delta=100)
    assert leak_probability(inst) == 0.0
    assert math.isfinite(value_oracle(inst, "flat", range(inst.m)))


def test_materialize_cap():
    inst = build_instance(4)
    with pytest.raises(SizeCapExceededError):
        materialize_channel(inst, cap=100)


def test_closed_form_welfare():
    for k1 in (2, 3, 4):
        inst = build_instance(k1, delta=0.1, seed=k1)
        m = inst.m
        assert optimal_welfare(inst, "planted") == pytest.approx(float(m))
        expected = (k1 - 1) * m**0.2 + (m - k1 + 1) * m**-0.4
        assert optimal_welfare(inst, "flat") == pytest.approx(expected)


def test_exhaustive_matches_closed_form_at_low_delta():
    for k1 in (2, 3):
        inst = build_instance(k1, delta=0.1, seed=7)
        for which in ("planted", "flat"):
            assert optimal_welfare(inst, which, method="exhaustive") == pytest.approx(
                optimal_welfare(inst, which), abs=1e-9)


def test_exhaustive_matches_oracle_bruteforce():
    inst = build_instance(2, delta=0.1, seed=3)
    for which in ("planted", "flat"):
        brute = welfare_bruteforce(
            lambda s: value_oracle(inst, which, s), inst.m, inst.k1)
        assert optimal_welfare(inst, which, method="exhaustive") == pytest.approx(brute)


def test_planted_witness_is_not_optimal_at_quarter_delta():
    # At delta = 1/4 the smooth branches overtake the blocks: the best split
    # is a singleton plus the rest, worth 2 + 3/sqrt(2) > 4 for k1 = 2.
    inst = build_instance(2, delta=0.25, seed=5)
    exhaustive = optimal_welfare(inst, "planted", method="exhaustive")
    assert exhaustive == pytest.approx(2 + 3 / math.sqrt(2))
    assert exhaustive > optimal_welfare(inst, "planted")
    assert optimal_welfare(inst, "flat", method="exhaustive") == pytest.approx(
        optimal_welfare(inst, "flat"))


def test_exhaustive_cap_and_method_validation():
    inst = build_instance(2)
    with pytest.raises(EnumerationCapExceededError):
        optimal_welfare(inst, method="exhaustive", cap=10)
    with pytest.raises(BadParametersError):
        optimal_welfare(inst, method="sampling")


def test_welfare_gap_tracks_power_law():
    for k1 in range(2, 7):
        inst = build_instance(k1, delta=0.1, seed=k1)
        gap = welfare_gap(inst)
        assert gap == pytest.approx(
            optimal_welfare(inst, "planted") / optimal_welfare(inst, "flat"))
        target = inst.m ** (0.5 - 2 * inst.delta)
        assert target / 2 <= gap <= 2 * target


def test_leak_probability_value():
    inst = build_instance(3, delta=0.2, seed=0)
    assert leak_probability(inst) == pytest.approx(
        3 * math.exp(-(9**0.6) / 4), rel=1e-12)


def test_singleton_sweep_never_distinguishes():
    inst = build_instance(3, delta=0.1, seed=11)
    log = run_query_experiment(inst, SingletonSweep(inst.m), budget=30)
    assert log.distinguished_at is None
    assert log.num_queries == 30
    assert all(v == pytest.approx(inst.m ** (2 * inst.delta)) for _, v in log.queries)


def test_block_query_distinguishes_at_low_delta():
    inst = build_instance(3, delta=0.1, seed=13)
    log = run_query_experiment(inst, FixedQuery(inst.blocks[0]), budget=5)
    assert log.distinguished_at == 0
    assert log.queries[0][1] == pytest.approx(float(inst.k1))


def test_no_query_distinguishes_at_quarter_delta():
    # The block branch is capped at k1 = sqrt(m), which the nonempty branch
    # m^(2 delta) matches once delta >= 1/4, so the oracles coincide.
    inst = build_instance(2, delta=0.25, seed=17)
    for subset in all_subsets(inst.m):
        assert value_oracle(inst, "planted", subset) == value_oracle(
            inst, "flat", subset)


def test_adaptive_bisection_protocol():
    # delta = 1/4 keeps the oracles identical, so the full budget runs and
    # the halving pattern is visible in the log.
    strat = AdaptiveBisection(9, seed=2)
    inst = build_instance(3, delta=0.25, seed=19)
    log = run_query_experiment(inst, strat, budget=20)
    assert log.distinguished_at is None
    assert log.num_queries == 20
    first, second = log.queries[0][0], log.queries[1][0]
    assert first | second == frozenset(range(9))
    assert not first & second
    for subset, _ in log.queries:
        assert subset
        assert subset <= frozenset(range(9))


def test_adaptive_bisection_separates_small_low_delta_instance():
    # At m = 9 the leak bound is vacuous and a random half intersects some
    # block in >= 2 items almost surely, which beats both smooth branches.
    inst = build_instance(3, delta=0.1, seed=19)
    log = run_query_experiment(inst, AdaptiveBisection(9, seed=2), budget=20)
    assert log.distinguished_at is not None


def test_query_experiment_validation_and_strategies():
    inst = build_instance(3, delta=0.1, seed=23)
    with pytest.raises(BadParametersError):
        run_query_experiment(inst, SingletonSweep(9), budget=-1)
    with pytest.raises(BadParametersError):
        RandomSubsets(9, 0)
    with pytest.raises(BadParametersError):
        RandomSubsets(9, 10)
    log = run_query_experiment(inst, RandomSubsets(9, 3, seed=1), budget=10)
    assert all(len(s) == 3 for s, _ in log.queries)


def test_chernoff_bound_validation_and_direction():
    with pytest.raises(BadParametersError):
        chernoff_bound(0.0, 10, 0.5)
    with pytest.raises(BadParametersError):
        chernoff_bound(0.5, 0, 0.5)
    with pytest.raises(BadParametersError):
        chernoff_bound(0.5, 10, 0.6)
    bound = chernoff_bound(0.5, 100, 0.5)
    assert bound == pytest.approx(math.exp(-3.125))
    rng = np.random.default_rng(0)
    hits = rng.binomial(100, 0.5, size=20_000) >= 75
    assert hits.mean() <= bound


def test_poisson_concavity_ratio_values():
    assert poisson_concavity_ratio(1) == pytest.approx(1 - 1 / math.e)
    assert poisson_concavity_ratio(2) == pytest.approx(1 - 2 * math.exp(-2))
    with pytest.raises(BadParametersError):
        poisson_concavity_ratio(0)
    ratios = [poisson_concavity_ratio(k) for k in range(1, 60)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_poisson_identity_at_the_mean():
    for k in range(1, 9):
        assert expected_min_poisson(k, float(k)) == pytest.approx(
            k * poisson_concavity_ratio(k), abs=1e-9)


def test_expected_min_poisson_against_scipy():
    assert expected_min_poisson(3, 0.0) == 0.0
    with pytest.raises(BadParametersError):
        expected_min_poisson(3, -1.0)
    for k in (1, 2, 4, 7):
        for x in (0.1, 0.7, 1.0, 2.5, float(k), 3.0 * k):
            assert expected_min_poisson(k, x) == pytest.approx(
                poisson_min_mean(k, x), abs=1e-9)


def test_concavity_ratio_is_infimum_on_grid():
    for k in range(1, 7):
        alpha = poisson_concavity_ratio(k)
        for x in np.linspace(0.05, 3.0 * k, 120):
            ratio = expected_min_poisson(k, float(x)) / min(k, x)
            assert ratio >= alpha - 1e-6
