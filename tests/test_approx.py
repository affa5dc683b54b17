"""Approximation pipeline tests: rounding, greedy welfare, certified bounds."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from bcc import (
    BadParametersError,
    DeterministicChannel,
    Partition,
    RandomSubsets,
    SideMismatchError,
    SingletonSweep,
    ValidationError,
    approximate_dqg,
    build_instance,
    channel_graph,
    code_from_partitions,
    degree_upper_bound,
    derandomize_left,
    distinct_left_neighbors,
    exact_expected_edges,
    greedy_welfare,
    joint_success,
    left_degree_bound,
    make_graph,
    quotient_edge_count,
    random_bipartite_graph,
    random_channel,
    random_deterministic_channel,
    random_dyadic_channel,
    random_left_partition,
    run_query_experiment,
    singleton_partition,
    tensor_power,
    to_deterministic,
)
from bcc import approx
from oracles import dqg_bruteforce, welfare_bruteforce

HALF_ONE_MINUS_INV_E_SQ = 0.5 * (1.0 - 1.0 / math.e) ** 2
# Blackwell channel: x=0 -> (0,0), x=1 -> (0,1), x=2 -> (1,1).
BLACKWELL = DeterministicChannel(3, 2, 2, ((0, 0), (0, 1), (1, 1))).to_table()


def naive_greedy(g, k1, k2):
    """Reference greedy: recompute every marginal gain at each step."""

    def value(mask):
        return min(k1, mask.bit_count())

    left_masks = [0] * g.right_size  # bitmask of each right vertex's left neighbours
    for u, v in g.edges():
        left_masks[v] |= 1 << u
    bundles = [0] * k2
    assignment = [-1] * g.right_size
    for _ in range(g.right_size):
        best_key, best_move = None, None
        for b in range(k2):
            for item in range(g.right_size):
                if assignment[item] >= 0:
                    continue
                gain = value(bundles[b] | left_masks[item]) - value(bundles[b])
                key = (-gain, b, item)
                if best_key is None or key < best_key:
                    best_key, best_move = key, (b, item)
        b, item = best_move
        assignment[item] = b
        bundles[b] |= left_masks[item]
    return Partition(g.right_size, k2, tuple(assignment))


def naive_derandomize(g, l1, p2):
    """Reference rounding: score every label of every left vertex in turn."""
    part_masks = [0] * p2.num_parts  # bitmask of each right part's left neighbours
    for u, v in g.edges():
        part_masks[p2.assignment[v]] |= 1 << u
    hit = [0] * p2.num_parts
    unassigned = [m.bit_count() for m in part_masks]
    miss = 1.0 - 1.0 / l1
    assignment = []
    for u in range(g.left_size):
        relevant = [i for i, m in enumerate(part_masks) if m >> u & 1]
        best_c, best_score = 0, -math.inf
        for c in range(l1):
            score = 0.0
            for i in relevant:
                hitc = (hit[i] | 1 << c).bit_count()
                score += hitc + (l1 - hitc) * (1.0 - miss ** (unassigned[i] - 1))
            if score > best_score:
                best_c, best_score = c, score
        assignment.append(best_c)
        for i in relevant:
            hit[i] |= 1 << best_c
            unassigned[i] -= 1
    return Partition(g.left_size, l1, tuple(assignment))


def scored_sizes(g, l1, p2):
    """len(parts) * l1 of each left vertex with an edge: the size the
    rounding decides its scoring route by."""
    left, _ = approx._part_incidences(g, p2)
    counts = np.bincount(left, minlength=g.left_size)
    return counts[counts > 0] * l1


def bundle_value_fn(g, k1):
    def value(items):
        return min(k1, distinct_left_neighbors(g, items))

    return value


def test_exact_expected_edges_matches_monte_carlo():
    g = random_bipartite_graph(4, 5, 0.5, seed=11)
    p2 = Partition(5, 2, (0, 1, 0, 1, 1))
    expected = exact_expected_edges(g, 2, p2)
    rng = np.random.default_rng(123)
    samples = np.array([
        quotient_edge_count(g, random_left_partition(g, 2, rng), p2)
        for _ in range(10_000)
    ])
    sigma = samples.std(ddof=1) / math.sqrt(len(samples))
    assert abs(samples.mean() - expected) <= 4 * sigma + 1e-12


def test_derandomized_beats_expectation():
    rng = np.random.default_rng(19)
    for trial in range(10):
        v1, v2 = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        g = random_bipartite_graph(v1, v2, 0.5, seed=int(rng.integers(10**6)))
        l1 = int(rng.integers(1, 4))
        p2 = random_left_partition(
            make_graph(v2, 1, []), int(rng.integers(1, 4)), rng)
        p1 = derandomize_left(g, l1, p2)
        assert quotient_edge_count(g, p1, p2) >= exact_expected_edges(g, l1, p2) - 1e-9


def test_derandomize_matches_naive_on_random_graphs():
    """Both scoring routes, l1 = 1 and left vertices without edges.  The
    second regime gives most vertices more than _GROUP_CELLS cells."""
    rng = np.random.default_rng(83)
    small = large = 0
    for labels, right, parts, density in (((1, 2, 3, 7, 40), (1, 60), (1, 40), (0.05, 0.9)),
                                          ((40, 70), (80, 150), (40, 120), (0.4, 0.9))):
        for trial in range(20):
            v1, v2 = int(rng.integers(1, 20)), int(rng.integers(*right))
            g = random_bipartite_graph(v1, v2, float(rng.uniform(*density)),
                                       seed=int(rng.integers(10**6)))
            l1 = int(rng.choice(labels))
            p2 = random_left_partition(make_graph(v2, 1, []), int(rng.integers(*parts)), rng)
            sizes = scored_sizes(g, l1, p2)
            small += int((sizes <= approx._GROUP_CELLS).sum())
            large += int((sizes > approx._GROUP_CELLS).sum())
            assert derandomize_left(g, l1, p2) == naive_derandomize(g, l1, p2)
    assert small > 100 and large > 100


def test_derandomize_matches_naive_at_edges():
    # Left vertex 0 meets 1500 parts, so it takes the matrix route even at
    # one and two labels; the other two take the group route.
    star = make_graph(3, 1500, [(u, v) for u in range(3) for v in range(1500)
                                if u == 0 or v % 7 == 0])
    cases = [
        (star, 1, singleton_partition(1500, 1500)),
        (star, 2, singleton_partition(1500, 1500)),
        (make_graph(5, 4, []), 3, singleton_partition(4, 4)),   # no edges
        (make_graph(6, 4, [(1, 0), (4, 3)]), 2, Partition(4, 2, (0, 1, 1, 0))),
    ]
    assert max(scored_sizes(star, 1, cases[0][2])) > approx._GROUP_CELLS
    for g, l1, p2 in cases:
        assert derandomize_left(g, l1, p2) == naive_derandomize(g, l1, p2)


def test_derandomize_matches_naive_on_a_blackwell_power():
    """W^8 of the Blackwell channel, built from its pairs (the dense table
    has 4 * 10^8 entries).  Its scores come close enough that adding a
    vertex's parts in another order picks other labels on both routes."""
    n = 8
    digits = np.indices((3,) * n).reshape(n, -1)  # x's digits, most significant first
    weights = 1 << np.arange(n - 1, -1, -1)
    pairs = np.stack([(digits == 2).T @ weights, (digits >= 1).T @ weights], axis=1)
    g = channel_graph(DeterministicChannel(3 ** n, 2 ** n, 2 ** n, pairs))
    for k in (40, 60):
        p2 = greedy_welfare(g, k, k)
        assert max(scored_sizes(g, k, p2)) > approx._GROUP_CELLS
        assert derandomize_left(g, k, p2) == naive_derandomize(g, k, p2)


def test_derandomize_breaks_exact_ties_to_the_lowest_label():
    """At u2, label 0 hits part A and misses B, label 1 the reverse; both are
    the last unplaced neighbours of A and B, so both labels score 1 + 2
    exactly, and label 0 wins.  The tie holds on both scoring routes: the
    wide case adds 1100 parts that u2 alone meets, which score every label
    alike."""
    edges = [(0, 0), (0, 2), (1, 1), (1, 2), (2, 0), (2, 1)]
    narrow = make_graph(3, 3, edges)
    wide = make_graph(3, 1103, edges + [(2, v) for v in range(3, 1103)])
    for g, matrix_route in ((narrow, False), (wide, True)):
        p2 = singleton_partition(g.right_size, g.right_size)
        assert (max(scored_sizes(g, 2, p2)) > approx._GROUP_CELLS) == matrix_route
        p1 = derandomize_left(g, 2, p2)
        assert p1.assignment == (0, 1, 0) == naive_derandomize(g, 2, p2).assignment


def test_lazy_greedy_matches_naive():
    rng = np.random.default_rng(29)
    for trial in range(10):
        v1, v2 = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        g = random_bipartite_graph(v1, v2, 0.6, seed=int(rng.integers(10**6)))
        k1, k2 = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        assert greedy_welfare(g, k1, k2) == naive_greedy(g, k1, k2)


def test_greedy_matches_naive_at_edges():
    rng = np.random.default_rng(31)
    isolated = make_graph(12, 25, [(u, v) for u in range(12) for v in range(0, 25, 3)
                                   if rng.random() < 0.4])
    cases = [
        (random_bipartite_graph(12, 25, 0.3, seed=1), 1, 4),    # all saturate at once
        (random_bipartite_graph(12, 25, 0.2, seed=2), 13, 3),   # none can saturate
        (make_graph(12, 25, []), 2, 3),                         # no edges
        (isolated, 3, 4),                                       # isolated right vertices
        (random_bipartite_graph(12, 25, 0.5, seed=3), 4, 5),
        (random_bipartite_graph(1, 25, 0.5, seed=4), 2, 5),
    ]
    for g, k1, k2 in cases:
        assert greedy_welfare(g, k1, k2) == naive_greedy(g, k1, k2)


def test_greedy_welfare_half_approximation():
    rng = np.random.default_rng(37)
    for trial in range(8):
        v1, v2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        g = random_bipartite_graph(v1, v2, 0.6, seed=int(rng.integers(10**6)))
        k1, k2 = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        value = bundle_value_fn(g, k1)
        p2 = greedy_welfare(g, k1, k2)
        achieved = sum(value([v for v, part in enumerate(p2.assignment) if part == j])
                       for j in range(k2))
        optimum = welfare_bruteforce(value, v2, k2)
        assert achieved <= optimum + 1e-12
        assert achieved >= 0.5 * optimum - 1e-12


def test_degree_bounds_dominate_optimum():
    rng = np.random.default_rng(43)
    for trial in range(6):
        v1, v2 = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        g = random_bipartite_graph(v1, v2, 0.6, seed=int(rng.integers(10**6)))
        for k1, k2 in ((2, 2), (3, 2)):
            best, _ = dqg_bruteforce(g, k1, k2)
            assert best <= degree_upper_bound(g, k1, k2)
            assert degree_upper_bound(g, k1, k2) <= left_degree_bound(g, k1, k2)


def test_approximate_dqg_certified_ratio_on_corpus():
    rng = np.random.default_rng(47)
    for trial in range(8):
        v1, v2 = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        g = random_bipartite_graph(v1, v2, 0.5, seed=int(rng.integers(10**6)))
        for k1, k2 in ((2, 2), (2, 3)):
            res = approximate_dqg(g, k1, k2, seed=trial)
            optimum, _ = dqg_bruteforce(g, k1, k2)
            assert res.value <= optimum
            assert res.value >= HALF_ONE_MINUS_INV_E_SQ * optimum - 1e-9
            assert res.value <= res.upper_bound
            assert optimum <= res.upper_bound
            assert res.ratio_certificate == pytest.approx(
                res.value / res.upper_bound if res.upper_bound else 1.0)
            assert quotient_edge_count(g, res.p1, res.p2) == res.value


def test_approximate_dqg_deterministic_per_seed():
    g = random_bipartite_graph(6, 6, 0.4, seed=59)
    first = approximate_dqg(g, 2, 2, seed=3)
    second = approximate_dqg(g, 2, 2, seed=3)
    assert first == second
    assert first.rng_seed == 3


def test_approximate_dqg_matches_golden():
    """Results pinned from an earlier implementation: a changed greedy
    tie-break or sampling stream moves a value or an assignment.  The
    Blackwell cases end below their bound with the derandomized left
    partition, so they pin its tie choices.  Each case runs with its pinned
    sample count, then with the default (no samples), which must give the
    same partitions and value."""
    data = Path(__file__).parent / "data" / "approx_golden.json"
    for case in json.loads(data.read_text()):
        spec = case["graph"]
        if spec["kind"] == "random_bipartite_graph":
            g = random_bipartite_graph(*spec["args"], seed=spec["seed"])
        elif spec["kind"] == "blackwell_tensor_power":
            g = channel_graph(to_deterministic(tensor_power(BLACKWELL, *spec["args"])))
        else:
            g = channel_graph(random_deterministic_channel(*spec["args"], seed=spec["seed"]))
        res = approximate_dqg(g, *case["k"], seed=case["seed"],
                              num_samples=case["samples_used"])
        assert (res.value, res.upper_bound, res.samples_used) == (
            case["value"], case["upper_bound"], case["samples_used"])
        assert list(res.p1.assignment) == case["p1"]
        assert list(res.p2.assignment) == case["p2"]
        default = approximate_dqg(g, *case["k"], seed=case["seed"])
        assert (default.value, default.upper_bound, default.samples_used) == (
            case["value"], case["upper_bound"], 0)
        assert default.p1 == res.p1 and default.p2 == res.p2


def test_default_approximation_does_only_the_guaranteed_work(monkeypatch):
    """One greedy, one quotient count of the derandomized partition, and no
    samples; asking for samples scores them and still runs one greedy."""
    calls = {"greedy_welfare": 0, "quotient_edge_count": 0, "_sample_chunk": 0}
    for name in calls:
        real = getattr(approx, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(approx, name, counted)
    g = channel_graph(random_deterministic_channel(60, 30, 30, seed=73))
    res = approximate_dqg(g, 3, 4, seed=2)
    assert calls == {"greedy_welfare": 1, "quotient_edge_count": 1, "_sample_chunk": 0}
    assert res.samples_used == 0
    sampled = approximate_dqg(g, 3, 4, seed=2, num_samples=8)
    assert calls["greedy_welfare"] == 2 and calls["_sample_chunk"] == 1
    assert sampled.samples_used == 8 and sampled.value >= res.value


def test_singleton_fast_paths():
    g = random_bipartite_graph(3, 3, 0.8, seed=67)
    res = approximate_dqg(g, 4, 4, seed=0)
    assert res.samples_used == 0
    assert res.p1 == singleton_partition(3, 4)
    assert res.p2 == singleton_partition(3, 4)
    assert res.value == len(list(g.edges()))


def test_negative_num_samples_rejected():
    g = random_bipartite_graph(8, 8, 0.5, seed=2)
    with pytest.raises(BadParametersError):
        approximate_dqg(g, 3, 3, num_samples=-5)
    # Rejected up front, also where no sampling would run (k1 >= |left|).
    with pytest.raises(BadParametersError):
        approximate_dqg(g, 8, 3, num_samples=-1)
    assert approximate_dqg(g, 3, 3, num_samples=0).samples_used == 0


def test_approximation_code_matches_joint_success():
    dc = random_deterministic_channel(6, 4, 4, seed=71)
    res = approximate_dqg(channel_graph(dc), 2, 2, seed=5)
    code = code_from_partitions(dc, res.p1, res.p2)
    assert joint_success(dc.to_table(), code) == pytest.approx(res.value / 4, abs=1e-12)


def test_parameter_validation():
    g = random_bipartite_graph(2, 2, 1.0, seed=0)
    with pytest.raises(BadParametersError):
        greedy_welfare(g, 0, 2)
    with pytest.raises(BadParametersError):
        approximate_dqg(g, 0, 2)
    # A negative seed is rejected up front, also where it would draw nothing.
    for num_samples in (2, 0):
        with pytest.raises(BadParametersError):
            approximate_dqg(g, 1, 1, seed=-1, num_samples=num_samples)
    with pytest.raises(BadParametersError):
        random_left_partition(g, 0, np.random.default_rng(0))
    with pytest.raises(BadParametersError):
        exact_expected_edges(g, 0, singleton_partition(2, 2))
    with pytest.raises(BadParametersError):
        derandomize_left(g, 0, singleton_partition(2, 2))
    with pytest.raises(SideMismatchError):
        exact_expected_edges(g, 2, singleton_partition(3, 3))


def test_numpy_integer_counts_give_python_results():
    # Each call takes a count; given as a numpy integer it must act as the
    # Python int, and every count in the result must be a Python int.
    g = channel_graph(random_deterministic_channel(6, 3, 3, seed=0))
    p2 = greedy_welfare(g, 2, 2)

    def partition(p):
        return [p.ground_size, p.num_parts, *p.assignment]

    table = [
        (lambda k: derandomize_left(g, k, p2), partition),
        (lambda k: random_left_partition(g, k, 0), partition),
        (lambda k: Partition(3, k, (0, 1, 1)), partition),
        (lambda k: singleton_partition(2, k), partition),
        (lambda k: degree_upper_bound(g, k, k), lambda bound: [bound]),
        (lambda k: left_degree_bound(g, k, k), lambda bound: [bound]),
        (lambda k: build_instance(k + 1), lambda inst: [inst.k1, inst.m, *sum(inst.blocks, ())]),
        (lambda k: Partition(3, 2, (0, k - 1, k - 1)), partition),
        (lambda k: build_instance(3, seed=k), lambda inst: [inst.seed, *sum(inst.blocks, ())]),
        (lambda k: approximate_dqg(g, 2, 2, seed=k, num_samples=k),
         lambda res: [res.rng_seed, res.samples_used, res.value, *partition(res.p1)]),
    ]
    for call, counts in table:
        want, got = counts(call(2)), counts(call(np.int64(2)))
        assert got == want
        assert all(type(count) is int for count in got + want)
    # A float, or a value below the bound, is the site's error, never
    # TypeError or AttributeError, and never a silent result.
    inst = build_instance(3)
    refused = [
        (BadParametersError, lambda: degree_upper_bound(g, -1, 2)),
        (BadParametersError, lambda: left_degree_bound(g, -2, -3)),
        (BadParametersError, lambda: approximate_dqg(g, 2, 2, seed=1.5)),
        (ValidationError, lambda: Partition(3, 2, (0, 1.0, 1))),
        (ValidationError, lambda: distinct_left_neighbors(g, [1.7])),
        (BadParametersError, lambda: run_query_experiment(inst, SingletonSweep(9), 2.0)),
        (BadParametersError, lambda: RandomSubsets(9, 2.0)),
        (BadParametersError, lambda: random_channel(2.0, 2, 2)),
        (BadParametersError, lambda: random_deterministic_channel(2.0, 2, 2)),
        (BadParametersError, lambda: random_dyadic_channel(2, 2, 2, denominator=64.0)),
        (BadParametersError, lambda: random_bipartite_graph(2.0, 2, 0.5)),
    ]
    for error, call in refused:
        with pytest.raises(error):
            call()
