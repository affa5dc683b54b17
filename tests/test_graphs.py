import numpy as np
import pytest
from hypothesis import given, strategies as st

from bcc.errors import (
    EnumerationCapExceededError,
    SideMismatchError,
    ValidationError,
)
from bcc.generators import random_bipartite_graph
from bcc.graphs import (
    BipartiteGraph,
    Partition,
    distinct_left_neighbors,
    enumerate_partitions,
    make_graph,
    quotient_edge_count,
    singleton_partition,
)
from oracles import quotient_edges_sets


def test_make_graph_dedups_and_sorts():
    g = make_graph(3, 2, [(2, 1), (0, 0), (2, 1), (0, 1)])
    assert list(g.edges()) == [(0, 0), (0, 1), (2, 1)]
    U, V = g.edge_arrays
    assert U.tolist() == [0, 0, 2] and V.tolist() == [0, 1, 1]
    assert U.dtype == V.dtype == np.intp
    assert not U.flags.writeable and not V.flags.writeable


def test_make_graph_rejects_out_of_range():
    with pytest.raises(ValidationError):
        make_graph(2, 2, [(2, 0)])
    with pytest.raises(ValidationError):
        make_graph(2, 2, [(0, -1)])
    for edges in ([(0, 0.5)], [(0, 1, 1)], [()]):   # not integer pairs
        with pytest.raises(ValidationError):
            make_graph(2, 2, edges)


def test_graph_rejects_bad_edge_arrays():
    U = np.array([0, 0, 2])
    g = BipartiteGraph(3, 2, (U, [0, 1, 1]))
    U[0] = 1    # the graph holds its own copy
    assert list(g.edges()) == [(0, 0), (0, 1), (2, 1)]
    for U, V in [([0, 0, 2], [1, 0, 1]),      # neighbours unsorted
                 ([2, 0], [0, 0]),            # left ends unsorted
                 ([0, 0], [1, 1]),            # duplicate edge
                 ([0, 3], [0, 0]),            # left end out of range
                 ([0, 1], [0, 2]),            # right end out of range
                 ([-1, 0], [1, 0]),           # negative end
                 ([0, 1], [0])]:              # lengths differ
        with pytest.raises(ValidationError):
            BipartiteGraph(3, 2, (U, V))


def test_partition_validation():
    with pytest.raises(ValidationError):
        Partition(2, 2, (0, 2))
    with pytest.raises(ValidationError):
        Partition(2, 2, (-1, 0))
    with pytest.raises(ValidationError):
        Partition(2, 2, (0,))


def test_singleton_partition():
    p = singleton_partition(3, 5)
    assert p.assignment == (0, 1, 2)
    with pytest.raises(ValidationError):
        singleton_partition(5, 3)


def test_quotient_edge_count_known():
    g = make_graph(4, 4, [(i, i) for i in range(4)])
    p1 = Partition(4, 2, (0, 0, 1, 1))
    p2 = Partition(4, 2, (0, 1, 0, 1))
    # pairs: (0,0), (0,1), (1,0), (1,1) all hit
    assert quotient_edge_count(g, p1, p2) == 4
    assert quotient_edge_count(g, p1, Partition(4, 2, (0, 0, 1, 1))) == 2


def test_quotient_side_mismatch():
    g = make_graph(2, 3, [(0, 0)])
    with pytest.raises(SideMismatchError):
        quotient_edge_count(g, Partition(3, 1, (0, 0, 0)), Partition(3, 1, (0, 0, 0)))


@given(st.integers(0, 500))
def test_quotient_count_matches_set_oracle(seed):
    rng = np.random.default_rng(seed)
    v1, v2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    g = random_bipartite_graph(v1, v2, float(rng.uniform(0, 1)), seed=seed)
    k1, k2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    p1 = Partition(v1, k1, tuple(int(v) for v in rng.integers(0, k1, v1)))
    p2 = Partition(v2, k2, tuple(int(v) for v in rng.integers(0, k2, v2)))
    assert quotient_edge_count(g, p1, p2) == quotient_edges_sets(g, p1, p2)


def test_quotient_count_edgeless_and_many_parts():
    rng = np.random.default_rng(83)
    g = random_bipartite_graph(20, 30, 0.3, seed=83)
    cases = [(make_graph(5, 4, []), 3, 2), (make_graph(0, 0, []), 2, 2),
             (g, 9, 10), (g, 20, 30)]
    for g, k1, k2 in cases:
        for _ in range(5):
            p1 = Partition(g.left_size, k1, tuple(int(v) for v in rng.integers(0, k1, g.left_size)))
            p2 = Partition(g.right_size, k2, tuple(int(v) for v in rng.integers(0, k2, g.right_size)))
            count = quotient_edge_count(g, p1, p2)
            assert type(count) is int
            assert count == quotient_edges_sets(g, p1, p2)


def test_distinct_left_neighbors():
    g = make_graph(4, 3, [(0, 0), (1, 0), (1, 1), (3, 2)])
    assert distinct_left_neighbors(g, [0, 1]) == 2
    assert distinct_left_neighbors(g, [0, 1, 2]) == 3
    assert distinct_left_neighbors(g, []) == 0
    for subset in ([-1], [g.right_size]):
        with pytest.raises(ValidationError):
            distinct_left_neighbors(g, subset)


def test_enumerate_partitions_lex_and_cap():
    got = list(enumerate_partitions(2, 2))
    assert [p.assignment for p in got] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(list(enumerate_partitions(3, 3))) == 27
    with pytest.raises(EnumerationCapExceededError):
        list(enumerate_partitions(10, 10, cap=100))
    # Refused at the call, before anything is iterated.
    with pytest.raises(EnumerationCapExceededError):
        enumerate_partitions(10, 10, cap=100)
