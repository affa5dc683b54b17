"""The decoder-enumeration kernel against the one that kept a table per input.

solve_joint, solve_sum and solve_dqg keep a running maximum over inputs and
find the best input of each winning cell afterwards, by replaying the cell's
computation.  oracles.solve_by_input_tables builds each input's whole table
and remembers the best input of every cell as it goes.  The two must give
the same reports, values compared by repr and witnesses encoders included,
also where float totals round and where inputs tie.
"""

import tracemalloc

import numpy as np
import pytest

import bcc.exact
from bcc import (
    ChannelTable,
    channel_graph,
    random_bipartite_graph,
    random_channel,
    random_deterministic_channel,
    random_dyadic_channel,
    solve_dqg,
    solve_joint,
    solve_sum,
)
from oracles import solve_by_input_tables
from test_enum_golden import SPECS

SOLVERS = {"joint": solve_joint, "sum": solve_sum}

# (num_inputs, |Y1|, |Y2|), each solved at every k in KS within the cap.
SHAPES = [(6, 9, 9), (18, 9, 9), (3, 3, 3), (4, 5, 6), (7, 3, 8), (5, 4, 1), (5, 1, 4),
          (2, 6, 6), (1, 5, 5), (1, 1, 1), (40, 4, 4)]
KS = [(2, 2), (3, 2), (1, 3), (4, 5)]  # (4, 5): more messages than outputs on some shapes


def duplicated(w: ChannelTable) -> ChannelTable:
    """w with every input repeated, reversed after the originals."""
    probs = np.concatenate([w.probs, w.probs[::-1]])
    return ChannelTable(len(probs), w.out1_size, w.out2_size, probs)


def channels(seed: int):
    for shape in SHAPES:
        yield f"random {shape}", random_channel(*shape, seed=seed)
        yield f"dyadic {shape}", random_dyadic_channel(*shape, seed=seed, denominator=4)
        yield f"duplicated {shape}", duplicated(random_channel(*shape, seed=seed))
        yield f"deterministic {shape}", random_deterministic_channel(*shape, seed=seed).to_table()


def same_report(got, expected) -> bool:
    return (repr(got.value), repr(got.witness), got.enumerated) == (
        repr(expected.value), repr(expected.witness), expected.enumerated)


def assert_matches_reference(name, w, k1, k2):
    if k1**w.out1_size * k2**w.out2_size > 10**6:
        return
    for objective, solve in SOLVERS.items():
        got, expected = solve(w, k1, k2), solve_by_input_tables(w, k1, k2, objective)
        assert same_report(got, expected), (name, k1, k2, objective, got, expected)


@pytest.mark.parametrize("seed", [0, 1])
def test_kernel_matches_per_input_tables(seed):
    for name, w in channels(seed):
        for k1, k2 in KS:
            assert_matches_reference(name, w, k1, k2)


def test_kernel_matches_per_input_tables_in_small_blocks(monkeypatch):
    # Blocks of two rows and of a few inputs: the table and every replay run
    # over many blocks and input chunks.
    monkeypatch.setattr(bcc.exact, "_TABLE_BLOCK_CELLS", 1 << 9)
    assert bcc.exact._block_shape(18, 9, 9) == (2, 1)
    assert bcc.exact._block_shape(18, 4, 4) == (2, 8)
    for name, w in channels(2):
        for k1, k2 in KS[:2]:
            assert_matches_reference(name, w, k1, k2)


def test_kernel_matches_per_input_tables_on_golden_specs():
    for nx, n1, n2, k1, k2, seed in SPECS:
        dc = random_deterministic_channel(nx, n1, n2, seed=seed)
        assert_matches_reference((nx, n1, n2, seed), dc.to_table(), k1, k2)
        for source in (random_channel(nx, n1, n2, seed=seed), duplicated(dc.to_table())):
            assert_matches_reference((nx, n1, n2, seed), source, k1, k2)
        g = channel_graph(dc)
        assert same_report(solve_dqg(g, k1, k2), solve_by_input_tables(g, k1, k2, "dqg"))


def test_dqg_matches_single_table_on_random_graphs():
    for seed in range(6):
        for left, right, k1, k2 in ((5, 6, 2, 3), (7, 4, 3, 2), (3, 3, 4, 4), (8, 8, 2, 2)):
            g = random_bipartite_graph(left, right, 0.2 + 0.1 * seed, seed=seed)
            assert same_report(solve_dqg(g, k1, k2), solve_by_input_tables(g, k1, k2, "dqg"))


def test_enumeration_memory_stays_near_one_table():
    # 2.5 tables of 2^18 float64: the table, one block of values and the
    # candidate grid, with no table per input, no per-cell input and no
    # comparison mask.
    dc = random_deterministic_channel(18, 9, 9, seed=0)
    w, g = dc.to_table(), channel_graph(dc)
    for solve, source in ((solve_joint, w), (solve_sum, w), (solve_dqg, g)):
        tracemalloc.start()
        try:
            solve(source, 2, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * 2**18, (solve.__name__, peak)
