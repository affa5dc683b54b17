"""The decoder-enumeration kernel against the one that kept a table per input.

solve_joint, solve_sum and solve_dqg keep a running maximum over inputs and
find the best input of each winning cell afterwards, by replaying the cell's
computation.  oracles.solve_by_input_tables builds each input's whole table
and remembers the best input of every cell as it goes.  The two must give
the same reports, values compared by repr and witnesses encoders included,
also where float totals round and where inputs tie.  The kernel's pair scan,
which runs in bounded blocks of first decoders, must also give the value
bytes and both indices of oracles.best_pair_by_grid.
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
from oracles import best_pair_by_grid, solve_by_input_tables
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
    # over many blocks and input chunks, a graph's one input included.
    monkeypatch.setattr(bcc.exact, "_TABLE_BLOCK_CELLS", 1 << 9)
    assert bcc.exact._block_shape(18, 9, 9) == (2, 1)
    assert bcc.exact._block_shape(18, 4, 4) == (2, 8)
    assert bcc.exact._block_shape(1, 8, 8) == (2, 1)
    for name, w in channels(2):
        for k1, k2 in KS[:2]:
            assert_matches_reference(name, w, k1, k2)
    for seed in range(4):
        for left, right, k1, k2 in ((5, 6, 2, 3), (7, 4, 3, 2), (8, 8, 2, 2), (6, 5, 4, 4)):
            g = random_bipartite_graph(left, right, 0.2 + 0.1 * seed, seed=seed)
            assert same_report(solve_dqg(g, k1, k2), solve_by_input_tables(g, k1, k2, "dqg"))


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


# (|Y1|, |Y2|, k1, k2) of the pair-scan tests; the default block holds
# 2^14 // max(2^|Y2|, second decoders) first decoders.
PAIR_SHAPES = [
    (3, 3, 2, 2),   # 4 first decoders, below one block
    (9, 6, 3, 3),   # 3281 first decoders in blocks of 134, the last one partial
    (10, 5, 2, 2),  # 512 first decoders, exactly one block of 2^14 // 2^5
    (1, 5, 3, 3),   # one first decoder
    (5, 4, 1, 2),   # k1 = 1: one first decoder
    (6, 1, 3, 2),   # one second decoder
    (5, 4, 3, 1),   # k2 = 1: one second decoder
    (3, 2, 4, 4),   # k > |Y| on both sides
    (7, 5, 4, 4),
]


def pair_masks(n1, k1, n2, k2):
    return [bcc.exact._part_masks(bcc.exact._assignment_rows(n, k), k)
            for n, k in ((n1, k1), (n2, k2))]


def pair_tables(rng, n1, n2):
    shape = (1 << n1, 1 << n2)
    yield rng.random(shape)                             # totals round
    yield rng.integers(0, 4, shape) / 4                 # dyadic: exact totals, ties
    yield rng.integers(0, 3, shape).astype(float)       # integers: many ties
    yield np.zeros(shape)                               # every pair ties


@pytest.mark.parametrize("block_cells", [bcc.exact._PAIR_BLOCK_CELLS, 1 << 7])
def test_pair_scan_matches_the_grid_scan(monkeypatch, block_cells):
    # Blocks of 2^7 cells: one first decoder per block wherever a row or the
    # second decoders exceed it, and many blocks everywhere.
    monkeypatch.setattr(bcc.exact, "_PAIR_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(7)
    for n1, n2, k1, k2 in PAIR_SHAPES:
        masks = pair_masks(n1, k1, n2, k2)
        for table in pair_tables(rng, n1, n2):
            val, a, b = bcc.exact._best_pair(table, *masks)
            ref_val, ref_a, ref_b = best_pair_by_grid(table, *masks)
            assert (np.float64(val).tobytes(), a, b) == (
                np.float64(ref_val).tobytes(), ref_a, ref_b), (n1, n2, k1, k2)


def test_solvers_match_per_input_tables_on_the_pair_scan_shapes():
    for n1, n2, k1, k2 in PAIR_SHAPES:
        for seed, nx in enumerate((1, 5, 12)):
            sources = [random_channel(nx, n1, n2, seed=seed),
                       random_dyadic_channel(nx, n1, n2, seed=seed, denominator=4),
                       random_deterministic_channel(nx, n1, n2, seed=seed).to_table()]
            for w in sources:
                for objective, solve in SOLVERS.items():
                    got = solve(w, k1, k2, cap=10**8)
                    expected = solve_by_input_tables(w, k1, k2, objective)
                    assert same_report(got, expected), (nx, n1, n2, k1, k2, objective)
            g = channel_graph(random_deterministic_channel(nx, n1, n2, seed=seed))
            assert same_report(solve_dqg(g, k1, k2, cap=10**8),
                               solve_by_input_tables(g, k1, k2, "dqg"))


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_enumeration_memory_stays_near_one_table():
    # 1.6 tables of 2^18 float64 on 18x9x9: the table and one block of
    # values, with no table per input, no per-cell input, no comparison mask
    # and no grid of every pair.  At k = 3 on 14x7x6 the table is 2^13
    # values, 64 KB, and the pair scan's block about 2^14.
    for shape, k, bound in (((18, 9, 9), 2, 1.6 * 8 * 2**18), ((14, 7, 6), 3, 0.6 * 2**20)):
        dc = random_deterministic_channel(*shape, seed=0)
        w, g = dc.to_table(), channel_graph(dc)
        for solve, source in ((solve_joint, w), (solve_sum, w), (solve_dqg, g)):
            peak = traced_peak(solve, source, k, k)
            assert peak < bound, (shape, solve.__name__, peak)


def test_pair_scan_memory_is_one_block():
    # A grid of every pair of this 2^10 x 2^9 table at k = (2, 3) would be
    # 512 x 3281 totals, 13 MB, and the gather beside it as much again.
    table = np.random.default_rng(0).random((1 << 10, 1 << 9))
    peak = traced_peak(bcc.exact._best_pair, table, *pair_masks(10, 2, 9, 3))
    assert peak < 2**20, peak


def test_decoder_masks_are_built_once_per_size_and_read_only():
    bcc.exact._decoders.cache_clear()
    for n, k in ((7, 3), (6, 3), (7, 3), (5, 2)):
        rows, masks = bcc.exact._decoders(n, k)
        assert not rows.flags.writeable and not masks.flags.writeable
        fresh = bcc.exact._assignment_rows(n, k)
        np.testing.assert_array_equal(rows, fresh)
        np.testing.assert_array_equal(masks, bcc.exact._part_masks(fresh, k))
        assert bcc.exact._decoders(n, k)[1] is masks
    info = bcc.exact._decoders.cache_info()
    assert (info.hits, info.misses, info.currsize) == (5, 3, 2)


def test_joint_sum_and_quotient_share_one_build_of_the_masks():
    dc = random_deterministic_channel(14, 7, 6, seed=0)
    w, g = dc.to_table(), channel_graph(dc)
    bcc.exact._decoders.cache_clear()
    for solve, source in ((solve_joint, w), (solve_sum, w), (solve_dqg, g)):
        solve(source, 3, 3)
    assert bcc.exact._decoders.cache_info().misses == 2
