import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bcc.channels import (
    ChannelTable,
    DeterministicChannel,
    channel_graph,
    marginals,
    tensor_power,
    to_deterministic,
    validate_channel,
)
from bcc.errors import (
    DimensionMismatchError,
    NegativeProbabilityError,
    NotDeterministicError,
    RowNotNormalizedError,
    SizeCapExceededError,
    ValidationError,
)
from bcc.exact import solve_dqg, solve_joint, solve_sum
from bcc.files import load_channel, save_channel
from bcc.generators import random_bipartite_graph, random_channel, random_deterministic_channel
from bcc.graphs import BipartiteGraph


def test_validate_accepts_and_freezes():
    w = validate_channel(np.full((1, 2, 2), 0.25))
    assert (w.input_size, w.out1_size, w.out2_size) == (1, 2, 2)
    with pytest.raises(ValueError):
        w.probs[0, 0, 0] = 1.0


def test_validate_rejects_negative_entry_with_location():
    table = np.full((2, 2, 1), 0.5)
    table[1, 0, 0] = -0.2
    table[1, 1, 0] = 1.2
    with pytest.raises(NegativeProbabilityError) as err:
        validate_channel(table)
    assert "x=1" in str(err.value)


def test_validate_rejects_non_finite_entries_with_location():
    for bad in (np.nan, np.inf, -np.inf):
        table = np.full((2, 2, 1), 0.5)
        table[1, 0, 0] = bad
        with pytest.raises(ValidationError, match="not finite") as err:
            validate_channel(table)
        assert "x=1, y1=0, y2=0" in str(err.value)


def test_validate_rejects_bad_row_sum_naming_input():
    table = np.full((3, 2, 1), 0.5)
    table[2, 1, 0] = 0.6
    with pytest.raises(RowNotNormalizedError) as err:
        validate_channel(table)
    assert "x=2" in str(err.value)


def test_validate_clips_sub_tolerance_noise():
    table = np.array([[[1.0 + 2e-10, -2e-10]]])
    w = validate_channel(table)
    assert w.probs[0, 0, 1] == 0.0


def test_validate_checks_declared_sizes_and_rank():
    with pytest.raises(DimensionMismatchError):
        validate_channel(np.ones((2, 2)))
    with pytest.raises(DimensionMismatchError):
        validate_channel(np.ones((1, 0, 2)))
    with pytest.raises(DimensionMismatchError):
        ChannelTable(2, 2, 2, np.full((1, 2, 2), 0.25))


def test_marginals_of_known_channel():
    table = np.array([[[0.5, 0.25], [0.125, 0.125]],
                      [[0.1, 0.2], [0.3, 0.4]]])
    w1, w2 = marginals(validate_channel(table))
    assert np.allclose(w1.probs, [[0.75, 0.25], [0.3, 0.7]])
    assert np.allclose(w2.probs, [[0.625, 0.375], [0.4, 0.6]])


@given(st.integers(0, 2**31 - 1))
def test_random_channels_validate(seed):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 4, size=3)
    w = random_channel(*map(int, sizes), seed=seed)
    assert np.allclose(w.probs.sum(axis=(1, 2)), 1.0)


def test_tensor_power_identity_and_products():
    w = random_channel(2, 2, 2, seed=5)
    assert np.array_equal(tensor_power(w, 1).probs, w.probs)
    w2 = tensor_power(w, 2)
    assert w2.probs.shape == (4, 4, 4)
    # Position 0 is most significant: composite x = 2 x1 + x2 and likewise
    # for the outputs, so every entry is the product of factor entries.
    for x1 in range(2):
        for x2 in range(2):
            for a1 in range(2):
                for a2 in range(2):
                    for b1 in range(2):
                        for b2 in range(2):
                            assert w2.probs[2 * x1 + x2, 2 * a1 + a2, 2 * b1 + b2] == \
                                pytest.approx(w.probs[x1, a1, b1] * w.probs[x2, a2, b2])


def test_tensor_power_marginals_commute():
    w = random_channel(2, 3, 2, seed=11)
    m1_then_power = np.einsum("ay,bz->abyz", *[marginals(w)[0].probs] * 2)
    m1_then_power = m1_then_power.reshape(4, 9)
    power_then_m1 = marginals(tensor_power(w, 2))[0].probs
    assert np.allclose(m1_then_power, power_then_m1)


def test_tensor_power_cap():
    w = random_channel(4, 4, 4, seed=0)
    with pytest.raises(SizeCapExceededError):
        tensor_power(w, 5, cap=10**6)


def test_tensor_power_cap_refuses_a_huge_count_unbuilt():
    # 64^(10^9) would take hours to build; its bit length alone refuses it.
    w = random_channel(4, 4, 4, seed=0)
    start = time.perf_counter()
    with pytest.raises(SizeCapExceededError) as err:
        tensor_power(w, 10**9)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == "required size 64**1000000000 exceeds cap 100000000"
    assert err.value.needed == "64**1000000000"


def test_deterministic_round_trip_and_graph():
    dc = DeterministicChannel(3, 2, 2, ((0, 1), (1, 1), (0, 1)))
    table = dc.to_table()
    assert to_deterministic(table) == dc
    g = channel_graph(dc)
    assert list(g.edges()) == [(0, 1), (1, 1)]


def test_to_deterministic_rejects_noise_naming_input():
    table = np.array([[[1.0, 0.0]], [[0.5, 0.5]]])
    with pytest.raises(NotDeterministicError) as err:
        to_deterministic(validate_channel(table))
    assert "x=1" in str(err.value)


def test_deterministic_channel_copies_and_freezes_pairs():
    source = np.array([[0, 1], [1, 1], [0, 1]])
    dc = DeterministicChannel(3, 2, 2, source)
    source[0] = (1, 0)
    assert dc.pairs.tolist() == [[0, 1], [1, 1], [0, 1]]
    assert dc.pairs.dtype == np.intp and not dc.pairs.flags.writeable
    with pytest.raises(ValueError):
        dc.pairs[0, 0] = 1
    assert dc == DeterministicChannel(3, 2, 2, ((0, 1), (1, 1), (0, 1)))
    assert dc != DeterministicChannel(3, 2, 2, ((0, 1), (1, 1), (1, 1)))
    assert dc != DeterministicChannel(3, 2, 3, ((0, 1), (1, 1), (0, 1)))


def test_deterministic_to_table_matches_validated_table():
    rng = np.random.default_rng(5)
    for trial in range(20):
        nx, n1, n2 = (int(v) for v in rng.integers(1, 7, size=3))
        dc = random_deterministic_channel(nx, n1, n2, seed=trial)
        probs = np.zeros((nx, n1, n2))
        for x, (y1, y2) in enumerate(dc.pairs.tolist()):
            probs[x, y1, y2] = 1.0
        expect = validate_channel(probs)
        table = dc.to_table()
        assert (table.input_size, table.out1_size, table.out2_size) == (nx, n1, n2)
        assert table.probs.dtype == expect.probs.dtype
        assert np.array_equal(table.probs, expect.probs)
        assert not table.probs.flags.writeable
        with pytest.raises(ValueError):
            table.probs[0, 0, 0] = 0.5


def _to_deterministic_by_rows(w, tol=1e-12):
    """Per-row reference: one entry within tol of 1, all others within tol of 0."""
    pairs = []
    for x in range(w.input_size):
        ones = np.argwhere(np.abs(w.probs[x] - 1.0) <= tol)
        if len(ones) != 1 or np.count_nonzero(np.abs(w.probs[x]) <= tol) != w.probs[x].size - 1:
            raise NotDeterministicError(x)
        pairs.append(tuple(ones[0].tolist()))
    return DeterministicChannel(w.input_size, w.out1_size, w.out2_size, tuple(pairs))


def test_to_deterministic_matches_row_loop():
    rng = np.random.default_rng(17)
    for trial in range(40):
        nx, n1, n2 = (int(v) for v in rng.integers(1, 7, size=3))
        dc = random_deterministic_channel(nx, n1, n2, seed=trial)
        table = dc.to_table()
        assert to_deterministic(table) == _to_deterministic_by_rows(table) == dc
        # Perturb two rows; the error names the first one that stops being a point mass.
        probs = table.probs.copy()
        for x in rng.choice(nx, size=min(2, nx), replace=False):
            probs[x].flat[int(rng.integers(n1 * n2))] += rng.choice([1e-13, 1e-11, -1e-11, 0.5])
        noisy = ChannelTable(nx, n1, n2, probs)
        try:
            expect = _to_deterministic_by_rows(noisy)
        except NotDeterministicError as err:
            with pytest.raises(NotDeterministicError) as got:
                to_deterministic(noisy)
            assert str(got.value) == str(err)
        else:
            assert to_deterministic(noisy) == expect


def test_deterministic_channel_validates_pairs():
    with pytest.raises(ValidationError):
        DeterministicChannel(1, 2, 2, ((0, 5),))
    with pytest.raises(DimensionMismatchError):
        DeterministicChannel(2, 2, 2, ((0, 0),))
    with pytest.raises(ValidationError, match="integers"):
        DeterministicChannel(1, 2, 2, ((0.5, 1),))


def test_numpy_integer_sizes_work_as_python_ints(tmp_path):
    dc = random_deterministic_channel(np.int64(6), np.int64(3), 3, seed=0)
    g = random_bipartite_graph(np.int64(5), np.int64(4), 0.5, seed=0)
    table = ChannelTable(*map(np.int64, dc.to_table().probs.shape), dc.to_table().probs)
    sizes = (dc.input_size, dc.out1_size, g.left_size, g.right_size, table.input_size)
    assert all(type(v) is int for v in sizes)
    plain_dc = random_deterministic_channel(6, 3, 3, seed=0)
    plain_g = random_bipartite_graph(5, 4, 0.5, seed=0)
    for k1, k2 in ((2, 2), (3, 2)):
        for solve in (solve_joint, solve_sum):
            expected = solve(plain_dc.to_table(), k1, k2)
            assert solve(dc.to_table(), k1, k2) == expected
            assert solve(table, k1, k2) == expected
        assert solve_dqg(g, k1, k2) == solve_dqg(plain_g, k1, k2)
        assert solve_dqg(channel_graph(dc), k1, k2) == solve_dqg(channel_graph(plain_dc), k1, k2)
    for channel, plain in ((dc, plain_dc), (table, plain_dc.to_table())):
        path = tmp_path / "channel.json"
        save_channel(channel, path)
        text = path.read_text()
        save_channel(plain, path)
        assert text == path.read_text()
        loaded = load_channel(path)
        assert (loaded.input_size, loaded.out1_size, loaded.out2_size) == (6, 3, 3)


def test_sizes_that_are_not_integers_are_refused():
    with pytest.raises(ValidationError, match="input_size"):
        ChannelTable(1.0, 1, 1, np.ones((1, 1, 1)))
    with pytest.raises(ValidationError, match="out2_size"):
        DeterministicChannel(1, 1, "1", ((0, 0),))
    with pytest.raises(ValidationError, match="right_size"):
        BipartiteGraph(1, 1.5, ((), ()))
