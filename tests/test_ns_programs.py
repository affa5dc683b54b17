"""Non-signaling LP tests: known values, invariants, full-program cross-checks."""

import io
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bcc.nsprograms as nsprograms
from bcc import (
    EQ,
    GE,
    LE,
    BadParametersError,
    InvariantViolationError,
    SizeCapExceededError,
    ValidationError,
    build_decoder_box_lp,
    build_ns_full,
    build_ns_joint,
    build_ns_sum,
    constraint_violation,
    extract_ns_solution,
    lp_solve,
    lp_write_text,
    marginals,
    random_channel,
    random_deterministic_channel,
    random_dyadic_channel,
    reconstruct_full_box,
    solve_ns,
    tensor_power,
    validate_channel,
)
from oracles import compact_program_by_loops


def perfect_channel():
    """Four inputs, receiver 1 sees the high bit and receiver 2 the low bit."""
    probs = np.zeros((4, 2, 2))
    for x in range(4):
        probs[x, x >> 1, x & 1] = 1.0
    return validate_channel(probs)


def one_input_channel():
    return validate_channel(np.ones((1, 1, 1)))


def vec_from_blocks(p, r, r1, r2):
    return np.concatenate([np.ravel(p), np.ravel(r), np.ravel(r1), np.ravel(r2)])


def baseline_blocks():
    """Feasible hand-built compact point for nx=2, n1=n2=2, k1=k2=2."""
    p = np.array([4.0, 0.0])
    r = np.zeros((2, 2, 2))
    r[0] = 1.0
    r1 = np.zeros((2, 2))
    r1[0] = 2.0
    r2 = np.zeros((2, 2))
    r2[0] = 2.0
    return p, r, r1, r2


def test_perfect_channel_ns_values():
    w = perfect_channel()
    assert solve_ns(w, 2, 2, "joint").value == pytest.approx(1.0)
    assert solve_ns(w, 2, 2, "sum").value == pytest.approx(1.0)


def test_one_input_channel_ns_values():
    w = one_input_channel()
    assert solve_ns(w, 2, 2, "joint").value == pytest.approx(0.25)
    assert solve_ns(w, 2, 2, "sum").value == pytest.approx(0.5)


def test_model_shapes_and_names():
    w = one_input_channel()
    model = build_ns_joint(w, 2, 2)
    assert model.num_vars == 1 + 1 + 1 + 1
    assert len(model.var_names) == model.num_vars
    assert len(model.row_names) == model.num_rows
    assert "r_x0_a0_b0" in model.var_names


def test_compact_names_on_an_asymmetric_channel():
    # Every axis has its own length (2 inputs, 3 and 4 outputs) and k1 != k2,
    # so a swapped name letter or axis order changes the names.
    nx, n1, n2 = 2, 3, 4
    outs = [(a, b) for a in range(n1) for b in range(n2)]
    cells = [(x, a, b) for x in range(nx) for a, b in outs]
    pairs1 = [(x, a) for x in range(nx) for a in range(n1)]
    pairs2 = [(x, b) for x in range(nx) for b in range(n2)]
    row_names = ([f"norm_r_a{a}_b{b}" for a, b in outs]
                 + [f"norm_r1_a{a}" for a in range(n1)]
                 + [f"norm_r2_b{b}" for b in range(n2)] + ["norm_p"]
                 + [f"r_le_r1_x{x}_a{a}_b{b}" for x, a, b in cells]
                 + [f"r_le_r2_x{x}_a{a}_b{b}" for x, a, b in cells]
                 + [f"r1_le_p_x{x}_a{a}" for x, a in pairs1]
                 + [f"r2_le_p_x{x}_b{b}" for x, b in pairs2]
                 + [f"slack_x{x}_a{a}_b{b}" for x, a, b in cells])
    var_names = ([f"p_x{x}" for x in range(nx)]
                 + [f"r_x{x}_a{a}_b{b}" for x, a, b in cells]
                 + [f"r1_x{x}_a{a}" for x, a in pairs1]
                 + [f"r2_x{x}_b{b}" for x, b in pairs2])
    w = random_channel(nx, n1, n2, seed=3)
    for build in (build_ns_joint, build_ns_sum):
        model = build(w, 2, 3)
        assert list(model.row_names) == row_names
        assert list(model.var_names) == var_names
        assert len(set(row_names)) == model.num_rows
        assert len(set(var_names)) == model.num_vars
    # A named row holds its terms at the variables of the same names.
    col = {name: j for j, name in enumerate(var_names)}
    for x, a, b in cells:
        want = np.zeros(model.num_vars)
        want[[col[f"p_x{x}"], col[f"r_x{x}_a{a}_b{b}"]]] = 1.0
        want[[col[f"r1_x{x}_a{a}"], col[f"r2_x{x}_b{b}"]]] = -1.0
        assert np.array_equal(model.rows[row_names.index(f"slack_x{x}_a{a}_b{b}")], want)


def test_ns_sandwich_and_baselines_random():
    rng = np.random.default_rng(5)
    for k1, k2 in ((2, 2), (2, 3), (3, 2)):
        for _ in range(2):
            w = random_channel(int(rng.integers(2, 4)), 2, 2,
                               seed=int(rng.integers(10**6)))
            joint = solve_ns(w, k1, k2, "joint").value
            ssum = solve_ns(w, k1, k2, "sum").value
            assert 2 * ssum - 1 <= joint + 1e-7
            assert joint <= ssum + 1e-7
            assert joint >= 1 / (k1 * k2) - 1e-7
            assert ssum >= 0.5 / k1 + 0.5 / k2 - 1e-7
            assert ssum <= 1 + 1e-9


def test_extracted_value_matches_blocks():
    w = random_channel(3, 2, 3, seed=9)
    ns = solve_ns(w, 2, 2, "joint")
    assert ns.value == pytest.approx(float((w.probs * ns.r).sum()) / 4)
    ns2 = solve_ns(w, 2, 2, "sum")
    w1, w2 = marginals(w)
    recomputed = ((w1.probs * ns2.r1).sum() + (w2.probs * ns2.r2).sum()) / 8
    assert ns2.value == pytest.approx(float(recomputed))


def test_extract_requires_matching_length():
    w = random_channel(2, 2, 2, seed=0)
    with pytest.raises(InvariantViolationError, match="does not fit"):
        extract_ns_solution(w, 2, 2, np.zeros(5))


def test_extract_flags_each_invariant():
    w = validate_channel(np.full((2, 2, 2), 0.25))
    p, r, r1, r2 = baseline_blocks()
    extract_ns_solution(w, 2, 2, vec_from_blocks(p, r, r1, r2))

    bad_r = r.copy()
    bad_r[0, 0, 0] = -0.1
    with pytest.raises(InvariantViolationError, match="r >= 0"):
        extract_ns_solution(w, 2, 2, vec_from_blocks(p, bad_r, r1, r2))

    bad_r = r.copy()
    bad_r[0, 0, 0] = 2.5
    with pytest.raises(InvariantViolationError, match="r <= r1"):
        extract_ns_solution(w, 2, 2, vec_from_blocks(p, bad_r, r1, r2))

    bad_r1 = r1.copy()
    bad_r1[0, 0] = 5.0
    with pytest.raises(InvariantViolationError, match="r1 <= p"):
        extract_ns_solution(w, 2, 2, vec_from_blocks(p, r, bad_r1, r2))

    bad_p, bad_r1, bad_r2 = p.copy(), r1.copy(), r2.copy()
    bad_p[1], bad_r1[1, 0], bad_r2[1, 0] = 0.5, 0.5, 0.5
    with pytest.raises(InvariantViolationError, match=r"p - r1 - r2 \+ r"):
        extract_ns_solution(w, 2, 2, vec_from_blocks(bad_p, r, bad_r1, bad_r2))

    with pytest.raises(InvariantViolationError, match="sum_x r = 1"):
        extract_ns_solution(w, 2, 2, vec_from_blocks(p, r * 0.9, r1, r2))

    bad_r1 = r1.copy()
    bad_r1[0] = 2.5
    with pytest.raises(InvariantViolationError, match="sum_x r1 = k2"):
        extract_ns_solution(w, 2, 2, vec_from_blocks(p, r, bad_r1, r2))

    bad_p = p.copy()
    bad_p[0] = 5.0
    with pytest.raises(InvariantViolationError, match="sum_x p = k1 k2"):
        extract_ns_solution(w, 2, 2, vec_from_blocks(bad_p, r, r1, r2))


def test_reconstructed_box_is_feasible_for_full_program():
    rng = np.random.default_rng(17)
    for objective in ("joint", "sum"):
        w = random_channel(2, 2, 2, seed=int(rng.integers(10**6)))
        ns = solve_ns(w, 2, 2, objective)
        box = reconstruct_full_box(ns, 2, 2)
        assert box.min() >= -1e-9
        full = build_ns_full(w, 2, 2, objective)
        flat = box.reshape(-1)
        assert constraint_violation(full, flat) <= 1e-7
        assert float(full.objective @ flat) == pytest.approx(ns.value, abs=1e-9)


def test_reconstruct_rejects_single_message():
    w = random_channel(2, 2, 2, seed=3)
    ns = solve_ns(w, 2, 2, "joint")
    with pytest.raises(BadParametersError):
        reconstruct_full_box(ns, 1, 2)


def test_full_program_matches_compact():
    rng = np.random.default_rng(23)
    for trial in range(3):
        w = random_channel(2, 2, 2, seed=int(rng.integers(10**6)))
        for objective, build in (("joint", build_ns_joint), ("sum", build_ns_sum)):
            compact = lp_solve(build(w, 2, 2)).value
            full = lp_solve(build_ns_full(w, 2, 2, objective)).value
            assert full == pytest.approx(compact, abs=1e-7)


def test_builders_match_golden_lp_text():
    """Each builder's LP text equals its fixture in tests/data.

    The fixtures hold the programs as the loop-built builders emitted them,
    so any change of row order, coefficient, right-hand side, relation,
    objective or name shows up here, not only a change of optimal value.
    """
    w222 = random_dyadic_channel(2, 2, 2, seed=7, denominator=16)
    w122 = random_dyadic_channel(1, 2, 2, seed=7, denominator=16)
    # Not dyadic: each decoder-box "sum" coefficient adds k1 + k2 = 5 inexact
    # terms, so the text (17 significant digits) also pins their order.
    w322 = validate_channel(np.array([[[0.1, 0.2], [0.3, 0.4]],
                                      [[0.7, 0.1], [0.1, 0.1]],
                                      [[1 / 3, 1 / 6], [0.25, 0.25]]]))
    enc = [[0, 1, 2], [2, 0, 1]]
    models = {
        "compact_joint": build_ns_joint(w222, 2, 2),
        "compact_sum": build_ns_sum(w222, 2, 2),
        "decoder_box_joint": build_decoder_box_lp(w322, enc, 2, 3, "joint"),
        "decoder_box_sum": build_decoder_box_lp(w322, enc, 2, 3, "sum"),
        "full_box_joint": build_ns_full(w122, 2, 2, "joint"),
        "full_box_sum": build_ns_full(w122, 2, 2, "sum"),
    }
    data = Path(__file__).parent / "data"
    for name, model in models.items():
        buf = io.StringIO()
        lp_write_text(model, buf)
        assert buf.getvalue() == (data / f"{name}.lp").read_text(), name


def test_full_program_var_cap():
    w = random_channel(2, 2, 2, seed=1)
    with pytest.raises(SizeCapExceededError):
        build_ns_full(w, 2, 2, cap=10)


def test_full_program_dense_size_cap():
    # 19 440 variables pass the variable cap, but the 11 016 dense rows would
    # take about 1.7 GB: refused before any of it is allocated.
    w = random_channel(15, 4, 4, seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceededError) as err:
            build_ns_full(w, 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.needed == 11_016 * 19_440
    assert peak < 10**6


def test_dense_size_is_counted_before_building(monkeypatch):
    """Each builder refuses a cap one below the rows x variables it builds."""
    w = random_channel(3, 2, 3, seed=2)
    enc = [[0, 1, 2], [2, 0, 1]]
    cases = [
        ("DEFAULT_ENTRY_CAP", lambda: build_ns_joint(w, 2, 3)),
        ("DEFAULT_ENTRY_CAP", lambda: build_ns_sum(w, 2, 3)),
        ("DEFAULT_ENTRY_CAP", lambda: build_decoder_box_lp(w, enc, 2, 3, "joint")),
        ("DEFAULT_ENTRY_CAP", lambda: build_decoder_box_lp(w, enc, 2, 3, "sum")),
        ("FULL_DENSE_ENTRY_CAP", lambda: build_ns_full(w, 2, 2, "joint")),
        ("FULL_DENSE_ENTRY_CAP", lambda: build_ns_full(w, 2, 2, "sum")),
    ]
    for cap_name, build in cases:
        model = build()
        needed = model.num_rows * model.num_vars
        with monkeypatch.context() as patch:
            patch.setattr(nsprograms, cap_name, needed)
            build()
            patch.setattr(nsprograms, cap_name, needed - 1)
            with pytest.raises(SizeCapExceededError) as err:
                build()
        assert (err.value.needed, err.value.cap) == (needed, needed - 1), cap_name


def test_compact_program_dense_size_cap():
    # 17 640 variables and 50 041 rows: a 7 GB matrix, refused unallocated.
    w = random_channel(40, 20, 20, seed=0)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceededError) as err:
            build_ns_joint(w, 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.needed == 50_041 * 17_640
    assert peak < 2 * 10**7


def test_decoder_box_one_input_values():
    w = one_input_channel()
    enc = np.zeros((2, 2), dtype=int)
    joint = lp_solve(build_decoder_box_lp(w, enc, 2, 2, "joint")).value
    ssum = lp_solve(build_decoder_box_lp(w, enc, 2, 2, "sum")).value
    assert joint == pytest.approx(0.25)
    assert ssum == pytest.approx(0.5)


def test_decoder_box_perfect_channel():
    w = perfect_channel()
    enc = np.array([[0, 1], [2, 3]])
    value = lp_solve(build_decoder_box_lp(w, enc, 2, 2, "joint")).value
    assert value == pytest.approx(1.0)


def test_decoder_box_validates_encoder():
    w = perfect_channel()
    with pytest.raises(BadParametersError):
        build_decoder_box_lp(w, np.zeros((3, 2), dtype=int), 2, 2)
    with pytest.raises(BadParametersError):
        build_decoder_box_lp(w, np.full((2, 2), 9), 2, 2)


def test_objective_validation():
    w = one_input_channel()
    with pytest.raises(ValidationError):
        build_ns_full(w, 2, 2, objective="bogus")
    with pytest.raises(ValidationError):
        build_decoder_box_lp(w, np.zeros((2, 2), dtype=int), 2, 2, "bogus")
    with pytest.raises(ValidationError):
        solve_ns(w, 2, 2, "bogus")


def test_exact_mode_returns_fraction_and_matches_float():
    w = random_dyadic_channel(2, 2, 2, denominator=16, seed=4)
    exact = solve_ns(w, 2, 2, "joint", exact=True)
    assert isinstance(exact.value, Fraction)
    approx = solve_ns(w, 2, 2, "joint")
    assert approx.value == pytest.approx(float(exact.value), abs=1e-9)

    # Both modes run one tableau path, so on dyadic data they pivot alike.
    for seed in range(5):
        w = random_dyadic_channel(2, 2, 2, denominator=16, seed=seed)
        for build in (build_ns_joint, build_ns_sum):
            model = build(w, 2, 2)
            exact, approx = lp_solve(model, exact=True), lp_solve(model)
            assert exact.pivots == approx.pivots
            assert approx.assignment == pytest.approx(
                exact.assignment.astype(float), abs=1e-9)


@pytest.mark.parametrize("k1, k2, joint, total", [
    (2, 3, Fraction(7, 32), Fraction(89, 192)),
    (1, 3, Fraction(5, 12), Fraction(17, 24)),
    (3, 1, Fraction(17, 48), Fraction(65, 96)),
])
def test_exact_compact_value_is_rational_of_the_channel(k1, k2, joint, total):
    # Entries in 16ths and k1 k2 not a power of two, so w / (k1 k2) rounds in
    # float: exact mode must solve the channel's own rational program.
    w = random_dyadic_channel(2, 2, 3, seed=6, denominator=16)
    assert solve_ns(w, k1, k2, "joint", exact=True).value == joint
    assert solve_ns(w, k1, k2, "sum", exact=True).value == total
    assert solve_ns(w, k1, k2, "joint").value == pytest.approx(float(joint), abs=1e-12)


# The compact program of a tensor power, over joint types.

def _channel(kind: str, shape=(2, 2, 2), seed: int = 0):
    if kind == "random":
        return random_channel(*shape, seed=seed)
    if kind == "dyadic":
        return random_dyadic_channel(*shape, seed=seed, denominator=16)
    return random_deterministic_channel(*shape, seed=seed).to_table()


@pytest.mark.parametrize("shape", [(2, 3, 4), (3, 3, 3), (5, 4, 4)])
@pytest.mark.parametrize("objective", ["joint", "sum"])
def test_one_position_is_the_compact_program_field_by_field(shape, objective):
    w = random_channel(*shape, seed=7)
    for k1, k2 in ((2, 2), (2, 3), (3, 1)):
        want = compact_program_by_loops(w.probs, k1, k2, objective)
        build = build_ns_joint if objective == "joint" else build_ns_sum
        model = build(w, k1, k2, n=1)
        for field, value in want.items():
            got = getattr(model, field)
            if isinstance(value, np.ndarray):
                assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), field
            else:
                assert got == value, field


@pytest.mark.parametrize("n, num_vars, num_rows", [(2, 59, 145), (3, 164, 429)])
def test_types_program_sizes_on_the_2x2x2_channel(n, num_vars, num_rows):
    # p, r, r1 and r2 are multisets of n cells of 2, 8, 4 and 4 each.
    model = build_ns_joint(random_channel(2, 2, 2, seed=0), 2, 2, n=n)
    assert (model.num_vars, model.num_rows) == (num_vars, num_rows)
    assert len(set(model.var_names)) == num_vars
    assert len(set(model.row_names)) == num_rows
    # A variable is named by its type's sorted sequence of cells.
    assert model.var_names[:3] == ("p" + "_x0" * n, "p" + "_x0" * (n - 1) + "_x1",
                                   "p" + "_x0" * (n - 2) + "_x1_x1")


@pytest.mark.parametrize("kind", ["random", "dyadic", "deterministic"])
@pytest.mark.parametrize("k1, k2", [(2, 2), (1, 3), (2, 3)])
def test_types_value_equals_the_dense_power_at_n_2(kind, k1, k2):
    for seed in range(2):
        w = _channel(kind, seed=seed)
        power = tensor_power(w, 2)
        for objective, build in (("joint", build_ns_joint), ("sum", build_ns_sum)):
            dense = build(power, k1, k2)
            types = solve_ns(w, k1, k2, objective, n=2)
            assert types.value == pytest.approx(lp_solve(dense).value, abs=1e-12)
            # The lifted point is feasible for the dense program, at the same value.
            assert types.r.shape == power.probs.shape
            x = np.concatenate([types.p, types.r.ravel(), types.r1.ravel(), types.r2.ravel()])
            assert constraint_violation(dense, x) <= 1e-9
            assert dense.objective @ x == pytest.approx(types.value, abs=1e-12)


@pytest.mark.parametrize("kind, objective, k1, k2", [
    ("random", "joint", 2, 2), ("random", "sum", 1, 3),
    ("dyadic", "joint", 2, 3), ("dyadic", "sum", 2, 2),
    ("deterministic", "joint", 1, 3), ("deterministic", "sum", 2, 3),
])
def test_types_value_equals_highs_on_the_dense_power_at_n_3(kind, objective, k1, k2):
    linprog = pytest.importorskip("scipy.optimize").linprog
    w = _channel(kind, seed=3)
    dense = (build_ns_joint if objective == "joint" else build_ns_sum)(tensor_power(w, 3), k1, k2)
    rel = np.asarray(dense.relations)
    res = linprog(-dense.objective,
                  A_ub=np.vstack([dense.rows[rel == LE], -dense.rows[rel == GE]]),
                  b_ub=np.concatenate([dense.rhs[rel == LE], -dense.rhs[rel == GE]]),
                  A_eq=dense.rows[rel == EQ], b_eq=dense.rhs[rel == EQ],
                  bounds=(0, None), method="highs")
    assert res.status == 0
    assert solve_ns(w, k1, k2, objective, n=3).value == pytest.approx(-res.fun, abs=1e-9)


@pytest.mark.parametrize("k1, k2", [(2, 2), (2, 3)])
def test_exact_types_value_equals_the_exact_dense_value(k1, k2):
    # Entries in 16ths: the square's entries are exact in float, so both
    # programs have the same rational objective.
    for seed in range(2):
        w = random_dyadic_channel(2, 2, 2, seed=seed, denominator=16)
        power = tensor_power(w, 2)
        for objective in ("joint", "sum"):
            types = solve_ns(w, k1, k2, objective, exact=True, n=2).value
            assert isinstance(types, Fraction)
            assert types == solve_ns(power, k1, k2, objective, exact=True).value


def test_exact_types_objective_is_the_product_of_the_entries():
    w = random_dyadic_channel(2, 2, 2, seed=1, denominator=16)
    c = nsprograms._compact_objective(nsprograms._to_fraction(w.probs), 2, 3, "joint", 2)
    model = build_ns_joint(w, 2, 3, n=2)
    cells = w.probs.ravel()
    # r_x0_a0_b0_x1_a1_b1: two sequences of that type, each of weight W(000) W(111).
    j = model.var_names.index("r_x0_a0_b0_x1_a1_b1")
    assert c[j] == 2 * Fraction(cells[0]) * Fraction(cells[7]) / 6


def test_types_program_is_refused_before_its_types_are_listed():
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceededError):
            build_ns_joint(random_channel(2, 2, 2, seed=0), 2, 2, n=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    with pytest.raises(ValidationError):
        build_ns_sum(random_channel(2, 2, 2, seed=0), 2, 2, n=0)


def test_types_of_long_blocks_are_indexed_exactly():
    # Two cells per position and n = 64: a sorted sequence read in base 2
    # reaches 2^64 - 1, past int64.  Type j (j inputs 1) is the j-th of each
    # block, and slack row j relates the four blocks' type j.
    w = validate_channel(np.full((2, 1, 1), 1.0))
    n, t = 64, 65
    model = build_ns_joint(w, 2, 2, n=n)
    assert model.num_vars == 4 * t
    norm_p = model.rows[model.row_names.index("norm_p")]
    assert list(norm_p[:t]) == [float(math.comb(n, j)) for j in range(t)]
    j = np.arange(t)
    want = np.zeros((t, 4 * t))
    want[j, j] = want[j, t + j] = 1.0
    want[j, 2 * t + j] = want[j, 3 * t + j] = -1.0
    assert np.array_equal(model.rows[-t:], want)
