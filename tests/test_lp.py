"""Simplex solver tests: known optima, failure modes, exact mode, vertex oracle."""

import io
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import bcc.simplex
from bcc import (
    EQ,
    GE,
    LE,
    DimensionMismatchError,
    InfeasibleError,
    IterationLimitError,
    LpModel,
    SizeCapExceededError,
    UnboundedError,
    ValidationError,
    build_decoder_box_lp,
    build_ns_joint,
    build_ns_sum,
    constraint_violation,
    lp_solve,
    lp_write_text,
    random_channel,
    random_dyadic_channel,
    random_feasible_lp,
    tensor_power,
)
from oracles import dense_pivot, looped_reduced_costs, lp_vertex_oracle


def test_single_le_row():
    model = LpModel(2, [1.0, 1.0], [[1.0, 1.0]], (LE,), [1.0])
    sol = lp_solve(model)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(1.0)
    assert constraint_violation(model, sol.assignment) <= 1e-9


def test_mixed_relations_need_phase_one():
    # max x + 2y  s.t.  x + y = 2,  y >= 0.5,  x <= 1.5  ->  x=0, y=2.
    model = LpModel(
        2,
        [1.0, 2.0],
        [[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]],
        (EQ, GE, LE),
        [2.0, 0.5, 1.5],
    )
    sol = lp_solve(model)
    assert sol.value == pytest.approx(4.0)
    assert sol.assignment == pytest.approx([0.0, 2.0])


def test_negative_rhs_row_is_normalized():
    # -x <= -1 means x >= 1; max -x gives value -1.
    model = LpModel(1, [-1.0], [[-1.0]], (LE,), [-1.0])
    sol = lp_solve(model)
    assert sol.value == pytest.approx(-1.0)


def test_infeasible():
    model = LpModel(1, [1.0], [[1.0], [1.0]], (LE, GE), [1.0, 2.0])
    with pytest.raises(InfeasibleError):
        lp_solve(model)


def test_unbounded():
    model = LpModel(2, [1.0, 0.0], [[0.0, 1.0]], (LE,), [1.0])
    with pytest.raises(UnboundedError):
        lp_solve(model)


def test_iteration_limit():
    model = LpModel(2, [1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], (LE, LE), [1.0, 1.0])
    with pytest.raises(IterationLimitError):
        lp_solve(model, max_pivots=1)


def test_exact_mode_var_cap():
    n = 201
    model = LpModel(n, np.ones(n), np.ones((1, n)), (LE,), [1.0])
    with pytest.raises(SizeCapExceededError):
        lp_solve(model, exact=True)


def test_exact_mode_returns_fractions():
    model = LpModel(
        2,
        [0.5, 0.25],
        [[1.0, 1.0], [1.0, -1.0]],
        (LE, EQ),
        [1.0, 0.0],
    )
    sol = lp_solve(model, exact=True)
    assert isinstance(sol.value, Fraction)
    assert sol.value == Fraction(3, 8)
    assert all(isinstance(v, Fraction) for v in sol.assignment)
    assert sol.assignment[0] == Fraction(1, 2)


def test_exact_and_float_agree_on_dyadic_data():
    model = LpModel(
        3,
        [0.75, 0.5, 0.125],
        [[1.0, 1.0, 1.0], [0.5, 0.0, 1.0], [0.0, 1.0, 0.25]],
        (LE, LE, GE),
        [2.0, 0.5, 0.25],
    )
    exact = lp_solve(model, exact=True)
    approx = lp_solve(model)
    assert approx.value == pytest.approx(float(exact.value), abs=1e-9)


def test_degenerate_vertex():
    # Three constraints meet at (1, 0); degeneracy must not cycle or misreport.
    model = LpModel(
        2,
        [1.0, 0.0],
        [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]],
        (LE, LE, LE),
        [1.0, 1.0, 1.0],
    )
    sol = lp_solve(model)
    assert sol.value == pytest.approx(1.0)


def test_model_validation_errors():
    with pytest.raises(DimensionMismatchError):
        LpModel(2, [1.0], [[1.0, 1.0]], (LE,), [1.0])
    with pytest.raises(DimensionMismatchError):
        LpModel(2, [1.0, 1.0], [[1.0, 1.0]], (LE, LE), [1.0])
    with pytest.raises(ValidationError):
        LpModel(2, [1.0, 1.0], [[1.0, 1.0]], ("<",), [1.0])


def test_constraint_violation_reports_worst():
    model = LpModel(2, [0.0, 0.0], [[1.0, 1.0], [1.0, 0.0]], (LE, GE), [1.0, 0.5])
    assert constraint_violation(model, np.array([0.5, 0.5])) == pytest.approx(0.0)
    assert constraint_violation(model, np.array([0.0, 2.0])) == pytest.approx(1.0)
    assert constraint_violation(model, np.array([-0.25, 0.0])) == pytest.approx(0.75)


def test_constraint_violation_is_exact_on_fractions():
    model = LpModel(2, [0.0, 0.0], [[1.0, 1.0], [1.0, 0.0]], (LE, GE), [1.0, 0.5])
    feasible = np.array([Fraction(1, 2), Fraction(1, 2)], dtype=object)
    zero = constraint_violation(model, feasible)
    assert isinstance(zero, Fraction) and zero == 0
    # 3/5 + 7/15 overshoots the first row by 1/15, which no float states exactly.
    over = np.array([Fraction(3, 5), Fraction(7, 15)], dtype=object)
    assert constraint_violation(model, over) == Fraction(1, 15)
    worst = constraint_violation(model, np.array([Fraction(1, 2), Fraction(-1, 3)],
                                                 dtype=object))
    assert isinstance(worst, Fraction) and worst == Fraction(1, 3)


def test_vertex_oracle_agreement_random_corpus():
    rng = np.random.default_rng(2024)
    solved = 0
    for trial in range(60):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 6))
        model = random_feasible_lp(n, m, seed=int(rng.integers(10**6)))
        sol = lp_solve(model)
        oracle = lp_vertex_oracle(model)
        assert oracle is not None
        assert sol.value == pytest.approx(oracle, abs=1e-6)
        solved += 1
    assert solved == 60


def test_vertex_oracle_agreement_with_eq_and_ge():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(2, 4))
        rows = [np.ones(n), rng.uniform(-1.0, 1.0, size=n)]
        rels = (LE, GE)
        rhs = [float(rng.uniform(2.0, 5.0)), -1.0]
        model = LpModel(n, rng.uniform(-1.0, 1.0, size=n), np.array(rows), rels,
                        np.array(rhs))
        sol = lp_solve(model)
        oracle = lp_vertex_oracle(model)
        assert oracle is not None
        assert sol.value == pytest.approx(oracle, abs=1e-6)


def test_lp_write_text_format():
    model = LpModel(
        2,
        [1.0, -0.5],
        [[1.0, 1.0], [2.0, 0.0]],
        (LE, GE),
        [1.0, -1.0],
        var_names=("p", "q"),
        row_names=("total", "floor"),
    )
    buf = io.StringIO()
    lp_write_text(model, buf)
    text = buf.getvalue()
    assert text.startswith("Maximize\n")
    assert " obj: + 1 p - 0.5 q\n" in text
    assert " total: + 1 p + 1 q <= 1\n" in text
    assert " floor: + 2 p >= -1\n" in text
    assert " p >= 0\n" in text
    assert text.endswith("End\n")


UNRELATED = LpModel(1, [1.0], [[1.0]], (LE,), [1.0])


def cold_solve(model, exact=False, **kwargs):
    """Solve after an unrelated model in the same mode, so that no phase 1
    carries over."""
    lp_solve(UNRELATED, exact=exact)
    return lp_solve(model, exact=exact, **kwargs)


def bits(sol):
    """Value, vertex and pivot count, compared bit for bit (exact for Fractions)."""
    return repr(sol.value), [repr(v) for v in sol.assignment], sol.pivots


def decoder_box_models(w):
    """The decoder-box LP of every encoder, joint objective first, then sum."""
    return [build_decoder_box_lp(w, np.reshape(enc, (2, 2)), 2, 2, objective)
            for objective in ("joint", "sum")
            for enc in product(range(w.input_size), repeat=4)]


@pytest.mark.parametrize("w, exact", [(random_channel(3, 3, 3, seed=4), False),
                                      (random_dyadic_channel(2, 2, 2, seed=5), True)])
def test_shared_phase_one_matches_cold_solves(w, exact, monkeypatch):
    models = decoder_box_models(w)
    cold = [bits(cold_solve(model, exact=exact)) for model in models]
    phase1_runs = []
    real_phase1 = bcc.simplex._phase1

    def counted(*args):
        phase1_runs.append(1)
        return real_phase1(*args)

    monkeypatch.setattr(bcc.simplex, "_phase1", counted)
    lp_solve(UNRELATED, exact=exact)
    warm = [bits(lp_solve(model, exact=exact)) for model in models]
    assert warm == cold
    assert len(phase1_runs) == 2   # the unrelated model and the first box LP


def test_alternating_modes_keep_one_phase_one_each(monkeypatch):
    # Exact mode's float solve and its Fraction fallback alternate on one
    # family of programs; neither evicts the other's phase 1.
    models = decoder_box_models(random_dyadic_channel(2, 2, 2, seed=5))[:6]
    cold = [(bits(cold_solve(m)), bits(cold_solve(m, exact=True))) for m in models]
    phase1_runs = []
    real_phase1 = bcc.simplex._phase1

    def counted(*args):
        phase1_runs.append(1)
        return real_phase1(*args)

    monkeypatch.setattr(bcc.simplex, "_phase1", counted)
    lp_solve(UNRELATED)
    lp_solve(UNRELATED, exact=True)
    warm = [(bits(lp_solve(m)), bits(lp_solve(m, exact=True))) for m in models]
    assert warm == cold
    assert len(phase1_runs) == 4   # the unrelated model and the first box LP, per mode


def test_phase_one_never_reused_across_modes_or_edits():
    model = LpModel(2, [1.0, 2.0], [[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]],
                    (EQ, GE, LE), [2.0, 0.5, 1.5])   # needs phase 1
    for exact in (False, True, False, True, True, False):
        assert bits(lp_solve(model, exact=exact)) == bits(cold_solve(model, exact=exact))
    before = bits(lp_solve(model))
    for edit in ("rows", "rhs"):
        getattr(model, edit)[0] *= 2.0   # in place: same arrays, new content
        edited = LpModel(2, model.objective, model.rows.copy(), model.relations,
                         model.rhs.copy())
        for exact in (False, True):
            after = bits(lp_solve(model, exact=exact))
            assert after == bits(cold_solve(edited, exact=exact))
        assert after != before
        before = after


def test_shared_phase_one_respects_the_pivot_limit():
    model = build_decoder_box_lp(random_channel(3, 3, 3, seed=6), [[0, 1], [2, 0]], 2, 2)
    full = lp_solve(model)
    taken = full.pivots + bcc.simplex._constraints(model).phase1[False].driven
    assert taken > full.pivots

    def outcome(solve, limit):
        try:
            return bits(solve(model, max_pivots=limit))
        except IterationLimitError as exc:
            return exc.pivots

    for limit in range(taken + 1):
        lp_solve(model)   # leaves this model's phase 1 behind
        assert outcome(lp_solve, limit) == outcome(cold_solve, limit)
    lp_solve(model)
    assert outcome(lp_solve, 0) == 1
    assert outcome(lp_solve, taken - 1) == taken
    assert outcome(lp_solve, taken) == bits(full)


@pytest.mark.parametrize("exact", [False, True])
def test_pivots_that_drive_artificials_out_count_against_the_limit(exact):
    # Phase 1 takes 9 pivots, 2 of them to pivot artificials out of the
    # basis, and phase 2 takes 4: 11 reported, 13 taken.
    model = build_decoder_box_lp(random_channel(2, 2, 2, seed=0), [[0, 1], [1, 0]], 2, 2)
    for solve in (cold_solve, lp_solve):   # a fresh phase 1, then the one left behind
        with pytest.raises(IterationLimitError) as raised:
            solve(model, exact=exact, max_pivots=12)
        assert raised.value.pivots == 13
        assert solve(model, exact=exact, max_pivots=13).pivots == 11


def test_infeasible_model_raises_on_every_call():
    model = LpModel(1, [1.0], [[1.0], [1.0]], (LE, GE), [1.0, 2.0])
    feasible = LpModel(1, [1.0], [[1.0], [1.0]], (LE, GE), [2.0, 1.0])
    for exact in (False, True, False):
        for _ in range(2):
            with pytest.raises(InfeasibleError):
                lp_solve(model, exact=exact)
        assert lp_solve(feasible, exact=exact).value == 2


class _Lockstep:
    """A tableau with a row-major shadow that the dense oracle pivots.

    After every pivot the tableau, the basis and the reduced costs of the
    phase's cost must equal the shadow's bit for bit (value for value on
    Fractions), and the tableau must keep its class's memory order.
    """

    def __init__(self, T, basis, pivots, max_pivots):
        super().__init__(T, basis, pivots, max_pivots)
        self.shadow, self.shadow_basis = np.array(T, order="C"), basis.copy()
        self.cost, self.checked = None, 0

    def run_phase(self, cost, phase):
        self.cost = cost
        super().run_phase(cost, phase)

    def reduced_costs(self, cost):
        r = super().reduced_costs(cost)
        assert np.array_equal(r, looped_reduced_costs(self.shadow, self.shadow_basis, cost))
        return r

    def pivot(self, p, q):
        super().pivot(p, q)
        dense_pivot(self.shadow, self.shadow_basis, p, q)
        assert self.T.flags[f"{self.order}_CONTIGUOUS"]
        assert np.array_equal(self.T, self.shadow)
        assert np.array_equal(self.basis, self.shadow_basis)
        self.reduced_costs(self.cost)
        self.checked += 1


class _FloatLockstep(_Lockstep, bcc.simplex._Tableau):
    pass


class _ExactLockstep(_Lockstep, bcc.simplex._ExactTableau):
    pass


def sparse_tableau(rng, m: int, n: int):
    """A bounded program as [A | I | b] in the slack basis, b >= 0.

    Most of A is zero, two rows and three columns of it are all zero, and
    one more row is zero throughout, its slack included.  The last row caps
    the sum of the variables that the objective rewards.
    """
    A = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.15)
    zero_cols = rng.choice(n, 3, replace=False)
    A[rng.choice(m - 1, 2, replace=False)] = 0.0
    A[-1] = 1.0
    A[:, zero_cols] = 0.0
    T = np.zeros((m, n + m + 1), order="F")
    T[:, :n], T[:, n:-1], T[:, -1] = A, np.eye(m), rng.random(m) * (rng.random(m) < 0.7)
    T[rng.integers(m - 1)] = 0.0
    cost = np.zeros(n + m)
    cost[:n] = rng.normal(size=n) * (rng.random(n) < 0.6)
    cost[zero_cols] = 0.0
    return T, np.arange(n, n + m), cost


def small_integers(a):
    """Fractions of the same signs and zeros as a, of magnitude 1 to 3."""
    return bcc.simplex._to_fraction(np.sign(a) * np.ceil(np.abs(a) * 1.5))


@pytest.mark.parametrize(
    "seed, lockstep",
    [pytest.param(seed, _FloatLockstep, id=str(seed)) for seed in range(8)]
    + [pytest.param(seed, _ExactLockstep, id=f"exact-{seed}") for seed in range(8)])
def test_sparse_pivots_match_the_dense_update_on_random_tableaux(seed, lockstep):
    T, basis, cost = sparse_tableau(np.random.default_rng(seed), 20 + 2 * seed, 40 + 4 * seed)
    if lockstep is _ExactLockstep:
        T, cost = np.ascontiguousarray(small_integers(T)), small_integers(cost)
    tab = lockstep(T, basis, 0, 500)
    tab.run_phase(cost, phase=2)
    assert tab.checked > 0


@pytest.mark.parametrize("build", [build_ns_joint, build_ns_sum])
def test_sparse_pivots_match_the_dense_update_on_the_tensor_square(build, monkeypatch):
    model = build(tensor_power(random_channel(2, 2, 2, seed=0), 2), 2, 2)
    expected = bits(cold_solve(model))
    steps = []

    class Counted(_FloatLockstep):
        def pivot(self, p, q):
            super().pivot(p, q)
            steps.append(1)

    monkeypatch.setattr(bcc.simplex, "_Tableau", Counted)
    lp_solve(UNRELATED)
    assert bits(lp_solve(model)) == expected
    assert len(steps) >= expected[2]   # and the pivots that drive artificials out
