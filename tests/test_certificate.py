"""The rational certificate of a float solve, and exact mode built on it.

certify(model, sol) rounds a float vertex and the duals of its final basis
to small fractions and proves them optimal in exact arithmetic; solve_exact
falls back to the Fraction simplex, lp_solve(exact=True), when it cannot.
Every certified value must equal the Fraction simplex's, and each way of
getting the basis, the duals, the vertex or the objective wrong must make
the certificate fail rather than prove a wrong value.
"""

import gc
import weakref
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import bcc.exact
import bcc.nsprograms
import bcc.simplex
from bcc import (
    LE,
    IterationLimitError,
    LpModel,
    SizeCapExceededError,
    build_decoder_box_lp,
    build_ns_joint,
    build_ns_sum,
    certify,
    lp_solve,
    random_dyadic_channel,
    save_channel,
    solve_exact,
    solve_ns,
    solve_ns_dec,
)
from bcc.cli import main
from bcc.nsprograms import _compact_objective, _decoder_box_objective
from bcc.simplex import EXACT_VAR_CAP, _to_fraction
from test_exact_golden import SPECS, build, mixed_relations_lp


def exact_compact(w, k1, k2, objective):
    """The compact program with the channel's exact rational objective."""
    model = (build_ns_joint if objective == "joint" else build_ns_sum)(w, k1, k2)
    return replace(model, objective=_compact_objective(_to_fraction(w.probs), k1, k2, objective))


def exact_box(w, enc, objective="joint"):
    enc = np.asarray(enc)
    model = build_decoder_box_lp(w, enc, *enc.shape, objective)
    return replace(model, objective=_decoder_box_objective(_to_fraction(w.probs[enc]), objective))


def certified(model):
    cert = certify(model, lp_solve(model))
    assert cert is not None
    assert isinstance(cert.value, Fraction)
    assert all(isinstance(v, Fraction) for v in cert.assignment)
    return cert


def golden_model(spec):
    return mixed_relations_lp(spec["seed"])[0] if spec["kind"] == "mixed_lp" else build(spec)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: "-".join(map(str, s.values())))
def test_certificate_equals_the_fraction_simplex_on_the_golden_programs(spec):
    model = golden_model(spec)
    exact = lp_solve(model, exact=True)
    assert certified(model).value == exact.value
    assert certify(model, exact).value == exact.value   # the fallback's own basis


def test_certificate_equals_the_fraction_simplex_on_the_dyadic_corpus():
    # 2x2x2 channels at k=(2,2), the benchmark's exact shape, and 3x3x3.
    channels = [random_dyadic_channel(2, 2, 2, seed=[s, i])
                for s in range(1, 11) for i in range(10)]
    channels += [random_dyadic_channel(3, 3, 3, seed=s) for s in (1, 2)]   # 0 is golden
    for w in channels:
        for objective in ("joint", "sum"):
            model = exact_compact(w, 2, 2, objective)
            assert certified(model).value == lp_solve(model, exact=True).value


def test_certificate_on_a_non_dyadic_objective():
    # Entries in 16ths at k=(2,3): the objective w / 6 has no float form.
    w = random_dyadic_channel(2, 2, 3, seed=6, denominator=16)
    for objective, want in (("joint", Fraction(7, 32)), ("sum", Fraction(89, 192))):
        model = exact_compact(w, 2, 3, objective)
        assert certified(model).value == want == lp_solve(model, exact=True).value


def full_basis(model):
    """The basis array phase 1 ends with, before any row is dropped."""
    seen = []

    class Recording(bcc.simplex._Tableau):
        def __init__(self, T, basis, pivots, max_pivots):
            super().__init__(T, basis, pivots, max_pivots)
            seen.append(basis)

    phase1 = bcc.simplex._phase1(model, Recording, 10**6)
    return phase1, seen[0]


def unit_column_in(model, basis, r):
    """basis with row r's unit column exchanged for a structural column, as
    if phase 1 had dropped row r: its dual is then forced to zero."""
    n, m = model.num_vars, model.num_rows
    structural = basis < n
    B = np.zeros((m, m))
    B[:, structural] = model.rows[:, basis[structural]]
    B[basis[~structural] - n, np.flatnonzero(~structural)] = 1.0
    d = np.linalg.solve(B, np.eye(m)[r])   # e_r in the basis's coordinates
    out = basis.copy()
    out[np.flatnonzero(structural)[np.argmax(abs(d[structural]))]] = n + r
    return out


MUTATED = [
    pytest.param(lambda: exact_compact(random_dyadic_channel(3, 3, 3, seed=0), 2, 2, "joint"),
                 id="compact"),
    pytest.param(lambda: exact_box(random_dyadic_channel(3, 3, 3, seed=0), [[0, 1], [2, 0]]),
                 id="box"),
]


@pytest.mark.parametrize("make", MUTATED)
def test_a_flipped_dual_sign_fails(make, monkeypatch):
    model = make()
    sol = lp_solve(model)
    y = bcc.simplex._basis_duals(model, sol.basis)
    rows = np.flatnonzero(abs(y) > 1e-12)
    assert certify(model, sol) is not None and rows.size
    real = bcc.simplex._basis_duals
    for i in rows:
        def flipped(model, basis, i=i):
            y = real(model, basis)
            y[i] = -y[i]
            return y

        monkeypatch.setattr(bcc.simplex, "_basis_duals", flipped)
        assert certify(model, sol) is None, i


@pytest.mark.parametrize("make", MUTATED)
def test_an_eq_row_left_out_of_the_basis_fails(make):
    model = make()
    sol = lp_solve(model)
    y = bcc.simplex._basis_duals(model, sol.basis)
    rows = np.flatnonzero((np.asarray(model.relations) == "=") & (abs(y) > 1e-12))
    assert rows.size
    for r in rows:
        assert certify(model, replace(sol, basis=unit_column_in(model, sol.basis, r))) is None


def test_the_kept_mask_as_redundant_rows_fails():
    # In this box program phase 1 drops 12 rows, and some artificials that
    # stay basic sit in other rows than their own: ~kept is not the set of
    # redundant rows, and a basis built from it is wrong.
    model = exact_box(random_dyadic_channel(3, 3, 3, seed=0), [[0, 1], [2, 0]])
    phase1, basis = full_basis(model)
    n, art_start = model.num_vars, phase1.columns.size
    not_kept = np.flatnonzero(basis >= art_start)
    assert not_kept.size and not np.array_equal(not_kept, phase1.redundant)
    sol = lp_solve(model)
    assert np.isin(n + phase1.redundant, sol.basis).all()
    wrong = np.r_[np.setdiff1d(sol.basis, n + phase1.redundant), n + not_kept]
    assert certify(model, sol) is not None
    assert certify(model, replace(sol, basis=wrong)) is None


@pytest.mark.parametrize("make", MUTATED)
def test_a_vertex_moved_by_1e_7_fails(make):
    # Moved after rounding: a float vertex moved by 1e-7 mostly rounds back
    # to the same fractions, which is what rounding is for.
    model = make()
    sol = lp_solve(model)
    x = certify(model, sol).assignment
    for j in range(model.num_vars):
        moved = x.copy()
        moved[j] += Fraction(1, 10**7)
        assert certify(model, replace(sol, assignment=moved)) is None, j


@pytest.mark.parametrize("objective", ["joint", "sum"])
def test_the_float_rounded_objective_fails(objective):
    w = random_dyadic_channel(2, 2, 3, seed=6, denominator=16)
    rounded = (build_ns_joint if objective == "joint" else build_ns_sum)(w, 2, 3)
    assert certify(rounded, lp_solve(rounded)) is None
    assert certify(exact_compact(w, 2, 3, objective), lp_solve(rounded)) is not None


def test_certificate_without_a_usable_basis_is_none():
    model = golden_model(SPECS[0])
    sol = lp_solve(model)
    assert certify(model, replace(sol, basis=None)) is None
    assert certify(model, replace(sol, basis=sol.basis[1:])) is None
    singular = sol.basis.copy()
    singular[1] = singular[0]
    assert certify(model, replace(sol, basis=singular)) is None


def test_programs_above_the_exact_cap_are_certified(monkeypatch):
    w = random_dyadic_channel(2, 10, 10, seed=0)
    model = exact_compact(w, 2, 2, "joint")
    assert model.num_vars > EXACT_VAR_CAP
    with pytest.raises(SizeCapExceededError):
        lp_solve(model, exact=True)
    assert solve_ns(w, 2, 2, "joint", exact=True).value == Fraction(13, 32)

    # A decoder box of 2 * 2 * 8 * 8 = 256 variables per encoder, solved
    # with no fallback at all: each certificate takes milliseconds.
    def no_fallback(model, exact=False):
        assert not exact
        return lp_solve(model)

    monkeypatch.setattr(bcc.exact, "lp_solve", no_fallback)
    w = random_dyadic_channel(2, 8, 8, seed=0)
    assert exact_box(w, [[0, 1], [1, 0]]).num_vars > EXACT_VAR_CAP
    rep = solve_ns_dec(w, 2, 2, exact=True)
    assert (rep.value, rep.witness) == (Fraction(25, 64), ((0, 1), (1, 0)))


def test_solve_exact_falls_back_when_the_float_solve_raises():
    model = golden_model(SPECS[0])
    calls = []

    def flaky(model, exact=False):
        calls.append(exact)
        if not exact:
            raise IterationLimitError(1)
        return lp_solve(model, exact=True)

    assert solve_exact(model, flaky).value == lp_solve(model, exact=True).value
    assert calls == [False, True]


def cli_stdout(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("shape, k1, k2, denominator", [
    ((2, 2, 2), 2, 2, 64), ((3, 3, 3), 2, 2, 64), ((2, 2, 3), 2, 3, 16)])
def test_cli_output_is_byte_identical_through_the_fallback(tmp_path, capsys, monkeypatch,
                                                          shape, k1, k2, denominator):
    path = tmp_path / "w.json"
    seed = 6 if shape == (2, 2, 3) else 1
    save_channel(random_dyadic_channel(*shape, seed=seed, denominator=denominator), path)
    argv = ["solve", str(path), "--k1", str(k1), "--k2", str(k2), "--which", "ns", "ns-sum",
            "ns-dec", "sum", "--exact", "--verify"]
    certified_run = cli_stdout(capsys, argv)
    exact_calls = []
    for module in (bcc.exact, bcc.nsprograms):
        def counted(model, exact=False, _solve=module.lp_solve):
            exact_calls.append(exact)
            return _solve(model, exact=exact)

        monkeypatch.setattr(module, "lp_solve", counted)
    monkeypatch.setattr(bcc.simplex, "certify", lambda model, sol: None)
    assert cli_stdout(capsys, argv) == certified_run
    assert certified_run[0] == 0
    assert exact_calls.count(True) == exact_calls.count(False) > 0


def test_cli_exits_3_above_the_cap_only_when_the_certificate_fails(tmp_path, capsys,
                                                                  monkeypatch):
    path = tmp_path / "w.json"
    save_channel(random_dyadic_channel(2, 10, 10, seed=0), path)   # 242 variables
    argv = ["solve", str(path), "--k1", "2", "--k2", "2", "--which", "ns", "--exact",
            "--verify"]
    code, out = cli_stdout(capsys, argv)
    assert code == 0 and '"S_ns_exact": "13/32"' in out
    monkeypatch.setattr(bcc.simplex, "certify", lambda model, sol: None)
    assert cli_stdout(capsys, argv) == (3, "")


def test_shared_constraints_are_converted_to_fractions_once():
    # Decoder-box LPs of one channel differ only in their objective: their
    # rows and rhs are converted once, and the certificates are unchanged.
    w = random_dyadic_channel(3, 2, 2, seed=0)
    first, second = (exact_box(w, enc) for enc in ([[0, 1], [2, 0]], [[1, 1], [0, 2]]))
    rows = bcc.simplex._fraction_rows(first)
    for model in (first, second):
        assert certified(model).value == lp_solve(model, exact=True).value
        assert bcc.simplex._fraction_rows(model) is rows
    other = replace(first, rhs=first.rhs * 2)
    assert bcc.simplex._fraction_rows(other) is not rows
    assert list(bcc.simplex._fraction_rows(other).rhs) == list(_to_fraction(other.rhs))


def test_a_box_family_keeps_one_record_of_its_constraints():
    # Every encoder's decoder-box LP shares one record: the float phase 1
    # every solve starts from, and the Fractions every certificate reads.
    w = random_dyadic_channel(3, 2, 2, seed=0)
    models = [exact_box(w, np.reshape(enc, (2, 2))) for enc in product(range(3), repeat=4)]
    for model in models:
        solve_exact(model)
    records = [obj for obj in gc.get_objects() if isinstance(obj, bcc.simplex._Constraints)]
    assert records == [bcc.simplex._last_constraints]
    record = records[0]
    assert list(record.phase1) == [False]   # every certificate holds: no Fraction simplex
    assert all(bcc.simplex._fraction_rows(model) is record for model in models)


def test_other_constraints_release_the_last_tableaux_and_fractions(monkeypatch):
    # An exact solve and a certificate leave a box LP's phase 1 of both modes
    # and its Fractions behind; a float solve of other constraints frees them.
    built = []
    real_phase1 = bcc.simplex._phase1

    def kept(*args):
        built.append(real_phase1(*args))
        return built[-1]

    other = LpModel(1, [1.0], [[1.0]], (LE,), [1.0])
    lp_solve(other)   # so that the box LP's phase 1 is built here
    monkeypatch.setattr(bcc.simplex, "_phase1", kept)
    model = exact_box(random_dyadic_channel(3, 2, 2, seed=0), [[0, 1], [2, 0]])
    assert lp_solve(model, exact=True).value == certified(model).value
    frac = bcc.simplex._fraction_rows(model)
    arrays = [*(phase1.tableau for phase1 in built), frac.value, frac.rhs]
    assert len(arrays) == 4
    released = [weakref.ref(a) for a in arrays]
    del built[:], frac, arrays
    lp_solve(other)
    assert all(ref() is None for ref in released)
