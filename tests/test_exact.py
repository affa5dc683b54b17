"""Exact solver tests against definition-level and brute-force oracles."""

import dataclasses
import importlib
import json
import math
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from pathlib import Path

import numpy as np
import pytest

import bcc.exact
from bcc import (
    BadParametersError,
    Code,
    DeterministicChannel,
    DimensionMismatchError,
    EnumerationCapExceededError,
    Partition,
    SizeCapExceededError,
    approximate_dqg,
    build_instance,
    build_ns_full,
    channel_graph,
    code_from_partitions,
    enumerate_partitions,
    joint_success,
    make_graph,
    materialize_channel,
    optimal_welfare,
    quotient_edge_count,
    random_channel,
    random_code,
    random_deterministic_channel,
    random_dyadic_channel,
    solve_dqg,
    solve_joint,
    solve_ns,
    solve_ns_dec,
    solve_sum,
    sum_success,
    tensor_power,
    validate_channel,
)
from bcc.channels import DEFAULT_ENTRY_CAP, ChannelTable
from bcc.exact import _assignment_rows, _decoder_box_bounds, _orbit_representatives
from bcc.nsprograms import build_decoder_box_lp
from bcc.simplex import CHECK_TOL, _to_fraction, lp_solve
from oracles import (
    best_code_bruteforce,
    decoder_box_bound,
    decoder_box_value,
    dqg_bruteforce,
    ns_dec_by_all_encoders,
    ns_dec_by_orbit_loop,
    orbit_minima,
    pruned_lp_count,
    success_by_loops,
)

ROOT = Path(__file__).resolve().parents[1]

SMALL_INSTANCES = (
    # (nx, n1, n2, k1, k2)
    (2, 2, 2, 2, 2),
    (3, 2, 3, 2, 2),
    (2, 3, 2, 2, 3),
    (3, 3, 2, 3, 2),
    (4, 2, 2, 2, 2),
    (2, 3, 3, 2, 2),
    (3, 2, 2, 3, 3),
    (2, 2, 3, 2, 2),
)


def perfect_channel():
    probs = np.zeros((4, 2, 2))
    for x in range(4):
        probs[x, x >> 1, x & 1] = 1.0
    return validate_channel(probs)


def test_success_functions_match_definition():
    rng = np.random.default_rng(31)
    for trial in range(12):
        nx, n1, n2 = (int(v) for v in rng.integers(1, 4, size=3))
        k1, k2 = (int(v) for v in rng.integers(1, 4, size=2))
        w = random_channel(nx, n1, n2, seed=int(rng.integers(10**6)))
        code = random_code(k1, k2, nx, n1, n2, seed=int(rng.integers(10**6)))
        assert joint_success(w, code) == pytest.approx(
            success_by_loops(w, code, "joint"), abs=1e-12)
        assert sum_success(w, code) == pytest.approx(
            success_by_loops(w, code, "sum"), abs=1e-12)


def test_joint_success_counts_on_deterministic_channels():
    rng = np.random.default_rng(43)
    for trial in range(60):
        nx = int(rng.integers(1, 13))  # often more inputs than message cells
        n1, n2 = (int(v) for v in rng.integers(1, 6, size=2))
        k1, k2 = (int(v) for v in rng.integers(1, 8, size=2))  # k = 1 and k > |Y|
        dc = random_deterministic_channel(nx, n1, n2, seed=int(rng.integers(10**6)))
        table = dc.to_table()
        # Partitions with more parts than outputs leave message cells empty.
        p1 = Partition(n1, k1, tuple(int(v) for v in rng.integers(k1, size=n1)))
        p2 = Partition(n2, k2, tuple(int(v) for v in rng.integers(k2, size=n2)))
        derived = code_from_partitions(dc, p1, p2)
        # Loop reference: the smallest input per message cell, 0 for an empty cell.
        encoder = [[None] * k2 for _ in range(k1)]
        for x, (y1, y2) in enumerate(dc.pairs.tolist()):
            a, b = p1.assignment[y1], p2.assignment[y2]
            if encoder[a][b] is None:
                encoder[a][b] = x
        assert derived == Code(k1, k2, tuple(tuple(0 if v is None else v for v in row)
                                             for row in encoder),
                               p1.assignment, p2.assignment)
        assert all(type(v) is int for row in derived.encoder for v in row)
        for code in (random_code(k1, k2, nx, n1, n2, seed=int(rng.integers(10**6))), derived):
            got = joint_success(dc, code)
            assert got == joint_success(table, code) == success_by_loops(table, code)


def test_sum_success_counts_on_deterministic_channels(monkeypatch):
    # Scored by counting the message cells each receiver decodes, as
    # joint_success does; the dense table is built only for the reference.
    rng = np.random.default_rng(47)
    for trial in range(60):
        nx = int(rng.integers(1, 13))
        n1, n2 = (int(v) for v in rng.integers(1, 6, size=2))
        k1, k2 = (int(v) for v in rng.integers(1, 8, size=2))
        dc = random_deterministic_channel(nx, n1, n2, seed=int(rng.integers(10**6)))
        code = random_code(k1, k2, nx, n1, n2, seed=int(rng.integers(10**6)))
        table = dc.to_table()
        with monkeypatch.context() as m:
            m.setattr(DeterministicChannel, "to_table", None)
            got = sum_success(dc, code)
        assert got == sum_success(table, code) == success_by_loops(table, code, "sum")


def test_code_validation_errors():
    w = random_channel(2, 2, 2, seed=0)
    dc = DeterministicChannel(2, 2, 2, ((0, 1), (1, 1)))
    bad_codes = (
        Code(2, 2, ((0, 1),), (0, 1), (0, 1)),
        Code(2, 2, ((0, 1), (0, 5)), (0, 1), (0, 1)),
        Code(2, 2, ((0, 1), (-1, 1)), (0, 1), (0, 1)),
        Code(2, 2, ((0, 1), (0, 1)), (0,), (0, 1)),
        Code(2, 2, ((0, 1), (0, 1)), (0, 1), (1, 2)),
    )
    for code in bad_codes:
        messages = set()
        for channel in (w, dc.to_table(), dc):
            for score in (joint_success, sum_success):
                with pytest.raises(DimensionMismatchError) as info:
                    score(channel, code)
                messages.add(str(info.value))
        assert len(messages) == 1
    with pytest.raises(DimensionMismatchError):
        sum_success(w, Code(2, 2, ((0, 1), (0, 1)), (0, 2), (0, 1)))


def is_restricted_growth(labels) -> bool:
    """Item 0 has label 0 and each later label is at most one above all before it."""
    top = -1
    for label in labels:
        if label > top + 1:
            return False
        top = max(top, label)
    return True


def stirling2(n: int, j: int) -> int:
    """Partitions of n items into exactly j nonempty parts."""
    if n == 0 or j == 0:
        return int(n == j)
    return j * stirling2(n - 1, j) + stirling2(n - 1, j - 1)


def test_solvers_match_bruteforce():
    # Each decoder pair is scored in its restricted-growth labelling, which
    # can add in another order than the oracle's best labelling: one ulp.
    rng = np.random.default_rng(41)
    for nx, n1, n2, k1, k2 in SMALL_INSTANCES + ((3, 3, 3, 3, 3), (2, 2, 3, 3, 4)):
        w = random_channel(nx, n1, n2, seed=int(rng.integers(10**6)))
        joint = solve_joint(w, k1, k2)
        assert abs(joint.value - best_code_bruteforce(w, k1, k2, "joint")) <= 1e-15
        assert joint_success(w, joint.witness) == pytest.approx(joint.value, abs=1e-12)
        assert joint.enumerated == k1**n1 * k2**n2

        ssum = solve_sum(w, k1, k2)
        assert abs(ssum.value - best_code_bruteforce(w, k1, k2, "sum")) <= 1e-15
        assert sum_success(w, ssum.witness) == pytest.approx(ssum.value, abs=1e-12)
        for code in (joint.witness, ssum.witness):
            assert is_restricted_growth(code.decoder1)
            assert is_restricted_growth(code.decoder2)


def test_assignment_rows_are_restricted_growth_strings():
    for n in range(7):
        for k in range(1, 5):  # k > n included
            rows = _assignment_rows(n, k)
            expected = [t for t in product(range(k), repeat=n) if is_restricted_growth(t)]
            assert rows.shape == (len(expected), n)
            assert [tuple(row) for row in rows.tolist()] == expected
            assert len(expected) == sum(stirling2(n, j) for j in range(k + 1))


def test_cellwise_encoder_choice_is_exhaustive():
    # Fixing decoders, optimizing each message cell separately equals brute
    # force over whole encoder maps.
    w = random_channel(2, 2, 2, seed=101)
    for mode in ("joint", "sum"):
        assert best_code_bruteforce(w, 2, 2, mode) == pytest.approx(
            best_code_bruteforce(w, 2, 2, mode, full_encoders=True), abs=1e-12)


def test_known_values_and_witness_tiebreak():
    one_input = validate_channel(np.ones((1, 1, 1)))
    assert solve_joint(one_input, 2, 2).value == pytest.approx(0.25)
    assert solve_sum(one_input, 2, 2).value == pytest.approx(0.5)

    report = solve_joint(perfect_channel(), 2, 2)
    assert report.value == pytest.approx(1.0)
    assert report.witness == Code(2, 2, ((0, 1), (2, 3)), (0, 1), (0, 1))


def test_solver_is_deterministic():
    w = random_channel(3, 2, 3, seed=77)
    first = solve_joint(w, 2, 2)
    second = solve_joint(w, 2, 2)
    assert first.value == second.value
    assert first.witness == second.witness


def test_enumeration_caps(monkeypatch):
    w = random_channel(2, 3, 3, seed=0)
    with pytest.raises(EnumerationCapExceededError):
        solve_joint(w, 2, 2, cap=10)
    with pytest.raises(SizeCapExceededError):
        solve_joint(random_channel(1, 14, 14, seed=0), 1, 1)
    with pytest.raises(EnumerationCapExceededError):
        solve_ns_dec(w, 2, 2, cap=3)

    # The caps come before any subset table: with 40 outputs on one side,
    # each would have 2^40 rows.
    real_members = bcc.exact._members

    def members(n):
        assert 1 << n <= DEFAULT_ENTRY_CAP, f"subset matrix of 2^{n} rows built"
        return real_members(n)

    monkeypatch.setattr(bcc.exact, "_members", members)
    w = random_channel(1, 40, 2, seed=0)
    g = make_graph(40, 2, [(0, 0), (39, 1)])
    tracemalloc.start()
    try:
        start = time.perf_counter()
        for solve, arg in ((solve_joint, w), (solve_sum, w), (solve_dqg, g)):
            with pytest.raises(SizeCapExceededError):
                solve(arg, 1, 1)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2**20


def test_message_counts_below_one_rejected():
    w = random_channel(2, 2, 2, seed=3)
    g = channel_graph(random_deterministic_channel(4, 2, 2, seed=3))
    for k1, k2 in ((0, 2), (2, 0), (-1, 2)):
        for solve in (solve_joint, solve_sum, solve_ns_dec):
            with pytest.raises(BadParametersError):
                solve(w, k1, k2)
        with pytest.raises(BadParametersError):
            solve_dqg(g, k1, k2)


def test_numpy_integer_message_counts_give_python_results():
    w = random_channel(3, 3, 3, seed=0)
    g = channel_graph(random_deterministic_channel(6, 3, 3, seed=0))
    k = np.int64(2)
    for solve in (solve_joint, solve_sum):
        rep, want = solve(w, k, k), solve(w, 2, 2)
        assert type(rep.value) is float and rep == want
        assert type(rep.witness.k1) is int and type(rep.witness.k2) is int
        json.dumps(dataclasses.asdict(rep.witness))
    rep = solve_dqg(g, k, k)
    assert rep == solve_dqg(g, 2, 2)
    assert all(type(p.num_parts) is int for p in rep.witness)
    assert approximate_dqg(g, k, k) == approximate_dqg(g, 2, 2)
    for k1, k2 in ((2.0, 2), (2, "2"), (2, None)):
        for solve in (solve_joint, solve_sum, solve_ns_dec):
            with pytest.raises(BadParametersError, match="integers"):
                solve(w, k1, k2)
        with pytest.raises(BadParametersError, match="integers"):
            solve_dqg(g, k1, k2)


def test_dqg_matches_bruteforce():
    rng = np.random.default_rng(53)
    for trial in range(6):
        v1, v2 = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        g = random_bipartite(v1, v2, rng)
        for k1, k2 in ((2, 2), (2, 3)):
            report = solve_dqg(g, k1, k2)
            best, first = dqg_bruteforce(g, k1, k2)
            assert report.value == best
            p1, p2 = report.witness
            assert quotient_edge_count(g, p1, p2) == report.value
            # Ties go to the lexicographically first optimal assignment pair.
            assert (p1.assignment, p2.assignment) == (first[0].assignment,
                                                      first[1].assignment)


def random_bipartite(v1, v2, rng):
    from bcc import random_bipartite_graph

    return random_bipartite_graph(v1, v2, 0.6, seed=int(rng.integers(10**6)))


def test_dqg_known_graph():
    g = make_graph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    report = solve_dqg(g, 2, 2)
    assert report.value == 4
    p1, p2 = report.witness
    assert p1.assignment == (0, 1)
    assert p2.assignment == (0, 1)


def test_deterministic_channel_joint_equals_quotient():
    rng = np.random.default_rng(67)
    for trial in range(5):
        dc = random_deterministic_channel(4, 3, 3, seed=int(rng.integers(10**6)))
        g = channel_graph(dc)
        for k1, k2 in ((2, 2), (2, 3)):
            s = solve_joint(dc.to_table(), k1, k2).value
            edges = solve_dqg(g, k1, k2).value
            assert k1 * k2 * s == pytest.approx(edges, abs=1e-9)


def test_code_from_partitions_matches_quotient():
    rng = np.random.default_rng(71)
    for trial in range(5):
        dc = random_deterministic_channel(4, 3, 3, seed=int(rng.integers(10**6)))
        g = channel_graph(dc)
        report = solve_dqg(g, 2, 2)
        p1, p2 = report.witness
        code = code_from_partitions(dc, p1, p2)
        assert joint_success(dc.to_table(), code) == pytest.approx(
            quotient_edge_count(g, p1, p2) / 4, abs=1e-12)


def test_code_from_partitions_validates_sizes():
    dc = random_deterministic_channel(3, 2, 2, seed=2)
    with pytest.raises(DimensionMismatchError):
        code_from_partitions(dc, Partition(3, 2, (0, 1, 0)), Partition(2, 2, (0, 1)))


def test_ns_dec_sandwich():
    rng = np.random.default_rng(83)
    for trial in range(3):
        w = random_channel(2, 2, 2, seed=int(rng.integers(10**6)))
        s = solve_joint(w, 2, 2).value
        ns_dec = solve_ns_dec(w, 2, 2, "joint").value
        ns = solve_ns(w, 2, 2, "joint").value
        assert s <= ns_dec + 1e-7
        assert ns_dec <= ns + 1e-7


def test_ns_dec_sum_matches_plain_sum():
    rng = np.random.default_rng(89)
    for trial in range(3):
        w = random_channel(2, 2, 2, seed=int(rng.integers(10**6)))
        plain = solve_sum(w, 2, 2).value
        boxed = solve_ns_dec(w, 2, 2, "sum").value
        assert abs(plain - boxed) <= 1e-7


def test_ns_dec_reports_encoder_witness():
    w = perfect_channel()
    report = solve_ns_dec(w, 2, 2, "joint")
    assert report.value == pytest.approx(1.0)
    enc = np.asarray(report.witness)
    assert enc.shape == (2, 2)
    assert len(set(enc.ravel().tolist())) == 4
    assert report.enumerated == 4**4


def test_ns_dec_exact_mode_matches_float():
    w = random_dyadic_channel(2, 2, 2, seed=3)
    exact = solve_ns_dec(w, 2, 2, "joint", exact=True)
    approx = solve_ns_dec(w, 2, 2, "joint")
    assert isinstance(exact.value, Fraction)
    assert abs(float(exact.value) - approx.value) <= 1e-9
    assert exact.witness == approx.witness
    assert exact.enumerated == approx.enumerated == 2**4


NS_DEC_KS = ((2, 2), (2, 3), (1, 3), (3, 1))


def orbit(encoder):
    """Every encoder reached by permuting the rows and the columns of encoder."""
    enc = np.asarray(encoder)
    return {tuple(map(tuple, enc[list(s)][:, list(t)].tolist()))
            for s in permutations(range(enc.shape[0]))
            for t in permutations(range(enc.shape[1]))}


@pytest.mark.parametrize("objective", ["joint", "sum"])
def test_ns_dec_exact_matches_all_encoders(objective):
    # One LP per encoder orbit gives the full loop's exact value and its
    # witness, the smallest optimal encoder over all labelled ones.
    cases = [(random_dyadic_channel(*shape, seed=seed, denominator=16), k)
             for shape, seed in (((2, 2, 2), 5), ((2, 2, 3), 6)) for k in NS_DEC_KS]
    cases.append((random_dyadic_channel(3, 2, 2, seed=5, denominator=16), (2, 2)))
    for w, (k1, k2) in cases:
        report = solve_ns_dec(w, k1, k2, objective, exact=True)
        value, witness = ns_dec_by_all_encoders(w, k1, k2, objective, exact=True)
        assert isinstance(report.value, Fraction)
        assert report.value == value
        assert report.witness == witness
        assert report.enumerated == w.input_size ** (k1 * k2)


@pytest.mark.parametrize("objective", ["joint", "sum"])
def test_ns_dec_float_orbit_representative(objective):
    rng = np.random.default_rng(97)
    for shape in ((3, 2, 2), (2, 3, 2), (3, 2, 3)):
        for k1, k2 in NS_DEC_KS:
            w = random_channel(*shape, seed=int(rng.integers(10**6)))
            report = solve_ns_dec(w, k1, k2, objective)
            value, _ = ns_dec_by_all_encoders(w, k1, k2, objective)
            assert abs(report.value - value) <= 1e-12
            assert report.witness == min(orbit(report.witness))
            own = lp_solve(build_decoder_box_lp(w, report.witness, k1, k2, objective))
            assert own.value == report.value


def ns_dec_channels(nx):
    """Random, dyadic, deterministic and duplicated-row channels with nx inputs,
    2 and 3 outputs; the duplicated input row makes encoders tie."""
    dyadic = random_dyadic_channel(nx - 1, 2, 3, seed=nx, denominator=8)
    return {
        "random": random_channel(nx, 2, 3, seed=nx),
        "dyadic": random_dyadic_channel(nx, 2, 3, seed=nx + 1, denominator=8),
        "deterministic": random_deterministic_channel(nx, 2, 3, seed=nx).to_table(),
        "duplicated": ChannelTable(nx, 2, 3, np.concatenate([dyadic.probs, dyadic.probs[:1]])),
    }


def orbit_count_cases():
    # Every grid shape, with few enough encoders for the orbit oracle.
    for k1, k2 in NS_DEC_KS:
        for name, w in ns_dec_channels(3 if k1 * k2 <= 4 else 2).items():
            yield name, w, k1, k2
    # Optimal encoders with different joint bounds: the solver meets a
    # larger one first, and in exact mode an optimal encoder's bound equals
    # the best value found.
    yield "halves", random_dyadic_channel(3, 3, 3, seed=1, denominator=2), 2, 2


@pytest.mark.parametrize("objective", ["joint", "sum"])
@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_ns_dec_pruned_matches_orbit_loop(objective, exact):
    # Skipping the encoders whose bound cannot reach the best value keeps
    # the value (bit for bit, and its type) and the witness of solving
    # every orbit representative in lexicographic order.
    for name, w, k1, k2 in orbit_count_cases():
        if exact and name == "random":
            continue   # the Fraction simplex on arbitrary doubles is slow
        report = solve_ns_dec(w, k1, k2, objective, exact=exact)
        value, witness = ns_dec_by_orbit_loop(w, k1, k2, objective, exact)
        assert type(report.value) is type(value), (name, k1, k2)
        assert report.value == value, (name, k1, k2)
        assert report.witness == witness, (name, k1, k2)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_ns_dec_bounds_hold_for_every_orbit(exact):
    # A bound never falls below its LP optimum and, for the sum objective,
    # is that optimum.  The package's bounds are those of the loop oracle.
    for name, w, k1, k2 in orbit_count_cases():
        if exact and name == "random":
            continue
        reps = orbit_minima(w.input_size, k1, k2)
        flat = np.array([sum(enc, ()) for enc in reps])
        probs = _to_fraction(w.probs) if exact else w.probs
        for objective in ("joint", "sum"):
            bounds = _decoder_box_bounds(probs, flat, k1, k2, objective)
            for enc, bound in zip(reps, bounds):
                value = decoder_box_value(w, enc, objective, exact)
                looped = decoder_box_bound(w, enc, objective, exact)
                if exact:
                    assert isinstance(bound, Fraction) and bound == looped
                    assert value <= bound
                    if objective == "sum":
                        assert value == bound
                else:
                    assert abs(bound - looped) <= 1e-12
                    assert value <= bound + 1e-12
                    if objective == "sum":
                        assert abs(value - bound) <= 1e-12


def counted_lp_solve(monkeypatch) -> list:
    calls = []

    def counting_lp_solve(model, exact=False):
        calls.append(exact)
        return lp_solve(model, exact=exact)

    monkeypatch.setattr("bcc.exact.lp_solve", counting_lp_solve)
    return calls


def test_ns_dec_solves_at_most_one_lp_per_encoder_orbit(monkeypatch):
    # encoder_orbits counts the orbits by Burnside's lemma, independently
    # of the solver's smallest-member filter.  The solver solves exactly the
    # LPs that the bound rule leaves, replayed here on the oracle's bounds.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    calls = counted_lp_solve(monkeypatch)
    for nx, k1, k2 in ((3, 2, 2), (2, 2, 3), (3, 1, 3), (2, 3, 2)):
        w = random_channel(nx, 2, 2, seed=nx * 10 + k1 * 3 + k2)
        reps = orbit_minima(nx, k1, k2)
        for objective in ("joint", "sum"):
            calls.clear()
            report = solve_ns_dec(w, k1, k2, objective)
            implied = pruned_lp_count([decoder_box_bound(w, e, objective) for e in reps],
                                      [decoder_box_value(w, e, objective) for e in reps],
                                      CHECK_TOL)
            assert len(calls) == implied
            assert len(calls) <= spans.encoder_orbits(nx, k1, k2) == len(reps)
            assert report.enumerated == nx ** (k1 * k2)
    assert spans.encoder_orbits(3, 2, 2) == 27
    for objective in ("joint", "sum"):
        calls.clear()
        solve_ns_dec(random_channel(3, 3, 3, seed=0), 2, 2, objective)
        assert 0 < len(calls) < 27
    with pytest.raises(EnumerationCapExceededError):
        solve_ns_dec(random_channel(3, 2, 2, seed=0), 2, 2, cap=80)


@pytest.mark.parametrize("objective", ["joint", "sum"])
def test_ns_dec_exact_mode_prunes_on_float_bounds(monkeypatch, objective):
    # Exact mode prunes as float mode does, on float bounds with margin
    # CHECK_TOL: its float lp_solve calls, one per solve_exact, are the LPs
    # the bound rule leaves on the oracle's float bounds and exact values.
    # The non-dyadic channels' float bounds and exact values round apart.
    calls = counted_lp_solve(monkeypatch)
    cases = [(w, 2, 2) for w in ns_dec_channels(3).values()]
    cases += [(random_channel(3, 3, 3, seed=0), 2, 2), (random_channel(2, 2, 3, seed=0), 2, 3),
              (random_dyadic_channel(3, 3, 3, seed=1), 2, 2)]
    for w, k1, k2 in cases:
        reps = orbit_minima(w.input_size, k1, k2)
        calls.clear()
        report = solve_ns_dec(w, k1, k2, objective, exact=True)
        values = [decoder_box_value(w, e, objective, exact=True) for e in reps]
        implied = pruned_lp_count([decoder_box_bound(w, e, objective) for e in reps],
                                  values, CHECK_TOL)
        assert calls.count(False) == implied
        assert report.value == max(values)


def test_negative_caps_are_bad_parameters():
    w = random_channel(2, 2, 2, seed=0)
    g = channel_graph(random_deterministic_channel(3, 2, 2, seed=0))
    inst = build_instance(2)
    capped = {
        "solve_joint": lambda cap: solve_joint(w, 2, 2, cap=cap),
        "solve_sum": lambda cap: solve_sum(w, 2, 2, cap=cap),
        "solve_dqg": lambda cap: solve_dqg(g, 2, 2, cap=cap),
        "solve_ns_dec": lambda cap: solve_ns_dec(w, 2, 2, cap=cap),
        "tensor_power": lambda cap: tensor_power(w, 2, cap=cap),
        "enumerate_partitions": lambda cap: next(enumerate_partitions(3, 2, cap=cap)),
        "materialize_channel": lambda cap: materialize_channel(inst, cap=cap),
        "optimal_welfare": lambda cap: optimal_welfare(inst, method="exhaustive", cap=cap),
        "build_ns_full": lambda cap: build_ns_full(w, 2, 2, cap=cap),
    }
    sized = {"tensor_power", "materialize_channel", "build_ns_full"}
    for name, run in capped.items():
        for cap in (-1, -5):
            with pytest.raises(BadParametersError, match="cap must be >= 0"):
                run(cap)
        # Zero stays a cap, one that every run exceeds.
        expected = SizeCapExceededError if name in sized else EnumerationCapExceededError
        with pytest.raises(expected):
            run(0)


def test_orbit_filter_keeps_the_smallest_of_each_orbit():
    for nx, k1, k2 in ((3, 2, 2), (2, 2, 3), (2, 3, 2), (2, 3, 3), (3, 1, 3)):
        expected = []
        for flat in product(range(nx), repeat=k1 * k2):
            grid = tuple(flat[i * k2:(i + 1) * k2] for i in range(k1))
            if grid == min(orbit(grid)):
                expected.append(flat)
        assert _orbit_representatives(nx, k1, k2).tolist() == [list(f) for f in expected]


@pytest.mark.parametrize("nx, k1, k2", [(3, 2, 2), (2, 2, 3), (2, 3, 2), (2, 3, 3), (3, 1, 3),
                                        (5, 2, 2), (4, 2, 3)])
def test_orbit_representatives_match_orbit_minima(nx, k1, k2):
    # The same rows, in the same order, in the smallest unsigned type for nx - 1.
    reps, expected = _orbit_representatives(nx, k1, k2), orbit_minima(nx, k1, k2)
    assert reps.dtype == np.uint8
    assert reps.shape == (len(expected), k1 * k2)
    assert [tuple(map(tuple, r.reshape(k1, k2).tolist())) for r in reps] == expected


def test_orbit_representatives_chunks_and_wide_inputs(monkeypatch):
    # Ranks split over many chunks give the rows of one chunk; 300 inputs
    # need a uint16 array.
    whole = _orbit_representatives(4, 2, 2)
    monkeypatch.setattr(bcc.exact, "_BOUND_CHUNK_CELLS", 4 * 7)
    assert np.array_equal(_orbit_representatives(4, 2, 2), whole)
    monkeypatch.undo()
    wide = _orbit_representatives(300, 1, 2)
    assert wide.dtype == np.uint16
    assert wide.tolist() == [[a, b] for a in range(300) for b in range(a, 300)]


@pytest.mark.parametrize("nx, k1, k2", [(1, 1, 12), (2, 1, 12), (2, 12, 1)])
def test_ns_dec_lopsided_grid(monkeypatch, nx, k1, k2):
    # With one side of the grid a single message, an orbit is a multiset of
    # k1 k2 inputs; the filter must not walk the 12! permutations of the
    # other side.  The representatives are the sorted input tuples, and the
    # solver solves the LPs the bound rule leaves of them.
    calls = counted_lp_solve(monkeypatch)
    w = random_channel(nx, 2, 2, seed=k1)
    report = solve_ns_dec(w, k1, k2, "joint")
    reps = [np.reshape(flat, (k1, k2))
            for flat in combinations_with_replacement(range(nx), k1 * k2)]
    implied = pruned_lp_count([decoder_box_bound(w, e) for e in reps],
                              [decoder_box_value(w, e) for e in reps], CHECK_TOL)
    assert len(calls) == implied
    assert len(calls) <= math.comb(nx + k1 * k2 - 1, k1 * k2)
    assert report.enumerated == nx ** (k1 * k2)
    flat = sum(report.witness, ())
    assert flat == tuple(sorted(flat))
    assert lp_solve(build_decoder_box_lp(w, report.witness, k1, k2, "joint")).value == report.value


@pytest.mark.parametrize("k1, k2", [(2, 3), (1, 3), (3, 1)])
def test_ns_dec_exact_value_is_rational_of_the_channel(k1, k2):
    # Entries in 16ths: the exact decoder-box optimum has a denominator
    # dividing 16 k1 k2 (joint) or 32 k1 k2 (sum), with no float rounding of
    # w / (k1 k2) left in it.  The sum optimum is the plain-code sum success.
    w = random_dyadic_channel(2, 2, 3, seed=6, denominator=16)
    joint = solve_ns_dec(w, k1, k2, "joint", exact=True).value
    total = solve_ns_dec(w, k1, k2, "sum", exact=True).value
    assert (joint * 16 * k1 * k2).denominator == 1
    assert (total * 32 * k1 * k2).denominator == 1
    assert abs(total - best_code_bruteforce(w, k1, k2, "sum")) <= 1e-12
