"""Channel file format and command-line interface tests."""

import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bcc.cli
import bcc.exact
import bcc.nsprograms
from bcc import (
    GE,
    LE,
    DeterministicChannel,
    InfeasibleError,
    InvariantViolationError,
    LpModel,
    UnboundedError,
    ParseError,
    ValidationError,
    channel_from_dict,
    channel_to_dict,
    dumps_canonical,
    load_channel,
    lp_solve,
    make_check,
    random_channel,
    random_dyadic_channel,
    random_deterministic_channel,
    save_channel,
    validate_channel,
)
from bcc.cli import main


def dense_doc():
    return {
        "format_version": 1,
        "kind": "dense",
        "num_inputs": 1,
        "num_outputs1": 2,
        "num_outputs2": 1,
        "rows": [[[0.25], [0.75]]],
    }


def write_channel(tmp_path, channel, name="channel.json"):
    path = tmp_path / name
    save_channel(channel, path)
    return path


def perfect_file(tmp_path):
    probs = np.zeros((4, 2, 2))
    for x in range(4):
        probs[x, x >> 1, x & 1] = 1.0
    return write_channel(tmp_path, validate_channel(probs))


def one_input_file(tmp_path):
    return write_channel(tmp_path, validate_channel(np.ones((1, 1, 1))))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_from(out):
    return json.loads(out)


def test_dense_round_trip_is_byte_identical(tmp_path):
    w = random_channel(3, 2, 4, seed=13)
    path = write_channel(tmp_path, w)
    first = path.read_bytes()
    loaded = load_channel(path)
    assert np.allclose(loaded.probs, w.probs)
    save_channel(loaded, path)
    assert path.read_bytes() == first

    # Alphabet labels are checked on load but not kept, so they are not saved.
    doc = dense_doc()
    doc["alphabets"] = {"x": ["a"], "y1": ["u", "v"], "y2": ["w"]}
    path.write_text(dumps_canonical(doc))
    save_channel(load_channel(path), path)
    del doc["alphabets"]
    assert path.read_text() == dumps_canonical(doc)


def test_deterministic_round_trip(tmp_path):
    dc = DeterministicChannel(3, 2, 2, ((0, 0), (1, 1), (0, 1)))
    path = write_channel(tmp_path, dc)
    doc = json.loads(path.read_text())
    assert doc["kind"] == "deterministic"
    assert doc["pairs"] == [[0, 0], [1, 1], [0, 1]]
    assert load_channel(path) == dc
    save_channel(load_channel(path), path)
    assert load_channel(path) == dc


def test_dumps_canonical_is_order_independent():
    doc = dense_doc()
    shuffled = dict(reversed(list(doc.items())))
    assert dumps_canonical(doc) == dumps_canonical(shuffled)
    assert dumps_canonical(doc).endswith("\n")


def test_from_dict_accepts_valid_doc():
    w = channel_from_dict(dense_doc())
    assert w.probs[0, 1, 0] == 0.75


def test_parse_errors():
    with pytest.raises(ParseError, match="top level"):
        channel_from_dict([1, 2])
    for key in ("format_version", "kind", "num_inputs", "rows"):
        doc = dense_doc()
        del doc[key]
        with pytest.raises(ParseError, match=key):
            channel_from_dict(doc)
    doc = dense_doc()
    doc["format_version"] = 2
    with pytest.raises(ParseError, match="format_version"):
        channel_from_dict(doc)
    doc = dense_doc()
    doc["kind"] = "sparse"
    with pytest.raises(ParseError, match="kind"):
        channel_from_dict(doc)
    doc = dense_doc()
    doc["num_inputs"] = True
    with pytest.raises(ParseError, match="bool"):
        channel_from_dict(doc)
    doc = dense_doc()
    doc["rows"] = [[[0.25], [True]]]
    with pytest.raises(ParseError, match="not a number"):
        channel_from_dict(doc)
    doc = dense_doc()   # sizes far beyond memory, rows checked before any allocation
    doc.update(num_outputs1=10**6, num_outputs2=10**6, rows=[[[1.0]]])
    with pytest.raises(ParseError, match="row at x=0"):
        channel_from_dict(doc)


def test_validation_errors_name_the_row():
    doc = dense_doc()
    doc["rows"] = [[[0.25], [0.70]]]
    with pytest.raises(ValidationError, match="x=0"):
        channel_from_dict(doc)
    doc = dense_doc()
    doc["rows"] = [[[-0.25], [1.25]]]
    with pytest.raises(ValidationError, match="x=0"):
        channel_from_dict(doc)
    doc = dense_doc()
    doc["num_inputs"] = 0
    with pytest.raises(ValidationError, match="positive"):
        channel_from_dict(doc)


def test_deterministic_doc_errors():
    doc = {"format_version": 1, "kind": "deterministic", "num_inputs": 2,
           "num_outputs1": 2, "num_outputs2": 2, "pairs": [[0, 0]]}
    with pytest.raises(ValidationError, match="expected 2 pairs"):
        channel_from_dict(doc)
    doc["pairs"] = [[0, 0], [0, 2]]
    with pytest.raises(ValidationError, match="x=1"):
        channel_from_dict(doc)
    doc["pairs"] = [[0, 0], [0, 0.5]]
    with pytest.raises(ParseError, match="x=1"):
        channel_from_dict(doc)
    doc["pairs"] = [[0, 0], [True, 1]]
    with pytest.raises(ParseError, match="x=1 must be two integers"):
        channel_from_dict(doc)
    doc["pairs"] = [[0, 0], [0, 1, 1]]
    with pytest.raises(ParseError, match="x=1 must be two integers"):
        channel_from_dict(doc)
    doc["num_inputs"], doc["pairs"] = 3, [[1, 1], [-1, 0], [0, 10**30]]
    with pytest.raises(ValidationError, match="pair at x=1 outside output alphabets"):
        channel_from_dict(doc)
    # Pairs are checked in order, type before range: the first bad x wins.
    doc["pairs"] = [[0, 1], [0, 5], [0, 0.5]]
    with pytest.raises(ValidationError, match="pair at x=1 outside output alphabets"):
        channel_from_dict(doc)
    doc["pairs"] = [[0, 1], [0, 0.5], [0, 5]]
    with pytest.raises(ParseError, match="pair at x=1 must be two integers"):
        channel_from_dict(doc)


@pytest.mark.parametrize("last, error, message", [
    ([1, 2], None, None),
    ([1, True], ParseError, "must be two integers"),
    ([1, 2, 3], ParseError, "must be two integers"),
    ("12", ParseError, "must be two integers"),
    (12, ParseError, "must be two integers"),
    ([3, 0], ValidationError, "outside output alphabets"),
    ([0, -10**30], ValidationError, "outside output alphabets"),
])
def test_a_long_deterministic_doc_names_its_last_pair(last, error, message):
    nx = 30_000
    pairs = [[x % 3, x % 5] for x in range(nx - 1)] + [last]
    doc = {"format_version": 1, "kind": "deterministic", "num_inputs": nx,
           "num_outputs1": 3, "num_outputs2": 5, "pairs": pairs}
    if error is None:
        assert channel_from_dict(doc).pairs.tolist() == pairs
    else:
        with pytest.raises(error, match=f"^pair at x={nx - 1} {message}$"):
            channel_from_dict(doc)


def test_alphabet_label_errors():
    doc = dense_doc()
    doc["alphabets"] = {"x": ["a"], "y1": ["u", "v"], "y2": ["w"]}
    channel_from_dict(doc)
    doc["alphabets"] = {"z": ["a"]}
    with pytest.raises(ParseError, match="unknown alphabet"):
        channel_from_dict(doc)
    doc["alphabets"] = {"y1": ["u"]}
    with pytest.raises(ValidationError, match="1 labels for 2"):
        channel_from_dict(doc)
    doc["alphabets"] = {"y1": ["u", "u"]}
    with pytest.raises(ValidationError, match="duplicate"):
        channel_from_dict(doc)
    doc["alphabets"] = {"y1": [1, 2]}
    with pytest.raises(ParseError, match="list of strings"):
        channel_from_dict(doc)


def test_to_dict_rejects_unknown_objects():
    with pytest.raises(ValidationError):
        channel_to_dict(np.zeros((2, 2, 2)))


def test_load_channel_prefixes_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError, match="broken.json"):
        load_channel(path)
    missing = tmp_path / "missing.json"
    with pytest.raises(ParseError, match="missing.json"):
        load_channel(missing)
    path.write_text(json.dumps({"format_version": 1}))
    with pytest.raises(ParseError, match="broken.json"):
        load_channel(path)


def test_check_margin_is_nonnegative_exactly_when_the_relation_holds():
    for relation, lhs, rhs, margin in (("<=", 1.0, 3.0, 2.0), ("<=", 3.0, 1.0, -2.0),
                                       (">=", 3.0, 1.0, 2.0), (">=", 1.0, 3.0, -2.0),
                                       ("=", 1.0, 3.0, -2.0), ("=", 3.0, 1.0, -2.0)):
        for tolerance in (1.5, 2.0, 2.5):
            check = make_check("c", "claim", "a", lhs, relation, "b", rhs, tolerance)
            assert check.margin == margin
            assert check.passed == (margin >= -tolerance)


def test_cli_solve_perfect_channel(tmp_path, capsys):
    path = perfect_file(tmp_path)
    code, out, err = run_cli(capsys, "solve", str(path), "--k1", "2", "--k2", "2")
    assert code == 0
    report = report_from(out)
    q = report["quantities"]
    for name in ("S", "S_sum", "S_ns", "S_ns_sum", "S_ns_dec"):
        assert q[name] == pytest.approx(1.0)
    assert all(c["passed"] for c in report["checks"])
    assert report["command"] == "solve"


def test_cli_solve_one_input_values(tmp_path, capsys):
    path = one_input_file(tmp_path)
    code, out, _ = run_cli(capsys, "solve", str(path), "--k1", "2", "--k2", "2")
    assert code == 0
    q = report_from(out)["quantities"]
    assert q["S"] == pytest.approx(0.25)
    assert q["S_sum"] == pytest.approx(0.5)
    assert q["S_ns"] == pytest.approx(0.25)
    assert q["S_ns_sum"] == pytest.approx(0.5)
    assert q["S_ns_dec"] == pytest.approx(0.25)
    assert q["S_ns_dec_sum"] == pytest.approx(0.5)
    assert q["dqg_value"] == 1
    assert q["ns_degree_bound"] == pytest.approx(0.25)


def test_cli_exact_mode_reports_rationals(tmp_path, capsys):
    path = one_input_file(tmp_path)
    code, out, _ = run_cli(capsys, "solve", str(path), "--k1", "2", "--k2", "2",
                           "--which", "ns", "ns-sum", "--exact")
    assert code == 0
    q = report_from(out)["quantities"]
    assert q["S_ns_exact"] == "1/4"
    assert q["S_ns_sum_exact"] == "1/2"


def test_cli_exact_decoder_box_verifies(tmp_path, capsys):
    path = write_channel(tmp_path, random_dyadic_channel(2, 2, 2, seed=3))
    code, out, _ = run_cli(capsys, "solve", str(path), "--k1", "2", "--k2", "2",
                           "--which", "ns-dec", "sum", "--exact", "--verify")
    assert code == 0
    report = report_from(out)
    q = report["quantities"]
    assert q["S_ns_dec"] == pytest.approx(73 / 256, abs=1e-12)
    assert q["S_ns_dec_exact"] == "73/256"
    assert float(Fraction(q["S_ns_dec_sum_exact"])) == q["S_ns_dec_sum"]
    assert all(c["passed"] for c in report["checks"])


def test_cli_solve_same_bytes_with_warm_and_cold_phase_one(tmp_path, capsys, monkeypatch):
    paths = [write_channel(tmp_path, random_channel(3, 3, 3, seed=s), f"c{s}.json")
             for s in (5, 6)]
    argv = ("--k1", "2", "--k2", "2", "--which", "all", "--verify")
    warm = [run_cli(capsys, "solve", str(path), *argv) for path in paths]
    unrelated = LpModel(1, [1.0], [[1.0]], (LE,), [1.0])
    for module in (bcc.exact, bcc.nsprograms):
        def cold(model, *args, _solve=module.lp_solve, **kwargs):
            _solve(unrelated)   # evicts the last phase 1 before every LP
            return _solve(model, *args, **kwargs)
        monkeypatch.setattr(module, "lp_solve", cold)
    cold_runs = [run_cli(capsys, "solve", str(path), *argv) for path in paths]
    assert warm == cold_runs
    assert [code for code, _, _ in warm] == [0, 0]


def test_cli_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _, err = run_cli(capsys, "solve", str(missing), "--k1", "2", "--k2", "2")
    assert code == 2
    assert "error:" in err

    path = perfect_file(tmp_path)
    code, _, err = run_cli(capsys, "solve", str(path), "--k1", "2", "--k2", "2",
                           "--which", "joint", "--enum-cap", "1")
    assert code == 3

    # One input over 10^6 x 10^6 outputs: a dense table of 8 TB.
    huge = write_channel(tmp_path, DeterministicChannel(1, 10**6, 10**6, [[0, 0]]),
                         "huge.json")
    code, out, err = run_cli(capsys, "solve", str(huge), "--k1", "2", "--k2", "2",
                             "--which", "joint")
    assert (code, out) == (3, "")
    assert err.startswith("error: required size") and err.count("\n") == 1

    # The table has only 16 000 entries, but the compact program's dense
    # matrix would have 50 041 x 17 640: refused before it is allocated.
    det = write_channel(tmp_path, random_deterministic_channel(40, 20, 20, seed=0),
                        "det40.json")
    code, out, err = run_cli(capsys, "solve", str(det), "--k1", "2", "--k2", "2",
                             "--which", "ns")
    assert (code, out) == (3, "")
    assert err.startswith("error: required size") and err.count("\n") == 1

    code, out, err = run_cli(capsys, "solve", str(path), "--k1", "2", "--k2", "2",
                             "--which", "joint", "sum", "--verify",
                             "--check-tol=-1")
    assert code == 4
    assert "check failed:" in err
    assert report_from(out)["checks"]

    # Without --verify the failed check is reported but the exit code stays 0.
    code, out, _ = run_cli(capsys, "solve", str(path), "--k1", "2", "--k2", "2",
                           "--which", "joint", "sum", "--check-tol=-1")
    assert code == 0
    assert not all(c["passed"] for c in report_from(out)["checks"])


def test_cli_rejects_message_counts_below_one(tmp_path, capsys):
    path = perfect_file(tmp_path)
    for k1, k2, which in (("0", "2", "joint"), ("0", "2", "sum"), ("-1", "2", "ns-dec")):
        code, out, err = run_cli(capsys, "solve", str(path), "--k1", k1, "--k2", k2,
                                 "--which", which)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_cli_rejects_non_finite_entries(tmp_path, capsys):
    for literal in ("NaN", "Infinity", "1" + "0" * 400):
        path = tmp_path / f"{literal[:8]}.json"
        path.write_text(dumps_canonical(dense_doc()).replace("0.25", literal))
        with pytest.raises(ValidationError, match="not finite"):
            load_channel(path)
        code, out, err = run_cli(capsys, "solve", str(path), "--k1", "2", "--k2", "1",
                                 "--which", "joint", "sum", "ns")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_cli_approx_rejects_negative_samples(tmp_path, capsys):
    dc = random_deterministic_channel(30, 8, 8, seed=0)
    path = write_channel(tmp_path, dc, "det.json")
    code, out, err = run_cli(capsys, "approx", str(path), "--k1", "3", "--k2", "3",
                             "--samples", "-5")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_cli_rejects_negative_seeds(tmp_path, capsys):
    path = write_channel(tmp_path, random_deterministic_channel(30, 8, 8, seed=0), "det.json")
    for argv in (("hardness", "--k1", "3", "--seed", "-1"),
                 ("approx", str(path), "--k1", "2", "--k2", "2", "--seed", "-1",
                  "--samples", "2")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_cli_rejects_negative_caps(tmp_path, capsys):
    path = write_channel(tmp_path, random_channel(2, 2, 2, seed=0))
    k = ("--k1", "2", "--k2", "2")
    for argv in (("solve", str(path), *k, "--enum-cap", "-5"),
                 ("tensor", str(path), *k, "--n", "2", "--entry-cap", "-1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        code, out, err = run_cli(capsys, *argv[:-1], "0")
        assert code == 3
        assert out == ""


def test_cli_rejects_non_finite_check_tol(tmp_path, capsys):
    path = perfect_file(tmp_path)
    for tol in ("nan", "inf", "-inf"):
        code, out, err = run_cli(capsys, "solve", str(path), "--k1", "2", "--k2", "2",
                                 "--which", "joint", "--verify", f"--check-tol={tol}")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_cli_approx_samples_only_on_request(tmp_path, capsys):
    path = write_channel(tmp_path, random_deterministic_channel(60, 20, 20, seed=4))
    reports = []
    for extra in ((), ("--samples", "8")):
        code, out, err = run_cli(capsys, "approx", str(path), "--k1", "3", "--k2", "3",
                                 "--verify", *extra)
        assert (code, err) == (0, "")
        reports.append(report_from(out))
    default, sampled = reports
    assert default["provenance"]["samples"] == 0
    assert sampled["provenance"]["samples"] == 8
    assert sampled["quantities"]["approx_value"] >= default["quantities"]["approx_value"]


def test_cli_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InvariantViolationError("optimal point violates a constraint")

    monkeypatch.setattr(bcc.cli, "solve_joint", broken)
    path = perfect_file(tmp_path)
    code, out, err = run_cli(capsys, "solve", str(path), "--k1", "2", "--k2", "2",
                             "--which", "joint")
    assert code == 5
    assert out == ""
    assert err == "internal error: optimal point violates a constraint\n"


def test_cli_pivot_limit_exit_code(tmp_path, capsys, monkeypatch):
    def capped(model, exact=False):
        return lp_solve(model, exact=exact, max_pivots=10)

    monkeypatch.setattr(bcc.nsprograms, "lp_solve", capped)
    path = write_channel(tmp_path, random_channel(3, 3, 3, seed=0))
    code, out, err = run_cli(capsys, "solve", str(path), "--k1", "2", "--k2", "2",
                             "--which", "ns")
    assert code == 3
    assert out == ""
    assert err == "error: simplex stopped after 11 pivots\n"


@pytest.mark.parametrize("broken, error", [
    (LpModel(1, [0.0], [[1.0], [1.0]], (GE, LE), [1.0, 0.0]), InfeasibleError),
    (LpModel(1, [1.0], [[-1.0]], (LE,), [0.0]), UnboundedError),
])
def test_cli_broken_program_is_internal_error(tmp_path, capsys, monkeypatch, broken, error):
    with pytest.raises(error) as raised:
        lp_solve(broken)
    monkeypatch.setattr(bcc.nsprograms, "lp_solve",
                        lambda model, exact=False: lp_solve(broken, exact=exact))
    path = write_channel(tmp_path, random_channel(3, 3, 3, seed=0))
    code, out, err = run_cli(capsys, "solve", str(path), "--k1", "2", "--k2", "2",
                             "--which", "ns")
    assert code == 5
    assert out == ""
    assert err == f"internal error: {raised.value}\n"


def test_cli_out_and_workdir(tmp_path, capsys, monkeypatch):
    path = one_input_file(tmp_path)
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "solve", str(path), "--k1", "2", "--k2", "2",
                           "--which", "joint", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert report_from(out_path.read_text())["quantities"]["S"] == pytest.approx(0.25)

    workdir = tmp_path / "runs"
    workdir.mkdir()
    monkeypatch.setenv("BCC_WORKDIR", str(workdir))
    code, _, _ = run_cli(capsys, "solve", str(path), "--k1", "2", "--k2", "2",
                         "--which", "joint", "--out", "nested.json")
    assert code == 0
    assert (workdir / "nested.json").exists()


def fails_before_any_work(tmp_path, capsys, monkeypatch, command, bad):
    """Run command with {bad} as an output path: exit 2 with one error line
    naming it, before the channel is loaded or anything is solved, and no
    file made."""
    channel = one_input_file(tmp_path)
    calls = []
    for name in ("load_channel", "solve_quantities", "build_instance"):
        monkeypatch.setattr(bcc.cli, name, lambda *a, **k: calls.append(a))
    bad = bad(channel)
    argv = [arg.format(channel=channel, bad=bad) for arg in command]
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: ") and str(bad) in err and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", [
    ("solve", "{channel}", "--k1", "2", "--k2", "2", "--which", "joint", "--out", "{bad}"),
    ("solve", "{channel}", "--k1", "2", "--k2", "2", "--which", "ns", "--lp-export", "{bad}"),
    ("hardness", "--k1", "2", "--budget", "2", "--log", "{bad}"),
])
def test_cli_unwritable_output_path_is_bad_input(tmp_path, capsys, monkeypatch, command):
    fails_before_any_work(tmp_path, capsys, monkeypatch, command,
                          lambda channel: tmp_path / "no" / "such" / "dir" / "r.json")


@pytest.mark.parametrize("command", [
    ("tensor", "{channel}", "--n", "2", "--k1", "2", "--k2", "2", "--out", "{bad}"),
    ("approx", "{channel}", "--k1", "2", "--k2", "2", "--out", "{bad}"),
    ("solve", "{channel}", "--k1", "2", "--k2", "2", "--which", "ns", "--lp-export", "{bad}"),
])
@pytest.mark.parametrize("bad", [lambda channel: channel / "r.json",   # parent is a file
                                 lambda channel: channel.parent],      # a directory
                         ids=["file-as-dir", "a-dir"])
def test_cli_output_path_not_a_writable_file_is_bad_input(tmp_path, capsys, monkeypatch,
                                                          command, bad):
    fails_before_any_work(tmp_path, capsys, monkeypatch, command, bad)


def test_cli_checks_output_paths_without_touching_them(tmp_path, capsys):
    channel = one_input_file(tmp_path)
    existing = tmp_path / "report.json"
    existing.write_text("keep")
    code, _, err = run_cli(capsys, "solve", str(channel), "--k1", "2", "--k2", "2",
                           "--which", "joint", "--out", str(existing),
                           "--lp-export", str(tmp_path / "missing" / "p.lp"))
    assert code == 2 and "missing" in err
    assert existing.read_text() == "keep"


def test_cli_reports_are_deterministic(tmp_path, capsys):
    path = perfect_file(tmp_path)
    argv = ("solve", str(path), "--k1", "2", "--k2", "2")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_cli_tensor_matches_solve(tmp_path, capsys):
    w = random_channel(2, 2, 2, seed=21)
    path = write_channel(tmp_path, w)
    _, solve_out, _ = run_cli(capsys, "solve", str(path), "--k1", "2", "--k2", "2",
                              "--which", "joint", "sum")
    _, tensor_out, _ = run_cli(capsys, "tensor", str(path), "--n", "1",
                               "--k1", "2", "--k2", "2", "--which", "joint", "sum")
    solve_q = report_from(solve_out)["quantities"]
    tensor_q = report_from(tensor_out)["quantities"]
    assert tensor_q["S"] == pytest.approx(solve_q["S"])
    assert tensor_q["S_sum"] == pytest.approx(solve_q["S_sum"])

    code, _, _ = run_cli(capsys, "tensor", str(path), "--n", "9",
                         "--k1", "2", "--k2", "2", "--entry-cap", "1000")
    assert code == 3


def test_cli_lp_export(tmp_path, capsys):
    path = one_input_file(tmp_path)
    lp_path = tmp_path / "program.lp"
    code, _, _ = run_cli(capsys, "solve", str(path), "--k1", "2", "--k2", "2",
                         "--which", "ns", "--lp-export", str(lp_path))
    assert code == 0
    text = lp_path.read_text()
    assert text.startswith("Maximize")
    assert "r_x0_a0_b0" in text
    assert text.rstrip().endswith("End")


def test_cli_approx_requires_deterministic(tmp_path, capsys):
    noisy = write_channel(tmp_path, random_channel(3, 2, 2, seed=2), "noisy.json")
    code, _, err = run_cli(capsys, "approx", str(noisy), "--k1", "2", "--k2", "2")
    assert code == 2
    assert "deterministic" in err

    path = perfect_file(tmp_path)
    code, out, _ = run_cli(capsys, "approx", str(path), "--k1", "2", "--k2", "2")
    assert code == 0
    report = report_from(out)
    assert report["quantities"]["approx_value"] <= report["quantities"]["upper_bound"]
    assert all(c["passed"] for c in report["checks"])
    assert report["quantities"]["S_approx"] == pytest.approx(
        report["quantities"]["approx_value"] / 4)


def test_cli_approx_same_report_from_dense_and_deterministic_files(
        tmp_path, capsys, monkeypatch):
    dc = random_deterministic_channel(40, 6, 7, seed=5)
    paths = (write_channel(tmp_path, dc, "det.json"),
             write_channel(tmp_path, dc.to_table(), "dense.json"))

    def no_dense_table(self):
        raise AssertionError("bcc approx built a dense table")

    monkeypatch.setattr(DeterministicChannel, "to_table", no_dense_table)
    reports = []
    for path in paths:
        code, out, err = run_cli(capsys, "approx", str(path), "--k1", "3", "--k2", "4",
                                 "--seed", "2", "--verify")
        assert (code, err) == (0, "")
        reports.append(report_from(out))
        del reports[-1]["inputs"]["channel"]
    assert reports[0] == reports[1]


def test_cli_approx_memory_stays_below_dense_table(tmp_path, capsys):
    # The dense table of this channel alone would be 200^3 doubles, 64 MB.
    path = write_channel(tmp_path, random_deterministic_channel(200, 200, 200, seed=3))
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, "approx", str(path), "--k1", "8", "--k2", "8",
                               "--verify")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert peak < 16 * 2**20


def test_cli_hardness_with_log(tmp_path, capsys):
    log_path = tmp_path / "queries.jsonl"
    code, out, _ = run_cli(capsys, "hardness", "--k1", "3", "--strategy",
                           "singleton", "--budget", "5", "--log", str(log_path))
    assert code == 0
    report = report_from(out)
    assert report["quantities"]["planted_welfare"] == pytest.approx(9.0)
    assert report["quantities"]["distinguished_at"] is None
    assert len(report["witnesses"]["blocks"]) == 3
    names = [c["name"] for c in report["checks"]]
    assert "planted_welfare_closed_form" in names
    assert "planted_rows_normalized" in names
    assert "flat_rows_normalized" in names
    lines = log_path.read_text().splitlines()
    assert len(lines) == 5
    for index, line in enumerate(lines):
        entry = json.loads(line)
        assert entry["index"] == index
        assert entry["subset"] == [index % 9]
        assert entry["distinguished"] is False


def test_cli_hardness_strategies(capsys):
    for strategy in ("random", "bisect"):
        code, out, _ = run_cli(capsys, "hardness", "--k1", "2", "--strategy",
                               strategy, "--budget", "4")
        assert code == 0
        report = report_from(out)
        # delta defaults to 1/4, where the oracles provably coincide.
        assert report["quantities"]["distinguished_at"] is None
        assert report["quantities"]["queries_used"] == 4


def test_cli_help_via_subprocess():
    # Run the package this suite imported, whether or not it is installed.
    src = str(Path(bcc.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "bcc", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "solve" in proc.stdout
    assert "hardness" in proc.stdout
