"""Command-line surface tying the solvers together.

Subcommands: solve (exact and assisted optima on a channel file), approx
(certified approximation for deterministic channels), hardness (planted
value-query experiments), tensor (solve a tensor power).  Every command
emits one canonical JSON report; with --verify a failed inequality check
turns into exit code 4.

Exit codes: 0 success, 2 bad input or an unwritable output path (checked
before any work), 3 size, enumeration or pivot cap exceeded, 4 failed
checks under --verify, 5 internal error (a solver broke one of its own
invariants; one "internal error:" line goes to stderr).  The toolkit only
builds feasible, bounded programs, so an infeasible or unbounded one is an
internal error too.  Relative --out, --log and --lp-export paths land in
$BCC_WORKDIR when it is set.

A command imports only the solvers it runs: the names taken from exact,
approx, hardness, nsprograms and simplex are stand-ins (bcc._deferred) that
import their module on the first call.  So `bcc solve --which ns` never
loads the enumeration, approximation or hardness code, and `bcc solve
--which joint sum`, `bcc approx` and `bcc hardness` never load the linear
programs or the simplex.  The defaults the parser shows for those modules
live in graphs.  The program entry, bcc.__main__.run, freezes the garbage
collector and then calls main; main itself does not.

Importing this module loads numpy with one OpenBLAS thread, unless numpy is
already loaded or the caller set OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS, whose count then holds.  os.environ is as it was once the
import returns, but the count lasts for the process: a program that imports
this module before numpy runs all its own numpy work on one BLAS thread.
The library modules leave numpy's default alone.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from pathlib import Path

# OpenBLAS reads its thread count once, when numpy loads it.  No command
# gains from a BLAS worker thread, and starting one costs every process
# about 70 ms of CPU.  This is process policy, like gc.freeze in
# __main__.run, yet it sits here: perfbench times set-up as a fresh
# `import bcc.cli` and runs its CLI instances through cli.main in process,
# so only here does the benchmark see what `bcc` itself runs.
if "numpy" not in sys.modules and not {
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import _deferred
from .channels import (
    DEFAULT_ENTRY_CAP,
    DeterministicChannel,
    NORMALIZATION_TOL,
    channel_graph,
    tensor_power,
    to_deterministic,
)
from .errors import (
    BadParametersError,
    EnumerationCapExceededError,
    InfeasibleError,
    InvariantViolationError,
    IterationLimitError,
    NotDeterministicError,
    SizeCapExceededError,
    ToolkitError,
    UnboundedError,
    ValidationError,
)
from .files import load_channel
from .graphs import DEFAULT_DELTA, DEFAULT_ENUM_CAP, DEFAULT_NUM_SAMPLES
from .reporting import DEFAULT_CHECK_TOL, Report

# Each command calls some of these, so a run imports only its own solvers.
# Tests and tracers replace these names here, where the commands look them up.
approximate_dqg = _deferred("approx", "approximate_dqg")
degree_upper_bound = _deferred("approx", "degree_upper_bound")
code_from_partitions = _deferred("exact", "code_from_partitions")
joint_success = _deferred("exact", "joint_success")
solve_dqg = _deferred("exact", "solve_dqg")
solve_joint = _deferred("exact", "solve_joint")
solve_ns_dec = _deferred("exact", "solve_ns_dec")
solve_sum = _deferred("exact", "solve_sum")
AdaptiveBisection = _deferred("hardness", "AdaptiveBisection")
RandomSubsets = _deferred("hardness", "RandomSubsets")
SingletonSweep = _deferred("hardness", "SingletonSweep")
build_instance = _deferred("hardness", "build_instance")
leak_probability = _deferred("hardness", "leak_probability")
materialize_channel = _deferred("hardness", "materialize_channel")
optimal_welfare = _deferred("hardness", "optimal_welfare")
run_query_experiment = _deferred("hardness", "run_query_experiment")
welfare_gap = _deferred("hardness", "welfare_gap")
build_ns_joint = _deferred("nsprograms", "build_ns_joint")
build_ns_sum = _deferred("nsprograms", "build_ns_sum")
solve_ns = _deferred("nsprograms", "solve_ns")
lp_write_text = _deferred("simplex", "lp_write_text")

EXIT_OK, EXIT_INVALID, EXIT_CAP, EXIT_CHECK_FAILED, EXIT_INTERNAL = 0, 2, 3, 4, 5
WORKDIR_ENV = "BCC_WORKDIR"
ALL_QUANTITIES = ("joint", "sum", "ns", "ns-sum", "ns-dec")


def _resolve(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    workdir = os.environ.get(WORKDIR_ENV)
    if workdir and not p.is_absolute():
        p = Path(workdir) / p
    return p


def _check_writable(path: str) -> None:
    """Raise the OSError that opening path for writing would raise, without
    creating or truncating it: a missing or non-directory parent, a path
    that is a directory, or no write permission."""
    p = _resolve(path)
    if p.is_dir():
        code = errno.EISDIR
    elif not p.parent.exists():
        code = errno.ENOENT
    elif not p.parent.is_dir():
        code = errno.ENOTDIR
    elif not os.access(p if p.exists() else p.parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), str(p))


def _as_table(channel):
    """Dense table plus the deterministic view when one exists."""
    if isinstance(channel, DeterministicChannel):
        return channel.to_table(), channel
    try:
        return channel, to_deterministic(channel)
    except NotDeterministicError:
        return channel, None


def _expand_which(which) -> tuple[str, ...]:
    wanted = []
    for w in which:
        for name in ALL_QUANTITIES if w == "all" else (w,):
            if name not in wanted:
                wanted.append(name)
    return tuple(wanted)


def _code_witness(code) -> dict:
    return {"encoder": code.encoder, "decoder1": code.decoder1,
            "decoder2": code.decoder2}


def solve_quantities(report: Report, table, det, k1: int, k2: int, wanted, *,
                     exact: bool = False, cap: int = DEFAULT_ENUM_CAP,
                     tol: float = DEFAULT_CHECK_TOL, compact: dict | None = None,
                     base=None, n: int = 1) -> None:
    """Compute the requested optima into report and add every check the run admits.

    wanted names quantities as in ALL_QUANTITIES; det is the deterministic view
    of table, or None.  When base is given, table is its n-th tensor power,
    and the assisted programs (ns, ns-sum) are solved over base's joint
    types.  compact maps an objective ("joint" or "sum") to its compact
    program, already built, for solve_ns to solve instead of a new build.
    The solvers run in a fixed order (joint, sum, ns, ns-sum, ns-dec), which
    decides what the simplex's phase-1 reuse can share.
    """
    compact = compact or {}
    if base is None:
        base = table
    q = report.quantities

    def store(name, value):
        q[name] = float(value)
        if exact:
            q[f"{name}_exact"] = str(value)

    if "joint" in wanted:
        rep = solve_joint(table, k1, k2, cap=cap)
        q["S"] = rep.value
        report.witnesses["joint_code"] = _code_witness(rep.witness)
    if "sum" in wanted:
        rep = solve_sum(table, k1, k2, cap=cap)
        q["S_sum"] = rep.value
        report.witnesses["sum_code"] = _code_witness(rep.witness)
    if "ns" in wanted:
        store("S_ns", solve_ns(base, k1, k2, "joint", exact=exact,
                               model=compact.get("joint"), n=n).value)
    if "ns-sum" in wanted:
        store("S_ns_sum", solve_ns(base, k1, k2, "sum", exact=exact,
                                   model=compact.get("sum"), n=n).value)
    if "ns-dec" in wanted:
        rep = solve_ns_dec(table, k1, k2, "joint", cap=cap, exact=exact)
        store("S_ns_dec", rep.value)
        report.witnesses["ns_dec_encoder"] = rep.witness
        if "sum" in wanted:
            store("S_ns_dec_sum",
                  solve_ns_dec(table, k1, k2, "sum", cap=cap, exact=exact).value)

    def have(*names):
        return all(name in q for name in names)

    if have("S", "S_sum"):
        report.add_check("joint_le_sum", "joint success never exceeds sum success",
                         "S", q["S"], "<=", "S_sum", q["S_sum"], tol)
        report.add_check("error_sandwich", "joint error at most twice sum error",
                         "2 S_sum - 1", 2 * q["S_sum"] - 1, "<=", "S", q["S"], tol)
    if have("S", "S_ns_dec"):
        report.add_check("decoder_box_helps", "a shared decoder box never hurts",
                         "S", q["S"], "<=", "S_ns_dec", q["S_ns_dec"], tol)
    if have("S_ns_dec", "S_ns"):
        report.add_check("full_assistance_helps", "sender-side assistance never hurts",
                         "S_ns_dec", q["S_ns_dec"], "<=", "S_ns", q["S_ns"], tol)
    if have("S_sum", "S_ns_dec_sum"):
        report.add_check("decoder_box_sum_idle",
                         "a decoder box adds nothing to the sum objective",
                         "S_ns_dec_sum", q["S_ns_dec_sum"], "=", "S_sum", q["S_sum"], tol)
    if have("S_ns", "S_ns_sum"):
        report.add_check("ns_sandwich_lower",
                         "assisted sum lower-bounds assisted joint",
                         "2 S_ns_sum - 1", 2 * q["S_ns_sum"] - 1, "<=",
                         "S_ns", q["S_ns"], tol)
        report.add_check("ns_sandwich_upper",
                         "assisted joint never exceeds assisted sum",
                         "S_ns", q["S_ns"], "<=", "S_ns_sum", q["S_ns_sum"], tol)
    if have("S_sum", "S_ns_sum"):
        report.add_check("ns_sum_helps", "assistance never hurts the sum objective",
                         "S_sum", q["S_sum"], "<=", "S_ns_sum", q["S_ns_sum"], tol)

    if det is not None:
        graph = channel_graph(det)
        if "joint" in wanted:
            dqg = solve_dqg(graph, k1, k2, cap=cap)
            q["dqg_value"] = dqg.value
            report.witnesses["dqg_partitions"] = [
                dqg.witness[0].assignment, dqg.witness[1].assignment]
            report.add_check("dqg_equivalence",
                             "scaled joint optimum equals densest quotient value",
                             "k1 k2 S", k1 * k2 * q["S"], "=",
                             "dqg_value", q["dqg_value"], max(tol, tol * k1 * k2))
        if "ns" in wanted:
            q["ns_degree_bound"] = degree_upper_bound(graph, k1, k2) / (k1 * k2)
            report.add_check("ns_degree_bound",
                             "assisted joint respects the degree bound",
                             "S_ns", q["S_ns"], "<=",
                             "ns_degree_bound", q["ns_degree_bound"], tol)


def _provenance(args, **extra) -> dict:
    prov = {"solver": "dense-tableau-simplex", "check_tol": args.check_tol,
            "normalization_tol": NORMALIZATION_TOL}
    prov.update(extra)
    return prov


def cmd_solve(args) -> Report:
    """bcc solve, and bcc tensor, which solves the n-th tensor power instead."""
    table, det = _as_table(load_channel(args.channel))
    wanted = _expand_which(args.which)
    inputs = {"channel": str(args.channel), "k1": args.k1, "k2": args.k2,
              "which": list(wanted), "exact": bool(args.exact)}
    provenance = _provenance(args, enum_cap=args.enum_cap)
    base, n = table, 1
    if args.command == "tensor":
        # The dense power serves joint, sum, ns-dec and the entry cap; the
        # assisted programs are solved over the base channel's joint types.
        n = args.n
        table, det = _as_table(tensor_power(base, n, cap=args.entry_cap))
        inputs["n"] = n
        provenance["entry_cap"] = args.entry_cap
    report = Report(args.command, inputs=inputs, provenance=provenance)
    # The exported program is the one solve_ns solves, built once for both.
    compact = {}
    if args.lp_export:
        export = "sum" if wanted == ("ns-sum",) else "joint"
        build = build_ns_sum if export == "sum" else build_ns_joint
        compact[export] = build(base, args.k1, args.k2, n)
    solve_quantities(report, table, det, args.k1, args.k2, wanted, exact=args.exact,
                     cap=args.enum_cap, tol=args.check_tol, compact=compact, base=base, n=n)
    if args.lp_export:
        with open(_resolve(args.lp_export), "w") as fp:
            lp_write_text(compact[export], fp)
    return report


def cmd_approx(args) -> Report:
    det = load_channel(args.channel)
    if not isinstance(det, DeterministicChannel):
        try:
            det = to_deterministic(det)
        except NotDeterministicError:
            raise ValidationError("approximation requires a deterministic channel")
    graph = channel_graph(det)
    res = approximate_dqg(graph, args.k1, args.k2, seed=args.seed,
                          num_samples=args.samples)
    code = code_from_partitions(det, res.p1, res.p2)
    success = joint_success(det, code)
    report = Report(
        "approx",
        inputs={"channel": str(args.channel), "k1": args.k1, "k2": args.k2},
        quantities={"approx_value": res.value,
                    "upper_bound": res.upper_bound,
                    "ratio_certificate": res.ratio_certificate,
                    "S_approx": success},
        witnesses={"p1": res.p1.assignment, "p2": res.p2.assignment,
                   "code": _code_witness(code)},
        provenance=_provenance(args, seed=args.seed, samples=res.samples_used))
    report.add_check("value_within_bound",
                     "approximate value stays within its certified upper bound",
                     "approx_value", res.value, "<=",
                     "upper_bound", res.upper_bound, args.check_tol)
    report.add_check("code_matches_partitions",
                     "derived code succeeds exactly as often as the partition pair",
                     "k1 k2 S_approx", args.k1 * args.k2 * success, "=",
                     "approx_value", res.value, args.check_tol)
    return report


def _make_strategy(args, m: int):
    if args.strategy == "singleton":
        return SingletonSweep(m)
    if args.strategy == "random":
        size = args.size if args.size is not None else max(1, int(math.isqrt(m)))
        return RandomSubsets(m, size, seed=args.seed + 1)
    return AdaptiveBisection(m, seed=args.seed + 1)


def cmd_hardness(args) -> Report:
    inst = build_instance(args.k1, args.delta, args.seed)
    strategy = _make_strategy(args, inst.m)
    log = run_query_experiment(inst, strategy, args.budget)
    planted = optimal_welfare(inst, "planted")
    flat = optimal_welfare(inst, "flat")
    report = Report(
        "hardness",
        inputs={"k1": args.k1, "delta": args.delta, "strategy": args.strategy,
                "budget": args.budget},
        quantities={"m": inst.m, "num_inputs": inst.num_inputs,
                    "planted_welfare": planted, "flat_welfare": flat,
                    "welfare_gap": welfare_gap(inst),
                    "leak_probability": leak_probability(inst),
                    "queries_used": log.num_queries,
                    "distinguished_at": log.distinguished_at},
        witnesses={"blocks": inst.blocks},
        provenance=_provenance(args, seed=args.seed))
    report.add_check("planted_welfare_closed_form",
                     "planted optimum equals the number of items",
                     "planted_welfare", planted, "=", "m", inst.m, args.check_tol)
    if inst.num_inputs**2 * inst.m <= 10**6:
        for which in ("planted", "flat"):
            table = materialize_channel(inst, which)
            worst = float(abs(table.probs.sum(axis=(1, 2)) - 1.0).max())
            report.add_check(f"{which}_rows_normalized",
                             "materialized rows sum to one under the closed-form constant",
                             "max row-sum deviation", worst, "<=",
                             "normalization_tol", NORMALIZATION_TOL, 0.0)
    if args.log:
        with open(_resolve(args.log), "w") as fp:
            for index, (subset, value) in enumerate(log.queries):
                fp.write(json.dumps(
                    {"index": index, "subset": sorted(subset), "value": value,
                     "distinguished": log.distinguished_at == index},
                    sort_keys=True) + "\n")
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcc",
        description="Two-receiver broadcast coding: exact solvers, "
                    "non-signaling linear programs, certified approximation, "
                    "and planted value-query experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report here instead of stdout")
    common.add_argument("--check-tol", type=float, default=DEFAULT_CHECK_TOL,
                        help="tolerance for inequality checks")
    common.add_argument("--verify", action="store_true",
                        help="exit with code 4 when any check fails")

    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("channel", help="channel JSON file")
    solver.add_argument("--k1", type=int, required=True)
    solver.add_argument("--k2", type=int, required=True)
    solver.add_argument("--which", nargs="+", default=["all"],
                        choices=ALL_QUANTITIES + ("all",))
    solver.add_argument("--exact", action="store_true",
                        help="solve linear programs in rational arithmetic")
    solver.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP,
                        help="abort enumeration beyond this many candidates")
    solver.add_argument("--lp-export",
                        help="also write the assisted program in LP text format "
                             "(for tensor, the program over joint types)")

    p = sub.add_parser("solve", parents=[common, solver],
                       help="exact and assisted optima of a channel")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("tensor", parents=[common, solver],
                       help="optima of the n-fold tensor power")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--entry-cap", type=int, default=DEFAULT_ENTRY_CAP,
                   help="abort tensor powers beyond this many entries")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("approx", parents=[common],
                       help="certified approximation for deterministic channels")
    p.add_argument("channel")
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=DEFAULT_NUM_SAMPLES,
                   help="uniform random left partitions scored against the "
                        "derandomized one (default: %(default)s)")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("hardness", parents=[common],
                       help="planted value-query experiment")
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strategy", choices=("singleton", "random", "bisect"),
                   default="random")
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--size", type=int, default=None,
                   help="subset size for the random strategy (default sqrt(m))")
    p.add_argument("--log", help="write one JSON line per query here")
    p.set_defaults(func=cmd_hardness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not math.isfinite(args.check_tol):
            raise BadParametersError("--check-tol must be finite")
        for path in (args.out, getattr(args, "lp_export", None), getattr(args, "log", None)):
            if path:
                _check_writable(path)   # before any work, so a bad path costs nothing
        report = args.func(args)
        text = report.to_json()
        if args.out:
            _resolve(args.out).write_text(text)
    except (SizeCapExceededError, EnumerationCapExceededError, IterationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InvariantViolationError, InfeasibleError, UnboundedError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ToolkitError, OSError) as exc:   # OSError: --out, --log or --lp-export
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if not args.out:
        sys.stdout.write(text)
    if args.verify and not report.all_passed:
        for check in report.failed_checks:
            print(f"check failed: {check.name}: {check.lhs_name} = "
                  f"{check.lhs_value!r} {check.relation} {check.rhs_name} = "
                  f"{check.rhs_value!r} (slack {check.slack!r}): {check.claim}",
                  file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
