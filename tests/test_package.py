"""The package surface and the program entry.

`import bcc` loads no submodule, a `bcc` process loads only the solvers its
command runs, the public names are those of the eager package before it,
and `python -m bcc` behaves as cli.main, with the collector frozen and
numpy loaded with one BLAS thread unless the caller chose a count.  The
entry ends the process without the interpreter's teardown, and its exit
codes, output and files stay those of an ordinary exit.  Records with array
fields compare and hash by identity.
"""

import dataclasses
import gc
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import fcntl
except ImportError:   # not on Windows
    fcntl = None

import bcc
import bcc.cli
from bcc import (ChannelTable, LpModel, LpSolution, MarginalTable, NsSolution,
                 build_ns_joint, extract_ns_solution, lp_solve, marginals, random_channel,
                 random_deterministic_channel, random_dyadic_channel, save_channel)

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(bcc.__file__).parents[1])   # the package this suite imported

SUBMODULES = ["approx", "channels", "errors", "exact", "files", "generators", "graphs",
              "hardness", "nsprograms", "reporting", "simplex"]

EXPORTED = [
    "AdaptiveBisection", "ApproxResult", "BadParametersError", "BipartiteGraph",
    "ChannelTable", "Check", "Code", "DEFAULT_CHECK_TOL", "DeterministicChannel",
    "DimensionMismatchError", "EQ", "EnumerationCapExceededError", "GE",
    "HardnessInstance", "InfeasibleError", "InvariantViolationError",
    "IterationLimitError", "LE", "LpModel", "LpSolution", "MarginalTable",
    "NegativeProbabilityError", "NotDeterministicError", "NsSolution", "ParseError",
    "Partition", "QueryLog", "RandomSubsets", "Report", "RowNotNormalizedError",
    "SideMismatchError", "SingletonSweep", "SizeCapExceededError", "SolveReport",
    "ToolkitError", "UnboundedError", "ValidationError", "approx", "approximate_dqg",
    "build_decoder_box_lp", "build_instance", "build_ns_full", "build_ns_joint",
    "build_ns_sum", "certify", "channel_from_dict", "channel_graph", "channel_to_dict",
    "channels", "chernoff_bound", "code_from_partitions", "constraint_violation",
    "degree_upper_bound", "derandomize_left", "distinct_left_neighbors",
    "dumps_canonical", "enumerate_partitions", "errors", "exact",
    "exact_expected_edges", "expected_min_poisson", "extract_ns_solution", "files",
    "generators", "graphs", "greedy_welfare", "hardness", "joint_success", "jsonify",
    "leak_probability", "left_degree_bound", "load_channel", "lp_solve",
    "lp_write_text", "make_check", "make_graph", "marginals", "materialize_channel",
    "nsprograms", "optimal_welfare", "poisson_concavity_ratio", "quotient_edge_count",
    "random_bipartite_graph", "random_channel", "random_code",
    "random_deterministic_channel", "random_dyadic_channel", "random_equipartition",
    "random_feasible_lp", "random_left_partition", "reconstruct_full_box", "reporting",
    "run_query_experiment", "save_channel", "simplex", "singleton_partition",
    "solve_dqg", "solve_exact", "solve_joint", "solve_ns", "solve_ns_dec", "solve_sum",
    "sum_success", "tensor_power", "to_deterministic", "validate_channel",
    "value_oracle", "welfare_gap",
]
"""bcc.__all__ of the package when it imported every submodule up front."""


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def child_env(**env) -> dict:
    """The caller's variables without its BLAS thread settings, and without
    PYTHONUNBUFFERED, so that the report waits in stdout's buffer until the
    entry flushes it; then the given variables."""
    drop = {*BLAS_THREAD_VARS, "PYTHONUNBUFFERED"}
    return {**{k: v for k, v in os.environ.items() if k not in drop},
            "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
            **env}


def python(*args, **env):
    """A fresh interpreter on this suite's bcc, run with child_env(**env)."""
    return subprocess.run([sys.executable, *args], capture_output=True, env=child_env(**env),
                          timeout=120)


@pytest.fixture
def channel(tmp_path):
    path = tmp_path / "channel.json"
    save_channel(random_dyadic_channel(2, 2, 2, seed=0), path)
    return path


@pytest.fixture
def det_channel(tmp_path):
    path = tmp_path / "det_channel.json"
    save_channel(random_deterministic_channel(6, 3, 3, seed=0), path)
    return path


def test_all_is_the_pinned_list():
    assert bcc.__all__ == EXPORTED
    assert set(EXPORTED) <= set(dir(bcc))


CONSTANTS = {"DEFAULT_CHECK_TOL": "reporting", "EQ": "simplex", "GE": "simplex",
             "LE": "simplex"}
"""The defining module of each exported name that has no __module__."""


def test_every_name_is_its_modules_own_object():
    for name in EXPORTED:
        value = getattr(bcc, name)
        if name in SUBMODULES:
            assert value is importlib.import_module(f"bcc.{name}")
            continue
        module = f"bcc.{CONSTANTS[name]}" if name in CONSTANTS else value.__module__
        assert module.startswith("bcc.") and module != "bcc.cli", name
        assert getattr(importlib.import_module(module), name) is value, name


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from bcc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTED)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bcc.no_such_name


def test_plain_import_loads_no_submodule_and_resolves_each_on_use():
    code = ("import sys, bcc; "
            "before = sorted(m for m in sys.modules if m.startswith('bcc.')); "
            "names = [getattr(bcc, m).__name__ for m in sys.argv[1:]]; "
            "print(before, names)")
    proc = python("-c", code, *SUBMODULES)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == f"{[]} {[f'bcc.{m}' for m in SUBMODULES]}\n"


def test_readme_python_api_block_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Python API\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 5


LP = ["nsprograms", "simplex"]


@pytest.mark.parametrize("argv, loaded, not_loaded", [
    (["solve", "{channel}", "--k1", "2", "--k2", "2", "--which", "ns", "--exact"],
     LP, ["exact", "approx", "hardness", "generators"]),
    (["solve", "{channel}", "--k1", "2", "--k2", "2", "--which", "joint"],
     ["exact"], ["approx", "hardness", "generators", *LP]),
    (["solve", "{channel}", "--k1", "2", "--k2", "2", "--which", "joint", "sum"],
     ["exact"], ["approx", "hardness", "generators", *LP]),
    (["solve", "{channel}", "--k1", "2", "--k2", "2", "--which", "ns-dec"],
     ["exact", *LP], ["approx", "hardness", "generators"]),
    (["approx", "{det_channel}", "--k1", "2", "--k2", "2"],
     ["approx", "exact"], ["hardness", "generators", *LP]),
    (["hardness", "--k1", "2", "--budget", "4"],
     ["hardness"], ["exact", "approx", "generators", *LP]),
], ids=["solve-ns-exact", "solve-joint", "solve-joint-sum", "solve-ns-dec", "approx",
        "hardness"])
def test_a_command_imports_only_the_solvers_it_runs(channel, det_channel, tmp_path, argv,
                                                    loaded, not_loaded):
    code = ("import json, sys, bcc.cli; "
            "code = bcc.cli.main(sys.argv[1:]); "
            "print(json.dumps([code, [m[4:] for m in sys.modules if m.startswith('bcc.')]]))")
    argv = [arg.format(channel=channel, det_channel=det_channel) for arg in argv]
    proc = python("-c", code, *argv, "--out", str(tmp_path / "report.json"))
    assert proc.returncode == 0, proc.stderr
    exit_code, modules = json.loads(proc.stdout)
    assert exit_code == 0
    assert set(loaded) <= set(modules) and not set(not_loaded) & set(modules), modules


def test_importtime_logs_the_modules_a_command_loads(channel):
    proc = python("-X", "importtime", "-m", "bcc", "solve", str(channel), "--k1", "2",
                  "--k2", "2", "--which", "ns", "--exact")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.decode().splitlines()
    assert any(line.endswith("bcc.nsprograms") for line in lines)


def test_importing_exact_loads_no_linear_program_code():
    code = ("import sys, bcc.exact; "
            "print(sorted(m for m in sys.argv[1:] if m in sys.modules))")
    proc = python("-c", code, "bcc.nsprograms", "bcc.simplex", "fractions", "decimal")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == f"{[]}\n"


def test_in_process_main_leaves_the_collector_alone(channel, capsys):
    before = gc.get_freeze_count()
    assert bcc.cli.main(["solve", str(channel), "--k1", "2", "--k2", "2",
                         "--which", "ns"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_python_m_bcc_prints_what_main_prints(channel, capsysbinary):
    argv = ["solve", str(channel), "--k1", "2", "--k2", "2", "--which", "all",
            "--exact", "--verify"]
    assert bcc.cli.main(argv) == 0
    proc = python("-m", "bcc", *argv)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == capsysbinary.readouterr().out


def test_python_m_bcc_exit_codes(channel, tmp_path):
    proc = python("-m", "bcc", "solve", str(tmp_path / "missing.json"), "--k1", "2",
                  "--k2", "2")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"error: ")
    proc = python("-m", "bcc", "solve", str(channel), "--k1", "2", "--k2", "2",
                  "--which", "joint", "sum", "--verify", "--check-tol=-1")
    assert proc.returncode == 4
    assert b"check failed:" in proc.stderr and json.loads(proc.stdout)["checks"]


ORDINARY_EXIT = "import sys; from bcc.__main__ import run; sys.exit(run())"
"""The program entry with the interpreter's own exit, to compare against."""


@pytest.mark.parametrize("argv, code", [
    (["solve", "{det_channel}", "--k1", "2", "--k2", "2", "--which", "joint", "sum",
      "--verify"], 0),
    (["solve", "{missing}", "--k1", "2", "--k2", "2"], 2),
    (["solve", "{channel}", "--k1", "2"], 2),
    (["tensor", "{channel}", "--n", "5000", "--k1", "2", "--k2", "2"], 3),
    (["solve", "{channel}", "--k1", "2", "--k2", "2", "--which", "joint", "sum",
      "--verify", "--check-tol=-1"], 4),
], ids=["ok", "missing-file", "usage", "over-cap", "failed-check"])
def test_python_m_bcc_matches_main_on_every_exit_code(channel, det_channel, tmp_path,
                                                      capsysbinary, monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")   # the parser wraps its usage text to this width
    argv = [arg.format(channel=channel, det_channel=det_channel,
                       missing=tmp_path / "missing.json") for arg in argv]
    try:
        got = bcc.cli.main(argv)
    except SystemExit as exc:   # the parser's usage error
        got = exc.code
    out, err = capsysbinary.readouterr()
    assert got == code
    proc = python("-m", "bcc", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_the_entry_writes_every_output_file_in_full(channel, tmp_path):
    commands = [
        ["solve", str(channel), "--k1", "2", "--k2", "2", "--which", "ns", "ns-sum",
         "--out", "{dir}/solve.json", "--lp-export", "{dir}/ns.lp"],
        ["hardness", "--k1", "3", "--budget", "40", "--out", "{dir}/hardness.json",
         "--log", "{dir}/queries.jsonl"],
    ]
    for side in ("main", "entry"):
        (tmp_path / side).mkdir()
    for argv in commands:
        assert bcc.cli.main([arg.format(dir=tmp_path / "main") for arg in argv]) == 0
        proc = python("-m", "bcc", *[arg.format(dir=tmp_path / "entry") for arg in argv])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    names = sorted(path.name for path in (tmp_path / "main").iterdir())
    assert names == ["hardness.json", "ns.lp", "queries.jsonl", "solve.json"]
    for name in names:
        assert (tmp_path / "entry" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()


def into_closed_pipe(args, read_first: bool) -> tuple[int, bytes]:
    """Exit code and stderr of a fresh interpreter whose stdout is a pipe of
    one page, closed at once or after one byte of it was read."""
    r, w = os.pipe()
    fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
    if not read_first:
        os.close(r)
    proc = subprocess.Popen([sys.executable, *args], stdout=w, stderr=subprocess.PIPE,
                            env=child_env())
    os.close(w)
    if read_first:
        assert len(os.read(r, 1)) == 1
        os.close(r)
    _, err = proc.communicate(timeout=120)
    return proc.returncode, err


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="needs Linux pipe sizes")
@pytest.mark.parametrize("shape, read_first", [
    ((6, 3, 3), False), ((300, 100, 100), False), ((300, 100, 100), True),
], ids=["small-closed", "large-closed", "large-closed-after-one-byte"])
def test_a_closed_stdout_exits_as_an_ordinary_exit_would(tmp_path, shape, read_first):
    # The reports, 1.6 and 5.5 KB, wait in stdout's buffer until main
    # returns; the large one is more than the pipe holds, so its failed
    # flush drops what it could not write.
    path = tmp_path / "channel.json"
    save_channel(random_deterministic_channel(*shape, seed=0), path)
    argv = ["approx", str(path), "--k1", "4", "--k2", "4", "--verify", "--check-tol=-1"]
    code, err = into_closed_pipe(["-m", "bcc", *argv], read_first)
    assert (code, err) == into_closed_pipe(["-c", ORDINARY_EXIT, *argv], read_first)
    assert code == 120   # CPython's status for a failed flush at exit
    assert err.startswith(b"check failed: value_within_bound")
    assert err.endswith(b"BrokenPipeError: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(os.name != "posix", reason="closes descriptor 1 before the exec")
def test_the_entry_runs_with_stdout_closed_from_the_start(det_channel, tmp_path):
    # With descriptor 1 closed at start, sys.stdout is None: neither exit
    # flushes it.
    argv = ["solve", str(det_channel), "--k1", "2", "--k2", "2", "--which", "joint", "sum",
            "--verify", "--check-tol=-1"]
    runs = []
    for i, entry in enumerate((["-m", "bcc"], ["-c", ORDINARY_EXIT])):
        out = tmp_path / f"{i}.json"
        proc = subprocess.run([sys.executable, *entry, *argv, "--out", str(out)],
                              stderr=subprocess.PIPE, env=child_env(), timeout=120,
                              preexec_fn=lambda: os.close(1))
        runs.append((proc.returncode, proc.stderr, out.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 4 and runs[0][1].startswith(b"check failed: ")


EXIT_HOOKS = ("import atexit, sys, threading; before = atexit._ncallbacks(); "
              "from bcc.__main__ import run; code = run(); "
              "print(code, atexit._ncallbacks() - before, threading.active_count(), "
              "file=sys.stderr)")
"""Exit code, atexit callbacks added and Python threads left after run()."""


@pytest.mark.parametrize("argv", [
    ["solve", "{det_channel}", "--which", "joint", "sum", "--verify"],
    ["approx", "{det_channel}", "--verify"],
    ["solve", "{dense}", "--which", "all", "--verify"],
    ["tensor", "{dense}", "--n", "2", "--which", "joint", "sum", "ns", "ns-sum", "--verify"],
    ["solve", "{channel}", "--which", "ns", "--exact", "--verify"],
    ["solve", "{channel}", "--which", "ns-sum", "--exact", "--verify"],
], ids=["det-solve", "det-approx", "dense-all", "dense-tensor", "exact-ns", "exact-ns-sum"])
def test_the_benchmark_commands_leave_nothing_for_the_exit_to_run(channel, det_channel,
                                                                  tmp_path, argv):
    dense = tmp_path / "dense.json"
    save_channel(random_channel(2, 2, 2, seed=0), dense)
    argv = [arg.format(channel=channel, det_channel=det_channel, dense=dense) for arg in argv]
    proc = python("-c", EXIT_HOOKS, *argv, "--k1", "2", "--k2", "2",
                  "--out", str(tmp_path / "report.json"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"0 0 1\n")


def records():
    """One of each record with an array field, and a twin equal field by field."""
    w = random_channel(2, 2, 2, seed=0)
    model = build_ns_joint(w, 2, 2)
    solution = lp_solve(model)
    for record in (w, marginals(w)[0], model, solution, extract_ns_solution(w, 2, 2, solution)):
        yield record, dataclasses.replace(record)


def test_records_with_array_fields_compare_and_hash_by_identity():
    kinds = []
    for record, twin in records():
        kinds.append(type(record))
        assert record == record and record != twin and not record == twin
        assert hash(record) == hash(record) and len({record, twin}) == 2
        fields = dataclasses.asdict(record)
        assert list(fields) == [f.name for f in dataclasses.fields(record)]
        assert list(dataclasses.asdict(twin)) == list(fields)
    assert kinds == [ChannelTable, MarginalTable, LpModel, LpSolution, NsSolution]


def test_the_entry_freezes_the_imports_before_main(channel, tmp_path):
    code = ("import gc, sys; from bcc.__main__ import run; "
            "frozen = gc.get_freeze_count(); code = run(); "
            "print(frozen, gc.get_freeze_count() > 0, code, file=sys.stderr)")
    proc = python("-c", code, "solve", str(channel), "--k1", "2", "--k2", "2",
                  "--which", "ns", "--out", str(tmp_path / "report.json"))
    assert (proc.returncode, proc.stderr) == (0, b"0 True 0\n")


@pytest.mark.parametrize("argv, message", [
    (["solve", "--which", "ns-dec", "--k1", "100", "--k2", "100"],
     "3**10000 candidates exceed enumeration cap 10000000"),
    (["solve", "--which", "ns-dec", "--k1", "100000", "--k2", "100000"],
     "3**10000000000 candidates exceed enumeration cap 10000000"),
    (["tensor", "--n", "5000", "--k1", "2", "--k2", "2"],
     "required size 12**5000 exceeds cap 100000000"),
    (["tensor", "--n", "4000000", "--k1", "2", "--k2", "2"],
     "required size 12**4000000 exceeds cap 100000000"),
    (["tensor", "--n", "1000000000", "--k1", "2", "--k2", "2"],
     "required size 12**1000000000 exceeds cap 100000000"),
], ids=["ns-dec-k100", "ns-dec-k100000", "tensor-n5000", "tensor-n4000000",
        "tensor-n1000000000"])
def test_an_over_cap_count_of_any_size_exits_3_at_once(tmp_path, argv, message):
    """Counts too long to print, or to build, are refused by their bit length
    and written as their powers."""
    path = tmp_path / "channel.json"
    save_channel(random_channel(3, 2, 2, seed=0), path)
    proc = python("-m", "bcc", argv[0], str(path), *argv[1:])
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr.decode() == f"error: {message}\n"


THREADS = ("import os, sys; before = dict(os.environ); import {modules}; import numpy; "
           "a = numpy.ones((600, 600)); a @ a; "
           "print(len(os.listdir('/proc/self/task')), dict(os.environ) == before)")


def native_threads(modules, **env):
    """Native threads of a fresh process after `import <modules>` and a 600x600
    matmul, which must leave os.environ as it found it."""
    proc = python("-c", THREADS.format(modules=modules), **env)
    assert proc.returncode == 0, proc.stderr
    count, unchanged = proc.stdout.split()
    assert unchanged == b"True"
    return int(count)


def _openblas():
    """True when numpy's BLAS is OpenBLAS with its own thread pool, whose size
    OPENBLAS_NUM_THREADS sets; MKL or an OpenMP build may keep another count."""
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy before 1.26 reports no build info
        return False
    return ("openblas" in blas.get("name", "").lower()
            and "USE_OPENMP" not in blas.get("openblas configuration", ""))


counts_openblas_threads = pytest.mark.skipif(
    not (os.path.isdir("/proc/self/task") and _openblas()),
    reason="counts OpenBLAS threads in /proc/self/task")


@counts_openblas_threads
def test_the_cli_loads_numpy_with_one_blas_thread():
    default = native_threads("numpy")
    assert native_threads("bcc.cli") == 1
    assert native_threads("bcc.channels") == default   # library imports are untouched
    assert native_threads("numpy, bcc.cli") == default   # numpy was loaded first


@counts_openblas_threads
@pytest.mark.parametrize("var", BLAS_THREAD_VARS)
def test_a_callers_blas_thread_count_is_left_alone(var):
    assert native_threads("bcc.cli", **{var: "2"}) == native_threads("numpy", **{var: "2"})


@pytest.mark.parametrize("make, argv", [
    (lambda: random_channel(3, 3, 3, seed=0), ["solve", "--which", "all"]),
    (lambda: random_deterministic_channel(18, 9, 9, seed=0),
     ["solve", "--which", "joint", "sum"]),
    (lambda: random_channel(2, 2, 2, seed=0),
     ["tensor", "--n", "2", "--which", "joint", "sum", "ns"]),
    (lambda: random_dyadic_channel(2, 2, 2, seed=0),
     ["solve", "--exact", "--which", "ns", "ns-sum"]),
], ids=["dense-all", "det-18x9x9", "tensor-n2", "exact-ns"])
def test_the_blas_thread_count_never_changes_a_result(tmp_path, make, argv):
    path = tmp_path / "channel.json"
    save_channel(make(), path)
    argv = ["-m", "bcc", argv[0], str(path), *argv[1:], "--k1", "2", "--k2", "2", "--verify"]
    one, two = python(*argv), python(*argv, OPENBLAS_NUM_THREADS="2")
    assert (one.returncode, one.stderr) == (0, b"")
    assert (two.returncode, two.stdout) == (0, one.stdout)
