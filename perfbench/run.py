"""Benchmark for bcc: four workloads, end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR
    python3 perfbench/run.py --smoke

Run from the root of a bcc checkout; the code under test is imported from
./src.  Every instance runs in its own fresh process, one at a time (a
closed loop with one client), until S seconds have passed.  Outputs are
checked against independent references, and a result file is written to
.perfbench_out/results (or --out).  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics for --trace 0 and the per-layer metrics for --trace 1.
Instance times in the end-to-end metrics are in units of a reference process
timed just before and after each instance; the raw seconds are printed and
stored beside them.
The exit code is 0 only when every output was right and, for --trace 1,
every deterministic count repeated the earlier traced run of the same
workload, seed and source code, when there is one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from spans import clock_ns, instance_counts, layer_metrics, summarize, time_shares
from workloads import WORKLOADS, check_output, load_corpus

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"

CORPUS_SIZE = 40
SETUP_EVERY = 3
SETUP_MIN = 5
INSTANCE_LIMIT_S = 60.0

# The machine's own speed drifts by tens of percent, within a run too, so the
# timing metrics that gate a change are expressed in units of a reference
# process timed between the instances: a fixed pure-Python loop that does not
# touch bcc.  The raw seconds are reported next to them.
REFERENCE_CODE = "s = 0\nfor i in range(600_000):\n    s += i * i\n"

END_TO_END = {   # name: (unit, better)
    "instances_per_ref": ("1/ref", "higher"),
    "latency_p50_ref": ("ref", "lower"),
    "latency_tail_ref": ("ref", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
RAW = {
    "instances_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "reference_s": "s",
    "setup_wall_s": "s",
}

PER_LAYER = {   # name: (unit, better)
    **{f"simplex.{mode}.{key}": unit
       for mode in ("float", "exact")
       for key, unit in (("self_s", ("s", "lower")), ("calls", ("count", "lower")),
                         ("pivots", ("count", "lower")),
                         ("tableau_cells", ("count", "lower")))},
    "nsprograms.build_s": ("s", "lower"),
    "nsprograms.builds": ("count", "lower"),
    "nsprograms.extract_s": ("s", "lower"),
    "exact.enum.self_s": ("s", "lower"),
    "exact.enum.candidates": ("count", "lower"),
    "exact.enum.redundant_share": ("share", "lower"),
    "exact.ns_dec.self_s": ("s", "lower"),
    "exact.ns_dec.encoders": ("count", "lower"),
    "exact.ns_dec.redundant_share": ("share", "lower"),
    "exact.joint_success_s": ("s", "lower"),
    "channels.to_table_s": ("s", "lower"),
    "channels.dense_entries": ("count", "lower"),
    "channels.tensor_power_s": ("s", "lower"),
    "files.load_s": ("s", "lower"),
    "files.bytes_read": ("bytes", "lower"),
    "graphs.build_s": ("s", "lower"),
    "graphs.quotient_edge_count.self_s": ("s", "lower"),
    "graphs.quotient_edge_count.calls": ("count", "lower"),
    "approx.self_s": ("s", "lower"),
    "approx.greedy_s": ("s", "lower"),
    "approx.greedy_calls": ("count", "lower"),
    "approx.derandomize_s": ("s", "lower"),
    "approx.sampling_s": ("s", "lower"),
    "approx.samples": ("count", "lower"),
    "approx.useful_sample_share": ("share", "higher"),
    "approx.certificate_mean": ("ratio", "higher"),
    "cli.self_s": ("s", "lower"),
    "python.startup_s": ("s", "lower"),
    "python.exit_s": ("s", "lower"),
    "instance.wall_s": ("s", "lower"),
    "trace.overhead_share": ("share", "lower"),
}


def die(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def run_process(cmd: list[str], spawn_ns: int, out_path: Path, limit: float) -> dict:
    """Run cmd to completion or kill it after limit seconds.

    Wall time runs from spawn_ns to reaping; CPU time and peak RSS are this
    process's own.
    """
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        status = None
        try:
            timed_out = not select.select([pidfd], [], [], limit)[0]
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            if status is None:   # interrupted: leave no instance running
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                os.wait4(proc.pid, 0)
            os.close(pidfd)
    end_ns = clock_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": (end_ns - spawn_ns) / 1e9, "exit": proc.returncode,
            "timed_out": timed_out, "rss_mb": usage.ru_maxrss / 1024,
            "cpu_s": usage.ru_utime + usage.ru_stime}


def instance_cmd(inst, spans_path: Path | None, spawn_ns: int) -> list[str]:
    if spans_path is None and inst.kind == "cli":
        return [sys.executable, "-m", "bcc"] + inst.args
    cmd = [sys.executable, str(HERE / "child.py")]
    if spans_path is not None:
        cmd += ["--trace", str(spawn_ns), str(spans_path)]
    return cmd + [inst.kind] + inst.args


def run_one(inst, work: Path, seq: int, traced: bool, limit: float) -> dict:
    """Run one instance in a fresh process; check_one looks at its output later."""
    out_path = work / f"{seq}{'.traced' if traced else ''}.out"
    spawn_ns = clock_ns()
    rec = run_process(instance_cmd(inst, out_path.with_suffix(".spans") if traced else None,
                                   spawn_ns), spawn_ns, out_path, limit)
    rec.update(inst=inst, out=out_path, traced=traced)
    return rec


def check_one(rec: dict) -> dict:
    """Set rec["error"] from the exit status and the output; read the spans."""
    inst, out_path = rec.pop("inst"), rec.pop("out")
    rec["id"] = inst.id
    if rec["timed_out"]:
        rec["error"] = f"killed after the wall-clock limit of {rec['wall_s']:.3g} s"
    elif rec["exit"] != 0:
        err = out_path.with_suffix(".err").read_text().strip().splitlines()
        rec["error"] = f"exit code {rec['exit']}: {err[-1] if err else ''}"
    else:
        try:
            rec["error"] = check_output(inst, out_path.read_text())
            if rec["error"] is None and inst.kind == "approx":
                rec["ratio_certificate"] = json.loads(out_path.read_text())["ratio_certificate"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            rec["error"] = f"output lacks an expected field: {exc!r}"
    if rec["error"] is None and rec["traced"]:
        summary = summarize(json.loads(out_path.with_suffix(".spans").read_text()))
        # The root span closes before the spans are written and the interpreter
        # exits; the rest of the wall time the runner measured is python.exit.
        exit_s = rec["wall_s"] - sum(entry["self_s"] for entry in summary.values())
        summary["python.exit"] = {"calls": 1, "self_s": exit_s, "wall_s": exit_s}
        rec["spans"] = summary
        rec["counts"] = instance_counts(summary)
    return rec


def build_corpus(name: str, seed: int, size: int, work: Path) -> list:
    """Write the corpus from a separate process, so this one never loads numpy."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rec = run_process([sys.executable, str(HERE / "corpus.py"), name, str(seed), str(size),
                       str(work)], clock_ns(), work / "corpus.out", INSTANCE_LIMIT_S * 5)
    if rec["exit"] != 0:
        raise RuntimeError(f"building the {name} corpus failed:\n"
                           + (work / "corpus.err").read_text())
    return load_corpus(work)


def measure_setup(work: Path) -> dict:
    """Wall and CPU seconds for a fresh interpreter to import bcc and build the CLI parser."""
    rec = run_process([sys.executable, "-c", "import bcc.cli; bcc.cli.build_parser()"],
                      clock_ns(), work / "setup.out", INSTANCE_LIMIT_S)
    if rec["exit"] != 0:
        raise RuntimeError("importing bcc failed: " + (work / "setup.err").read_text().strip())
    return rec


def measure_reference(work: Path) -> float:
    return run_process([sys.executable, "-c", REFERENCE_CODE], clock_ns(),
                       work / "reference.out", INSTANCE_LIMIT_S)["wall_s"]


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with ten values above it.

    With fewer than 21 values that statistic would sit below the median, and
    the (lower) median is used instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - 11, (n - 1) // 2)
    return ordered[index], max(50.0, 100.0 * (n - 10) // n)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: int = CORPUS_SIZE, max_instances: int | None = None,
                 limit: float = INSTANCE_LIMIT_S) -> dict:
    work = OUT / "work" / f"{name}-{seed}-{int(trace)}"
    corpus = build_corpus(name, seed, size, work)

    # The reference process runs before the first instance and after every
    # one, and the set-up process after every third, so both sample the
    # machine across the whole run.  Each instance is timed against the mean
    # of the reference times just before and after it, since the machine's
    # speed changes within a run too.
    records, paired, reference, setup = [], [], [measure_reference(work)], []
    start_ns = clock_ns()
    while (len(records) < max_instances if max_instances is not None
           else (clock_ns() - start_ns) / 1e9 < seconds):
        inst = corpus[len(records) % len(corpus)]
        if trace:
            paired.append(run_one(inst, work, len(records), False, limit))
        records.append(run_one(inst, work, len(records), trace, limit))
        reference.append(measure_reference(work))
        for rec in (records[-1], paired[-1]) if trace else (records[-1],):
            rec["ref_s"] = (reference[-2] + reference[-1]) / 2
        if len(records) % SETUP_EVERY == 1:
            setup.append(measure_setup(work))
    while len(setup) < SETUP_MIN:
        setup.append(measure_setup(work))
    records = [check_one(r) for r in records]
    paired = [check_one(r) for r in paired]
    shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in records + paired if r["error"] is None]
    failures = [r for r in records + paired if r["error"] is not None]
    timed = [r for r in (paired if trace else records) if r["error"] is None]
    walls = [r["wall_s"] for r in timed]
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "why": WORKLOADS[name]["why"], "depends": WORKLOADS[name]["depends"],
        "attempted": len(records) + len(paired), "failed": len(failures),
        "errors": [f"{r['id']}: {r['error']}" for r in failures],
        "instances": [{k: r[k] for k in ("id", "wall_s", "ref_s", "rss_mb", "error", "counts")
                       if k in r} for r in records],
    }
    if walls:
        tail_value, tail_pct = tail(walls)
        in_refs = [r["wall_s"] / r["ref_s"] for r in timed]
        result["raw"] = {
            "instances_per_s": len(walls) / sum(walls),
            "latency_p50_s": statistics.median(walls),
            "latency_tail_s": tail_value,
            "reference_s": statistics.median(reference),
            "setup_wall_s": statistics.median(r["wall_s"] for r in setup),
        }
        result["end_to_end"] = {
            "instances_per_ref": len(in_refs) / sum(in_refs),
            "latency_p50_ref": statistics.median(in_refs),
            "latency_tail_ref": tail(in_refs)[0],
            "peak_rss_mb": max(r["rss_mb"] for r in timed),
            # CPU time, not wall time: it drifts about half as much with the
            # machine's speed, and a set-up metric cannot be put in units of ref.
            "setup_s": statistics.median(r["cpu_s"] for r in setup),
        }
        result["latency_tail_percentile"] = tail_pct
        result["latency_samples"] = len(walls)
        result["failed_share"] = len(failures) / result["attempted"]
        certs = [r["ratio_certificate"] for r in ok if "ratio_certificate" in r]
        if certs:
            result["approx_certificate_mean"] = statistics.fmean(certs)
    if trace:
        summaries = [r["spans"] for r in records if "spans" in r]
        layers = layer_metrics(summaries)
        traced_walls = [r["wall_s"] for r in records if r["error"] is None]
        if summaries and walls:
            layers["trace.overhead_share"] = (statistics.median(traced_walls)
                                              / statistics.median(walls) - 1)
        if "approx_certificate_mean" in result:
            layers["approx.certificate_mean"] = result["approx_certificate_mean"]
        result["per_layer"] = {key: layers.get(key, 0.0) for key in PER_LAYER}
        result["time_shares"] = time_shares(summaries) if summaries else {}
        result["exit_shares"] = [s["python.exit"]["self_s"]
                                 / sum(entry["self_s"] for entry in s.values())
                                 for s in summaries]
        result["src_sha256"] = source_hash()
    return result


def previous_result(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def source_hash() -> str:
    """SHA-256 over the Python files under src/: which code a result came from."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(f"{path.relative_to(ROOT)}\0".encode() + path.read_bytes() + b"\0")
    return digest.hexdigest()


def count_drift(result: dict, previous: dict) -> list[str]:
    """Deterministic counts that differ from an earlier traced run of the same corpus."""
    before = {i["id"]: i["counts"] for i in previous["instances"] if "counts" in i}
    drift = []
    for inst in result["instances"]:
        old = before.get(inst["id"])
        if old is not None and "counts" in inst and inst["counts"] != old:
            drift.append(f"{inst['id']}: counts {inst['counts']} != earlier {old}")
    return drift


def check_determinism(result: dict, path: Path) -> None:
    """Compare the counts with the earlier traced result at path, if it has the same source.

    A result from other code is not compared: a change may legitimately move
    pivots or candidates.  Records what was compared in the result.
    """
    result["counts_compared_with"], result["count_drift"] = None, []
    earlier = previous_result(path)
    if earlier is not None and earlier.get("src_sha256") == result["src_sha256"]:
        result["counts_compared_with"] = os.path.relpath(path, ROOT)
        result["count_drift"] = count_drift(result, earlier)
        result["errors"] += result["count_drift"]


def report(result: dict) -> None:
    """Human-readable lines for one workload; the JSON line comes last."""
    name = result["workload"]
    print(f"== {name} (seed {result['seed']}, trace {result['trace']}): "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for err in result["errors"]:
        print(f"   error: {err}")
    for key, value in result.get("end_to_end", {}).items():
        print(f"   {key:28s} {value:12.6g} {END_TO_END[key][0]}")
    for key, value in result.get("raw", {}).items():
        print(f"   {key:28s} {value:12.6g} {RAW[key]}")
    if "end_to_end" in result:
        print(f"   {'latency_tail_percentile':28s} {result['latency_tail_percentile']:12g} "
              f"(of {result['latency_samples']} instances)")
        print(f"   {'failed_share':28s} {result['failed_share']:12.6g} share")
    if "approx_certificate_mean" in result:
        print(f"   {'approx_certificate_mean':28s} {result['approx_certificate_mean']:12.6g}")
    if result["trace"]:
        for key, value in result["per_layer"].items():
            print(f"   {key:36s} {value:14.6g} {PER_LAYER[key][0]}")
        earlier = result["counts_compared_with"]
        print("   deterministic counts: " + (
            f"not compared, no earlier traced result of this source (sha256 "
            f"{result['src_sha256'][:12]})" if earlier is None else
            f"{'drifted' if result['count_drift'] else 'identical'} against {earlier}"))
        top = sorted(result["time_shares"].items(), key=lambda kv: -kv[1])
        print("   self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in top if v >= 0.01))


def metric_line(result: dict) -> dict:
    table = PER_LAYER if result["trace"] else END_TO_END
    values = result.get("per_layer" if result["trace"] else "end_to_end", {})
    return {key: {"value": values[key], "unit": table[key][0]}
            for key in table if key in values}


def run_main(args) -> int:
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results_dir = Path(args.out) if args.out else OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    metrics, correct = {}, True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        path = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        if args.trace:
            check_determinism(result, path)
        path.write_text(json.dumps(result, indent=1) + "\n")
        report(result)
        attempted += result["attempted"]
        failed += result["failed"]
        correct &= not result["errors"] and "end_to_end" in result
        line = metric_line(result)
        metrics.update(line if len(names) == 1 else
                       {f"{name}/{key}": value for key, value in line.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for result files")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"),
                        help="compare two directories of result files")
    parser.add_argument("--smoke", action="store_true",
                        help="quick self-check of the benchmark on a tiny corpus")
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare
        return compare(Path(args.compare[0]), Path(args.compare[1]), END_TO_END)
    if not (ROOT / "src" / "bcc" / "__init__.py").is_file():
        return die(f"no bcc sources at {ROOT / 'src' / 'bcc'}; run from a bcc checkout")
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.smoke:
        from smoke import smoke
        return smoke(sys.modules[__name__])
    if args.workload is None:
        return die("give --workload, --compare or --smoke")
    return run_main(args)


if __name__ == "__main__":
    sys.exit(main())
