"""Compare two sets of untraced result files, one row per workload and metric.

A result set is a directory of files written by run.py --trace 0, one per
(workload, seed).  Runs pair up by seed.  Verdicts:

* improved: at least ten pairs, the change better in at least nine tenths
  of them (ties count for neither side), and the median better by more
  than the parent's interquartile range;
* regressed: the change's median worse than the parent's by more than the
  metric's bound from BENCHMARK.json;
* unresolved: the parent's own spread (interquartile range over median)
  is wider than the bound, unless every change run beats every parent run;
* unchanged: otherwise.

A gain does not count when the change fails more instances: its rows then
read "unresolved" and are marked.  Each workload also gets a failed_share
row, failed over attempted instances summed over its runs, which reads
"regressed" when the change fails a larger share than the parent.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9
MORE_FAILURES = "unresolved: more failures"


def load(directory: Path) -> dict:
    """{workload: {seed: result}} from one result directory, failed runs included."""
    out = {}
    for path in sorted(directory.glob("*-trace0.json")):
        doc = json.loads(path.read_text())
        out.setdefault(doc["workload"], {})[doc["seed"]] = doc
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def failed_share(runs: dict) -> float:
    return (sum(r["failed"] for r in runs.values())
            / max(1, sum(r["attempted"] for r in runs.values())))


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            higher_is_better: bool, bound: float) -> str:
    sign = 1 if higher_is_better else -1
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gain = sign * (cm - pm)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > p3 - p1:
        return "improved"
    if -gain > bound * abs(pm):
        return "regressed"
    every_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (p3 - p1) > bound * abs(pm) and not every_better:
        return "unresolved"
    return "unchanged"


def row(workload: str, metric: str, pv: list[float], cv: list[float], pairs: int,
        text: str) -> None:
    pq, cq = quartiles(pv), quartiles(cv)
    print(f"{workload:12s} {metric:17s} "
          f"{pq[1]:12.5g} [{pq[0]:9.5g}, {pq[2]:9.5g}] "
          f"{cq[1]:12.5g} [{cq[0]:9.5g}, {cq[2]:9.5g}] {pairs:5d}  {text}")


def compare(parent_dir: Path, change_dir: Path, end_to_end: dict) -> int:
    bounds = {}
    spec = Path.cwd() / "BENCHMARK.json"
    if spec.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
    parent, change = load(parent_dir), load(change_dir)
    print(f"{'workload':12s} {'metric':17s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'pairs':>5s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        prun, crun = parent[workload], change[workload]
        more_failures = failed_share(crun) > failed_share(prun)
        for metric, (unit, better) in end_to_end.items():
            pm = {s: r["end_to_end"][metric] for s, r in prun.items() if "end_to_end" in r}
            cm = {s: r["end_to_end"][metric] for s, r in crun.items() if "end_to_end" in r}
            if not pm or not cm:
                print(f"{workload:12s} {metric:17s} no successful runs in "
                      f"{'the parent' if not pm else 'the change'}")
                continue
            pairs = [(pm[s], cm[s]) for s in sorted(set(pm) & set(cm))]
            v = verdict(list(pm.values()), list(cm.values()), pairs, better == "higher",
                        bounds.get(metric, 0.0))
            if v == "improved" and more_failures:
                v = MORE_FAILURES
            row(workload, metric, list(pm.values()), list(cm.values()), len(pairs),
                f"{v} ({unit})")
        pf, cf = failed_share(prun), failed_share(crun)
        v = "regressed" if cf > pf else "improved" if cf < pf else "unchanged"
        row(workload, "failed_share",
            [r["failed"] / max(1, r["attempted"]) for r in prun.values()],
            [r["failed"] / max(1, r["attempted"]) for r in crun.values()],
            len(set(prun) & set(crun)), f"{v} (share; pooled {pf:.4g} -> {cf:.4g})")
    missing = set(parent) ^ set(change)
    if missing:
        print(f"workloads in only one set: {sorted(missing)}")
    return 0
