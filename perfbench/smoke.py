"""Quick self-check of the benchmark over a tiny corpus (one rotation per workload).

Checks that every metric named in BENCHMARK.json is emitted, that every
output passes its check, that each traced instance's span self times add up
to the wall time the runner measured for it, up to the exit of the
interpreter after its spans close (at most EXIT_SHARE_MAX of that time), that
the deterministic counts repeat between two traced runs, that the
per-instance wall-clock limit kills and fails an instance, and that a wrong
reference value fails the output check.
"""

from __future__ import annotations

import json
import shutil

from spans import DETERMINISTIC_COUNTS
from workloads import ROTATION, check_output

# Interpreter teardown after the root span closes took 30-55 ms on a 2-core x86
# host, up to 9% of the shortest instances.
EXIT_SHARE_MAX = 0.15


def smoke(run) -> int:
    problems = []
    spec_path = run.ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            named = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
            if named != table:
                problems.append(f"BENCHMARK.json {key} differs from run.py: "
                                f"{sorted(set(named) ^ set(table))}")
        if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
            problems.append("BENCHMARK.json workloads differ from workloads.py")

    for name, size in ROTATION.items():
        plain = run.run_workload(name, 1, 0, False, size=size, max_instances=size)
        traced = [run.run_workload(name, 1, 0, True, size=size, max_instances=size)
                  for _ in range(2)]
        for result in [plain] + traced:
            problems += [f"{name}: {err}" for err in result["errors"]]
            missing = set(run.END_TO_END) - set(result.get("end_to_end", {}))
            if missing:
                problems.append(f"{name}: end-to-end metrics missing {sorted(missing)}")
        for result in traced:
            missing = set(run.PER_LAYER) - set(result["per_layer"])
            if missing:
                problems.append(f"{name}: per-layer metrics missing {sorted(missing)}")
            exits = result["exit_shares"]
            if len(exits) != size or not 0 <= min(exits) <= max(exits) <= EXIT_SHARE_MAX:
                problems.append(f"{name}: spans do not cover the traced wall time; "
                                f"shares left to python.exit: {exits}")
        drift = run.count_drift(traced[1], traced[0])
        problems += [f"{name}: count drift {d}" for d in drift]
        counted = {key: sum(i["counts"][key] for i in traced[0]["instances"])
                   for key in DETERMINISTIC_COUNTS}
        shares = ", ".join(f"{k} {v:.0%}" for k, v in sorted(
            traced[0]["time_shares"].items(), key=lambda kv: -kv[1]) if v >= 0.05)
        print(f"smoke {name}: {size} instances, counts {counted}; self time: {shares}; "
              f"largest python.exit share {max(traced[0]['exit_shares'], default=0):.1%}")

    work = run.OUT / "work" / "smoke"
    inst = run.build_corpus("solve-dense", 1, 1, work)[0]
    if run.check_one(run.run_one(inst, work, 0, False, run.INSTANCE_LIMIT_S))["error"]:
        problems.append("solve-dense instance 0 failed")
    for key, want in dict(inst.expect).items():
        inst.expect[key] = want + 1e-3
        if check_output(inst, (work / "0.out").read_text()) is None:
            problems.append(f"output check accepted a wrong {key}")
        inst.expect[key] = want
    killed = run.check_one(run.run_one(inst, work, 1, False, 0.05))
    if not killed["timed_out"] or killed["error"] is None:
        problems.append("an instance over its wall-clock limit was not failed")
    shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"smoke problem: {problem}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0
