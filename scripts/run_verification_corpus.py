"""Cross-check exact solvers against linear programs on a random corpus.

Each random dense channel gets the report of `bcc solve --which all`: the
brute-force joint and sum optima, the assisted (non-signaling) values and
the decoder-box values, with every check that report makes between them.
Each random deterministic channel gets the report of `bcc solve --which
joint`, whose deterministic view adds the check against the quotient-graph
solver.  The worst margin of each check over the corpus is printed at the
end; a margin below minus the check's tolerance is a violated guarantee.
"""

import argparse
import sys
import time

import numpy as np

from bcc import Report, random_channel, random_deterministic_channel
from bcc.cli import ALL_QUANTITIES, solve_quantities


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--channels", type=int, default=50,
                        help="number of random channels per family")
    parser.add_argument("--max-size", type=int, default=3,
                        help="maximum alphabet size for dense channels")
    parser.add_argument("--max-messages", type=int, default=2,
                        help="maximum message count per receiver")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=1e-7)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    checks = []
    start = time.perf_counter()
    for index in range(args.channels):
        sizes = rng.integers(1, args.max_size + 1, size=3)
        w = random_channel(*(int(v) for v in sizes), seed=int(rng.integers(10**9)))
        k1, k2 = (int(v) for v in rng.integers(1, args.max_messages + 1, size=2))
        report = Report("solve")
        solve_quantities(report, w, None, k1, k2, ALL_QUANTITIES, tol=args.tol)
        checks += report.checks
        q = report.quantities
        print(f"channel {index:3d}  |X|={sizes[0]} |Y1|={sizes[1]} |Y2|={sizes[2]} "
              f"k=({k1},{k2})  S={q['S']:.6f}  S_sum={q['S_sum']:.6f}  "
              f"S_ns={q['S_ns']:.6f}")

    for index in range(args.channels):
        sizes = rng.integers(1, args.max_size + 2, size=3)
        dc = random_deterministic_channel(*(int(v) for v in sizes),
                                          seed=int(rng.integers(10**9)))
        k1, k2 = (int(v) for v in rng.integers(1, args.max_messages + 2, size=2))
        report = Report("solve")
        solve_quantities(report, dc.to_table(), dc, k1, k2, ("joint",), tol=args.tol)
        checks += report.checks

    elapsed = time.perf_counter() - start
    print()
    print(f"corpus of {args.channels} dense + {args.channels} deterministic "
          f"channels in {elapsed:.1f}s")
    worst, failed = {}, {}
    for check in checks:
        if check.name not in worst or check.margin < worst[check.name]:
            worst[check.name] = check.margin
        failed[check.name] = failed.get(check.name, 0) + (not check.passed)
    for name, margin in worst.items():
        verdict = f"VIOLATED {failed[name]} times" if failed[name] else "ok"
        print(f"  {name:22s} min margin {margin:+.3e}  {verdict}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
