"""Measure approximation quality against exhaustive optima on random graphs.

Runs the partition approximation on random bipartite graphs small enough for
the exhaustive solver, reports the distribution of value / optimum, and checks
the certified lower bound (1/2)(1 - 1/e)^2 on every instance.  Instances where
the optimum is zero count as ratio 1.
"""

import argparse
import math
import sys
import time

import numpy as np

from bcc import approximate_dqg, random_bipartite_graph, solve_dqg
from bcc.approx import DEFAULT_NUM_SAMPLES

CERTIFIED = 0.5 * (1.0 - 1.0 / math.e) ** 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=40)
    parser.add_argument("--left", type=int, default=7, help="left vertex count")
    parser.add_argument("--right", type=int, default=7, help="right vertex count")
    parser.add_argument("--k1", type=int, default=2, help="left parts")
    parser.add_argument("--k2", type=int, default=2, help="right parts")
    parser.add_argument("--density", type=float, default=0.4)
    parser.add_argument("--samples", type=int, default=DEFAULT_NUM_SAMPLES,
                        help="random left partitions sampled per instance "
                             "(default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    ratios = []
    below_gate = 0
    start = time.perf_counter()
    for index in range(args.instances):
        g = random_bipartite_graph(args.left, args.right, args.density,
                                   seed=int(rng.integers(10**9)))
        optimum = solve_dqg(g, args.k1, args.k2).value
        result = approximate_dqg(g, args.k1, args.k2, seed=index,
                                 num_samples=args.samples)
        ratio = 1.0 if optimum == 0 else result.value / optimum
        ratios.append(ratio)
        below_gate += result.value < CERTIFIED * optimum - 1e-9
        print(f"instance {index:3d}  optimum={optimum:3d}  value={result.value:3d}  "
              f"ratio={ratio:.4f}  upper_bound={result.upper_bound:3d}  "
              f"certificate={result.ratio_certificate:.4f}")

    elapsed = time.perf_counter() - start
    arr = np.array(ratios)
    print()
    print(f"{args.instances} instances ({args.left}x{args.right}, "
          f"k=({args.k1},{args.k2}), density {args.density}) in {elapsed:.1f}s")
    print(f"  ratio min/mean/max: {arr.min():.4f} / {arr.mean():.4f} / {arr.max():.4f}")
    print(f"  certified gate: {CERTIFIED:.4f}  instances below gate: {below_gate}")
    print(f"  fraction at optimum: {(arr >= 1.0 - 1e-12).mean():.2%}")
    return 1 if below_gate else 0


if __name__ == "__main__":
    sys.exit(main())
