"""Exact simplex results pinned from an earlier implementation.

Each case in data/exact_golden.json records the exact optimum, the optimal
vertex (Fractions as strings) and the pivot count of one exact solve.  A
change to the pivot rules, the tableau update or the phase-1 clean-up moves
one of them.  Rewrite the file with

    PYTHONPATH=src:tests python tests/test_exact_golden.py
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from bcc import (
    EQ,
    GE,
    LE,
    LpModel,
    LpSolution,
    build_ns_joint,
    build_ns_sum,
    lp_solve,
    random_dyadic_channel,
)

DATA = Path(__file__).parent / "data" / "exact_golden.json"

SPECS = [
    {"kind": "ns", "objective": "joint", "shape": [2, 2, 2], "seed": 0},
    {"kind": "ns", "objective": "sum", "shape": [2, 2, 2], "seed": 0},
    {"kind": "ns", "objective": "joint", "shape": [3, 3, 3], "seed": 0},
    {"kind": "ns", "objective": "sum", "shape": [3, 3, 3], "seed": 0},
    {"kind": "mixed_lp", "seed": 0},
]


def mixed_relations_lp(seed: int) -> tuple[LpModel, np.ndarray]:
    """Bounded LP with <=, >= and = rows in x >= lower, written in y = x - lower.

    Returns the program in y >= 0 and the integer shift lower.  Integer data
    around an integer point x0 that satisfies every row, so the program is
    feasible; the last row caps sum(x), so it is bounded.  Two opposite =
    rows e.y = 0 on variables that no other >= or = row uses leave their
    artificials basic at zero after phase 1: one is pivoted out, the other
    row is dropped as redundant.
    """
    rng = np.random.default_rng(seed)
    num_vars = 8
    x0 = rng.integers(0, 4, size=num_vars)
    lower = x0 - rng.integers(0, 3, size=num_vars)
    rows = rng.integers(-3, 4, size=(6, num_vars))
    slack = rng.integers(0, 3, size=6)
    d = x0 - lower
    i, j = np.flatnonzero(d)[:2]
    rows[2:, [i, j]] = 0
    e = np.zeros(num_vars)
    e[i], e[j] = d[j], -d[i]  # e.d = 0, so e.x0 = e.lower
    rhs = rows @ x0 + np.array([1, 1, -1, -1, -1, 0]) * slack
    A = np.vstack([rows, -e, e, np.ones(num_vars)])
    b = np.append(rhs, [-(e @ lower), e @ lower, x0.sum() + 4])
    return LpModel(num_vars, rng.integers(-6, 7, size=num_vars) / 2, A,
                   (LE, LE, GE, GE, GE, EQ, EQ, EQ, LE), b - A @ lower), lower


def build(spec: dict) -> LpModel:
    w = random_dyadic_channel(*spec["shape"], seed=spec["seed"])
    return {"joint": build_ns_joint, "sum": build_ns_sum}[spec["objective"]](w, 2, 2)


def solve(spec: dict, exact: bool, build=build) -> LpSolution:
    """lp_solve on the spec's program, the mixed one mapped back to x = y + lower."""
    if spec["kind"] != "mixed_lp":
        return lp_solve(build(spec), exact=exact)
    model, lower = mixed_relations_lp(spec["seed"])
    sol = lp_solve(model, exact=exact)
    x = sol.assignment + lower.astype(object if exact else float)
    c = np.array([Fraction(v) for v in model.objective]) if exact else model.objective
    value = type(sol.value)(sum(ci * xi for ci, xi in zip(c, x)))
    return LpSolution(sol.status, value, x, sol.pivots)


def record(spec: dict) -> dict:
    sol = solve(spec, exact=True)
    assert isinstance(sol.value, Fraction)
    assert all(isinstance(v, Fraction) for v in sol.assignment)
    return {"spec": spec, "value": str(sol.value),
            "assignment": [str(v) for v in sol.assignment], "pivots": sol.pivots}


def test_exact_solves_match_golden():
    cases = json.loads(DATA.read_text())
    assert [case["spec"] for case in cases] == SPECS
    for case in cases:
        assert record(case["spec"]) == case


if __name__ == "__main__":
    DATA.write_text(json.dumps([record(spec) for spec in SPECS], indent=1) + "\n")
