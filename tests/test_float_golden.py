"""Float simplex results pinned from an earlier implementation.

Each case in data/float_golden.json records repr() of the optimum and of
every coordinate of the optimal vertex, and the pivot count, of one float
solve: the five exact golden programs solved in floats, one more compact
program whose vertex and pivot count move when the right-hand side is not
clipped at zero after each pivot, two decoder-box LPs of a 3x3x3 channel,
and four compact programs whose pivot rows are mostly zeros: joint and sum
of a 5x4x4 Dirichlet channel, and of the tensor square of a 2x2x2 one.
A change to the float pivot, the pivot rules or the phase-1 set-up can move
a bit of one of them.  Rewrite the file with

    PYTHONPATH=src:tests python tests/test_float_golden.py
"""

import json
from pathlib import Path

from bcc import (
    build_decoder_box_lp,
    build_ns_joint,
    build_ns_sum,
    random_channel,
    tensor_power,
)
from test_exact_golden import SPECS as EXACT_SPECS
from test_exact_golden import build as build_exact_spec
from test_exact_golden import solve

DATA = Path(__file__).parent / "data" / "float_golden.json"

SPECS = EXACT_SPECS + [
    {"kind": "ns", "objective": "joint", "shape": [3, 3, 3], "seed": 3},
    {"kind": "decoder_box", "objective": "joint", "shape": [3, 3, 3], "seed": 0,
     "encoder": [[0, 1], [2, 0]]},
    {"kind": "decoder_box", "objective": "sum", "shape": [3, 3, 3], "seed": 0,
     "encoder": [[2, 2], [1, 0]]},
    {"kind": "compact", "objective": "joint", "shape": [5, 4, 4], "seed": 0},
    {"kind": "compact", "objective": "sum", "shape": [5, 4, 4], "seed": 0},
    {"kind": "compact", "objective": "joint", "shape": [2, 2, 2], "seed": 0, "power": 2},
    {"kind": "compact", "objective": "sum", "shape": [2, 2, 2], "seed": 0, "power": 2},
]


def build(spec: dict):
    if spec["kind"] not in ("decoder_box", "compact"):
        return build_exact_spec(spec)
    w = random_channel(*spec["shape"], seed=spec["seed"])
    if spec["kind"] == "decoder_box":
        return build_decoder_box_lp(w, spec["encoder"], 2, 2, spec["objective"])
    w = tensor_power(w, spec.get("power", 1))
    return {"joint": build_ns_joint, "sum": build_ns_sum}[spec["objective"]](w, 2, 2)


def record(spec: dict) -> dict:
    sol = solve(spec, exact=False, build=build)
    assert isinstance(sol.value, float)
    assert sol.assignment.dtype == float
    return {"spec": spec, "value": repr(sol.value),
            "assignment": [repr(float(v)) for v in sol.assignment], "pivots": sol.pivots}


def test_float_solves_match_golden():
    cases = json.loads(DATA.read_text())
    assert [case["spec"] for case in cases] == SPECS
    for case in cases:
        assert record(case["spec"]) == case


if __name__ == "__main__":
    DATA.write_text(json.dumps([record(spec) for spec in SPECS], indent=1) + "\n")
