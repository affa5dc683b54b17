"""Decoder enumeration results on deterministic channels, pinned.

Each case in data/enum_golden.json records, for one deterministic channel
and one (k1, k2), repr() of the value, the witness and the candidate count
of solve_joint and solve_sum on its dense table and of solve_dqg on its
graph.  The cell tables of a deterministic channel hold counts (halves for
the sum objective), so every candidate's total is exact and the witness is
the lexicographically smallest optimal labelling, however the candidates
are enumerated.  The file was recorded with the enumeration over every
labelled decoder pair.  Rewrite it with

    PYTHONPATH=src:tests python tests/test_enum_golden.py
"""

import json
from pathlib import Path

from bcc import channel_graph, random_deterministic_channel, solve_dqg, solve_joint, solve_sum

DATA = Path(__file__).parent / "data" / "enum_golden.json"

SPECS = [
    # [num_inputs, |Y1|, |Y2|, k1, k2, seed]
    [14, 7, 6, 3, 3, 0],
    [14, 7, 6, 3, 3, 1],
    [18, 9, 9, 2, 2, 0],
    [18, 9, 9, 2, 2, 1],
    [3, 2, 3, 3, 4, 2],   # k > |Y| on both sides
    [2, 1, 1, 2, 2, 3],
    [1, 3, 2, 2, 2, 4],
    [4, 3, 3, 2, 2, 5],
    [4, 3, 3, 2, 3, 6],
    [5, 4, 3, 3, 2, 7],
    [6, 4, 4, 2, 2, 8],
    [6, 4, 4, 4, 4, 9],
    [8, 5, 5, 3, 3, 10],
    [8, 5, 5, 1, 3, 11],
    [9, 6, 4, 2, 4, 12],
    [10, 6, 6, 3, 2, 13],
    [12, 5, 7, 2, 3, 14],
    [2, 6, 6, 3, 3, 15],  # most outputs unreached
    [30, 6, 6, 3, 3, 16],
    [7, 3, 8, 3, 2, 17],
    [6, 7, 6, 3, 3, 18],  # det-cli output sizes with fewer inputs than cells
    [3, 9, 9, 2, 2, 19],
]


def _report(report) -> dict:
    return {"value": repr(report.value), "witness": repr(report.witness),
            "enumerated": report.enumerated}


def record(spec: list) -> dict:
    nx, n1, n2, k1, k2, seed = spec
    dc = random_deterministic_channel(nx, n1, n2, seed=seed)
    table = dc.to_table()
    return {"spec": spec,
            "joint": _report(solve_joint(table, k1, k2)),
            "sum": _report(solve_sum(table, k1, k2)),
            "dqg": _report(solve_dqg(channel_graph(dc), k1, k2))}


def test_enumeration_matches_golden():
    cases = json.loads(DATA.read_text())
    assert [case["spec"] for case in cases] == SPECS
    for case in cases:
        assert record(case["spec"]) == case


if __name__ == "__main__":
    DATA.write_text(json.dumps([record(spec) for spec in SPECS], indent=1) + "\n")
