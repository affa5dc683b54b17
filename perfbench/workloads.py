"""The four workloads, their instances, and the checks on instance outputs.

Imports only the standard library, so the runner stays small and the peak
resident set of the instance processes it starts is their own (a forked
child starts from its parent's resident set).  corpus.py builds instances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

REF_TOL = 1e-7      # an independent reference value against the reported one
EXACT_TOL = 1e-9    # an exact Fraction against its own float
SUCCESS_TOL = 1e-9  # success recomputed from a witness code


@dataclass
class Instance:
    """One process to run: `bcc ARGS` for kind "cli", child.py approx for "approx"."""

    id: str
    kind: str
    args: list[str]
    channel: str
    expect: dict = field(default_factory=dict)   # reference values of quantities

    def pairs(self) -> list | None:
        """Output pair of each input, for deterministic channels."""
        return json.loads(Path(self.channel).read_text()).get("pairs")


WORKLOADS = {
    "solve-dense": {
        "why": "float simplex and decoder-box LP builds do the work (ns-dec solves 81 LPs "
               "per channel); enumeration and approx do almost none",
        "depends": {
            "instances_per_ref": ["simplex.float.self_s", "simplex.float.pivots",
                                "nsprograms.build_s", "exact.ns_dec.encoders"],
            "latency_p50_ref": ["simplex.float.self_s", "nsprograms.build_s",
                              "exact.ns_dec.self_s"],
            "latency_tail_ref": ["simplex.float.pivots", "simplex.float.tableau_cells"],
            "peak_rss_mb": ["simplex.float.tableau_cells"],
            "setup_s": ["python.startup_s"],
        },
    },
    "solve-exact": {
        "why": "the same simplex in Fraction mode; a change that speeds the float path "
               "but slows or breaks the exact one shows here",
        "depends": {
            "instances_per_ref": ["simplex.exact.self_s", "simplex.exact.pivots"],
            "latency_p50_ref": ["simplex.exact.self_s", "nsprograms.build_s"],
            "latency_tail_ref": ["simplex.exact.pivots", "simplex.exact.tableau_cells"],
            "peak_rss_mb": ["simplex.exact.tableau_cells"],
            "setup_s": ["python.startup_s"],
        },
    },
    "det-cli": {
        "why": "decoder enumeration and the dense to_table/joint_success cross-check do "
               "the work through the CLI; the simplex does none",
        "depends": {
            "instances_per_ref": ["exact.enum.self_s", "exact.enum.candidates",
                                "exact.enum.redundant_share"],
            "latency_p50_ref": ["exact.enum.self_s", "exact.joint_success_s"],
            "latency_tail_ref": ["exact.joint_success_s", "channels.to_table_s"],
            "peak_rss_mb": ["channels.dense_entries"],
            "setup_s": ["python.startup_s"],
        },
    },
    "approx": {
        "why": "the approximation at the sizes it is for, through the library, since the "
               "CLI would need a dense table of |X||Y1||Y2| entries",
        "depends": {
            "instances_per_ref": ["graphs.quotient_edge_count.self_s", "approx.greedy_s",
                                "approx.sampling_s"],
            "latency_p50_ref": ["files.load_s", "graphs.build_s", "approx.derandomize_s"],
            "latency_tail_ref": ["approx.greedy_s", "approx.greedy_calls"],
            "peak_rss_mb": ["files.bytes_read"],
            "setup_s": ["python.startup_s"],
        },
    },
}


ROTATION = {"solve-dense": 6, "solve-exact": 2, "det-cli": 3, "approx": 2}
"""Lengths of the shape rotations in corpus.py; the smoke run uses one cycle."""


def load_corpus(work: Path) -> list[Instance]:
    return [Instance(**doc) for doc in json.loads((work / "corpus.json").read_text())]


def _det_success(pairs, encoder, decoder1, decoder2, objective: str) -> float:
    """Success of a deterministic code on a deterministic channel, by counting."""
    k1, k2 = len(encoder), len(encoder[0])
    hits = 0
    for i1, row in enumerate(encoder):
        for i2, x in enumerate(row):
            y1, y2 = pairs[x]
            right1, right2 = decoder1[y1] == i1, decoder2[y2] == i2
            hits += (right1 and right2) if objective == "joint" else right1 + right2
    return hits / (k1 * k2) if objective == "joint" else hits / (2 * k1 * k2)


def check_output(inst: Instance, text: str) -> str | None:
    """None when the output is right, else the reason it is wrong."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if inst.kind == "approx":
        return _check_approx(inst, doc)
    failed = [c["name"] for c in doc.get("checks", []) if not c["passed"]]
    if failed:
        return f"failed checks {failed}"
    q = doc["quantities"]
    for key, want in inst.expect.items():
        if abs(q[key] - want) > REF_TOL:
            return f"{key} = {q[key]!r}, reference {want!r}"
        exact = q.get(f"{key}_exact")
        if exact is not None:
            value = Fraction(exact)
            if abs(float(value) - q[key]) > EXACT_TOL or abs(value - Fraction(want)) > REF_TOL:
                return f"{key}_exact = {exact} disagrees with {q[key]!r} or {want!r}"
    pairs = inst.pairs()
    return None if pairs is None else _check_det_cli(pairs, doc)


def _check_det_cli(pairs: list, doc: dict) -> str | None:
    q, wit = doc["quantities"], doc["witnesses"]
    if doc["command"] == "approx":
        code, k1, k2 = wit["code"], doc["inputs"]["k1"], doc["inputs"]["k2"]
        got = _det_success(pairs, code["encoder"], code["decoder1"], code["decoder2"],
                           "joint")
        if (abs(got - q["S_approx"]) > SUCCESS_TOL
                or abs(got * k1 * k2 - q["approx_value"]) > SUCCESS_TOL):
            return f"approx code succeeds {got!r}, report says {q['S_approx']!r}"
        if q["approx_value"] > q["upper_bound"]:
            return "approx value above its upper bound"
        return None
    for key, objective, name in (("S", "joint", "joint_code"), ("S_sum", "sum", "sum_code")):
        code = wit[name]
        got = _det_success(pairs, code["encoder"], code["decoder1"], code["decoder2"],
                           objective)
        if abs(got - q[key]) > SUCCESS_TOL:
            return f"{name} succeeds {got!r}, report says {key} = {q[key]!r}"
    return None


def _check_approx(inst: Instance, doc: dict) -> str | None:
    k1, k2 = int(inst.args[1]), int(inst.args[2])
    if doc["value"] > doc["upper_bound"]:
        return f"value {doc['value']} above upper bound {doc['upper_bound']}"
    got = _det_success(inst.pairs(), doc["encoder"], doc["decoder1"], doc["decoder2"], "joint")
    if abs(got - doc["value"] / (k1 * k2)) > SUCCESS_TOL:
        return f"derived code succeeds {got!r}, partitions give {doc['value'] / (k1 * k2)!r}"
    return None
