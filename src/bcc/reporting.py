"""Machine-readable run reports.

A report collects the quantities a command computed, the inequality checks
tying them together, and enough provenance (seed, tolerances, solver) to
reproduce the run.  Canonical serialization sorts keys and excludes
anything nondeterministic, so identical runs produce identical bytes.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

DEFAULT_CHECK_TOL = 1e-7
LE, GE, EQ = "<=", ">=", "="


@dataclass(frozen=True)
class Check:
    """One verified relation between two named quantities.

    slack is rhs - lhs, so a comfortable "<=" check has positive slack and
    a comfortable ">=" check has negative slack.
    """
    name: str
    claim: str
    lhs_name: str
    lhs_value: float
    relation: str
    rhs_name: str
    rhs_value: float
    slack: float
    tolerance: float
    passed: bool

    @property
    def margin(self) -> float:
        """slack signed so that it is nonnegative exactly when the relation holds;
        the check passes when margin >= -tolerance."""
        return _margin(self.relation, self.slack)


def make_check(name: str, claim: str, lhs_name: str, lhs_value: float,
               relation: str, rhs_name: str, rhs_value: float,
               tolerance: float = DEFAULT_CHECK_TOL) -> Check:
    if relation not in (LE, GE, EQ):
        raise ValueError(f"unknown relation {relation!r}")
    lhs, rhs = float(lhs_value), float(rhs_value)
    slack = rhs - lhs
    return Check(name, claim, lhs_name, lhs, relation, rhs_name, rhs,
                 slack, float(tolerance), _margin(relation, slack) >= -tolerance)


def _margin(relation: str, slack: float) -> float:
    if relation == LE:
        return slack
    if relation == GE:
        return -slack
    return -abs(slack)


@dataclass
class Report:
    """One command's canonical JSON report: inputs, results, checks and provenance."""

    command: str
    inputs: dict = field(default_factory=dict)
    quantities: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def add_check(self, *args, **kwargs) -> Check:
        check = make_check(*args, **kwargs)
        self.checks.append(check)
        return check

    @property
    def failed_checks(self) -> list:
        return [c for c in self.checks if not c.passed]

    @property
    def all_passed(self) -> bool:
        return not self.failed_checks

    def to_dict(self) -> dict:
        return jsonify({
            "command": self.command,
            "inputs": self.inputs,
            "quantities": self.quantities,
            "checks": [dataclasses.asdict(c) for c in self.checks],
            "witnesses": self.witnesses,
            "provenance": self.provenance,
        })

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def jsonify(obj):
    """Recursively convert numpy scalars, arrays, tuples, and dataclasses
    into plain JSON-serializable values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return jsonify(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset, np.ndarray)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [jsonify(v) for v in items]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj
