"""Dense linear programming: two-phase primal simplex with Bland's rule.

Models are maximization problems over variables with lower bounds (zero by
default), dense constraint rows, and relations <=, =, >=.  Both numeric modes
run the same tableau code; the mode decides only four things:

* the scalar type: float64 arrays, or object arrays of Fractions (inputs
  converted exactly from their binary float representation);
* the pivot, feasibility and final-check tolerances: 1e-9, 1e-9 and 1e-7,
  or all zero;
* whether to guard against float drift (float only): the right-hand side is
  clipped at zero after each pivot, and the reduced costs are recomputed
  from scratch once at an apparent optimum before the solver commits, so
  that incremental drift cannot stop a run early.  In exact arithmetic the
  ratio test keeps the right-hand side nonnegative and the reduced costs
  are exact, so neither is needed;
* whether a row update (the pivot, the reduced-cost update) touches only
  the nonzeros of the pivot row and column (exact only).  The skipped terms
  are exact zeros, so values, vertices and pivot counts are those of the
  dense update, and most Fraction products are never formed.  A float pivot
  stays one dense numpy update: its cost is numpy call overhead, not
  arithmetic, and gathering the nonzeros would add calls.

Phase 1 depends only on the constraints (rows, relations, right-hand side,
lower bounds) and the numeric mode, never on the objective.  lp_solve keeps
the state phase 1 ends in (the feasible tableau, its basis and its pivot
count) for the last constraints it saw, and a following model with the same
constraints, compared by value, starts phase 2 from a copy of it.  Phase 1
is deterministic, so values, vertices and pivot counts (which still count
the whole path from the slack basis) are those of a solve from scratch.
Families of programs that differ only in their objective, such as the
decoder-box LPs of all encoders, thus pay for one phase 1.

Bland's rule (lowest eligible index enters, ratio ties resolved by lowest
basis index) guarantees termination without cycling.  Exact mode is meant for
small certificates and is capped at EXACT_VAR_CAP variables.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import (
    DimensionMismatchError,
    InfeasibleError,
    InvariantViolationError,
    IterationLimitError,
    SizeCapExceededError,
    UnboundedError,
    ValidationError,
)

LE, EQ, GE = "<=", "=", ">="

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-9
CHECK_TOL = 1e-7
DEFAULT_PIVOT_LIMIT = 10**6
EXACT_VAR_CAP = 200


@dataclass(frozen=True)
class _NumericMode:
    """All that differs between float and exact solves; the tableau code is shared."""

    scalar: type
    dtype: type
    to_array: Callable  # float array -> array of scalars, exact for Fractions
    pivot_tol: float
    feas_tol: float
    check_tol: float
    guard_drift: bool
    sparse_updates: bool


_FLOAT = _NumericMode(float, float, partial(np.array, dtype=float),
                      PIVOT_TOL, FEAS_TOL, CHECK_TOL, True, False)
_EXACT = _NumericMode(Fraction, object, np.frompyfunc(Fraction, 1, 1), 0, 0, 0, False, True)


@dataclass
class LpModel:
    """max objective . x  subject to  rows[i] . x (rel_i) rhs[i],  x >= lower_bounds."""

    num_vars: int
    objective: np.ndarray
    rows: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray
    lower_bounds: np.ndarray | None = None
    var_names: tuple[str, ...] | None = None
    row_names: tuple[str, ...] | None = None

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.rows = np.asarray(self.rows, dtype=float).reshape(-1, self.num_vars)
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.objective.shape != (self.num_vars,):
            raise DimensionMismatchError("objective length must equal num_vars")
        if self.rhs.shape != (self.rows.shape[0],):
            raise DimensionMismatchError("one rhs entry per row required")
        if len(self.relations) != self.rows.shape[0]:
            raise DimensionMismatchError("one relation per row required")
        if any(rel not in (LE, EQ, GE) for rel in self.relations):
            raise ValidationError(f"relations must be one of {LE!r}, {EQ!r}, {GE!r}")
        if self.lower_bounds is not None:
            self.lower_bounds = np.asarray(self.lower_bounds, dtype=float)
            if self.lower_bounds.shape != (self.num_vars,):
                raise DimensionMismatchError("one lower bound per variable required")

    @property
    def num_rows(self) -> int:
        return self.rows.shape[0]


@dataclass
class LpSolution:
    status: str
    value: float | Fraction
    assignment: np.ndarray
    pivots: int


def constraint_violation(model: LpModel, x) -> float | Fraction:
    """Largest violation of any row or lower bound at the point x, or zero.

    An object array x (of Fractions) is checked in exact arithmetic.
    """
    x = np.asarray(x)
    rhs, worst = model.rhs, 0.0
    lb = np.zeros(model.num_vars) if model.lower_bounds is None else model.lower_bounds
    if x.dtype == object:
        # Only nonzero coefficients become Fractions; zero terms add exactly 0.
        rhs, lb, worst = _EXACT.to_array(rhs), _EXACT.to_array(lb), Fraction(0)
        i, j = np.nonzero(model.rows)
        gap = -rhs
        np.add.at(gap, i, _EXACT.to_array(model.rows[i, j]) * x[j])
    else:
        gap = model.rows @ x - rhs
    rel = np.asarray(model.relations)
    gaps = np.concatenate([gap[rel == LE], -gap[rel == GE], abs(gap[rel == EQ]), lb - x])
    return gaps.max(initial=worst)


def _content(a: np.ndarray) -> tuple:
    return a.dtype.str, a.shape, a.tobytes()


def _constraint_key(model: LpModel, exact: bool) -> tuple:
    """Everything phase 1 depends on: the mode and the constraints, by value."""
    lb = model.lower_bounds
    return (exact, _content(model.rows), _content(model.rhs), tuple(model.relations),
            None if lb is None else _content(lb))


class _Tableau:
    """Rows [A | rhs] of a simplex tableau, its basis, and the pivots taken."""

    def __init__(self, T: np.ndarray, basis: list, mode: _NumericMode, pivots: int,
                 max_pivots: int):
        self.T, self.basis, self.mode = T, basis, mode
        self.pivots, self.max_pivots = pivots, max_pivots
        self.zero, self.one = mode.scalar(0), mode.scalar(1)

    def pivot(self, p: int, q: int):
        T, zero = self.T, self.zero
        col = T[:, q].copy()
        col[p] = zero
        if self.mode.sparse_updates:
            cols = np.flatnonzero(T[p])
            T[p, cols] = T[p, cols] / T[p, q]
            rows = np.flatnonzero(col)
            T[np.ix_(rows, cols)] -= np.outer(col[rows], T[p, cols])
        else:
            T[p] = T[p] / T[p, q]
            T -= np.outer(col, T[p])
        T[:, q] = zero
        T[p, q] = self.one
        self.basis[p] = q
        if self.mode.guard_drift:
            T[:, -1] = np.maximum(T[:, -1], zero)

    def subtract_row(self, r, coef, i: int):
        """r -= coef * T[i, :-1], in place."""
        row = self.T[i, :-1]
        if self.mode.sparse_updates:
            cols = np.flatnonzero(row)
            r[cols] -= coef * row[cols]
        else:
            r -= coef * row

    def reduced_costs(self, cost):
        r = cost.copy()
        for i, bi in enumerate(self.basis):
            if cost[bi] != self.zero:
                self.subtract_row(r, cost[bi], i)
        return r

    def entering(self, r) -> int:
        """Lowest index with positive reduced cost, or -1 at an optimum."""
        above = np.flatnonzero(r > self.mode.pivot_tol)
        return int(above[0]) if above.size else -1

    def leaving(self, q: int) -> int:
        """Minimum-ratio row; ratio ties go to the lowest basis index."""
        col = self.T[:, q]
        rows = np.flatnonzero(col > self.mode.pivot_tol)
        if not rows.size:
            return -1
        ratios = self.T[rows, -1] / col[rows]
        ties = rows[ratios == ratios.min()]
        return int(ties[np.argmin(np.asarray(self.basis)[ties])])

    def run_phase(self, cost, phase: int):
        r = self.reduced_costs(cost)
        refreshed = False
        while True:
            q = self.entering(r)
            if q < 0:
                if refreshed or not self.mode.guard_drift:
                    return
                r = self.reduced_costs(cost)  # guard against incremental drift
                refreshed = True
                continue
            refreshed = False
            p = self.leaving(q)
            if p < 0:
                if phase == 1:
                    raise InvariantViolationError("phase-1 objective unbounded")
                raise UnboundedError("objective is unbounded above")
            self.pivots += 1
            if self.pivots > self.max_pivots:
                raise IterationLimitError(self.pivots)
            self.pivot(p, q)
            self.subtract_row(r, r[q], p)
            r[q] = self.zero


@dataclass(frozen=True)
class _Phase1:
    """Where phase 1 leaves a model: a feasible basis of its constraints.

    The tableau (read-only) has the artificial columns dropped; lb holds the
    lower bounds in the mode's scalars, or None.
    """

    key: tuple
    tableau: np.ndarray
    basis: tuple[int, ...]
    pivots: int
    lb: np.ndarray | None


_last_phase1: _Phase1 | None = None
"""The latest phase 1; lp_solve starts phase 2 from it when the key matches."""


def _phase1(model: LpModel, mode: _NumericMode, key: tuple, max_pivots: int) -> _Phase1:
    """Build the tableau from the slack basis, run phase 1, drive out artificials."""
    dtype, tol = mode.dtype, mode.pivot_tol
    zero, one = mode.scalar(0), mode.scalar(1)

    n = model.num_vars
    A, b = mode.to_array(model.rows), mode.to_array(model.rhs)

    # Shift out nonzero lower bounds: x = lb + x', x' >= 0.
    lb = None if model.lower_bounds is None else mode.to_array(model.lower_bounds)
    if lb is not None:
        b = b - A @ lb

    relations = list(model.relations)
    for i in range(len(b)):
        if b[i] < zero:
            A[i] = -A[i]
            b[i] = -b[i]
            relations[i] = {LE: GE, GE: LE, EQ: EQ}[relations[i]]

    m = len(b)
    n_slack = sum(1 for r in relations if r != EQ)
    n_art = sum(1 for r in relations if r != LE)
    ncols = n + n_slack + n_art
    T = np.full((m, ncols + 1), zero, dtype=dtype)
    T[:, :n] = A
    T[:, -1] = b

    basis = [0] * m
    slack_at, art_at = n, n + n_slack
    art_start = n + n_slack
    for i, rel in enumerate(relations):
        if rel == LE:
            T[i, slack_at] = one
            basis[i] = slack_at
            slack_at += 1
        elif rel == GE:
            T[i, slack_at] = -one
            slack_at += 1
            T[i, art_at] = one
            basis[i] = art_at
            art_at += 1
        else:
            T[i, art_at] = one
            basis[i] = art_at
            art_at += 1

    tab = _Tableau(T, basis, mode, 0, max_pivots)
    if n_art:
        cost1 = np.full(ncols, zero, dtype=dtype)
        cost1[art_start:] = -one
        tab.run_phase(cost1, phase=1)
        infeas = sum(T[i, -1] for i in range(m) if basis[i] >= art_start)
        if infeas > mode.feas_tol:
            raise InfeasibleError(f"phase-1 residual {infeas}")
        # Pivot surviving artificials out, dropping redundant rows.
        keep = []
        for i in range(m):
            if basis[i] < art_start:
                keep.append(i)
                continue
            nonzero = np.flatnonzero(abs(T[i, :art_start]) > tol)
            if nonzero.size:
                tab.pivot(i, int(nonzero[0]))
                keep.append(i)
        if len(keep) < m:
            T = T[keep]
            basis = [basis[i] for i in keep]
    T = np.concatenate([T[:, :art_start], T[:, -1:]], axis=1)
    T.flags.writeable = False
    return _Phase1(key, T, tuple(basis), tab.pivots, lb)


def lp_solve(model: LpModel, exact: bool = False,
             max_pivots: int = DEFAULT_PIVOT_LIMIT) -> LpSolution:
    """Solve to optimality or raise Infeasible / Unbounded / IterationLimit.

    Phase 1 is skipped when the previous call ran it on the same constraints
    in the same mode; the result and its pivot count are those of a full solve.
    """
    global _last_phase1
    if exact and model.num_vars > EXACT_VAR_CAP:
        raise SizeCapExceededError(model.num_vars, EXACT_VAR_CAP)
    mode = _EXACT if exact else _FLOAT
    key = _constraint_key(model, exact)
    start = _last_phase1
    if start is None or start.key != key:
        _last_phase1 = None   # so the old tableau is freed before the new one is built
        start = _last_phase1 = _phase1(model, mode, key, max_pivots)
    elif start.pivots > max_pivots:
        raise IterationLimitError(max_pivots + 1)

    n = model.num_vars
    zero = mode.scalar(0)
    c = mode.to_array(model.objective)
    tab = _Tableau(start.tableau.copy(), list(start.basis), mode, start.pivots, max_pivots)
    cost2 = np.full(tab.T.shape[1] - 1, zero, dtype=mode.dtype)
    cost2[:n] = c
    tab.run_phase(cost2, phase=2)

    x = np.full(n, zero, dtype=mode.dtype)
    for i, bi in enumerate(tab.basis):
        if bi < n:
            x[bi] = tab.T[i, -1]
    if start.lb is not None:
        x = x + start.lb
    value = mode.scalar(sum(ci * xi for ci, xi in zip(c, x)))

    violation = constraint_violation(model, x)
    if violation > mode.check_tol:
        raise InvariantViolationError(f"optimal point violates a constraint by {violation}")
    return LpSolution("optimal", value, x, tab.pivots)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def lp_write_text(model: LpModel, fp) -> None:
    """Write the model in the conventional human-readable LP text format."""
    names = model.var_names or tuple(f"x{j}" for j in range(model.num_vars))
    rownames = model.row_names or tuple(f"c{i}" for i in range(model.num_rows))

    def terms(coeffs):
        parts = []
        for j, v in enumerate(coeffs):
            if v != 0:
                sign = "+" if v >= 0 else "-"
                parts.append(f"{sign} {_fmt(abs(v))} {names[j]}")
        return " ".join(parts) if parts else f"+ 0 {names[0]}"

    fp.write("Maximize\n")
    fp.write(f" obj: {terms(model.objective)}\n")
    fp.write("Subject To\n")
    for i in range(model.num_rows):
        fp.write(f" {rownames[i]}: {terms(model.rows[i])} {model.relations[i]} "
                 f"{_fmt(model.rhs[i])}\n")
    fp.write("Bounds\n")
    lb = model.lower_bounds
    for j in range(model.num_vars):
        low = 0.0 if lb is None else float(lb[j])
        fp.write(f" {names[j]} >= {_fmt(low)}\n")
    fp.write("End\n")
