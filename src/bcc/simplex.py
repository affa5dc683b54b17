"""Dense linear programming: two-phase primal simplex with Bland's rule.

Models are maximization problems over nonnegative variables (x >= 0 is the
only bound; the toolkit's variables are weights and box entries, which are
probabilities), with dense constraint rows and relations <=, =, >=.
lp_solve picks one tableau class per solve, and everything that differs
between the numeric modes lives in it: _Tableau works in float64 on a column-major tableau with
small tolerances and guards against drift, _ExactTableau works in Fractions
(float inputs converted exactly from their binary representation, an
objective given as Fractions used as it is) with zero tolerances.  Both
update only the columns where the pivot row is nonzero.  Phase 1, Bland's
rule and the ratio test are shared.

Phase 1 and the exact checks depend only on the constraints (rows,
relations, right-hand side), never on the objective.  The simplex keeps one
record of the last constraint set it saw, compared by value: for each
numeric mode the state phase 1 ends in (the feasible tableau, its basis and
its pivot count), from a copy of which the next model with these
constraints starts phase 2, and the rows and right-hand side in Fractions,
converted by the first exact check (certify, or constraint_violation on
Fractions).  Phase 1 is deterministic, so values, vertices and pivot counts
(which still count the whole path from the slack basis) are those of a
solve from scratch.  Families of programs that differ only in their
objective, such as the decoder-box LPs of all encoders, thus pay for one
phase 1 per mode and one conversion.  Other constraints drop the record
before anything is built for them.

Bland's rule (lowest eligible index enters, ratio ties resolved by lowest
basis index) guarantees termination without cycling.

An exact optimum is best had from a float solve: certify rounds its vertex
and the duals of its final basis to small fractions and proves them optimal
in exact arithmetic, and solve_exact falls back to the Fraction simplex,
lp_solve(exact=True), only when that proof fails.  The Fraction simplex is
capped at EXACT_VAR_CAP variables; the certificate is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import (
    DimensionMismatchError,
    InfeasibleError,
    InvariantViolationError,
    IterationLimitError,
    SizeCapExceededError,
    ToolkitError,
    UnboundedError,
    ValidationError,
)
from .graphs import _as_int, _check_cap

LE, EQ, GE = "<=", "=", ">="

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-9
CHECK_TOL = 1e-7
DEFAULT_PIVOT_LIMIT = 10**6
EXACT_VAR_CAP = 200
CERT_DENOMINATOR = 10**6

_to_fraction = np.frompyfunc(Fraction, 1, 1)


@dataclass(eq=False)
class LpModel:
    """max objective . x  subject to  rows[i] . x (rel_i) rhs[i],  x >= 0.

    Every array is stored as float64, except an objective of Fractions (an
    object array), which an exact solve uses as it is.
    """

    num_vars: int
    objective: np.ndarray
    rows: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray
    var_names: tuple[str, ...] | None = None
    row_names: tuple[str, ...] | None = None

    def __post_init__(self):
        objective = np.asarray(self.objective)
        self.objective = objective if objective.dtype == object else objective.astype(float)
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

    @property
    def num_rows(self) -> int:
        return self.rows.shape[0]


@dataclass(eq=False)
class LpSolution:
    """An optimum, its vertex, the pivots taken and the final basis.

    pivots counts the pivots Bland's rule chose in both phases; the pivots
    that drive artificials out of the basis after phase 1 count only
    against max_pivots.

    The basis holds column indices of [A | D], where D has one unit column
    per row: column n + i is row i's slack, +1 on a <= row and -1 on a >=
    row, or on an = row the artificial of a row that phase 1 dropped as
    redundant.  There are num_rows of them, in no particular order.
    """

    status: str
    value: float | Fraction
    assignment: np.ndarray
    pivots: int
    basis: np.ndarray | None = None


def constraint_violation(model: LpModel, x) -> float | Fraction:
    """Largest violation of any row or of x >= 0 at the point x, or zero.

    An object array x (of Fractions) is checked in exact arithmetic.
    """
    x = np.asarray(x)
    worst = 0.0
    if x.dtype == object:
        # Only terms with a nonzero coefficient and a nonzero x_j are formed;
        # the others add exactly 0.
        frac = _fraction_rows(model)
        worst, used = Fraction(0), x[frac.col] != 0
        gap = -frac.rhs
        np.add.at(gap, frac.row[used], frac.value[used] * x[frac.col[used]])
    else:
        gap = model.rows @ x - model.rhs
    rel = np.asarray(model.relations)
    gaps = np.concatenate([gap[rel == LE], -gap[rel == GE], abs(gap[rel == EQ]), -x])
    return gaps.max(initial=worst)


class _Tableau:
    """Float tableau: rows [A | rhs] in float64, the basis, and the pivots taken.

    The tableau is column-major (Fortran order) from its build in phase 1
    to the copy each solve pivots, so a column is contiguous: the ratio test
    reads one, and a pivot gathers whole columns.  A pivot's rank-1 update
    runs only over the columns where the normalised pivot row is nonzero;
    pivot rows are mostly zeros on the programs the toolkit builds.  A
    skipped entry would have become x - c * 0.0 == x, so values, vertices
    and pivot counts are those of the dense update; only the sign of a zero
    can differ, and no comparison sees it.  The reduced costs are one
    reduction over the cost and the scaled basic rows, subtracted in row
    order as a loop would.  Against float drift the right-hand side is
    clipped at zero after each pivot.
    """

    scalar, dtype, zero, one = float, float, 0.0, 1.0
    order = "F"
    to_array = partial(np.array, dtype=float)
    pivot_tol, feas_tol, check_tol = PIVOT_TOL, FEAS_TOL, CHECK_TOL

    def __init__(self, T: np.ndarray, basis: np.ndarray, pivots: int, max_pivots: int):
        self.T, self.basis = T, basis
        self.pivots, self.max_pivots = pivots, max_pivots

    def pivot(self, p: int, q: int):
        T = self.T
        col = T[:, q].copy()
        col[p] = 0.0
        row = T[p]
        row /= row[q]
        cols = row.nonzero()[0]
        T[:, cols] -= col[:, None] * row[cols]
        T[:, q] = 0.0
        T[p, q] = 1.0
        self.basis[p] = q
        np.maximum(T[:, -1], 0.0, out=T[:, -1])

    def subtract_row(self, r, coef, i: int):
        """r -= coef * T[i, :-1], in place."""
        r -= coef * self.T[i, :-1]

    def reduced_costs(self, cost):
        basic_cost = cost[self.basis]
        rows = np.flatnonzero(basic_cost)
        return np.subtract.reduce(np.vstack([cost, basic_cost[rows, None] * self.T[rows, :-1]]))

    def entering(self, r) -> int:
        """Lowest index with positive reduced cost, or -1 at an optimum."""
        above = r > self.pivot_tol
        q = int(above.argmax())
        return q if above[q] else -1

    def leaving(self, q: int) -> int:
        """Minimum-ratio row, or -1 when none; ratio ties go to the lowest
        basis index."""
        col = self.T[:, q]
        rows = (col > self.pivot_tol).nonzero()[0]
        if rows.size < 2:
            return int(rows[0]) if rows.size else -1
        ratios = self.T[rows, -1] / col[rows]
        ties = rows[ratios == ratios.min()]
        if ties.size == 1:
            return int(ties[0])
        return int(ties[np.argmin(self.basis[ties])])

    def run_phase(self, cost, phase: int):
        """Pivot to an optimum of cost.

        At an apparent optimum the reduced costs are recomputed from scratch
        once, so that float drift cannot stop a run early.  In exact
        arithmetic they come out equal, and no pivot changes.
        """
        r = self.reduced_costs(cost)
        fresh = True
        while True:
            q = self.entering(r)
            if q < 0:
                if fresh:
                    return
                r = self.reduced_costs(cost)
                fresh = True
                continue
            fresh = False
            p = self.leaving(q)
            if p < 0:
                if phase == 1:
                    raise InvariantViolationError("phase-1 objective unbounded")
                raise UnboundedError("objective is unbounded above")
            self.counted_pivot(p, q)
            self.subtract_row(r, r[q], p)
            r[q] = self.zero

    def counted_pivot(self, p: int, q: int):
        """Pivot, counting the pivot against max_pivots."""
        self.pivots += 1
        if self.pivots > self.max_pivots:
            raise IterationLimitError(self.pivots)
        self.pivot(p, q)


class _ExactTableau(_Tableau):
    """Exact tableau: object arrays of Fractions and zero tolerances.

    The tableau is row-major.  A row update (the pivot, the reduced-cost
    update) touches only the nonzeros of the pivot row and column.  The
    skipped terms are exact zeros, so values, vertices and pivot counts are
    those of the dense update, and most Fraction products are never formed.
    The update itself leaves the pivot column a unit column, exactly.
    The ratio test keeps the right-hand side nonnegative, so nothing is
    clipped.
    """

    scalar, dtype, zero, one = Fraction, object, Fraction(0), Fraction(1)
    order = "C"
    to_array = _to_fraction
    pivot_tol = feas_tol = check_tol = 0

    def pivot(self, p: int, q: int):
        T = self.T
        col = T[:, q].copy()
        col[p] = self.zero
        cols = np.flatnonzero(T[p])
        T[p, cols] = T[p, cols] / T[p, q]
        rows = np.flatnonzero(col)
        T[np.ix_(rows, cols)] -= np.outer(col[rows], T[p, cols])
        self.basis[p] = q

    def subtract_row(self, r, coef, i: int):
        row = self.T[i, :-1]
        cols = np.flatnonzero(row)
        r[cols] -= coef * row[cols]

    def reduced_costs(self, cost):
        r = cost.copy()
        basic_cost = cost[self.basis]
        for i in np.flatnonzero(basic_cost != self.zero):
            self.subtract_row(r, basic_cost[i], i)
        return r


@dataclass(frozen=True, eq=False)
class _Phase1:
    """Where phase 1 leaves a model: a feasible basis of its constraints.

    The tableau and the basis (read-only) have the artificial columns and
    the redundant rows dropped.  columns maps each tableau column to its
    column of [A | D] (see LpSolution), and redundant lists the original
    rows whose artificial stayed basic, that is the rows dropped.  pivots
    counts every pivot taken, driven of them to pivot surviving artificials
    out; both count against max_pivots, but a solution reports pivots -
    driven.
    """

    tableau: np.ndarray
    basis: np.ndarray
    pivots: int
    driven: int
    columns: np.ndarray
    redundant: np.ndarray


@dataclass(eq=False)
class _Constraints:
    """What the solves and exact checks of one constraint set share.

    key is the constraints by value: dtype, shape and bytes of the rows and
    of the rhs, and the relations.  phase1 holds where phase 1 ends, one
    entry per mode (exact or not).  row, col and value are the nonzeros of
    the rows, row-major, and rhs the right-hand side, in Fractions converted
    exactly from their floats; the first exact check fills them in.
    """

    key: tuple
    phase1: dict[bool, _Phase1] = field(default_factory=dict)
    row: np.ndarray | None = None
    col: np.ndarray | None = None
    value: np.ndarray | None = None
    rhs: np.ndarray | None = None


_last_constraints: _Constraints | None = None
"""The record of the last constraint set seen, the simplex's only cache."""


def _constraints(model: LpModel) -> _Constraints:
    """The record of the model's constraints.  Constraints other than the
    last record's replace it with an empty record, so the old set's
    tableaux and Fractions are freed before anything is built for the new."""
    global _last_constraints
    key = (*((a.dtype.str, a.shape, a.tobytes()) for a in (model.rows, model.rhs)),
           tuple(model.relations))
    if _last_constraints is None or _last_constraints.key != key:
        _last_constraints = _Constraints(key)
    return _last_constraints


def _fraction_rows(model: LpModel) -> _Constraints:
    """The record of the model's constraints, with its rows and rhs in Fractions."""
    record = _constraints(model)
    if record.rhs is None:
        i, j = np.nonzero(model.rows)
        record.row, record.col, record.value, record.rhs = (
            i, j, _to_fraction(model.rows[i, j]), _to_fraction(model.rhs))
    return record


def _phase1(model: LpModel, tableau_cls: type[_Tableau], max_pivots: int) -> _Phase1:
    """Build the tableau from the slack basis, run phase 1, drive out artificials."""
    zero, one = tableau_cls.zero, tableau_cls.one
    n, m = model.num_vars, model.num_rows
    A, b = tableau_cls.to_array(model.rows), tableau_cls.to_array(model.rhs)

    # Negate the rows with b < 0, which swaps their <= and >=.
    rel = np.asarray(model.relations)
    flip = b < zero
    A[flip], b[flip] = -A[flip], -b[flip]
    le = np.where(flip, rel == GE, rel == LE)
    slack_rows, art_rows = np.flatnonzero(rel != EQ), np.flatnonzero(~le)

    # A slack column for every row but the = rows, an artificial column for
    # every row but the <= rows, both in row order.  An artificial is basic
    # where there is one, otherwise the slack.
    art_start = n + slack_rows.size
    ncols = art_start + art_rows.size
    slack_cols, art_cols = np.arange(n, art_start), np.arange(art_start, ncols)
    T = np.full((m, ncols + 1), zero, dtype=tableau_cls.dtype, order=tableau_cls.order)
    T[:, :n] = A
    T[:, -1] = b
    T[slack_rows, slack_cols] = np.where(le[slack_rows], one, -one)
    T[art_rows, art_cols] = one
    basis = np.zeros(m, dtype=np.intp)
    basis[slack_rows] = slack_cols
    basis[art_rows] = art_cols

    tab = tableau_cls(T, basis, 0, max_pivots)
    kept = np.ones(m, dtype=bool)
    driven = 0
    if art_rows.size:
        cost1 = np.full(ncols, zero, dtype=tableau_cls.dtype)
        cost1[art_start:] = -one
        tab.run_phase(cost1, phase=1)
        infeas = sum(T[basis >= art_start, -1])
        if infeas > tableau_cls.feas_tol:
            raise InfeasibleError(f"phase-1 residual {infeas}")
        # Pivot surviving artificials out, dropping redundant rows.
        for i in np.flatnonzero(basis >= art_start):
            nonzero = np.flatnonzero(abs(T[i, :art_start]) > tableau_cls.pivot_tol)
            if nonzero.size:
                tab.counted_pivot(i, int(nonzero[0]))
                driven += 1
            else:
                kept[i] = False
    # The artificial basic in a dropped tableau row can be another row's:
    # the redundant rows are the artificials' own rows, not the rows of ~kept.
    redundant = art_rows[basis[~kept] - art_start]
    T = np.asarray(T[np.ix_(kept, np.r_[:art_start, ncols])], order=tableau_cls.order)
    basis = basis[kept]
    T.flags.writeable = basis.flags.writeable = False
    return _Phase1(T, basis, tab.pivots, driven,
                   np.r_[:n, n + slack_rows], redundant)


def lp_solve(model: LpModel, exact: bool = False,
             max_pivots: int = DEFAULT_PIVOT_LIMIT) -> LpSolution:
    """Solve to optimality or raise Infeasible / Unbounded / IterationLimit.

    Phase 1 is skipped when the previous call in the same mode ran it on the
    same constraints; the result and its pivot count are those of a full solve.
    """
    max_pivots = _as_int(max_pivots, "max_pivots", 0)
    if exact:
        _check_cap(SizeCapExceededError, EXACT_VAR_CAP, (model.num_vars, 1))
    tableau_cls = _ExactTableau if exact else _Tableau
    phase1 = _constraints(model).phase1
    start = phase1.get(exact)
    if start is None:
        start = phase1[exact] = _phase1(model, tableau_cls, max_pivots)
    elif start.pivots > max_pivots:
        raise IterationLimitError(max_pivots + 1)

    n, zero, dtype = model.num_vars, tableau_cls.zero, tableau_cls.dtype
    c = tableau_cls.to_array(model.objective)
    tab = tableau_cls(start.tableau.copy(order="K"), start.basis.copy(), start.pivots, max_pivots)
    cost2 = np.full(tab.T.shape[1] - 1, zero, dtype=dtype)
    cost2[:n] = c
    tab.run_phase(cost2, phase=2)

    x = np.full(n, zero, dtype=dtype)
    structural = tab.basis < n
    x[tab.basis[structural]] = tab.T[structural, -1]
    value = tableau_cls.scalar(sum(ci * xi for ci, xi in zip(c, x)))

    violation = constraint_violation(model, x)
    if violation > tableau_cls.check_tol:
        raise InvariantViolationError(f"optimal point violates a constraint by {violation}")
    basis = np.concatenate([start.columns[tab.basis], n + start.redundant])
    return LpSolution("optimal", value, x, tab.pivots - start.driven, basis)


def _basis_duals(model: LpModel, basis: np.ndarray) -> np.ndarray:
    """Float duals of a basis of [A | D]: the y with B^T y = c_B.

    The basic unit column of a redundant = row has cost zero, so y is zero
    there.  Raises numpy's LinAlgError when B is singular.
    """
    n, m = model.num_vars, model.num_rows
    structural = basis < n
    B = np.zeros((m, m))
    B[:, structural] = model.rows[:, basis[structural]]
    rows = basis[~structural] - n
    B[rows, np.flatnonzero(~structural)] = np.where(
        np.asarray(model.relations)[rows] == GE, -1.0, 1.0)
    c_B = np.zeros(m)
    c_B[structural] = np.asarray(model.objective, dtype=float)[basis[structural]]
    return np.linalg.solve(B.T, c_B)


def _rational(v: np.ndarray) -> np.ndarray:
    """Each nonzero entry rounded to the nearest fraction of denominator at
    most CERT_DENOMINATOR; an object array is taken as it is."""
    if v.dtype == object:
        return v
    out = np.full(v.shape, Fraction(0), dtype=object)
    support = np.flatnonzero(v)
    out[support] = [Fraction(f).limit_denominator(CERT_DENOMINATOR) for f in v[support]]
    return out


def certify(model: LpModel, sol: LpSolution) -> LpSolution | None:
    """The exact optimum of model, proved from a solution and its basis, or None.

    The vertex x and the duals y of the final basis are rounded (_rational)
    and checked in exact arithmetic, the cheapest checks first: the dual
    signs (y >= 0 on <= rows, y <= 0 on >= rows), c.x == b.y, c - A^T y <= 0,
    and every row and x >= 0.  By weak duality x is then optimal, and c.x is
    the exact optimum.  The objective c is the model's Fractions, or its
    floats converted exactly, as lp_solve(exact=True) takes it, and only
    terms with a nonzero factor are formed.  Returns None when the basis is
    missing or singular or a check fails.
    """
    basis = sol.basis
    if basis is None or basis.shape != (model.num_rows,):
        return None
    try:
        y = _rational(_basis_duals(model, basis))
    except np.linalg.LinAlgError:
        return None
    rel = np.asarray(model.relations)
    if (y[rel == LE] < 0).any() or (y[rel == GE] > 0).any():
        return None
    x = _rational(np.asarray(sol.assignment))
    c = model.objective if model.objective.dtype == object else _to_fraction(model.objective)
    support, duals = np.flatnonzero(x), np.flatnonzero(y)
    value = sum(c[support] * x[support], Fraction(0))
    frac = _fraction_rows(model)
    if value != sum(frac.rhs[duals] * y[duals], Fraction(0)):
        return None
    used = y[frac.row] != 0
    aty = np.full(model.num_vars, Fraction(0), dtype=object)
    np.add.at(aty, frac.col[used], frac.value[used] * y[frac.row[used]])
    if (c - aty > 0).any() or constraint_violation(model, x) > 0:
        return None
    return LpSolution("optimal", value, x, sol.pivots, basis)


def solve_exact(model: LpModel, solve=lp_solve) -> LpSolution:
    """Exact optimum: a float solve that certify proves, else the Fraction simplex.

    solve is the lp_solve to call, for the float solve and for the fallback
    solve(model, exact=True); a caller passes the name it imported, so that
    a wrapper installed there sees both.  A float solve that raises falls
    back too.  Only the fallback is capped at EXACT_VAR_CAP variables.
    """
    try:
        cert = certify(model, solve(model))
    except ToolkitError:
        cert = None
    return cert if cert is not None else solve(model, exact=True)


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
    for name in names:
        fp.write(f" {name} >= 0\n")
    fp.write("End\n")
