"""Linear programs for non-signaling assisted broadcast decoding.

The compact program works with aggregated success weights instead of a full
correlated box: p[x] is an input weight, r[x,y1,y2] the both-correct weight,
r1[x,y1] and r2[x,y2] the per-receiver correct weights.  Feasible compact
points and full non-signaling boxes have the same optimal values, and for
k1, k2 >= 2 a compact point lifts back to a full box in closed form.

Variable order of the compact model is fixed (p block, then r row-major,
then r1, then r2) so exported files and extracted solutions line up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channels import ChannelTable, marginals
from .errors import (
    BadParametersError,
    InvariantViolationError,
    SizeCapExceededError,
    ValidationError,
)
from .simplex import EQ, GE, LE, LpModel, LpSolution, lp_solve

DEFAULT_FULL_VAR_CAP = 20_000
EXTRACT_TOL = 1e-7


def _check_k(k1: int, k2: int):
    if k1 < 1 or k2 < 1:
        raise BadParametersError("message counts must be >= 1")


class _CompactLayout:
    """Index bookkeeping for the compact variable vector."""

    def __init__(self, nx: int, n1: int, n2: int):
        self.nx, self.n1, self.n2 = nx, n1, n2
        self.p0 = 0
        self.r0 = nx
        self.r10 = self.r0 + nx * n1 * n2
        self.r20 = self.r10 + nx * n1
        self.total = self.r20 + nx * n2

    def p(self, x):
        return self.p0 + x

    def r(self, x, y1, y2):
        return self.r0 + (x * self.n1 + y1) * self.n2 + y2

    def r1(self, x, y1):
        return self.r10 + x * self.n1 + y1

    def r2(self, x, y2):
        return self.r20 + x * self.n2 + y2

    def names(self):
        out = [f"p_x{x}" for x in range(self.nx)]
        out += [f"r_x{x}_a{y1}_b{y2}" for x in range(self.nx)
                for y1 in range(self.n1) for y2 in range(self.n2)]
        out += [f"r1_x{x}_a{y1}" for x in range(self.nx) for y1 in range(self.n1)]
        out += [f"r2_x{x}_b{y2}" for x in range(self.nx) for y2 in range(self.n2)]
        return tuple(out)


def _build_compact(w: ChannelTable, k1: int, k2: int, objective: str) -> LpModel:
    _check_k(k1, k2)
    nx, n1, n2 = w.input_size, w.out1_size, w.out2_size
    lay = _CompactLayout(nx, n1, n2)
    n = lay.total

    rows, rels, rhs, rownames = [], [], [], []

    def add(row, rel, b, name):
        rows.append(row)
        rels.append(rel)
        rhs.append(b)
        rownames.append(name)

    for y1 in range(n1):
        for y2 in range(n2):
            row = np.zeros(n)
            for x in range(nx):
                row[lay.r(x, y1, y2)] = 1.0
            add(row, EQ, 1.0, f"norm_r_a{y1}_b{y2}")
    for y1 in range(n1):
        row = np.zeros(n)
        for x in range(nx):
            row[lay.r1(x, y1)] = 1.0
        add(row, EQ, float(k2), f"norm_r1_a{y1}")
    for y2 in range(n2):
        row = np.zeros(n)
        for x in range(nx):
            row[lay.r2(x, y2)] = 1.0
        add(row, EQ, float(k1), f"norm_r2_b{y2}")
    row = np.zeros(n)
    row[lay.p0:lay.p0 + nx] = 1.0
    add(row, EQ, float(k1 * k2), "norm_p")

    for x in range(nx):
        for y1 in range(n1):
            for y2 in range(n2):
                row = np.zeros(n)
                row[lay.r(x, y1, y2)] = 1.0
                row[lay.r1(x, y1)] = -1.0
                add(row, LE, 0.0, f"r_le_r1_x{x}_a{y1}_b{y2}")
    for x in range(nx):
        for y1 in range(n1):
            for y2 in range(n2):
                row = np.zeros(n)
                row[lay.r(x, y1, y2)] = 1.0
                row[lay.r2(x, y2)] = -1.0
                add(row, LE, 0.0, f"r_le_r2_x{x}_a{y1}_b{y2}")
    for x in range(nx):
        for y1 in range(n1):
            row = np.zeros(n)
            row[lay.r1(x, y1)] = 1.0
            row[lay.p(x)] = -1.0
            add(row, LE, 0.0, f"r1_le_p_x{x}_a{y1}")
    for x in range(nx):
        for y2 in range(n2):
            row = np.zeros(n)
            row[lay.r2(x, y2)] = 1.0
            row[lay.p(x)] = -1.0
            add(row, LE, 0.0, f"r2_le_p_x{x}_b{y2}")
    for x in range(nx):
        for y1 in range(n1):
            for y2 in range(n2):
                row = np.zeros(n)
                row[lay.p(x)] = 1.0
                row[lay.r1(x, y1)] = -1.0
                row[lay.r2(x, y2)] = -1.0
                row[lay.r(x, y1, y2)] = 1.0
                add(row, GE, 0.0, f"slack_x{x}_a{y1}_b{y2}")

    c = np.zeros(n)
    if objective == "joint":
        for x in range(nx):
            for y1 in range(n1):
                for y2 in range(n2):
                    c[lay.r(x, y1, y2)] = w.probs[x, y1, y2] / (k1 * k2)
    elif objective == "sum":
        w1, w2 = marginals(w)
        for x in range(nx):
            for y1 in range(n1):
                c[lay.r1(x, y1)] = w1.probs[x, y1] / (2 * k1 * k2)
            for y2 in range(n2):
                c[lay.r2(x, y2)] = w2.probs[x, y2] / (2 * k1 * k2)
    else:
        raise ValidationError(f"unknown objective {objective!r}")

    return LpModel(n, c, np.array(rows), tuple(rels), np.array(rhs),
                   var_names=lay.names(), row_names=tuple(rownames))


def build_ns_joint(w: ChannelTable, k1: int, k2: int) -> LpModel:
    """Compact program whose optimum is the non-signaling joint success."""
    return _build_compact(w, k1, k2, "joint")


def build_ns_sum(w: ChannelTable, k1: int, k2: int) -> LpModel:
    """Compact program whose optimum is the non-signaling sum success."""
    return _build_compact(w, k1, k2, "sum")


def build_ns_full(w: ChannelTable, k1: int, k2: int, objective: str = "joint",
                  cap: int = DEFAULT_FULL_VAR_CAP) -> LpModel:
    """Explicit program over full boxes P(x j1 j2 | (i1 i2) y1 y2).

    Exponentially larger than the compact form; guarded by a variable cap and
    meant for cross-checking on tiny instances.  Variables are laid out
    row-major over (x, j1, j2, i1, i2, y1, y2).
    """
    _check_k(k1, k2)
    nx, n1, n2 = w.input_size, w.out1_size, w.out2_size
    shape = (nx, k1, k2, k1, k2, n1, n2)
    n = int(np.prod(shape))
    if n > cap:
        raise SizeCapExceededError(n, cap)

    def idx(x, j1, j2, i1, i2, y1, y2):
        return int(np.ravel_multi_index((x, j1, j2, i1, i2, y1, y2), shape))

    rows, rels, rhs = [], [], []

    def add(row, b):
        rows.append(row)
        rels.append(EQ)
        rhs.append(b)

    # Input marginal independent of the message pair.
    for j1 in range(k1):
        for j2 in range(k2):
            for y1 in range(n1):
                for y2 in range(n2):
                    for i1 in range(k1):
                        for i2 in range(k2):
                            if (i1, i2) == (0, 0):
                                continue
                            row = np.zeros(n)
                            for x in range(nx):
                                row[idx(x, j1, j2, i1, i2, y1, y2)] += 1.0
                                row[idx(x, j1, j2, 0, 0, y1, y2)] -= 1.0
                            add(row, 0.0)
    # First output marginal independent of y1.
    for x in range(nx):
        for j2 in range(k2):
            for i1 in range(k1):
                for i2 in range(k2):
                    for y2 in range(n2):
                        for y1 in range(1, n1):
                            row = np.zeros(n)
                            for j1 in range(k1):
                                row[idx(x, j1, j2, i1, i2, y1, y2)] += 1.0
                                row[idx(x, j1, j2, i1, i2, 0, y2)] -= 1.0
                            add(row, 0.0)
    # Second output marginal independent of y2.
    for x in range(nx):
        for j1 in range(k1):
            for i1 in range(k1):
                for i2 in range(k2):
                    for y1 in range(n1):
                        for y2 in range(1, n2):
                            row = np.zeros(n)
                            for j2 in range(k2):
                                row[idx(x, j1, j2, i1, i2, y1, y2)] += 1.0
                                row[idx(x, j1, j2, i1, i2, y1, 0)] -= 1.0
                            add(row, 0.0)
    # Normalization per conditioning tuple.
    for i1 in range(k1):
        for i2 in range(k2):
            for y1 in range(n1):
                for y2 in range(n2):
                    row = np.zeros(n)
                    for x in range(nx):
                        for j1 in range(k1):
                            for j2 in range(k2):
                                row[idx(x, j1, j2, i1, i2, y1, y2)] = 1.0
                    add(row, 1.0)

    c = np.zeros(n)
    if objective == "joint":
        for i1 in range(k1):
            for i2 in range(k2):
                for x in range(nx):
                    for y1 in range(n1):
                        for y2 in range(n2):
                            c[idx(x, i1, i2, i1, i2, y1, y2)] += (
                                w.probs[x, y1, y2] / (k1 * k2))
    elif objective == "sum":
        w1, w2 = marginals(w)
        for i1 in range(k1):
            for i2 in range(k2):
                for x in range(nx):
                    for y1 in range(n1):
                        for j2 in range(k2):
                            c[idx(x, i1, j2, i1, i2, y1, 0)] += (
                                w1.probs[x, y1] / (2 * k1 * k2))
                    for y2 in range(n2):
                        for j1 in range(k1):
                            c[idx(x, j1, i2, i1, i2, 0, y2)] += (
                                w2.probs[x, y2] / (2 * k1 * k2))
    else:
        raise ValidationError(f"unknown objective {objective!r}")

    return LpModel(n, c, np.array(rows), tuple(rels), np.array(rhs))


def build_decoder_box_lp(w: ChannelTable, encoder, k1: int, k2: int,
                         objective: str = "joint") -> LpModel:
    """Program over shared decoder boxes d(j1 j2 | y1 y2) for a fixed encoder.

    The box may correlate the two decoders but must not signal: the j1
    marginal cannot depend on y2 and the j2 marginal cannot depend on y1.
    """
    _check_k(k1, k2)
    nx, n1, n2 = w.input_size, w.out1_size, w.out2_size
    enc = np.asarray(encoder, dtype=int)
    if enc.shape != (k1, k2):
        raise BadParametersError(f"encoder shape {enc.shape} != ({k1}, {k2})")
    if enc.min() < 0 or enc.max() >= nx:
        raise BadParametersError("encoder output out of range")
    shape = (k1, k2, n1, n2)
    n = int(np.prod(shape))

    def idx(j1, j2, y1, y2):
        return int(np.ravel_multi_index((j1, j2, y1, y2), shape))

    rows, rels, rhs = [], [], []
    for y1 in range(n1):
        for y2 in range(n2):
            row = np.zeros(n)
            for j1 in range(k1):
                for j2 in range(k2):
                    row[idx(j1, j2, y1, y2)] = 1.0
            rows.append(row)
            rels.append(EQ)
            rhs.append(1.0)
    for j1 in range(k1):
        for y1 in range(n1):
            for y2 in range(1, n2):
                row = np.zeros(n)
                for j2 in range(k2):
                    row[idx(j1, j2, y1, y2)] += 1.0
                    row[idx(j1, j2, y1, 0)] -= 1.0
                rows.append(row)
                rels.append(EQ)
                rhs.append(0.0)
    for j2 in range(k2):
        for y2 in range(n2):
            for y1 in range(1, n1):
                row = np.zeros(n)
                for j1 in range(k1):
                    row[idx(j1, j2, y1, y2)] += 1.0
                    row[idx(j1, j2, 0, y2)] -= 1.0
                rows.append(row)
                rels.append(EQ)
                rhs.append(0.0)

    c = np.zeros(n)
    if objective == "joint":
        for i1 in range(k1):
            for i2 in range(k2):
                x = enc[i1, i2]
                for y1 in range(n1):
                    for y2 in range(n2):
                        c[idx(i1, i2, y1, y2)] += w.probs[x, y1, y2] / (k1 * k2)
    elif objective == "sum":
        for i1 in range(k1):
            for i2 in range(k2):
                x = enc[i1, i2]
                for y1 in range(n1):
                    for y2 in range(n2):
                        pxy = w.probs[x, y1, y2] / (2 * k1 * k2)
                        for j2 in range(k2):
                            c[idx(i1, j2, y1, y2)] += pxy
                        for j1 in range(k1):
                            c[idx(j1, i2, y1, y2)] += pxy
    else:
        raise ValidationError(f"unknown objective {objective!r}")

    return LpModel(n, c, np.array(rows), tuple(rels), np.array(rhs))


@dataclass
class NsSolution:
    """Compact solution blocks reshaped to their natural array shapes."""

    p: np.ndarray    # (|X|,)
    r: np.ndarray    # (|X|, |Y1|, |Y2|)
    r1: np.ndarray   # (|X|, |Y1|)
    r2: np.ndarray   # (|X|, |Y2|)
    value: float | Fraction  # the LP's value type: a Fraction from exact mode


def extract_ns_solution(w: ChannelTable, k1: int, k2: int,
                        solution: LpSolution | np.ndarray,
                        tol: float = EXTRACT_TOL) -> NsSolution:
    """Split a compact assignment into float blocks and verify its feasibility.

    The value is the solution's own, so an exact solve keeps its Fraction;
    a bare assignment vector gets its float value recomputed.
    """
    _check_k(k1, k2)
    nx, n1, n2 = w.input_size, w.out1_size, w.out2_size
    lay = _CompactLayout(nx, n1, n2)
    vec = np.asarray(getattr(solution, "assignment", solution), dtype=float)
    if vec.shape != (lay.total,):
        raise InvariantViolationError(
            f"assignment length {vec.shape} does not fit channel of shape "
            f"({nx}, {n1}, {n2})")
    p = vec[lay.p0:lay.p0 + nx].copy()
    r = vec[lay.r0:lay.r10].reshape(nx, n1, n2).copy()
    r1 = vec[lay.r10:lay.r20].reshape(nx, n1).copy()
    r2 = vec[lay.r20:lay.total].reshape(nx, n2).copy()

    def demand(ok: bool, what: str):
        if not ok:
            raise InvariantViolationError(f"compact solution violates {what}")

    demand(bool(np.all(r >= -tol)), "r >= 0")
    demand(bool(np.all(r <= r1[:, :, None] + tol)), "r <= r1")
    demand(bool(np.all(r <= r2[:, None, :] + tol)), "r <= r2")
    demand(bool(np.all(r1 <= p[:, None] + tol)), "r1 <= p")
    demand(bool(np.all(r2 <= p[:, None] + tol)), "r2 <= p")
    demand(bool(np.all(p[:, None, None] - r1[:, :, None] - r2[:, None, :] + r >= -tol)),
           "p - r1 - r2 + r >= 0")
    demand(bool(np.all(np.abs(r.sum(axis=0) - 1.0) <= tol)), "sum_x r = 1")
    demand(bool(np.all(np.abs(r1.sum(axis=0) - k2) <= tol)), "sum_x r1 = k2")
    demand(bool(np.all(np.abs(r2.sum(axis=0) - k1) <= tol)), "sum_x r2 = k1")
    demand(bool(abs(p.sum() - k1 * k2) <= tol), "sum_x p = k1 k2")

    value = getattr(solution, "value", None)
    if value is None:
        value = float((w.probs * r).sum() / (k1 * k2))
    return NsSolution(p, r, r1, r2, value)


def reconstruct_full_box(ns: NsSolution, k1: int, k2: int) -> np.ndarray:
    """Lift a compact solution to a full box, axes (x, j1, j2, i1, i2, y1, y2).

    Off-target mass spreads uniformly over wrong messages, which needs at
    least two messages per receiver; k1 = 1 or k2 = 1 is rejected.
    """
    if k1 < 2 or k2 < 2:
        raise BadParametersError("reconstruction needs k1 >= 2 and k2 >= 2")
    nx, n1, n2 = ns.r.shape
    kk = k1 * k2
    both = ns.r / kk
    wrong1 = (ns.r2[:, None, :] - ns.r) / (kk * (k1 - 1))
    wrong2 = (ns.r1[:, :, None] - ns.r) / (kk * (k2 - 1))
    neither = (ns.p[:, None, None] - ns.r1[:, :, None] - ns.r2[:, None, :] + ns.r) / (
        kk * (k1 - 1) * (k2 - 1))
    box = np.empty((nx, k1, k2, k1, k2, n1, n2))
    for j1 in range(k1):
        for j2 in range(k2):
            for i1 in range(k1):
                for i2 in range(k2):
                    if j1 == i1 and j2 == i2:
                        slab = both
                    elif j1 != i1 and j2 == i2:
                        slab = wrong1
                    elif j1 == i1:
                        slab = wrong2
                    else:
                        slab = neither
                    box[:, j1, j2, i1, i2, :, :] = slab
    return box


def solve_ns(w: ChannelTable, k1: int, k2: int, objective: str = "joint",
             exact: bool = False) -> NsSolution:
    """Build the compact program, solve it, and return the checked solution."""
    build = build_ns_joint if objective == "joint" else build_ns_sum
    if objective not in ("joint", "sum"):
        raise ValidationError(f"unknown objective {objective!r}")
    return extract_ns_solution(w, k1, k2, lp_solve(build(w, k1, k2), exact=exact))
