"""Linear programs for non-signaling assisted broadcast decoding.

The compact program works with aggregated success weights instead of a full
correlated box: p[x] is an input weight, r[x,y1,y2] the both-correct weight,
r1[x,y1] and r2[x,y2] the per-receiver correct weights.  Feasible compact
points and full non-signaling boxes have the same optimal values, and for
k1, k2 >= 2 a compact point lifts back to a full box in closed form.

Variable order of the compact model is fixed (p block, then r row-major,
then r1, then r2) so exported files and extracted solutions line up.

Each program numbers its variables with index arrays (np.arange reshaped
into the p/r/r1/r2 blocks, or into the box axes), states every constraint
family as terms on those arrays, and hands the families to `_assemble`, the
one place where rows become dense.  A family's rows come out in the C order
of its index arrays, and a matrix above the program's entry cap is refused
before it is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .channels import DEFAULT_ENTRY_CAP, ChannelTable, marginals
from .errors import (
    BadParametersError,
    InvariantViolationError,
    SizeCapExceededError,
    ValidationError,
)
from .graphs import _check_cap, _check_k
from .simplex import EQ, GE, LE, LpModel, LpSolution, _to_fraction, lp_solve, solve_exact

DEFAULT_FULL_VAR_CAP = 20_000
FULL_DENSE_ENTRY_CAP = 10**7  # rows x variables of the dense full-box matrix, 80 MB
EXTRACT_TOL = 1e-7


def _assemble(n: int, families, cap: int) -> tuple:
    """Dense rows, relations and right-hand sides of (terms, relation, rhs) families.

    Each term is (index array, coefficient).  A family has one row of length
    n per cell of its terms' broadcast shape, in C order: the cell's row gets
    the coefficient at the cell's index, and terms that meet in one entry add
    up in term order.  The shapes give the row count, so a matrix of more
    than cap entries is refused before anything is allocated.
    """
    counts = [math.prod(np.broadcast_shapes(*(np.shape(idx) for idx, _ in terms)))
              for terms, _, _ in families]
    total = sum(counts)
    _check_cap(SizeCapExceededError, cap, (total * n, 1))
    rows = np.zeros((total, n))
    start = 0
    for (terms, _, _), count in zip(families, counts):
        cols = np.stack(np.broadcast_arrays(*(idx for idx, _ in terms)), axis=-1)
        np.add.at(rows, (np.arange(start, start + count)[:, None],
                         cols.reshape(-1, len(terms))), [coef for _, coef in terms])
        start += count
    rels = tuple(rel for (_, rel, _), count in zip(families, counts) for _ in range(count))
    return rows, rels, np.repeat([float(b) for _, _, b in families], counts)


def _over(idx: np.ndarray, coef: float) -> list:
    """Terms that sum coef over the first axis of idx."""
    return [(a, coef) for a in idx]


def _compact_index(nx: int, n1: int, n2: int) -> tuple:
    """Variable indices of the p, r, r1 and r2 blocks, and the variable count."""
    ends = np.cumsum([0, nx, nx * n1 * n2, nx * n1, nx * n2])
    p, r, r1, r2 = (np.arange(a, b) for a, b in zip(ends[:-1], ends[1:]))
    return p, r.reshape(nx, n1, n2), r1.reshape(nx, n1), r2.reshape(nx, n2), int(ends[-1])


def _build_compact(w: ChannelTable, k1: int, k2: int, objective: str) -> LpModel:
    _check_k(k1, k2)
    nx, n1, n2 = w.input_size, w.out1_size, w.out2_size
    p, r, r1, r2, n = _compact_index(nx, n1, n2)
    outs = [(a, b) for a in range(n1) for b in range(n2)]
    cells = [(x, a, b) for x in range(nx) for a, b in outs]
    pairs1 = [(x, a) for x in range(nx) for a in range(n1)]
    pairs2 = [(x, b) for x in range(nx) for b in range(n2)]
    p3, r13, r23 = p[:, None, None], r1[:, :, None], r2[:, None, :]
    families = [
        (_over(r, 1.0), EQ, 1.0, [f"norm_r_a{a}_b{b}" for a, b in outs]),
        (_over(r1, 1.0), EQ, k2, [f"norm_r1_a{a}" for a in range(n1)]),
        (_over(r2, 1.0), EQ, k1, [f"norm_r2_b{b}" for b in range(n2)]),
        (_over(p, 1.0), EQ, k1 * k2, ["norm_p"]),
        ([(r, 1.0), (r13, -1.0)], LE, 0.0,
         [f"r_le_r1_x{x}_a{a}_b{b}" for x, a, b in cells]),
        ([(r, 1.0), (r23, -1.0)], LE, 0.0,
         [f"r_le_r2_x{x}_a{a}_b{b}" for x, a, b in cells]),
        ([(r1, 1.0), (p[:, None], -1.0)], LE, 0.0,
         [f"r1_le_p_x{x}_a{a}" for x, a in pairs1]),
        ([(r2, 1.0), (p[:, None], -1.0)], LE, 0.0,
         [f"r2_le_p_x{x}_b{b}" for x, b in pairs2]),
        ([(p3, 1.0), (r13, -1.0), (r23, -1.0), (r, 1.0)], GE, 0.0,
         [f"slack_x{x}_a{a}_b{b}" for x, a, b in cells]),
    ]

    c = _compact_objective(w, k1, k2, objective)
    names = ([f"p_x{x}" for x in range(nx)]
             + [f"r_x{x}_a{a}_b{b}" for x, a, b in cells]
             + [f"r1_x{x}_a{a}" for x, a in pairs1]
             + [f"r2_x{x}_b{b}" for x, b in pairs2])
    rows, rels, rhs = _assemble(n, [f[:3] for f in families], DEFAULT_ENTRY_CAP)
    return LpModel(n, c, rows, rels, rhs, var_names=tuple(names),
                   row_names=tuple(name for f in families for name in f[3]))


def _compact_objective(w: ChannelTable, k1: int, k2: int, objective: str,
                       exact: bool = False) -> np.ndarray:
    """Objective of the compact program: w.probs / (k1 k2) on the r block for
    joint, the marginals / (2 k1 k2) on the r1 and r2 blocks for sum.

    Float mode divides (and sums the marginals) in float, so a coefficient
    is rounded unless k1 k2 is a power of two and the entries are dyadic.
    Exact mode converts the channel entries to Fractions first, so every
    coefficient is the exact rational one of the channel.
    """
    nx, n1, n2 = w.input_size, w.out1_size, w.out2_size
    _, r, r1, r2, n = _compact_index(nx, n1, n2)
    c = np.full(n, Fraction(0), dtype=object) if exact else np.zeros(n)
    probs = _to_fraction(w.probs) if exact else w.probs
    if objective == "joint":
        c[r] = probs / (k1 * k2)
    elif objective == "sum":
        c[r1] = probs.sum(axis=2) / (2 * k1 * k2)   # the marginals W1, W2
        c[r2] = probs.sum(axis=1) / (2 * k1 * k2)
    else:
        raise ValidationError(f"unknown objective {objective!r}")
    return c


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
    by FULL_DENSE_ENTRY_CAP on rows x variables, checked before the dense
    matrix is allocated, and meant for cross-checking on tiny instances.
    Variables are laid out row-major over (x, j1, j2, i1, i2, y1, y2).
    """
    _check_k(k1, k2)
    nx, n1, n2 = w.input_size, w.out1_size, w.out2_size
    shape = (nx, k1, k2, k1, k2, n1, n2)
    n = _check_cap(SizeCapExceededError, cap, (math.prod(shape), 1))
    v = np.arange(n).reshape(shape)

    # Each index array below puts the summed axis first and the row axes
    # after it in loop order; the last axis is cut at 0 for the differences.
    # Input marginal the same for every message pair (i1, i2) as for (0, 0):
    # rows (j1, j2, y1, y2, (i1, i2) != (0, 0)), summed over x.
    marg_x = v.transpose(0, 1, 2, 5, 6, 3, 4).reshape(nx, k1, k2, n1, n2, k1 * k2)
    # Output-1 marginal independent of y1: rows (x, j2, i1, i2, y2, y1 >= 1), over j1.
    marg_1 = v.transpose(1, 0, 2, 3, 4, 6, 5)
    # Output-2 marginal independent of y2: rows (x, j1, i1, i2, y1, y2 >= 1), over j2.
    marg_2 = v.transpose(2, 0, 1, 3, 4, 5, 6)
    rows, rels, rhs = _assemble(n, [
        *(([*_over(m[..., 1:], 1.0), *_over(m[..., :1], -1.0)], EQ, 0.0)
          for m in (marg_x, marg_1, marg_2)),
        # Normalization per conditioning tuple (i1, i2, y1, y2), over (x, j1, j2).
        (_over(v.reshape(nx * k1 * k2, k1, k2, n1, n2), 1.0), EQ, 1.0),
    ], FULL_DENSE_ENTRY_CAP)

    c = np.zeros(n)
    if objective == "joint":
        i1, i2 = np.ogrid[:k1, :k2]   # v[x, i1, i2, i1, i2, y1, y2]
        np.add.at(c, v[:, i1, i2, i1, i2], w.probs[:, None, None] / (k1 * k2))
    elif objective == "sum":
        # v[x, i1, j2, i1, i2, y1, 0] and v[x, j1, i2, i1, i2, 0, y2]: a cell
        # gets at most one term from each, in the order of the nested loops.
        w1, w2 = marginals(w)
        i1, i2, j2 = np.ogrid[:k1, :k2, :k2]
        np.add.at(c, v[..., 0][:, i1, j2, i1, i2],
                  w1.probs[:, None, None, None] / (2 * k1 * k2))
        i1, i2, j1 = np.ogrid[:k1, :k2, :k1]
        np.add.at(c, v[..., 0, :][:, j1, i2, i1, i2],
                  w2.probs[:, None, None, None] / (2 * k1 * k2))
    else:
        raise ValidationError(f"unknown objective {objective!r}")

    return LpModel(n, c, rows, rels, rhs)


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
    v = np.arange(n).reshape(shape)

    marg_1 = v.transpose(1, 0, 2, 3)   # over j2, rows (j1, y1, y2 >= 1)
    marg_2 = v.transpose(0, 1, 3, 2)   # over j1, rows (j2, y2, y1 >= 1)
    rows, rels, rhs = _assemble(n, [
        (_over(v.reshape(k1 * k2, n1, n2), 1.0), EQ, 1.0),
        *(([*_over(m[..., 1:], 1.0), *_over(m[..., :1], -1.0)], EQ, 0.0)
          for m in (marg_1, marg_2)),
    ], DEFAULT_ENTRY_CAP)
    return LpModel(n, _decoder_box_objective(w, enc, objective), rows, rels, rhs)


def _decoder_box_objective(w: ChannelTable, enc: np.ndarray, objective: str,
                           exact: bool = False) -> np.ndarray:
    """Objective of the decoder-box program for a checked (k1, k2) encoder array.

    Only this part of the program depends on the encoder.  Each coefficient
    is a sum of terms w.probs[x] / (k1 k2), or / (2 k1 k2) for sum.  Float
    mode divides and adds in float, so a sum coefficient can differ from its
    renamed twin by rounding.  Exact mode converts the channel entries to
    Fractions first, so every coefficient is the exact rational sum and
    renaming the messages permutes the objective exactly.
    """
    k1, k2 = enc.shape
    n1, n2 = w.out1_size, w.out2_size
    n = k1 * k2 * n1 * n2
    v = np.arange(n).reshape(k1, k2, n1, n2)
    c = np.full(n, Fraction(0), dtype=object) if exact else np.zeros(n)
    sent = w.probs[enc]   # (i1, i2, y1, y2)
    if exact:
        sent = _to_fraction(sent)
    if objective == "joint":
        np.add.at(c, v, sent / (k1 * k2))
    elif objective == "sum":
        # Cell (i1, i2, y1, y2) adds its weight to v[i1, j2, y1, y2] for each
        # j2, then to v[j1, i2, y1, y2] for each j1; np.add.at keeps that
        # order, which fixes the float sum of the k1 + k2 terms per cell.
        by_j2 = np.broadcast_to(v.transpose(0, 2, 3, 1)[:, None], (k1, k2, n1, n2, k2))
        by_j1 = np.broadcast_to(v.transpose(1, 2, 3, 0)[None], (k1, k2, n1, n2, k1))
        np.add.at(c, np.concatenate([by_j2, by_j1], axis=-1),
                  (sent / (2 * k1 * k2))[..., None])
    else:
        raise ValidationError(f"unknown objective {objective!r}")
    return c


@dataclass
class NsSolution:
    """Compact solution blocks reshaped to their natural array shapes."""

    p: np.ndarray    # (|X|,)
    r: np.ndarray    # (|X|, |Y1|, |Y2|)
    r1: np.ndarray   # (|X|, |Y1|)
    r2: np.ndarray   # (|X|, |Y2|)
    value: float | Fraction  # the LP's value type: a Fraction from exact mode


def extract_ns_solution(w: ChannelTable, k1: int, k2: int,
                        solution: LpSolution | np.ndarray) -> NsSolution:
    """Split a compact assignment into float blocks and verify its feasibility
    within EXTRACT_TOL.

    The value is the solution's own, so an exact solve keeps its Fraction;
    a bare assignment vector gets its float value recomputed.
    """
    _check_k(k1, k2)
    nx, n1, n2 = w.input_size, w.out1_size, w.out2_size
    *blocks, n = _compact_index(nx, n1, n2)
    vec = np.asarray(getattr(solution, "assignment", solution), dtype=float)
    if vec.shape != (n,):
        raise InvariantViolationError(
            f"assignment length {vec.shape} does not fit channel of shape "
            f"({nx}, {n1}, {n2})")
    p, r, r1, r2 = (vec[idx] for idx in blocks)
    tol = EXTRACT_TOL

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
    # Masks over (x, j1, j2, i1, i2, y1, y2): is j1 == i1, is j2 == i2.
    hit1 = np.eye(k1, dtype=bool)[None, :, None, :, None, None, None]
    hit2 = np.eye(k2, dtype=bool)[None, None, :, None, :, None, None]
    both, wrong1, wrong2, neither = (
        slab[:, None, None, None, None] for slab in (both, wrong1, wrong2, neither))
    return np.where(hit1 & hit2, both,
                    np.where(hit2, wrong1, np.where(hit1, wrong2, neither)))


def solve_ns(w: ChannelTable, k1: int, k2: int, objective: str = "joint",
             exact: bool = False) -> NsSolution:
    """Build the compact program, solve it, and return the checked solution.

    Exact mode solves the program with the channel's exact rational
    objective, not the float-rounded one the built model carries, through
    solve_exact: a float solve with a rational certificate, or the Fraction
    simplex when the certificate fails.
    """
    build = build_ns_joint if objective == "joint" else build_ns_sum
    if objective not in ("joint", "sum"):
        raise ValidationError(f"unknown objective {objective!r}")
    model = build(w, k1, k2)
    if not exact:
        return extract_ns_solution(w, k1, k2, lp_solve(model))
    model = replace(model, objective=_compact_objective(w, k1, k2, objective, exact=True))
    return extract_ns_solution(w, k1, k2, solve_exact(model, lp_solve))
