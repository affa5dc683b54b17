"""Linear programs for non-signaling assisted broadcast decoding.

The compact program works with aggregated success weights instead of a full
correlated box: p[x] is an input weight, r[x,y1,y2] the both-correct weight,
r1[x,y1] and r2[x,y2] the per-receiver correct weights.  Its rows are
sum_x r = 1 per output pair, sum_x r1 = k2 per y1, sum_x r2 = k1 per y2,
sum_x p = k1 k2, then r <= r1, r <= r2, r1 <= p, r2 <= p and
p - r1 - r2 + r >= 0 per variable.  Feasible compact points and full
non-signaling boxes have the same optimal values, and for k1, k2 >= 2 a
compact point lifts back to a full box in closed form.

build_ns_joint and build_ns_sum take a block length n and build the compact
program of the n-th tensor power of the channel, over joint types.  That
program is invariant under permuting the n positions, so it has an optimum
that is constant on each orbit, and one variable per type is enough (the
method of Matthews, IEEE TIT 2012, for point-to-point channels).  A
variable is a multiset of n per-position cells: inputs x for p, triples
(x, y1, y2) for r, pairs (x, y1) for r1 and (x, y2) for r2.  Each family
has one row per type of its row index.  A normalisation row over an output
type weighs a variable by the input sequences of its type that fit one
output sequence of the row's type, a product of multinomials; the other
rows relate a type to its projections.  The objective weighs a type by its
orbit size times the product of its positions' entries.  On 2x2x2 channels
the square has 59 variables and 145 rows, against 100 and 249 for the
compact program of the dense square, and the cube 164 and 429, against 648
and 1745.  At n = 1 the types are the cells, and the program is the compact
program of the channel.  solve_ns lifts a type solution back to the power's
compact variables, in tensor_power's index order.

Variable order of the compact model is fixed (p block, then r, then r1,
then r2; types in the lexicographic order of their sorted sequences, which
is row-major at n = 1) so exported files and extracted solutions line up.
Names spell a type's sorted sequence, one letter per axis per position:
r_x0_a1_b0 at n = 1, r_x0_a0_b0_x1_a1_b1 at n = 2.

Each program numbers its variables with index arrays, states every
constraint family as (row, column, coefficient) entries on them, and hands
the families to `_assemble`, the one place where rows become dense.  A
family's rows come in a fixed order, C order of its index arrays for the
full-box and decoder-box programs, and a matrix above the program's entry
cap is refused before it is allocated, and before the types program lists
its types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement

import numpy as np

from .channels import DEFAULT_ENTRY_CAP, ChannelTable, marginals, tensor_power
from .errors import (
    BadParametersError,
    InvariantViolationError,
    SizeCapExceededError,
    ValidationError,
)
from .graphs import _as_int, _check_cap, _check_k
from .simplex import EQ, GE, LE, LpModel, LpSolution, _to_fraction, lp_solve, solve_exact

DEFAULT_FULL_VAR_CAP = 20_000
FULL_DENSE_ENTRY_CAP = 10**7  # rows x variables of the dense full-box matrix, 80 MB
EXTRACT_TOL = 1e-7


def _assemble(n: int, families, cap: int) -> tuple:
    """Dense rows, relations and right-hand sides of ((count, entries),
    relation, rhs) families.

    A family has count rows.  Its entries yield (row, column, coefficient)
    arrays, broadcast together, that put each coefficient at its column of
    the family's row; entries that meet in one cell add up in the order
    they come, C order within one yield.  The counts give the row count, so
    a matrix of more than cap entries is refused before any entry is made.
    """
    counts = [count for (count, _), _, _ in families]
    total = sum(counts)
    _check_cap(SizeCapExceededError, cap, (total * n, 1))
    rows = np.zeros((total, n))
    start = 0
    for (count, entries), _, _ in families:
        for at, cols, coefs in entries:
            np.add.at(rows, (start + at, cols), coefs)
        start += count
    rels = tuple(rel for (_, rel, _), count in zip(families, counts) for _ in range(count))
    return rows, rels, np.repeat([float(b) for _, _, b in families], counts)


def _cells(terms) -> tuple:
    """(count, entries) of a family with one row per cell of its terms' index
    arrays' broadcast shape, in C order.  Each term is (index array,
    coefficient): the cell's row gets the coefficient at the cell's index,
    and terms that meet in one entry add up in term order.  The entries are
    made only when _assemble asks for them."""
    shape = np.broadcast_shapes(*(np.shape(idx) for idx, _ in terms))
    count = math.prod(shape)

    def entries():
        cols = np.stack(np.broadcast_arrays(*(idx for idx, _ in terms)), axis=-1)
        yield np.arange(count)[:, None], cols.reshape(count, len(terms)), [c for _, c in terms]

    return count, entries()


def _over(idx: np.ndarray, coef: float) -> list:
    """Terms that sum coef over the first axis of idx."""
    return [(a, coef) for a in idx]


# The blocks of the compact program, and the cells one position of their
# weights ranges over: x an input, a an output of receiver 1, b of receiver 2.
_BLOCKS = (("p", "x"), ("r", "xab"), ("r1", "xa"), ("r2", "xb"))


def _types(size: int, n: int) -> np.ndarray:
    """Every multiset of n of the cells 0 .. size-1, as its sorted sequence:
    an array (types, n) in lexicographic order, the cells in order at n = 1."""
    return np.array(list(combinations_with_replacement(range(size), n)),
                    dtype=np.intp).reshape(-1, n)


def _type_index(types: np.ndarray, seqs: np.ndarray, size: int) -> np.ndarray:
    """Row of types, from _types(size, n), that holds the multiset of each
    sequence along the last axis of seqs.  A sorted sequence is read as a
    number in base size, position 0 first: int64 below 2^63, Python ints
    above."""
    n = types.shape[1]
    weights = np.array([size**i for i in range(n - 1, -1, -1)],
                       dtype=np.int64 if size**n < 2**63 else object)
    return np.searchsorted(types @ weights, np.sort(seqs, axis=-1) @ weights)


def _orbit_sizes(seqs: np.ndarray) -> np.ndarray:
    """Number of sequences with the multiset of each row of seqs, n! over the
    product of the multiplicities' factorials: int64 up to n = 20, where n!
    fits, and Python ints beyond."""
    s = np.sort(seqs, axis=1)
    n = s.shape[1]
    pos = np.arange(n, dtype=np.int64 if n <= 20 else object)
    runs = np.ones(s.shape, dtype=bool)   # where a run of equal cells starts
    runs[:, 1:] = s[:, 1:] != s[:, :-1]
    # pos - starts + 1 counts 1, 2, .., c along a run of c equal cells.
    starts = np.maximum.accumulate(np.where(runs, pos, 0), axis=1)
    return math.factorial(n) // np.prod(pos - starts + 1, axis=1)


def _cell_map(letters: str, onto: str, sizes: dict) -> np.ndarray:
    """The cell over the axes onto, a subsequence of letters, that each cell
    over letters (in C order) projects to."""
    shape = [sizes[c] for c in letters]
    cells = np.arange(math.prod(sizes[c] for c in onto))
    return np.broadcast_to(cells.reshape([s if c in onto else 1 for c, s in zip(letters, shape)]),
                           shape).ravel()


def _type_suffixes(letters: str, sizes: dict, types: np.ndarray) -> list:
    """_<letter><index>... for every position of every type's sorted
    sequence, so _x0_a1_b0 at n = 1."""
    cells = [""]
    for letter in letters:
        cells = [cell + f"_{letter}{i}" for cell in cells for i in range(sizes[letter])]
    names = [""] * len(types)
    for column in types.T.tolist():
        names = [name + cells[c] for name, c in zip(names, column)]
    return names


def _build_compact(w: ChannelTable, k1: int, k2: int, objective: str, n: int = 1) -> LpModel:
    """The compact program of the n-th tensor power of w with one variable
    per joint type; the module docstring gives its rows.  The types are
    listed only once _assemble has checked the entry cap on their counts."""
    k1, k2 = _check_k(k1, k2)
    n = _as_int(n, "n", error=ValidationError)
    sizes = {"x": w.input_size, "a": w.out1_size, "b": w.out2_size}

    def size(letters):
        return math.prod(sizes[c] for c in letters)

    def count(letters):
        return math.comb(size(letters) + n - 1, n)

    @cache
    def types(letters):
        return _types(size(letters), n)

    num_vars = sum(count(letters) for _, letters in _BLOCKS)
    start = dict(zip((letters for _, letters in _BLOCKS),
                     np.cumsum([0, *(count(letters) for _, letters in _BLOCKS)])))

    def proj(letters, onto):
        """The type over onto that each type over letters projects to."""
        if letters == onto:
            return np.arange(count(letters))
        return _type_index(types(onto), _cell_map(letters, onto, sizes)[types(letters)],
                           size(onto))

    def norm(block, onto):
        """A row per type over onto, summing block over the inputs.  A
        variable is weighted by the input sequences of its type that fit one
        output sequence of its row's type."""
        at = proj(block, onto)
        fits = _orbit_sizes(types(block)) // _orbit_sizes(types(onto))[at]
        yield at, start[block] + np.arange(len(at)), fits.astype(float)

    def per_type(letters, *terms):
        """A row per type over letters; a term (block, coefficient) puts the
        coefficient at the block's variable of the row type's projection."""
        cols = np.stack([start[block] + proj(letters, block) for block, _ in terms], axis=-1)
        yield np.arange(len(cols))[:, None], cols, [coef for _, coef in terms]

    # (row name prefix, row letters, entries, relation, rhs)
    families = [
        ("norm_r", "ab", norm("xab", "ab"), EQ, 1.0),
        ("norm_r1", "a", norm("xa", "a"), EQ, k2),
        ("norm_r2", "b", norm("xb", "b"), EQ, k1),
        ("norm_p", "", norm("x", ""), EQ, k1 * k2),
        ("r_le_r1", "xab", per_type("xab", ("xab", 1.0), ("xa", -1.0)), LE, 0.0),
        ("r_le_r2", "xab", per_type("xab", ("xab", 1.0), ("xb", -1.0)), LE, 0.0),
        ("r1_le_p", "xa", per_type("xa", ("xa", 1.0), ("x", -1.0)), LE, 0.0),
        ("r2_le_p", "xb", per_type("xb", ("xb", 1.0), ("x", -1.0)), LE, 0.0),
        ("slack", "xab", per_type("xab", ("x", 1.0), ("xa", -1.0), ("xb", -1.0), ("xab", 1.0)),
         GE, 0.0),
    ]
    rows, rels, rhs = _assemble(num_vars, [((count(letters), entries), rel, b)
                                           for _, letters, entries, rel, b in families],
                                DEFAULT_ENTRY_CAP)
    row_names = tuple(prefix + suffix for prefix, letters, *_ in families
                      for suffix in _type_suffixes(letters, sizes, types(letters)))
    var_names = tuple(prefix + suffix for prefix, letters in _BLOCKS
                      for suffix in _type_suffixes(letters, sizes, types(letters)))
    return LpModel(num_vars, _compact_objective(w.probs, k1, k2, objective, n), rows, rels, rhs,
                   var_names=var_names, row_names=row_names)


def _compact_objective(probs: np.ndarray, k1: int, k2: int, objective: str,
                       n: int = 1) -> np.ndarray:
    """Objective of the compact program of the n-th tensor power of the
    channel entries probs, one coefficient per joint type: on the r block
    the type's orbit size times the product of its positions' entries, over
    k1 k2, for joint; the same of the marginals W1 and W2 on the r1 and r2
    blocks, over 2 k1 k2, for sum; zero elsewhere.

    The coefficients take the entries' type.  Floats are multiplied and
    divided (and the marginals summed) in float, so a coefficient is
    rounded unless the entries are dyadic, k1 k2 is a power of two and the
    products are short enough; Fractions give the channel's exact rational
    coefficients.
    """
    scale = (2 if objective == "sum" else 1) * k1 * k2
    if objective == "joint":
        weighted = {"xab": probs}
    elif objective == "sum":
        weighted = {"xa": probs.sum(axis=2), "xb": probs.sum(axis=1)}
    else:
        raise ValidationError(f"unknown objective {objective!r}")
    sizes = dict(zip("xab", probs.shape))
    blocks = []
    for _, letters in _BLOCKS:
        seqs = _types(math.prod(sizes[c] for c in letters), n)
        if letters in weighted:
            orbits = np.asarray(_orbit_sizes(seqs), dtype=probs.dtype)
            blocks.append(orbits * np.prod(weighted[letters].ravel()[seqs], axis=1) / scale)
        else:   # zeros of the entries' type
            blocks.append(np.full(len(seqs), 0 * probs.flat[0]))
    return np.concatenate(blocks)


def build_ns_joint(w: ChannelTable, k1: int, k2: int, n: int = 1) -> LpModel:
    """Compact program whose optimum is the non-signaling joint success of
    the n-th tensor power of w, over joint types."""
    return _build_compact(w, k1, k2, "joint", n)


def build_ns_sum(w: ChannelTable, k1: int, k2: int, n: int = 1) -> LpModel:
    """Compact program whose optimum is the non-signaling sum success of
    the n-th tensor power of w, over joint types."""
    return _build_compact(w, k1, k2, "sum", n)


def build_ns_full(w: ChannelTable, k1: int, k2: int, objective: str = "joint",
                  cap: int = DEFAULT_FULL_VAR_CAP) -> LpModel:
    """Explicit program over full boxes P(x j1 j2 | (i1 i2) y1 y2).

    Exponentially larger than the compact form; guarded by a variable cap and
    by FULL_DENSE_ENTRY_CAP on rows x variables, checked before the dense
    matrix is allocated, and meant for cross-checking on tiny instances.
    Variables are laid out row-major over (x, j1, j2, i1, i2, y1, y2).
    """
    k1, k2 = _check_k(k1, k2)
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
        *((_cells([*_over(m[..., 1:], 1.0), *_over(m[..., :1], -1.0)]), EQ, 0.0)
          for m in (marg_x, marg_1, marg_2)),
        # Normalization per conditioning tuple (i1, i2, y1, y2), over (x, j1, j2).
        (_cells(_over(v.reshape(nx * k1 * k2, k1, k2, n1, n2), 1.0)), EQ, 1.0),
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
    k1, k2 = _check_k(k1, k2)
    nx, n1, n2 = w.input_size, w.out1_size, w.out2_size
    enc = np.asarray(encoder, dtype=int)
    if enc.shape != (k1, k2):
        raise BadParametersError(f"encoder shape {enc.shape} != ({k1}, {k2})")
    if enc.min() < 0 or enc.max() >= nx:
        raise BadParametersError("encoder output out of range")
    v = np.arange(k1 * k2 * n1 * n2).reshape(k1, k2, n1, n2)

    marg_1 = v.transpose(1, 0, 2, 3)   # over j2, rows (j1, y1, y2 >= 1)
    marg_2 = v.transpose(0, 1, 3, 2)   # over j1, rows (j2, y2, y1 >= 1)
    rows, rels, rhs = _assemble(v.size, [
        (_cells(_over(v.reshape(k1 * k2, n1, n2), 1.0)), EQ, 1.0),
        *((_cells([*_over(m[..., 1:], 1.0), *_over(m[..., :1], -1.0)]), EQ, 0.0)
          for m in (marg_1, marg_2)),
    ], DEFAULT_ENTRY_CAP)
    return LpModel(v.size, _decoder_box_objective(w.probs[enc], objective), rows, rels, rhs)


def _decoder_box_objective(sent: np.ndarray, objective: str) -> np.ndarray:
    """Objective of the decoder-box program of sent = probs[enc], the channel
    entries an encoder sends, axes (i1, i2, y1, y2).

    Only this part of the program depends on the encoder.  Each coefficient
    is a sum of entries / (k1 k2), or / (2 k1 k2) for sum, in the entries'
    type.  Floats are divided and added in float, so a sum coefficient can
    differ from its renamed twin by rounding; Fractions give the exact
    rational sums, and renaming the messages permutes the objective exactly.
    """
    k1, k2, n1, n2 = sent.shape
    if objective == "joint":
        return (sent / (k1 * k2)).ravel()
    if objective != "sum":
        raise ValidationError(f"unknown objective {objective!r}")
    # Cell (i1, i2, y1, y2) adds its weight to v[i1, j2, y1, y2] for each j2,
    # then to v[j1, i2, y1, y2] for each j1; np.add.at keeps that order,
    # which fixes the float sum of the k1 + k2 terms per cell.
    c = (0 * sent).ravel()   # zeros of the entries' type
    v = np.arange(c.size).reshape(sent.shape)
    by_j2 = np.broadcast_to(v.transpose(0, 2, 3, 1)[:, None], (k1, k2, n1, n2, k2))
    by_j1 = np.broadcast_to(v.transpose(1, 2, 3, 0)[None], (k1, k2, n1, n2, k1))
    np.add.at(c, np.concatenate([by_j2, by_j1], axis=-1),
              (sent / (2 * k1 * k2))[..., None])
    return c


@dataclass(eq=False)
class NsSolution:
    """Compact solution blocks reshaped to their natural array shapes."""

    p: np.ndarray    # (|X|,)
    r: np.ndarray    # (|X|, |Y1|, |Y2|)
    r1: np.ndarray   # (|X|, |Y1|)
    r2: np.ndarray   # (|X|, |Y2|)
    value: float | Fraction  # the LP's value type: a Fraction from exact mode


def extract_ns_solution(w: ChannelTable, k1: int, k2: int, solution: LpSolution) -> NsSolution:
    """Split a compact solution's assignment into float blocks and verify its
    feasibility within EXTRACT_TOL.

    The value is the solution's own, whatever program it solved, so an
    exact solve keeps its Fraction.
    """
    k1, k2 = _check_k(k1, k2)
    nx, n1, n2 = w.input_size, w.out1_size, w.out2_size
    shapes = [(nx,), (nx, n1, n2), (nx, n1), (nx, n2)]
    ends = np.cumsum([0, *map(math.prod, shapes)])
    vec = np.asarray(solution.assignment, dtype=float)
    if vec.shape != (ends[-1],):
        raise InvariantViolationError(
            f"assignment length {vec.shape} does not fit channel of shape "
            f"({nx}, {n1}, {n2})")
    p, r, r1, r2 = (vec[a:b].reshape(shape).copy() for a, b, shape in zip(ends, ends[1:], shapes))
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

    return NsSolution(p, r, r1, r2, solution.value)


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


def _lift(x: np.ndarray, nx: int, n1: int, n2: int, n: int) -> np.ndarray:
    """The compact point of the n-th tensor power that gives every variable
    the value x holds for its type, in tensor_power's index order."""
    sizes, blocks, start = {"x": nx, "a": n1, "b": n2}, [], 0
    for _, letters in _BLOCKS:
        shape = [sizes[c] for c in letters]
        size = math.prod(shape)
        types = _types(size, n)
        # Each axis of the power's block counts in base shape[k], position 0
        # most significant; position i of a variable is the base cell of its
        # i-th digits.
        index = np.unravel_index(np.arange(size**n), [s**n for s in shape])
        digits = [[d // s ** (n - 1 - i) % s for d, s in zip(index, shape)] for i in range(n)]
        seqs = np.stack([np.ravel_multi_index(d, shape) for d in digits], axis=-1)
        blocks.append(x[start + _type_index(types, seqs, size)])
        start += len(types)
    return np.concatenate(blocks)


def solve_ns(w: ChannelTable, k1: int, k2: int, objective: str = "joint",
             exact: bool = False, model: LpModel | None = None, n: int = 1) -> NsSolution:
    """Solve the compact program of the n-th tensor power of w over joint
    types, and return the checked solution of the power's compact program.

    model, when given, is that program as build_ns_joint or build_ns_sum
    returned it for these arguments, and is solved instead of a new build.
    Exact mode solves the program with the channel's exact rational
    objective, not the float-rounded one the built model carries, through
    solve_exact: a float solve with a rational certificate, or the Fraction
    simplex when the certificate fails.  At n > 1 the type solution is
    lifted to one variable per sequence of the power, in tensor_power's
    index order, and extract_ns_solution checks it on tensor_power(w, n).
    """
    if objective not in ("joint", "sum"):
        raise ValidationError(f"unknown objective {objective!r}")
    if model is None:
        model = (build_ns_joint if objective == "joint" else build_ns_sum)(w, k1, k2, n)
    if exact:
        model = replace(model, objective=_compact_objective(_to_fraction(w.probs), k1, k2,
                                                            objective, n))
        sol = solve_exact(model, lp_solve)
    else:
        sol = lp_solve(model)
    if n > 1:
        power = tensor_power(w, n)
        x = _lift(np.asarray(sol.assignment, dtype=float), w.input_size, w.out1_size,
                  w.out2_size, n)
        w, sol = power, LpSolution(sol.status, sol.value, x, sol.pivots)
    return extract_ns_solution(w, k1, k2, sol)
