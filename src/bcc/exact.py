"""Exact small-instance solvers by explicit enumeration.

Joint success, sum success and the densest quotient all run through one
kernel, _enumerate_decoders.  It is fed a cell table per input: entry
[s1, s2] is what that input earns in a message cell whose decoders map
exactly the output subsets s1 and s2 to it.  Each is a product with m1 and
m2, the 0/1 matrices _members(|Y1|), _members(|Y2|) whose row s marks the
outputs in subset s: m1 @ W(., .|x) @ m2.T for joint success, the average of
W1 @ m1.T and W2 @ m2.T for sum success, and (m1 @ adj @ m2.T) > 0 for the
densest quotient.  A running maximum over inputs gives the best input per
subset pair.  Renaming the messages of a decoder changes no value, so the
kernel then scores one decoder per set partition of each output alphabet
into at most k parts, its restricted-growth string, with k1*k2 lookups per
pair: sum_{j<=k} S(|Y|, j) decoders per side, S the Stirling numbers of the
second kind (365 * 122 pairs for |Y| = 7, 6 at k = 3, against 3^7 * 3^6).
The reported candidate count and the enumeration cap stay the number of
labelled decoder pairs, k1^|Y1| * k2^|Y2|.  The decoder-box solver
enumerates deterministic encoders instead and solves at most one linear
program per encoder orbit: permuting the rows and columns of the k1 x k2
message grid, and the box's two outputs with them, maps feasible boxes to
feasible boxes of the same value, so only the lexicographically smallest
encoder of each orbit of S_k1 x S_k2 is a candidate.  Each candidate gets a
float upper bound with no LP, and only those whose bound can still reach the
best value found are solved, in order of decreasing bound.  Its count and
cap stay the number of labelled encoders, |X|^(k1 k2).  The programs share
their constraints, so only the first pays for the simplex's phase 1.  It is
the one solver here that needs a linear program: build_decoder_box_lp,
lp_solve and solve_exact are stand-ins that import nsprograms and simplex on
its first call, so importing this module loads neither.

Ties between optimal candidates resolve to the lexicographically smallest
assignment tuple, scanning first-decoder (or left-partition) assignments in
the outer position; ties between inputs resolve to the smallest input.  The
smallest labelling of any partition is its restricted-growth string, so
wherever candidate totals are exact (deterministic channels, densest
quotients) this is the smallest optimum over all labelled pairs.  On float
tables a renamed twin can total one ulp more, because its lookups add in
another order; the value can then differ from the labelled maximum by that
rounding and the witness can be another code within it.  The decoder-box
solver keeps the smallest orbit representative of maximum value, the first
strict maximum over them in lexicographic order, whatever order it solves
them in.  The smallest maximizing encoder is the smallest of its orbit, so
in exact mode this is the smallest optimal encoder overall; in
float mode the witness is the smallest of its orbit and the value can differ
by rounding from a solve of another member.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, permutations, product

import numpy as np

from . import _deferred
from .channels import DEFAULT_ENTRY_CAP, ChannelTable, DeterministicChannel
from .errors import DimensionMismatchError, EnumerationCapExceededError, SizeCapExceededError
from .graphs import DEFAULT_ENUM_CAP, BipartiteGraph, Partition, _check_cap, _check_k

# Tests and tracers replace these names here, where solve_ns_dec looks them up.
build_decoder_box_lp = _deferred("nsprograms", "build_decoder_box_lp")
lp_solve = _deferred("simplex", "lp_solve")
solve_exact = _deferred("simplex", "solve_exact")


@dataclass(frozen=True)
class Code:
    """Deterministic code: encoder cell map plus one decoder per receiver."""

    k1: int
    k2: int
    encoder: tuple[tuple[int, ...], ...]  # encoder[i1][i2] = input symbol
    decoder1: tuple[int, ...]             # decoder1[y1] = decoded first message
    decoder2: tuple[int, ...]


@dataclass
class SolveReport:
    value: float
    witness: object | None
    enumerated: int


def _check_code(w: ChannelTable | DeterministicChannel, code: Code):
    enc = np.asarray(code.encoder, dtype=int)
    if enc.shape != (code.k1, code.k2):
        raise DimensionMismatchError("encoder shape does not match (k1, k2)")
    if enc.size and (enc.min() < 0 or enc.max() >= w.input_size):
        raise DimensionMismatchError("encoder symbol out of range")
    if len(code.decoder1) != w.out1_size or len(code.decoder2) != w.out2_size:
        raise DimensionMismatchError("decoder length does not match output alphabet")
    if any(d < 0 or d >= code.k1 for d in code.decoder1):
        raise DimensionMismatchError("decoder1 message out of range")
    if any(d < 0 or d >= code.k2 for d in code.decoder2):
        raise DimensionMismatchError("decoder2 message out of range")
    return enc


def _onehot(assignment, num_parts):
    out = np.zeros((len(assignment), num_parts))
    out[np.arange(len(assignment)), list(assignment)] = 1.0
    return out


def _decoded(w: DeterministicChannel, enc: np.ndarray, code: Code) -> tuple:
    """Whether receiver 1 decodes i1, and receiver 2 i2, in each message cell."""
    i1, i2 = np.indices((code.k1, code.k2))
    y1, y2 = w.pairs[enc].transpose(2, 0, 1)
    return np.asarray(code.decoder1)[y1] == i1, np.asarray(code.decoder2)[y2] == i2


def joint_success(w: ChannelTable | DeterministicChannel, code: Code) -> float:
    """Probability that both receivers decode a uniform message pair.

    On a deterministic channel this counts the message cells (i1, i2) whose
    input's output pair both decoders map back to (i1, i2), in
    O(|X| + k1 k2); no dense table is built.
    """
    enc = _check_code(w, code)
    if isinstance(w, DeterministicChannel):
        ok1, ok2 = _decoded(w, enc, code)
        return float(np.count_nonzero(ok1 & ok2) / (code.k1 * code.k2))
    d1 = _onehot(code.decoder1, code.k1)
    d2 = _onehot(code.decoder2, code.k2)
    cell = np.einsum("yk,xyz,zl->xkl", d1, w.probs, d2)
    i1, i2 = np.indices((code.k1, code.k2))
    return float(cell[enc, i1, i2].sum() / (code.k1 * code.k2))


def sum_success(w: ChannelTable | DeterministicChannel, code: Code) -> float:
    """Average of the two receivers' individual success probabilities,
    counted on a deterministic channel as joint_success counts."""
    enc = _check_code(w, code)
    if isinstance(w, DeterministicChannel):
        ok1, ok2 = _decoded(w, enc, code)
        hits = np.count_nonzero(ok1) + np.count_nonzero(ok2)
        return float(hits / (2 * code.k1 * code.k2))
    m1 = w.probs.sum(axis=2) @ _onehot(code.decoder1, code.k1)
    m2 = w.probs.sum(axis=1) @ _onehot(code.decoder2, code.k2)
    i1, i2 = np.indices((code.k1, code.k2))
    total = m1[enc, i1].sum() + m2[enc, i2].sum()
    return float(total / (2 * code.k1 * code.k2))


def _members(n: int) -> np.ndarray:
    """(2^n, n) 0/1 matrix: row s marks the items of subset s, bit b for item b."""
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)


def _assignment_rows(num_items: int, num_parts: int) -> np.ndarray:
    """Restricted-growth strings with at most num_parts parts, in lexicographic order.

    One row per set partition of range(num_items) into at most num_parts
    nonempty parts: item 0 has label 0 and each later item at most one more
    than the largest label before it.  Each row is the lexicographically
    smallest labelling of its partition.  Rows grow one position at a time;
    every row spawns its allowed next labels in increasing order, which keeps
    the rows sorted.
    """
    rows = np.zeros((1, num_items), dtype=np.int64)
    top = np.zeros(1, dtype=np.int64)  # largest label so far in each row
    for pos in range(1, num_items):
        fanout = np.minimum(top + 2, num_parts)
        rows = np.repeat(rows, fanout, axis=0)
        top = np.repeat(top, fanout)
        starts = np.cumsum(fanout) - fanout
        label = np.arange(rows.shape[0]) - np.repeat(starts, fanout)
        rows[:, pos] = label
        np.maximum(top, label, out=top)
    return rows


def _part_masks(rows: np.ndarray, num_parts: int) -> np.ndarray:
    bits = 1 << np.arange(rows.shape[1], dtype=np.int64)
    masks = np.empty((rows.shape[0], num_parts), dtype=np.int64)
    for part in range(num_parts):
        masks[:, part] = ((rows == part) * bits).sum(axis=1)
    return masks


def _best_pair(table: np.ndarray, masks1: np.ndarray,
               masks2: np.ndarray) -> tuple[float, int, int]:
    """Maximize sum of table[masks1[a, i1], masks2[b, i2]] over pairs (a, b).

    Scans a-major so the first maximum is the lexicographically smallest
    witness; chunking keeps the value grid within memory.
    """
    n1c, k1 = masks1.shape
    n2c, k2 = masks2.shape
    best_val, best_a, best_b = -np.inf, -1, -1
    chunk = max(1, int(5_000_000 // max(n2c, 1)))
    for a0 in range(0, n1c, chunk):
        m1 = masks1[a0:a0 + chunk]
        grid = np.zeros((m1.shape[0], n2c))
        for i1 in range(k1):
            col = m1[:, i1][:, None]
            for i2 in range(k2):
                grid += table[col, masks2[:, i2][None, :]]
        flat = int(np.argmax(grid))
        val = float(grid.flat[flat])
        if val > best_val:
            best_val = val
            best_a = a0 + flat // n2c
            best_b = flat % n2c
    return best_val, best_a, best_b


def _enumerate_decoders(n1: int, n2: int, k1: int, k2: int, cap: int, cell_tables):
    """Best decoder pair given one cell table per input, as the module docstring defines.

    cell_tables is consumed only after both caps pass, so it should be a
    generator that builds its membership matrices (_members) on its first
    step: then nothing of size 2^|Y| exists before the caps are checked.
    Returns the best total over all decoder pairs, the two decoder assignments
    (restricted-growth strings), the encoder (best input per message cell)
    and the number of labelled candidates, k1^n1 * k2^n2.
    """
    _check_k(k1, k2)
    candidates = _check_cap(EnumerationCapExceededError, cap, (k1, n1), (k2, n2))
    _check_cap(SizeCapExceededError, DEFAULT_ENTRY_CAP, (2, n1 + n2))

    table = np.full((1 << n1, 1 << n2), -np.inf)
    argmax_x = np.zeros((1 << n1, 1 << n2), dtype=np.int64)
    better = np.empty(table.shape, dtype=bool)
    for x, gx in enumerate(cell_tables):
        np.greater(gx, table, out=better)  # strict: the smallest input keeps a tie
        np.copyto(table, gx, where=better)
        np.copyto(argmax_x, x, where=better)

    rows, masks = [], []
    for n, k in ((n1, k1), (n2, k2)):
        rows.append(_assignment_rows(n, k))
        masks.append(_part_masks(rows[-1], k))
    best_val, a, b = _best_pair(table, *masks)

    encoder = tuple(tuple(int(argmax_x[s1, s2]) for s2 in masks[1][b])
                    for s1 in masks[0][a])
    return (best_val, tuple(int(v) for v in rows[0][a]),
            tuple(int(v) for v in rows[1][b]), encoder, candidates)


def _solve_code(w: ChannelTable, k1: int, k2: int, cap: int, cell_tables) -> SolveReport:
    best_val, dec1, dec2, encoder, candidates = _enumerate_decoders(
        w.out1_size, w.out2_size, k1, k2, cap, cell_tables)
    return SolveReport(best_val / (k1 * k2), Code(k1, k2, encoder, dec1, dec2), candidates)


def _joint_cell_tables(w: ChannelTable):
    m1, m2 = _members(w.out1_size), _members(w.out2_size)
    for px in w.probs:
        yield m1 @ px @ m2.T


def solve_joint(w: ChannelTable, k1: int, k2: int, cap: int = DEFAULT_ENUM_CAP) -> SolveReport:
    """Best deterministic code for joint success, by decoder enumeration."""
    return _solve_code(w, k1, k2, cap, _joint_cell_tables(w))


def _sum_cell_tables(w: ChannelTable):
    g1 = w.probs.sum(axis=2) @ _members(w.out1_size).T  # (|X|, 2^|Y1|)
    g2 = w.probs.sum(axis=1) @ _members(w.out2_size).T
    for x in range(w.input_size):
        yield 0.5 * (g1[x][:, None] + g2[x][None, :])


def solve_sum(w: ChannelTable, k1: int, k2: int, cap: int = DEFAULT_ENUM_CAP) -> SolveReport:
    """Best deterministic code for sum success, by decoder enumeration."""
    return _solve_code(w, k1, k2, cap, _sum_cell_tables(w))


def _quotient_cell_table(g: BipartiteGraph):
    adj = np.zeros((g.left_size, g.right_size))
    adj[g.edge_arrays] = 1.0
    yield ((_members(g.left_size) @ adj @ _members(g.right_size).T) > 0).astype(float)


def solve_dqg(g: BipartiteGraph, k1: int, k2: int, cap: int = DEFAULT_ENUM_CAP) -> SolveReport:
    """Densest quotient: maximize quotient edges over all partition pairs."""
    best_val, a1, a2, _, candidates = _enumerate_decoders(
        g.left_size, g.right_size, k1, k2, cap, _quotient_cell_table(g))
    witness = (Partition(g.left_size, k1, a1), Partition(g.right_size, k2, a2))
    return SolveReport(int(round(best_val)), witness, candidates)


def _is_orbit_min(flat: tuple[int, ...], k1: int, k2: int) -> bool:
    """Whether a row-major k1 x k2 encoder is the smallest of its orbit.

    With the columns fixed, the smallest row permutation of a grid sorts its
    rows as tuples; with the rows fixed, the smallest column permutation
    sorts its columns.  So the orbit minimum is the smallest, over the
    permutations of the shorter side, of the grid with the other side sorted:
    min(k1!, k2!) sorts instead of k1! k2! permuted grids.  Unsorted rows
    rule a grid out before any permutation is tried.
    """
    rows = [flat[i * k2:(i + 1) * k2] for i in range(k1)]
    if rows != sorted(rows):
        return False
    if k1 <= k2:
        grids = (zip(*sorted(zip(*s))) for s in permutations(rows))
    else:
        grids = (sorted(zip(*t)) for t in permutations(zip(*rows)))
    return not any(tuple(chain.from_iterable(g)) < flat for g in grids)


def _orbit_representatives(nx: int, k1: int, k2: int) -> np.ndarray:
    """The smallest encoder of each orbit, in lexicographic order.

    One row-major row of k1 k2 inputs per orbit, in the smallest unsigned
    integer type that holds nx - 1, so the array stays small near the
    enumeration cap.
    """
    reps = (flat for flat in product(range(nx), repeat=k1 * k2) if _is_orbit_min(flat, k1, k2))
    return np.fromiter(chain.from_iterable(reps),
                       dtype=np.min_scalar_type(nx - 1)).reshape(-1, k1 * k2)


_BOUND_CHUNK_CELLS = 1 << 20   # channel entries gathered at once by _decoder_box_bounds


def _decoder_box_bounds(probs: np.ndarray, reps: np.ndarray, k1: int, k2: int,
                        objective: str) -> np.ndarray:
    """Upper bound on the decoder-box optimum of each encoder row, with no LP.

    With P = probs[enc], axes (i1, i2, y1, y2): a non-signaling box's j1
    marginal depends on y1 alone, so receiver 1 gains at most
    r1 = sum_y1 max_i1 sum_i2 sum_y2 P, and receiver 2 likewise at most r2;
    a box sums to one over (j1, j2), so the joint gain is also at most the
    signaling sum_{y1, y2} max_{i1, i2} P.  The joint bound is the least of
    the three over k1 k2.  The sum bound (r1 + r2) / (2 k1 k2) is the optimum
    itself, since a product of deterministic marginals attains it.  The
    bounds take probs's type; solve_ns_dec passes floats in both modes.
    """
    kk = k1 * k2
    _, n1, n2 = probs.shape
    out = np.empty(len(reps), dtype=probs.dtype)
    chunk = max(1, _BOUND_CHUNK_CELLS // (kk * n1 * n2))
    for start in range(0, len(reps), chunk):
        sent = probs[reps[start:start + chunk].reshape(-1, k1, k2)]  # (c, i1, i2, y1, y2)
        r1 = sent.sum(axis=(2, 4)).max(axis=1).sum(axis=1)
        r2 = sent.sum(axis=(1, 3)).max(axis=1).sum(axis=1)
        if objective == "sum":
            out[start:start + chunk] = (r1 + r2) / (2 * kk)
        else:
            signaling = sent.max(axis=(1, 2)).sum(axis=(1, 2))
            out[start:start + chunk] = np.minimum(np.minimum(signaling, r1), r2) / kk
    return out


def solve_ns_dec(w: ChannelTable, k1: int, k2: int, objective: str = "joint",
                 cap: int = DEFAULT_ENUM_CAP, exact: bool = False) -> SolveReport:
    """Best deterministic encoder with an optimal shared decoder box.

    For each encoder the box optimum is a linear program; the overall optimum
    over stochastic encoders is attained at a deterministic one because the
    objective is bilinear, so enumerating |X|^(k1 k2) encoders is exhaustive.
    Renaming the messages (permuting the grid's rows and columns, and the
    box's outputs j1 and j2 with them) keeps every box feasible and its value
    unchanged, so encoders in one orbit share their optimum and only the
    lexicographically smallest member of each orbit is a candidate.  The
    reported count and the cap stay |X|^(k1 k2).

    Each candidate first gets an upper bound on its optimum with no LP
    (_decoder_box_bounds), in float in both modes.  The programs are solved
    in order of decreasing bound, ties in lexicographic order, until a bound
    falls below the best value found less simplex.CHECK_TOL, far above a
    float bound's rounding: no unsolved encoder can reach or tie the best
    value, so exact mode solves every optimal encoder.  For the sum
    objective the bound is the optimum, so one program is solved unless
    encoders tie.  For joint, on 60 random channels at k=(2, 2) with 3 or 4
    outputs per receiver, 9 to 14 of the 27 candidates of a 3-input channel
    were solved, and 6 to 47 of the 76 of a 4-input one.

    Ties keep the lexicographically smallest solved candidate of maximum
    value, which is the first strict maximum over all candidates in
    lexicographic order.  In exact mode, where the objective is the exact
    rational one of the channel, that is the smallest optimal encoder
    overall, since the smallest maximizer is the smallest of its orbit.  In
    float mode the witness is the smallest member of its orbit, and the
    value can differ by rounding from a solve of another member.

    The programs differ only in their objective: the box program is built
    once and each encoder swaps in its objective, and lp_solve runs phase 1
    once for all of them (and for a following call with the other objective),
    so a program's value, vertex and pivots do not depend on the order.
    Exact mode converts the channel entries to Fractions once and solves each
    program through solve_exact, a float solve with a rational certificate,
    or the Fraction simplex when the certificate fails.
    """
    from .nsprograms import _decoder_box_objective
    from .simplex import CHECK_TOL, _to_fraction

    _check_k(k1, k2)
    nx = w.input_size
    candidates = _check_cap(EnumerationCapExceededError, cap, (nx, k1 * k2))

    box = build_decoder_box_lp(w, np.zeros((k1, k2), dtype=int), k1, k2, objective)
    reps = _orbit_representatives(nx, k1, k2)
    bounds = _decoder_box_bounds(w.probs, reps, k1, k2, objective)
    probs = _to_fraction(w.probs) if exact else w.probs
    best_val, best_flat = None, None
    for i in np.argsort(-bounds, kind="stable"):
        if best_val is not None and bounds[i] < best_val - CHECK_TOL:
            break
        flat = tuple(reps[i].tolist())
        model = replace(box, objective=_decoder_box_objective(
            probs[reps[i].reshape(k1, k2)], objective))
        sol = solve_exact(model, lp_solve) if exact else lp_solve(model)
        if (best_val is None or sol.value > best_val
                or (sol.value == best_val and flat < best_flat)):
            best_val, best_flat = sol.value, flat
    return SolveReport(best_val, tuple(best_flat[i:i + k2] for i in range(0, k1 * k2, k2)),
                       candidates)


def code_from_partitions(dc: DeterministicChannel, p1: Partition, p2: Partition) -> Code:
    """Turn a partition pair into a code for the underlying channel.

    Decoders output the part index of the received symbol; each message cell
    encodes with the smallest input landing in its part pair, or input 0 when
    the cell is empty (an empty cell cannot succeed under any input).
    """
    if p1.ground_size != dc.out1_size or p2.ground_size != dc.out2_size:
        raise DimensionMismatchError("partitions must cover the output alphabets")
    k1, k2 = p1.num_parts, p2.num_parts
    cell = (np.asarray(p1.assignment, dtype=np.intp)[dc.pairs[:, 0]] * k2
            + np.asarray(p2.assignment, dtype=np.intp)[dc.pairs[:, 1]])
    cells, first = np.unique(cell, return_index=True)   # first = smallest input per cell
    enc = np.zeros(k1 * k2, dtype=np.intp)
    enc[cells] = first
    encoder = tuple(map(tuple, enc.reshape(k1, k2).tolist()))
    return Code(k1, k2, encoder, p1.assignment, p2.assignment)
