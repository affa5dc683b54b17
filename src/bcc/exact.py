"""Exact small-instance solvers by explicit enumeration.

Joint success, sum success and the densest quotient all run through one
kernel, _enumerate_decoders.  Each objective gives it one function of every
input's cell values: entry [x, s1, s2] is what input x earns in a message
cell whose decoders map exactly the output subsets s1 and s2 to it.  They
are products with m1 and m2, the 0/1 matrices _members(|Y1|), _members(|Y2|)
whose row s marks the outputs in subset s: m1 @ W(., .|x) @ m2.T for joint
success, the sum W1 @ m1.T + W2 @ m2.T for sum success, and
(m1 @ adj @ m2.T) > 0 for the densest quotient.  The kernel keeps one table,
the running maximum over inputs, 8 bytes per subset pair: it computes the
values a block of rows at a time, for all inputs at once, and reduces each
block over the inputs; the pair scan then holds about _PAIR_BLOCK_CELLS
gathered rows and as many totals.  Only the k1 k2 cells of the best decoder
pair need their best input; each gets the smallest input whose value equals
the maximum, from a replay of the same function on the block that gave the
cell its value.  Renaming the messages of a decoder changes no value, so
the kernel scores one decoder per set partition of each output alphabet
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
from functools import lru_cache
from itertools import permutations

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
    """An optimum, its witness and the number of labelled candidates it stands for."""

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
    d1 = np.eye(code.k1)[list(code.decoder1)]
    d2 = np.eye(code.k2)[list(code.decoder2)]
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
    m1 = w.probs.sum(axis=2) @ np.eye(code.k1)[list(code.decoder1)]
    m2 = w.probs.sum(axis=1) @ np.eye(code.k2)[list(code.decoder2)]
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


@lru_cache(maxsize=2)
def _decoders(num_items: int, num_parts: int) -> tuple[np.ndarray, np.ndarray]:
    """_assignment_rows and their _part_masks, read-only and built once for
    each of the last two (num_items, num_parts): one solve asks for at most
    two, and a run of joint, sum and the densest quotient for the same two."""
    rows = _assignment_rows(num_items, num_parts)
    masks = _part_masks(rows, num_parts)
    rows.flags.writeable = masks.flags.writeable = False
    return rows, masks


_PAIR_BLOCK_CELLS = 1 << 14  # gathered table rows, and pair totals, held at once by _best_pair


def _best_pair(table: np.ndarray, masks1: np.ndarray,
               masks2: np.ndarray) -> tuple[float, int, int]:
    """Maximize sum of table[masks1[a, i1], masks2[b, i2]] over pairs (a, b).

    Per block of first decoders and part i1, gathers the rows masks1[block, i1]
    once and adds their column takes masks2[:, i2] into the block's totals, i1
    outer and i2 inner from zero; rows and totals each hold about
    _PAIR_BLOCK_CELLS values, or one first decoder's.  Scans a-major, so the
    first maximum is the lexicographically smallest witness.
    """
    n1c, k1 = masks1.shape
    n2c, k2 = masks2.shape
    step = max(1, _PAIR_BLOCK_CELLS // max(table.shape[1], n2c))
    best_val, best_a, best_b = -np.inf, -1, -1
    for a0 in range(0, n1c, step):
        m1 = masks1[a0:a0 + step]
        grid = np.zeros((len(m1), n2c))
        for i1 in range(k1):
            rows = table[m1[:, i1]]
            for i2 in range(k2):
                grid += rows.take(masks2[:, i2], axis=1)
        flat = int(np.argmax(grid))
        val = float(grid.flat[flat])
        if val > best_val:
            best_val = val
            best_a = a0 + flat // n2c
            best_b = flat % n2c
    return best_val, best_a, best_b


_TABLE_BLOCK_CELLS = 1 << 16  # input cell values held at once by _enumerate_decoders


def _block_shape(inputs: int, n1: int, n2: int) -> tuple[int, int]:
    """Rows and inputs of one block of about _TABLE_BLOCK_CELLS cell values,
    and of no more values than the table holds: fresh pages for a larger block
    cost a small table more than its work (0.5 ms cold at 14x7x6, k = 3).

    The rows are a power of two from 2 to 2^n1, so blocks tile the table and
    no product has one row (numpy sends that to a vector-matrix routine,
    whose sums can round otherwise).  Inputs are split only when two rows of
    all of them exceed the budget.
    """
    budget, row_cells = min(_TABLE_BLOCK_CELLS, 1 << (n1 + n2)), 1 << n2
    rows = min(1 << max(1, (budget // (inputs * row_cells)).bit_length() - 1), 1 << n1)
    return rows, max(1, min(inputs, budget // (rows * row_cells)))


def _enumerate_decoders(n1: int, n2: int, k1: int, k2: int, cap: int, inputs: int, cell_values):
    """Best decoder pair given every input's cell values, as the module docstring defines.

    cell_values is called only after both caps pass, so nothing of size
    2^|Y| exists before them.  It returns values(rows, xs), the cell values
    of inputs xs on first-side subsets rows, shape (inputs, rows, 2^n2).  The
    table, the maximum over inputs, is built in blocks (_block_shape):
    besides it the build holds about _TABLE_BLOCK_CELLS values, the pair
    scan (_best_pair) about twice _PAIR_BLOCK_CELLS, and neither an input
    per cell.  The best pair's k1 k2 cells are then computed again by
    values, on the blocks that built them, and each takes the smallest
    input whose value equals its entry.  Returns the best total, the two
    decoder assignments (restricted-growth strings), the encoder and the
    number of labelled candidates, k1^n1 * k2^n2.
    """
    candidates = _check_cap(EnumerationCapExceededError, cap, (k1, n1), (k2, n2))
    _check_cap(SizeCapExceededError, DEFAULT_ENTRY_CAP, (2, n1 + n2))

    values = cell_values()
    rows, width = _block_shape(inputs, n1, n2)
    table = np.empty((1 << n1, 1 << n2))
    for top in range(0, 1 << n1, rows):
        out = table[top:top + rows]
        for x in range(0, inputs, width):
            block = values(slice(top, top + rows), slice(x, x + width))
            if x == 0:
                block.max(axis=0, out=out)
            else:
                np.maximum(out, block.max(axis=0), out=out)

    (assign1, masks1), (assign2, masks2) = _decoders(n1, k1), _decoders(n2, k2)
    best_val, a, b = _best_pair(table, masks1, masks2)

    # Replay each cell from the call that built its block: a product over
    # other rows can round otherwise.
    s1, s2 = masks1[a], masks2[b]
    cells = np.empty((inputs, k1, k2))
    tops = s1 - s1 % rows
    for top in set(tops.tolist()):  # not np.unique, which imports numpy.ma (15-30 ms)
        at = np.flatnonzero(tops == top)
        for x in range(0, inputs, width):
            block = values(slice(top, top + rows), slice(x, x + width))
            cells[x:x + width, at] = block[:, s1[at, None] - top, s2]
    # argmax takes the first True: the smallest input that reaches the maximum
    encoder = (cells == table[s1[:, None], s2]).argmax(axis=0)
    return (best_val, tuple(assign1[a].tolist()), tuple(assign2[b].tolist()),
            tuple(map(tuple, encoder.tolist())), candidates)


def _solve_code(w: ChannelTable, k1: int, k2: int, cap: int, cell_values,
                receivers: int = 1) -> SolveReport:
    """The best code; its value is the best total over receivers k1 k2 cells."""
    k1, k2 = _check_k(k1, k2)
    best_val, dec1, dec2, encoder, candidates = _enumerate_decoders(
        w.out1_size, w.out2_size, k1, k2, cap, w.input_size, cell_values)
    return SolveReport(best_val / (receivers * k1 * k2), Code(k1, k2, encoder, dec1, dec2),
                       candidates)


def _joint_cell_values(w: ChannelTable):
    m1, m2t = _members(w.out1_size), _members(w.out2_size).T

    def values(rows, xs):
        left = m1[rows] @ w.probs[xs]  # (inputs, rows, |Y2|)
        return (left.reshape(-1, w.out2_size) @ m2t).reshape(left.shape[0], -1, m2t.shape[1])

    return values


def solve_joint(w: ChannelTable, k1: int, k2: int, cap: int = DEFAULT_ENUM_CAP) -> SolveReport:
    """Best deterministic code for joint success, by decoder enumeration."""
    return _solve_code(w, k1, k2, cap, lambda: _joint_cell_values(w))


def _sum_cell_values(w: ChannelTable):
    g1 = w.probs.sum(axis=2) @ _members(w.out1_size).T  # (|X|, 2^|Y1|)
    g2 = w.probs.sum(axis=1) @ _members(w.out2_size).T
    return lambda rows, xs: g1[xs, rows, None] + g2[xs, None, :]


def solve_sum(w: ChannelTable, k1: int, k2: int, cap: int = DEFAULT_ENUM_CAP) -> SolveReport:
    """Best deterministic code for sum success, by decoder enumeration."""
    return _solve_code(w, k1, k2, cap, lambda: _sum_cell_values(w), receivers=2)


def _quotient_cell_values(g: BipartiteGraph):
    adj = np.zeros((g.left_size, g.right_size))
    adj[g.edge_arrays] = 1.0
    m1, m2t = _members(g.left_size), _members(g.right_size).T
    # Boolean values, which the table's max(out=...) writes as 0.0 and 1.0.
    return lambda rows, xs: ((m1[rows] @ adj @ m2t) > 0)[None]


def solve_dqg(g: BipartiteGraph, k1: int, k2: int, cap: int = DEFAULT_ENUM_CAP) -> SolveReport:
    """Densest quotient: maximize quotient edges over all partition pairs."""
    k1, k2 = _check_k(k1, k2)
    best_val, a1, a2, _, candidates = _enumerate_decoders(
        g.left_size, g.right_size, k1, k2, cap, 1, lambda: _quotient_cell_values(g))
    witness = (Partition(g.left_size, k1, a1), Partition(g.right_size, k2, a2))
    return SolveReport(int(round(best_val)), witness, candidates)


_BOUND_CHUNK_CELLS = 1 << 20   # channel entries gathered at once by _decoder_box_bounds


def _orbit_representatives(nx: int, k1: int, k2: int) -> np.ndarray:
    """The smallest encoder of each orbit, in lexicographic order.

    One row-major row of k1 k2 inputs per orbit, in the smallest unsigned
    integer type that holds nx - 1, so the array stays small near the
    enumeration cap.  An encoder is handled as its rank in lexicographic
    order, the base-nx number its row-major inputs spell.  With the columns
    fixed, the smallest row permutation of a grid sorts its rows as tuples;
    with the rows fixed, the smallest column permutation sorts its columns.
    So an encoder is the smallest of its orbit when no permutation of the
    shorter side, with the other side then sorted, ranks lower: min(k1!, k2!)
    sorts instead of k1! k2! permuted grids.  Encoders with unsorted rows are
    dropped first, and the ranks go in chunks of _BOUND_CHUNK_CELLS inputs.
    """
    kk = k1 * k2
    place = nx ** np.arange(kk - 1, -1, -1, dtype=np.int64)  # the rank of one unit per input
    row_place = place[k2 - 1::k2]                            # ... per row, read as one number
    grid_place = place.reshape(k1, k2) if k1 <= k2 else place.reshape(k1, k2).T
    line_place = nx ** np.arange(len(grid_place) - 1, -1, -1, dtype=np.int64)[:, None]
    total, step = nx**kk, max(1, _BOUND_CHUNK_CELLS // kk)
    reps = []
    for start in range(0, total, step):
        rank = np.arange(start, min(start + step, total), dtype=np.int64)
        rows = rank[:, None] // row_place % nx**k2
        rank = rank[(rows[:, 1:] >= rows[:, :-1]).all(axis=1)]
        # Axis 1 is the shorter side, permuted; the lines along axis 2 are sorted.
        grid = rank[:, None, None] // grid_place % nx
        for perm in permutations(range(len(grid_place))):
            permuted = grid[:, perm]
            order = np.argsort((permuted * line_place).sum(axis=1), axis=1)
            least = (np.take_along_axis(permuted, order[:, None, :], axis=2)
                     * grid_place).sum(axis=(1, 2))
            keep = least >= rank
            rank, grid = rank[keep], grid[keep]
        reps.append((rank[:, None] // place % nx).astype(np.min_scalar_type(nx - 1)))
    return np.concatenate(reps)


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

    k1, k2 = _check_k(k1, k2)
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
